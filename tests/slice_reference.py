"""The loops that the one set encoding and the r = 1 slices replaced, kept
as the reference: each classical statistic with its own run rule, each
set-to-composition map with its own differences, and the r-partite shape
of a colored zigzag with the direct-sum shift written inline."""

from operator import sub

from coloredsym import (
    ColoredComposition,
    Composition,
    RainbowDecomposition,
    SkewShape,
    StandardTableau,
    zigzag_of,
)


def augmented_set_to_comp(s):
    prev, parts = 0, []
    for e in s.elements:
        parts.append(e - prev)
        prev = e
    return Composition(tuple(parts))


def colored_set_to_colored_comp(cs):
    elements = cs.elements()
    parts = tuple(b - a for a, b in zip((0,) + elements, elements))
    return ColoredComposition(parts, tuple(c for _, c in cs.pairs), cs.r)


def extend_set_color_vector(cs):
    out, prev = [], 0
    for e, c in cs.pairs:
        out.extend([c] * (e - prev))
        prev = e
    return tuple(out)


def colored_descent_composition(w, z):
    """(parts, colors) of the maximal increasing constant-color runs."""
    parts, colors, run = [], [], 1
    for i in range(1, len(w)):
        if z[i - 1] != z[i] or w[i - 1] > w[i]:
            parts.append(run)
            colors.append(z[i - 1])
            run = 1
        else:
            run += 1
    parts.append(run)
    colors.append(z[-1])
    return tuple(parts), tuple(colors)


def descent_composition(p):
    parts, run = [], 1
    w = p.word
    for i in range(1, p.n):
        if w[i - 1] > w[i]:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return Composition(tuple(parts))


def rpartite_descent_composition(pairs):
    """(parts, colors) of the colored descent set ``pairs`` of a filling."""
    ends = [i for i, _ in pairs]
    return tuple(map(sub, ends, [0, *ends])), tuple(c for _, c in pairs)


def tableau_descent_set(q):
    row_of = {x: r for r, row in enumerate(q.rows) for x in row}
    return frozenset(i for i in range(1, q.ncells) if row_of[i + 1] > row_of[i])


def reading_word_inverse(p, a):
    rows_bottom_up = []
    pos = 0
    for part in a.parts:
        rows_bottom_up.append(tuple(p.word[pos : pos + part]))
        pos += part
    return StandardTableau(zigzag_of(a).shape, tuple(rows_bottom_up[::-1]))


def rpartite_shape_of(czz, r):
    outer = [[] for _ in range(r)]  # rows bottom to top
    inner = [[] for _ in range(r)]
    for z, c in zip(czz.zigzags, czz.colors):
        shift = outer[c][-1] if outer[c] else 0
        outer[c].extend(x + shift for x in reversed(z.shape.outer))
        inner[c].extend(x + shift for x in reversed(z.shape.inner))
    return tuple(SkewShape(o[::-1], i[::-1]) for o, i in zip(outer, inner))


def rainbow_decomposition(ce):
    blocks = []
    run = []
    run_color = ce.colors[0]
    for p, c in zip(ce.parts, ce.colors):
        if c != run_color:
            blocks.append((Composition(tuple(run)), run_color))
            run, run_color = [], c
        run.append(p)
    blocks.append((Composition(tuple(run)), run_color))
    return RainbowDecomposition(tuple(blocks))

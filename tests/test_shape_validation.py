"""The shape, tableau and colored-set constructors against reference
validations: on exhaustive grids each input is accepted with the same
stored fields or refused with the same exception type and message.  The
``SkewShape``, ``ZigzagShape`` and ``ColoredSet`` constructors now make
the plain checks of their references.  The sweeps' test of raw
fillings, ``shapes._raw_standard_test``, must accept exactly the fillings
the tableau constructors accept."""

from itertools import chain, combinations, product
from operator import index

import pytest

from coloredsym import (
    AugmentedSubset,
    ColoredSet,
    ColoredZigzagShape,
    Composition,
    RPartiteTableau,
    SkewShape,
    StandardTableau,
    ZigzagShape,
    colored_zigzag_to_comp,
    enumerate_colored_compositions,
    enumerate_compositions,
    enumerate_skew_shapes,
    partitions,
    zigzag_of,
)
from coloredsym.errors import ShapeError
from coloredsym.shapes import _raw_colored_zigzag, _raw_standard_test, _raw_zigzag_test


def reference_skew(outer, inner):
    """Normalized (outer, inner) of ``SkewShape``, validated in the order
    the constructor reports its errors."""
    outer = tuple(map(index, outer))
    inner = tuple(map(index, inner))
    if len(inner) > len(outer):
        if any(x != 0 for x in inner[len(outer) :]):
            raise ShapeError(f"inner exceeds outer: {inner!r} vs {outer!r}")
        inner = inner[: len(outer)]
    inner = inner + (0,) * (len(outer) - len(inner))
    while outer and outer[-1] == inner[-1]:
        outer, inner = outer[:-1], inner[:-1]
    if any(x < 0 for x in outer) or any(x < 0 for x in inner):
        raise ShapeError("row lengths must be nonnegative")
    if any(a < b for a, b in zip(outer, outer[1:])) or any(
        a < b for a, b in zip(inner, inner[1:])
    ):
        raise ShapeError(f"outer and inner must weakly decrease: {outer!r}/{inner!r}")
    if any(i > o for o, i in zip(outer, inner)):
        raise ShapeError(f"inner must fit inside outer: {outer!r}/{inner!r}")
    return outer, inner


def reference_zigzag(shape, source):
    """``ZigzagShape`` validation through the row profile and the cell-set
    predicates of the shape."""
    if shape.row_profile_bottom_to_top() != source.parts:
        raise ShapeError("row profile does not match the source composition")
    if not shape.is_connected() or shape.contains_2x2():
        raise ShapeError("a zigzag diagram must be connected and 2x2-free")


def reference_tableau(shape, rows):
    """Rows of ``StandardTableau`` after validation."""
    rows = tuple(tuple(map(index, row)) for row in rows)
    if len(rows) != shape.nrows or any(
        len(row) != shape.row_length(r) for r, row in enumerate(rows)
    ):
        raise ShapeError("rows do not match the shape")
    entries = [x for row in rows for x in row]
    if len(set(entries)) != len(entries):
        raise ShapeError("entries must be distinct")
    for row in rows:
        if any(a >= b for a, b in zip(row, row[1:])):
            raise ShapeError(f"row not strictly increasing: {row!r}")
    inner = shape.inner
    for r in range(1, len(rows)):
        shared = zip(rows[r - 1], rows[r][inner[r - 1] - inner[r] :])
        for c, (above, x) in enumerate(shared, start=inner[r - 1]):
            if above >= x:
                raise ShapeError(f"column not strictly increasing at {(r, c)}")
    return rows


def reference_colored_set(n, r, pairs):
    """Pairs of ``ColoredSet`` after validation through a throwaway
    ``AugmentedSubset``."""
    pairs = tuple((index(e), index(c)) for e, c in pairs)
    AugmentedSubset(n, tuple(e for e, _ in pairs))
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    if any(not 0 <= c < r for _, c in pairs):
        raise ValueError(f"colors must lie in 0..{r - 1}: {pairs!r}")
    return pairs


def outcome(build, *args):
    """("ok", value) or (exception type name, message)."""
    try:
        return "ok", build(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc).__name__, str(exc)


def kind(result):
    """The outcome without the data its message quotes."""
    status, value = result
    return status if status == "ok" else value.split(":")[0].split(" at ")[0]


def built_zigzag(shape, source):
    ZigzagShape(shape, source)


def built_tableau(shape, rows):
    return StandardTableau(shape, rows).rows


def built_rpartite(shape, rows):
    return RPartiteTableau((StandardTableau(shape, rows),))


@pytest.mark.slow
def test_skew_shape_matches_reference_on_every_small_pair():
    # every outer/inner pair of length <= 4 with entries in -1..4; the loop
    # is inlined, as it runs 1555^2 times
    seqs = [seq for k in range(5) for seq in product(range(-1, 5), repeat=k)]
    assert len(seqs) == 1555
    messages, accepted, mismatches = set(), 0, []
    for outer in seqs:
        for inner in seqs:
            try:
                want = reference_skew(outer, inner)
                accepted += 1
            except ShapeError as exc:
                want = str(exc)
                messages.add(want.split(":")[0])
            try:
                shape = SkewShape(outer, inner)
                got = shape.outer, shape.inner
            except ShapeError as exc:
                got = str(exc)
            if got != want:
                mismatches.append((outer, inner, want, got))
    assert mismatches == []
    assert accepted > 0
    assert messages == {
        "inner exceeds outer",
        "row lengths must be nonnegative",
        "outer and inner must weakly decrease",
        "inner must fit inside outer",
    }


def small_skew_shapes(max_cells):
    """Every lam/mu with |lam| <= max_cells + 3, including empty top and
    middle rows, plus every bottom-left justified shape and ribbon."""
    out = set()
    for m in range(max_cells + 4):
        for lam in partitions(m):
            for mu in product(*(range(part + 1) for part in lam)):
                if all(a >= b for a, b in zip(mu, mu[1:])):
                    shape = SkewShape(lam, mu)
                    if shape.ncells <= max_cells:
                        out.add(shape)
    for m in range(1, max_cells + 1):
        out.update(enumerate_skew_shapes(m))
        out.update(zigzag_of(a).shape for a in enumerate_compositions(m))
    return sorted(out, key=lambda s: (s.outer, s.inner))


def test_zigzag_matches_reference_on_every_small_pair():
    # every (shape, source) pair with at most 6 cells on each side
    shapes = small_skew_shapes(6)
    sources = [a for m in range(1, 7) for a in enumerate_compositions(m)]
    kinds = set()
    for shape in shapes:
        for source in sources:
            want = outcome(reference_zigzag, shape, source)
            assert outcome(built_zigzag, shape, source) == want, (shape, source)
            kinds.add(kind(want))
    assert kinds == {
        "ok",
        "row profile does not match the source composition",
        "a zigzag diagram must be connected and 2x2-free",
    }


def test_standard_tableau_matches_reference_on_small_fillings():
    # every shape with at most 4 cells, filled row by row from every word
    # over 1..4, and the same words split into rows of the wrong lengths
    kinds = set()
    for shape in small_skew_shapes(4):
        lengths = [shape.row_length(r) for r in range(shape.nrows)]
        splits = [lengths, lengths[::-1], lengths[:-1], lengths + [0]]
        standard = _raw_standard_test([(shape.outer, shape.inner)])
        for word in product(range(1, 5), repeat=shape.ncells):
            for split in splits:
                ends = [0, *(sum(split[: k + 1]) for k in range(len(split)))]
                rows = tuple(word[a:b] for a, b in zip(ends, ends[1:]))
                want = outcome(reference_tableau, shape, rows)
                assert outcome(built_tableau, shape, rows) == want, (shape, rows)
                kinds.add(kind(want))
                # the sweeps' raw test accepts what the constructors accept
                accepted = outcome(built_rpartite, shape, rows)[0] == "ok"
                assert standard((rows,)) == accepted, (shape, rows)
    assert kinds == {
        "ok",
        "rows do not match the shape",
        "entries must be distinct",
        "row not strictly increasing",
        "column not strictly increasing",
    }


def test_rpartite_tableau_entries_match_reference():
    # every pair of one-row fillings with entries in 1..4
    rows = [row for k in range(4) for row in combinations(range(1, 5), k)]
    singles = [StandardTableau(SkewShape((len(row),), ()), (row,) if row else ()) for row in rows]
    for q1, q2 in product(singles, repeat=2):
        entries = sorted(chain(*q1.rows, *q2.rows))
        got = outcome(RPartiteTableau, (q1, q2))
        if entries == list(range(1, len(entries) + 1)):
            assert got[0] == "ok", (q1, q2)
        else:
            assert got == ("ShapeError", "entries must be exactly 1..n across components")
        standard = _raw_standard_test([(q.shape.outer, q.shape.inner) for q in (q1, q2)])
        assert standard((q1.rows, q2.rows)) == (got[0] == "ok"), (q1, q2)


def test_colored_set_matches_reference_on_every_small_input():
    # every n in 0..3, r in 0..2 and up to three pairs with elements in
    # 0..3 and colors in -1..1, plus a pair that is not a pair of integers
    letters = list(product(range(4), range(-1, 2)))
    lists = [seq for k in range(4) for seq in product(letters, repeat=k)]
    lists.append((("x", 0),))
    kinds = set()
    for n in range(4):
        for r in range(3):
            for pairs in lists:
                want = outcome(reference_colored_set, n, r, pairs)
                got = outcome(lambda *args: ColoredSet(*args).pairs, n, r, pairs)
                assert got == want, (n, r, pairs)
                kinds.add(kind(want))
    assert kinds == {
        "ok",
        "n must be positive",
        *(f"augmented subset must contain n={n}" for n in range(1, 4)),
        "elements must be strictly increasing in [n]",
        "r must be",  # "r must be at least 1", cut at " at " by kind
        *(f"colors must lie in 0..{r - 1}" for r in range(1, 3)),
        "'str' object cannot be interpreted as an integer",
    }


def reference_zigzag_key(key, ce):
    """Whether the constructors accept the diagram key ``key`` for the
    colored composition ``ce``: each block a ``SkewShape`` stored as given
    and a ``ZigzagShape`` whose source is the next run of ce's parts, the
    blocks a ``ColoredZigzagShape``, which reads back as ce."""
    blocks, block_colors = key
    try:
        zigzags, begin = [], 0
        for outer, inner in blocks:
            shape = SkewShape(outer, inner)
            if (shape.outer, shape.inner) != (outer, inner):
                return False
            end = begin + len(outer)
            zigzags.append(ZigzagShape(shape, Composition(ce.parts[begin:end])))
            begin = end
        czz = ColoredZigzagShape(tuple(zigzags), block_colors)
        return colored_zigzag_to_comp(czz, ce.r) == ce
    except ValueError:  # ShapeError, or a part or color the composition refuses
        return False


def zigzag_rows(parts):
    """(outer, inner) of the zigzag of ``parts``."""
    shape = zigzag_of(Composition(parts)).shape
    return shape.outer, shape.inner


def perturbed_zigzag_keys(key, r):
    """Every one-cell change of the key (a row end or start moved by one, a
    one-cell row added above or below a block, a row dropped), a trailing
    empty row, a short inner, a block shifted by one column, every block
    color moved by one, a color dropped or added at the end, and the color
    runs merged and split: two adjacent blocks as one zigzag in either
    color, and each block cut in two, in its own color and in every
    other."""
    blocks, colors = key

    def put(j, block):
        return blocks[:j] + (block,) + blocks[j + 1 :]

    def moved(seq, k, d):
        return seq[:k] + (seq[k] + d,) + seq[k + 1 :]

    for j, (outer, inner) in enumerate(blocks):
        variants = []
        for k in range(len(outer)):
            for d in (-1, 1):
                variants += [(moved(outer, k, d), inner), (outer, moved(inner, k, d))]
        for c in range(outer[0] - 2, outer[0] + 1):
            variants.append(((c + 1, *outer), (c, *inner)))
        for c in range(inner[-1] - 1, inner[-1] + 2):
            variants.append(((*outer, c + 1), (*inner, c)))
        variants += [
            ((*outer, inner[-1]), (*inner, inner[-1])),
            (outer[1:], inner[1:]),
            (outer[:-1], inner[:-1]),
            (outer, inner[:-1]),
            *(
                (tuple(o + d for o in outer), tuple(i + d for i in inner))
                for d in (-1, 1)
            ),
        ]
        for block in variants:
            yield put(j, block), colors
        parts = tuple(o - i for o, i in zip(outer[::-1], inner[::-1]))
        for cut in range(1, len(parts)):
            halves = (zigzag_rows(parts[:cut]), zigzag_rows(parts[cut:]))
            for c in range(-1, r + 1):
                yield (
                    blocks[:j] + halves + blocks[j + 1 :],
                    colors[: j + 1] + (c,) + colors[j + 1 :],
                )
    for j in range(len(colors)):
        for d in (-1, 1):
            yield blocks, moved(colors, j, d)
    yield blocks, colors[:-1]
    for c in range(r):
        yield blocks, colors + (c,)
    for j in range(len(blocks) - 1):
        rows = [
            tuple(o - i for o, i in zip(outer[::-1], inner[::-1]))
            for outer, inner in blocks[j : j + 2]
        ]
        merged = zigzag_rows(rows[0] + rows[1])
        for c in colors[j : j + 2]:
            yield (
                blocks[:j] + (merged,) + blocks[j + 2 :],
                colors[:j] + (c,) + colors[j + 2 :],
            )
    yield (), ()
    yield blocks + (((), ()),), colors + (r - 1,)


def test_raw_zigzag_test_matches_constructors_on_perturbed_keys():
    # every colored composition with n <= 4, r <= 3: its key is accepted,
    # and each perturbation of it is accepted exactly when the
    # constructors accept it as given and it reads back as the composition
    accepted = rejected = 0
    for n in range(1, 5):
        for r in (1, 2, 3):
            for ce in enumerate_colored_compositions(n, r):
                key = _raw_colored_zigzag(ce.parts, ce.colors)
                assert reference_zigzag_key(key, ce)
                assert _raw_zigzag_test(key, ce.parts, ce.colors)
                for changed in perturbed_zigzag_keys(key, r):
                    want = reference_zigzag_key(changed, ce)
                    got = _raw_zigzag_test(changed, ce.parts, ce.colors)
                    assert got == want, (ce, changed)
                    accepted += want
                    rejected += not want
    # shifted blocks are accepted; everything else is rejected
    assert accepted > 0 and rejected > 10 * accepted


def multi_block_zigzag_test(key, parts, colors) -> bool:
    """``shapes._raw_zigzag_test`` as it was before its per-block checks
    moved to the memoized ``_raw_ribbon_rows``: every block checked in one
    loop, kept as the reference."""
    blocks, block_colors = key
    if len(blocks) != len(block_colors) or any(
        a == b for a, b in zip(block_colors, block_colors[1:])
    ):
        return False
    read_parts: list[int] = []
    read_colors: list[int] = []
    for (outer, inner), c in zip(blocks, block_colors):
        k = len(outer)
        if not k or len(inner) != k or inner[-1] < 0:
            return False
        if tuple(o - i for o, i in zip(outer[1:], inner)) != (1,) * (k - 1):
            return False
        read_parts += (o - i for o, i in zip(outer[::-1], inner[::-1]))
        read_colors += (c,) * k
    return tuple(read_parts) == parts and tuple(read_colors) == colors


def mutated_zigzag_keys(key):
    """Each outer or inner entry moved by one; each color run split into two
    blocks of its color; and each block with the rows above one of its
    rows moved one column left, so that those two rows share two
    columns."""
    blocks, colors = key

    def put(j, *new):
        return blocks[:j] + new + blocks[j + 1 :]

    def moved(seq, k, d):
        return seq[:k] + (seq[k] + d,) + seq[k + 1 :]

    for j, (outer, inner) in enumerate(blocks):
        for k in range(len(outer)):
            for d in (-1, 1):
                yield put(j, (moved(outer, k, d), inner)), colors
                yield put(j, (outer, moved(inner, k, d))), colors
        parts = tuple(o - i for o, i in zip(outer[::-1], inner[::-1]))
        for cut in range(1, len(parts)):
            halves = (zigzag_rows(parts[:cut]), zigzag_rows(parts[cut:]))
            yield put(j, *halves), colors[: j + 1] + colors[j:]
        for k in range(1, len(outer)):
            left = tuple(x - 1 for x in outer[:k]) + outer[k:]
            yield put(j, (left, tuple(x - 1 for x in inner[:k]) + inner[k:])), colors


@pytest.mark.slow
def test_per_block_zigzag_test_matches_the_multi_block_one():
    # every colored composition with n <= 5, r <= 3, under its own key, the
    # keys of the other compositions of its cell and mutated keys: the key
    # checks with the memoized block rows answer as the one-loop body
    for n in range(1, 6):
        for r in (1, 2, 3):
            cell = [(ce.parts, ce.colors) for ce in enumerate_colored_compositions(n, r)]
            keys = [_raw_colored_zigzag(*raw) for raw in cell]
            accepted = 0
            for raw, own in zip(cell, keys):
                for key in chain(keys, mutated_zigzag_keys(own)):
                    want = multi_block_zigzag_test(key, *raw)
                    assert _raw_zigzag_test(key, *raw) == want, (raw, key)
                    accepted += want
            # each composition accepts its own key and no other
            assert accepted == len(cell)

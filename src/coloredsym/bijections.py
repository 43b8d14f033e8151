"""Structural bijections between words, descent classes and tableaux.

* ``reading_word`` / ``reading_word_inverse``: standard fillings of a ribbon
  correspond to the permutations with that run profile, by reading the cells
  from the southwestern corner towards the northeast (rows bottom to top,
  each left to right).  ``reading_word_inverse`` is the r = 1 slice of
  ``colored_class_to_tableau``.
* ``colored_class_to_tableau`` / ``colored_tableau_to_class``: a colored
  descent class corresponds to the standard fillings of the r-partite skew
  shape built from its colored zigzag shape; each increasing constant-color
  run of the window word fills one row.
* ``descent_class`` / ``conj_inverse_descent_class``: a colored descent
  class is listed as the image of those standard fillings, so its cost
  grows with the class, not with the group.  ``descent_class_size`` counts
  a class without listing it; it bounds the classes that are listed, and
  the ``class-tableau`` suite checks every class it lists against it.
* ``colored_rsk`` / ``colored_rsk_inverse``: the wreath-product insertion
  correspondence.  Position i inserts its value into the component of color
  z_i of P by classical row bumping while Q records i in the matching new
  cell; the recording tableau keeps the color vector of the word and the
  insertion tableau keeps the color vector of its conjugate-inverse.

The row reading, the class/tableau map and the insertion correspondence
each have a raw form, ``_raw_*``, on (word, colors) pairs and on fillings
given as one tuple of row tuples per component; the public functions wrap
them and build validated objects.  The CLI's point queries (``rsk``,
``tableau-of``, ``descent-class``) serialize the raw results through the
writers that the objects' ``text`` and ``to_json`` use, so they build
objects only for their parsed input.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, groupby
from math import comb, factorial
from operator import itemgetter

from .compositions import ColoredComposition, Composition, _check_nonempty
from .errors import DimensionMismatchError, ResourceLimitError, ShapeError
from .permutations import (
    ColoredPermutation,
    Permutation,
    _raw_colored_descent_composition,
    _raw_conj_inverse,
    descent_composition,
)
from .shapes import (
    RPartiteTableau,
    SkewShape,
    StandardTableau,
    _raw_colored_composition_shape,
    _raw_fillings,
    colored_composition_shape,
)

#: Largest descent class that ``descent_class`` lists.
MAX_CLASS_SIZE = factorial(8)


def reading_word(q: StandardTableau) -> Permutation:
    """Word of a ribbon filling, rows bottom to top, each left to right."""
    if not q.shape.is_connected() or q.shape.contains_2x2():
        raise ShapeError("reading words are defined for zigzag shapes only")
    if q.entries() != tuple(range(1, q.ncells + 1)):
        raise ShapeError("reading words need entries exactly 1..n")
    return Permutation(tuple(chain.from_iterable(reversed(q.rows))))


def reading_word_inverse(p: Permutation, a: Composition) -> StandardTableau:
    """The unique ribbon filling of the zigzag of ``a`` whose reading word
    is ``p``; requires the run profile of ``p`` to equal ``a``.  The r = 1
    slice of ``colored_class_to_tableau``."""
    if descent_composition(p) != a:
        raise ShapeError(
            f"descent composition of {p.word!r} is not {a.parts!r}"
        )
    return colored_class_to_tableau(ColoredPermutation(p, (0,) * p.n, 1)).components[0]


def colored_class_to_tableau(a: ColoredPermutation) -> RPartiteTableau:
    """Map a colored permutation to the standard filling of the r-partite
    skew shape attached to its colored descent composition.

    Each part of the colored descent composition is one increasing
    constant-color run of the window word and fills one row; the runs of
    one color stack bottom to top in window order."""
    _check_nonempty(a.n)
    (parts, colors), filling = _raw_class_to_tableau(a.word, a.colors, a.r)
    shapes = colored_composition_shape(ColoredComposition(parts, colors, a.r))
    return RPartiteTableau(
        tuple(StandardTableau(shape, rows) for shape, rows in zip(shapes, filling))
    )


def _raw_class_to_tableau(word, colors, r: int):
    """``colored_class_to_tableau`` on a raw (word, colors) pair: the
    (parts, colors) of its colored descent composition, which fixes the
    shape, and the filling as one tuple of row tuples per component."""
    parts, part_colors = _raw_colored_descent_composition(word, colors)
    rows_bottom_up: list[list[tuple[int, ...]]] = [[] for _ in range(r)]
    pos = 0
    for part, color in zip(parts, part_colors):
        rows_bottom_up[color].append(word[pos : pos + part])
        pos += part
    return (parts, part_colors), tuple(tuple(reversed(rows)) for rows in rows_bottom_up)


def colored_tableau_to_class(
    bq: RPartiteTableau, ce: ColoredComposition
) -> ColoredPermutation:
    """Inverse of ``colored_class_to_tableau`` on the descent class of ``ce``.

    The parts of ``ce`` read the rows back: each takes the lowest unread
    row of the component of its color."""
    if bq.r != ce.r:
        raise DimensionMismatchError(f"tableau has r={bq.r}, composition r={ce.r}")
    if bq.shape() != colored_composition_shape(ce):
        raise ShapeError("tableau shape does not match the colored composition")
    word, colors = _raw_read_rows(
        tuple(q.rows for q in bq.components), ce.parts, ce.colors
    )
    return ColoredPermutation(Permutation(word), colors, ce.r)


def _raw_read_rows(filling, parts, colors) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (word, colors) of a filling of the shape of the colored
    composition (parts, colors), given as one tuple of row tuples per
    component and read part by part."""
    unread = [list(rows) for rows in filling]
    word: list[int] = []
    word_colors: list[int] = []
    for part, color in zip(parts, colors):
        word.extend(unread[color].pop())
        word_colors.extend([color] * part)
    return tuple(word), tuple(word_colors)


def _ribbon_filling_count(parts: tuple[int, ...]) -> int:
    """Standard fillings of the zigzag of ``parts``: the permutations of
    [m] whose descents are exactly the proper partial sums.  ``ends[k]``
    counts the prefixes of length i whose last entry is the k-th smallest;
    an ascent extends the ones ending lower, a descent the ones ending
    higher."""
    descents = set(accumulate(parts[:-1]))
    ends = [1]
    for i in range(1, sum(parts)):
        below = [0, *accumulate(ends)]
        ends = [below[-1] - x for x in below] if i in descents else below
    return sum(ends)


def descent_class_size(ce: ColoredComposition) -> int:
    """Number of colored permutations with colored descent composition
    ``ce``: the standard fillings of its r-partite shape, whose rainbow
    blocks are disjoint zigzags, so a multinomial coefficient of the block
    sizes times the fillings of each block."""
    size, placed = 1, 0
    for _, run in groupby(zip(ce.parts, ce.colors), key=itemgetter(1)):
        parts = tuple(map(itemgetter(0), run))
        placed += sum(parts)
        size *= comb(placed, sum(parts)) * _ribbon_filling_count(parts)
    return size


def descent_class(ce: ColoredComposition) -> list[ColoredPermutation]:
    """All colored permutations whose colored descent composition is ``ce``,
    sorted by (word, colors): the words read from the standard fillings of
    the r-partite shape of ``ce`` (see ``colored_tableau_to_class``)."""
    return _sorted_members(_raw_descent_class(ce), ce.r)


def conj_inverse_descent_class(ce: ColoredComposition) -> list[ColoredPermutation]:
    """All ``a`` with ``co(conj_inverse(a)) == ce``; since conjugate-inverse
    is an involution this is the image of ``descent_class(ce)`` under it."""
    return _sorted_members(
        (_raw_conj_inverse(*member) for member in _raw_descent_class(ce)), ce.r
    )


def _raw_descent_class(ce: ColoredComposition):
    """The (word, colors) of each member of the descent class of ``ce``,
    once its size is checked against ``MAX_CLASS_SIZE``."""
    size = descent_class_size(ce)
    if size > MAX_CLASS_SIZE:
        raise ResourceLimitError(
            f"the descent class has {size} members for n={ce.n}, r={ce.r}, "
            f"over the bound {MAX_CLASS_SIZE}"
        )
    bounds = _raw_colored_composition_shape(ce.parts, ce.colors, ce.r)
    return [_raw_read_rows(filling, ce.parts, ce.colors) for filling in _raw_fillings(bounds)]


def _sorted_members(members, r: int) -> list[ColoredPermutation]:
    """Colored permutations of the raw (word, colors) pairs, sorted."""
    return [ColoredPermutation(Permutation(word), colors, r) for word, colors in sorted(members)]


def _row_insert(rows: list[list[int]], x: int) -> tuple[int, int]:
    """Classical Schensted bumping on distinct entries; returns the new cell."""
    for r, row in enumerate(rows):
        j = bisect_right(row, x)
        if j == len(row):
            row.append(x)
            return r, j
        x, row[j] = row[j], x
    rows.append([x])
    return len(rows) - 1, 0


def colored_rsk(
    a: ColoredPermutation,
) -> tuple[RPartiteTableau, RPartiteTableau]:
    """Insertion correspondence; returns (P, Q) of equal r-partite shape."""

    def build(filling) -> RPartiteTableau:
        return RPartiteTableau(
            tuple(
                StandardTableau(SkewShape(tuple(map(len, rows)), ()), rows)
                for rows in filling
            )
        )

    p, q = _raw_rsk(a.word, a.colors, a.r)
    return build(p), build(q)


def _raw_rsk(word, colors, r: int):
    """``colored_rsk`` on a raw (word, colors) pair: P and Q, each as one
    tuple of row tuples per component."""
    p_rows: list[list[list[int]]] = [[] for _ in range(r)]
    q_rows: list[list[list[int]]] = [[] for _ in range(r)]
    for i, (v, c) in enumerate(zip(word, colors), start=1):
        row, _ = _row_insert(p_rows[c], v)
        if row == len(q_rows[c]):
            q_rows[c].append([])
        q_rows[c][row].append(i)
    return (
        tuple(tuple(map(tuple, rows)) for rows in p_rows),
        tuple(tuple(map(tuple, rows)) for rows in q_rows),
    )


def colored_rsk_inverse(
    p: RPartiteTableau, q: RPartiteTableau
) -> ColoredPermutation:
    """Inverse of ``colored_rsk``; requires equal shapes."""
    if p.shape() != q.shape():
        raise ShapeError("insertion and recording tableaux must share a shape")
    word, colors = _raw_rsk_inverse(
        tuple(comp.rows for comp in p.components),
        tuple(comp.rows for comp in q.components),
    )
    return ColoredPermutation(Permutation(word), colors, p.r)


def _raw_rsk_inverse(p, q) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``colored_rsk_inverse`` on P and Q of equal shape, each given as one
    tuple of row tuples per component."""
    work = [[list(row) for row in rows] for rows in p]
    place: dict[int, tuple[int, int, int]] = {}
    for c, rows in enumerate(q):
        for rr, row in enumerate(rows):
            for k, x in enumerate(row):
                place[x] = (c, rr, k)
    n = len(place)
    word = [0] * n
    colors = [0] * n
    for i in range(n, 0, -1):
        c, rr, k = place[i]
        rows = work[c]
        if k != len(rows[rr]) - 1:
            raise ShapeError(f"recording entry {i} is not at a removable cell")
        x = rows[rr].pop()
        if not rows[rr]:
            del rows[rr]
        for up in range(rr - 1, -1, -1):
            j = bisect_left(rows[up], x) - 1
            x, rows[up][j] = rows[up][j], x
        word[i - 1] = x
        colors[i - 1] = c
    return tuple(word), tuple(colors)

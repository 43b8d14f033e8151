"""Partitions, skew shapes, zigzag diagrams, r-partite shapes and tableaux.

Coordinate convention (used everywhere, including reading words and the
insertion correspondence): English notation, rows indexed from the top
starting at 0, columns from the left starting at 0.  "Lower row" always means
strictly larger row index.  Row r of ``SkewShape(outer, inner)`` occupies
columns ``inner[r] .. outer[r]-1``.

Zigzag diagrams (ribbons) are identified by their bottom-to-top row profile
and constructed in bottom-left justified position; skew shapes are normalized
by stripping trailing empty rows so equality is structural.

The classical ``tableau_descent_set`` is the r = 1 slice of the r-partite
descent set.  ``rpartite_shape_of`` folds each color's zigzags with
``direct_sum``; ``colored_composition_shape`` builds it in one pass.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product
from math import factorial
from operator import eq, ge, gt, index, lt, ne, sub

from ._value import FrozenValue, set_field
from .compositions import (
    ColoredComposition,
    ColoredSet,
    Composition,
    RainbowDecomposition,
    _check_nonempty,
    _raw_set_to_comp,
    enumerate_compositions,
)
from .errors import ShapeError

#: Weakly decreasing positive parts, e.g. ``(3, 2, 1)``; ``()`` is empty.
Partition = tuple[int, ...]

#: r-tuple of partitions with a given total size.
RPartitePartition = tuple[Partition, ...]

#: Bound of the per-block zigzag memos: at least the 2^n - 1 = 127 blocks
#: (compositions of 1..n) of ``zigzag-count`` at its default n <= 7, so a
#: default run never evicts; 511 holds every block up to n = 9.
BLOCK_MEMO_SIZE = 511


def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(p >= 1 for p in parts) and all(
        a >= b for a, b in zip(parts, parts[1:])
    )


def partitions(m: int):
    """All partitions of m, largest-first lexicographic; ``partitions(0) == [()]``."""
    if m < 0:
        raise ValueError("m must be nonnegative")

    def rec(remaining: int, max_part: int, prefix: list[int]):
        if remaining == 0:
            yield tuple(prefix)
            return
        for p in range(min(max_part, remaining), 0, -1):
            prefix.append(p)
            yield from rec(remaining - p, p, prefix)
            prefix.pop()

    yield from rec(m, m, [])


def hook_length_count(shape: Partition) -> int:
    """Number of standard fillings of a straight shape, by hook lengths."""
    shape = tuple(shape)
    if not is_partition(shape):
        raise ShapeError(f"not a partition: {shape!r}")
    n = sum(shape)
    cols = [0] * (shape[0] if shape else 0)
    for row in shape:
        for c in range(row):
            cols[c] += 1
    denom = 1
    for r, row in enumerate(shape):
        for c in range(row):
            denom *= (row - c) + (cols[c] - r) - 1
    return factorial(n) // denom


class SkewShape(FrozenValue):
    """Pair of partitions outer/inner with inner contained in outer.

    ``inner`` is stored padded with zeros to the length of ``outer``;
    trailing empty rows (outer_i == inner_i at the bottom) are stripped.
    """

    def __init__(self, outer: tuple[int, ...], inner: tuple[int, ...]):
        set_field(self, "outer", tuple(map(index, outer)))
        set_field(self, "inner", tuple(map(index, inner)))
        self.__post_init__()

    def __post_init__(self):
        outer, inner = self.outer, self.inner
        if any(inner[len(outer) :]):
            raise ShapeError(f"inner exceeds outer: {inner!r} vs {outer!r}")
        inner = inner[: len(outer)] + (0,) * (len(outer) - len(inner))
        while outer and outer[-1] == inner[-1]:
            outer, inner = outer[:-1], inner[:-1]
        if min(outer + inner, default=0) < 0:
            raise ShapeError("row lengths must be nonnegative")
        if any(map(lt, outer, outer[1:])) or any(map(lt, inner, inner[1:])):
            raise ShapeError(f"outer and inner must weakly decrease: {outer!r}/{inner!r}")
        if any(map(gt, inner, outer)):
            raise ShapeError(f"inner must fit inside outer: {outer!r}/{inner!r}")
        set_field(self, "outer", outer)
        set_field(self, "inner", inner)

    @property
    def ncells(self) -> int:
        return sum(self.outer) - sum(self.inner)

    @property
    def nrows(self) -> int:
        return len(self.outer)

    def row_length(self, r: int) -> int:
        return self.outer[r] - self.inner[r]

    def cells(self) -> list[tuple[int, int]]:
        return [
            (r, c)
            for r in range(self.nrows)
            for c in range(self.inner[r], self.outer[r])
        ]

    def row_profile_bottom_to_top(self) -> tuple[int, ...]:
        return tuple(map(sub, self.outer[::-1], self.inner[::-1]))

    def _overlaps(self) -> list[int]:
        """Columns shared by each row and the row below it."""
        return [o - i for o, i in zip(self.outer[1:], self.inner)]

    def contains_2x2(self) -> bool:
        return any(k >= 2 for k in self._overlaps())

    def is_connected(self) -> bool:
        """Every row from the first nonempty one down shares a column with
        the row below it (trailing empty rows are stripped already)."""
        first = next(
            (r for r in range(self.nrows) if self.row_length(r)), self.nrows
        )
        return all(k >= 1 for k in self._overlaps()[first:])

    def to_json(self) -> dict:
        return _raw_shape_json(self.outer, self.inner)


def _raw_shape_json(outer, inner) -> dict:
    """``SkewShape.to_json`` of the row bounds (outer, inner) in the form
    ``SkewShape`` stores: inner loses its trailing zeros."""
    inner = list(inner)
    while inner and inner[-1] == 0:
        inner.pop()
    return {"outer": list(outer), "inner": inner}


EMPTY_SHAPE = SkewShape((), ())


def straight_shape(parts: Partition) -> SkewShape:
    if not is_partition(parts):
        raise ShapeError(f"not a partition: {parts!r}")
    return SkewShape(tuple(parts), ())


def as_skew(shape) -> SkewShape:
    if isinstance(shape, SkewShape):
        return shape
    return straight_shape(tuple(shape))


class ZigzagShape(FrozenValue):
    """Connected skew shape with no 2x2 square, together with the
    composition giving its bottom-to-top row profile."""

    def __init__(self, shape: SkewShape, source: Composition):
        set_field(self, "shape", shape)
        set_field(self, "source", source)
        self.__post_init__()

    def __post_init__(self):
        if self.shape.row_profile_bottom_to_top() != self.source.parts:
            raise ShapeError("row profile does not match the source composition")
        # every row is nonempty now, so connected and 2x2-free means that
        # each row shares exactly one column with the row below it
        if _raw_ribbon_rows((self.shape.outer, self.shape.inner)) is None:
            raise ShapeError("a zigzag diagram must be connected and 2x2-free")

    @property
    def ncells(self) -> int:
        return self.shape.ncells


def zigzag_of(a: Composition) -> ZigzagShape:
    """The unique ribbon whose bottom-to-top row lengths are the parts of a.

    Consecutive rows overlap in exactly one column: each row starts at the
    column where the row below ends.
    """
    return ZigzagShape(SkewShape(*_raw_zigzag(a.parts)), a)


@lru_cache(maxsize=BLOCK_MEMO_SIZE)
def _raw_zigzag(parts: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(outer, inner) of ``zigzag_of``, top row first, built bottom to top
    from column 0.  Memoized: the blocks of colored compositions repeat
    across cases."""
    outer: list[int] = []
    inner: list[int] = []
    start = 0
    for p in parts:
        inner.append(start)
        outer.append(start + p)
        start += p - 1
    return tuple(outer[::-1]), tuple(inner[::-1])


class ColoredZigzagShape(FrozenValue):
    """Sequence of zigzag diagrams with colors, adjacent colors distinct."""

    def __init__(self, zigzags: tuple[ZigzagShape, ...], colors: tuple[int, ...]):
        set_field(self, "zigzags", tuple(zigzags))
        set_field(self, "colors", tuple(map(index, colors)))
        self.__post_init__()

    def __post_init__(self):
        if len(self.zigzags) != len(self.colors) or not self.zigzags:
            raise ShapeError("need one color per zigzag")
        if any(a == b for a, b in zip(self.colors, self.colors[1:])):
            raise ShapeError("adjacent zigzag colors must differ")

    @property
    def ncells(self) -> int:
        return sum(z.ncells for z in self.zigzags)

    def diagram_key(self):
        """Hashable value identifying the shape by its diagrams and colors."""
        return (
            tuple((z.shape.outer, z.shape.inner) for z in self.zigzags),
            self.colors,
        )


def colored_zigzag_of(ce: ColoredComposition) -> ColoredZigzagShape:
    """One zigzag per rainbow block (maximal run of one color), colored by
    the block color."""
    blocks, block_colors = _raw_colored_zigzag(ce.parts, ce.colors)
    zigzags: list[ZigzagShape] = []
    begin = 0
    for outer, inner in blocks:
        end = begin + len(outer)
        source = Composition(ce.parts[begin:end])
        zigzags.append(ZigzagShape(SkewShape(outer, inner), source))
        begin = end
    return ColoredZigzagShape(tuple(zigzags), block_colors)


def _raw_colored_zigzag(parts, colors):
    """The ``diagram_key()`` of ``colored_zigzag_of`` of the colored
    composition (parts, colors): the (outer, inner) of the zigzag of each
    rainbow block, and the block colors."""
    blocks = []
    block_colors = []
    begin, m = 0, len(parts)
    for end in range(1, m + 1):
        if end == m or colors[end] != colors[begin]:
            blocks.append(_raw_zigzag(parts[begin:end]))
            block_colors.append(colors[begin])
            begin = end
    return tuple(blocks), tuple(block_colors)


def _raw_zigzag_test(key, parts, colors) -> bool:
    """Whether ``key``, a diagram key (one (outer, inner) per block, and
    the block colors), is one that ``ColoredZigzagShape`` of ``ZigzagShape``
    of ``SkewShape`` blocks accepts and stores as given, and whose left
    inverse is the colored composition (parts, colors): each block's rows
    read bottom to top, with the block's color.

    The key is checked here for one color per block and adjacent colors
    distinct; each block is checked on its own by ``_raw_ribbon_rows``,
    which is memoized, as blocks repeat across keys.  As the colors read
    back are those of a colored composition, they lie in 0..r-1."""
    blocks, block_colors = key
    if len(blocks) != len(block_colors) or any(map(eq, block_colors, block_colors[1:])):
        return False
    read_parts: list[int] = []
    read_colors: list[int] = []
    for block, c in zip(blocks, block_colors):
        rows = _raw_ribbon_rows(block)
        if rows is None:
            return False
        read_parts += rows
        read_colors += (c,) * len(rows)
    return tuple(read_parts) == parts and tuple(read_colors) == colors


@lru_cache(maxsize=BLOCK_MEMO_SIZE)
def _raw_ribbon_rows(block) -> tuple[int, ...] | None:
    """The row lengths, bottom to top, of the block (outer, inner) of a
    diagram key, or None when it is no ribbon block.

    In a ribbon block each row above another starts one column left of the
    end of the row below (the two share exactly one column), and the
    bottom row starts at a column >= 0.  Once ``_raw_zigzag_test`` has
    read the rows back as parts of a colored composition, every row is
    nonempty, so no row is a trailing empty one, and outer and inner
    weakly decrease with inner inside outer: the constructors accept the
    block as given."""
    outer, inner = block
    k = len(outer)
    if not k or len(inner) != k or inner[-1] < 0:
        return None
    if tuple(map(sub, outer[1:], inner)) != (1,) * (k - 1):
        return None
    return tuple(map(sub, outer[::-1], inner[::-1]))


def colored_zigzag_to_comp(czz: ColoredZigzagShape, r: int) -> ColoredComposition:
    """Inverse of ``colored_zigzag_of``."""
    blocks = tuple((z.source, c) for z, c in zip(czz.zigzags, czz.colors))
    return RainbowDecomposition(blocks).colored_composition(r)


def direct_sum(a: SkewShape, b: SkewShape) -> SkewShape:
    """Glue b's lower-left vertex to a's upper-right vertex (b sits above
    and to the right of a)."""
    if a.ncells == 0:
        return b
    if b.ncells == 0:
        return a
    shift = a.outer[0]
    outer = tuple(x + shift for x in b.outer) + a.outer
    inner = tuple(x + shift for x in b.inner) + a.inner
    return SkewShape(outer, inner)


def rpartite_shape_of(czz: ColoredZigzagShape, r: int) -> tuple[SkewShape, ...]:
    """Component j is the direct sum, in index order, of the color-j zigzags,
    folded with ``direct_sum`` from the empty shape."""
    if any(not 0 <= c < r for c in czz.colors):
        raise ShapeError("zigzag color out of range")
    components = [EMPTY_SHAPE] * r
    for z, c in zip(czz.zigzags, czz.colors):
        components[c] = direct_sum(components[c], z.shape)
    return tuple(components)


def colored_composition_shape(ce: ColoredComposition) -> tuple[SkewShape, ...]:
    """``rpartite_shape_of(colored_zigzag_of(ce), ce.r)`` in one pass over
    the parts, with no zigzag built (see ``_raw_colored_composition_shape``)."""
    return tuple(
        SkewShape(outer, inner)
        for outer, inner in _raw_colored_composition_shape(ce.parts, ce.colors, ce.r)
    )


def _raw_colored_composition_shape(parts, colors, r: int):
    """The (outer, inner) row bounds of each component of
    ``colored_composition_shape`` of the colored composition (parts,
    colors) with r colors, in the form ``SkewShape`` stores.

    Each component grows bottom to top, one row per part of its color.  A
    part in the same color run as the part before it starts one column left
    of the end of the row below (the ribbon); a part that starts a run
    starts at the end of its component's top row (the direct sum)."""
    outer: list[list[int]] = [[] for _ in range(r)]  # rows bottom to top
    inner: list[list[int]] = [[] for _ in range(r)]
    previous = None
    for p, c in zip(parts, colors):
        rows = outer[c]
        if c == previous:
            start = rows[-1] - 1
        elif rows:
            start = rows[-1]
        else:
            start = 0
        inner[c].append(start)
        rows.append(start + p)
        previous = c
    return tuple((tuple(o[::-1]), tuple(i[::-1])) for o, i in zip(outer, inner))


class StandardTableau(FrozenValue):
    """Filling of a skew shape by distinct positive integers, strictly
    increasing along rows and down columns."""

    def __init__(self, shape: SkewShape, rows: tuple[tuple[int, ...], ...]):
        set_field(self, "shape", shape)
        set_field(self, "rows", tuple(tuple(map(index, row)) for row in rows))
        self.__post_init__()

    def __post_init__(self):
        rows = self.rows
        outer, inner = self.shape.outer, self.shape.inner
        if len(rows) != len(outer) or any(
            map(ne, map(len, rows), map(sub, outer, inner))
        ):
            raise ShapeError("rows do not match the shape")
        entries = list(chain.from_iterable(rows))
        if len(set(entries)) != len(entries):
            raise ShapeError("entries must be distinct")
        for row in rows:
            if any(map(ge, row, row[1:])):
                raise ShapeError(f"row not strictly increasing: {row!r}")
        for r in range(1, len(rows)):
            # row r starts at or left of row r-1; compare shared columns only
            below = rows[r][inner[r - 1] - inner[r] :]
            if any(map(ge, rows[r - 1], below)):
                c = inner[r - 1] + list(map(ge, rows[r - 1], below)).index(True)
                raise ShapeError(f"column not strictly increasing at {(r, c)}")

    @property
    def ncells(self) -> int:
        return self.shape.ncells

    def entries(self) -> tuple[int, ...]:
        return tuple(sorted(x for row in self.rows for x in row))

    def to_json(self) -> list:
        return _raw_rows_json(self.rows)


def _raw_rows_json(rows) -> list:
    """``StandardTableau.to_json`` of rows given as tuples."""
    return [list(row) for row in rows]


def _raw_filling_json(filling) -> list:
    """``RPartiteTableau.to_json`` of a filling given as one tuple of row
    tuples per component."""
    return [_raw_rows_json(rows) for rows in filling]


def _raw_standard_test(bounds):
    """The test the sweeps apply to raw fillings on the shapes whose
    (outer, inner) row bounds are ``bounds``: whether a filling, given as
    one tuple of row tuples per component, is one that ``RPartiteTableau``
    of ``StandardTableau`` components accepts.  The row lengths must match
    the shapes, the entries must be exactly 1..n, and every pair of cells
    adjacent along a row or down a column must increase; those pairs are
    listed once, as positions in the flat reading of the rows."""
    nrows = tuple(len(outer) for outer, _ in bounds)
    lengths, left, right = [], [], []
    for outer, inner in bounds:
        above = None
        for o, i in zip(outer, inner):
            start = sum(lengths)
            left += range(start, start + o - i - 1)
            right += range(start + 1, start + o - i)
            if above is not None:
                a_start, a_inner, a_outer = above
                for c in range(max(i, a_inner), min(o, a_outer)):
                    left.append(a_start + c - a_inner)
                    right.append(start + c - i)
            above = (start, i, o)
            lengths.append(o - i)
    lengths = tuple(lengths)
    entries = list(range(1, sum(lengths) + 1))

    def test(filling) -> bool:
        if tuple(map(len, filling)) != nrows:
            return False
        rows = tuple(chain.from_iterable(filling))
        if tuple(map(len, rows)) != lengths:
            return False
        flat = tuple(chain.from_iterable(rows))
        return sorted(flat) == entries and all(
            map(lt, map(flat.__getitem__, left), map(flat.__getitem__, right))
        )

    return test


def tableau_descent_set(q: StandardTableau) -> frozenset[int]:
    """Entries i such that i+1 sits in a strictly lower row than i: the
    r = 1 slice of ``rpartite_descent_set``, without n."""
    n = q.ncells
    if q.entries() != tuple(range(1, n + 1)):
        raise ShapeError("descents need entries exactly 1..n")
    return frozenset(i for i, _ in _raw_rpartite_descent_set((q.rows,))[:-1])


class RPartiteTableau(FrozenValue):
    """r-tuple of standard fillings whose entries partition [n].

    The component index is the color; entry i has color j when it lies in
    component j.
    """

    def __init__(self, components: tuple[StandardTableau, ...]):
        set_field(self, "components", tuple(components))
        self.__post_init__()

    def __post_init__(self):
        entries = sorted(
            chain.from_iterable(chain.from_iterable(q.rows for q in self.components))
        )
        if entries != list(range(1, len(entries) + 1)):
            raise ShapeError("entries must be exactly 1..n across components")

    @property
    def r(self) -> int:
        return len(self.components)

    @property
    def n(self) -> int:
        return sum(q.ncells for q in self.components)

    def shape(self) -> tuple[SkewShape, ...]:
        return tuple(q.shape for q in self.components)

    def to_json(self) -> list:
        return _raw_filling_json(q.rows for q in self.components)


def rpartite_color_vector(bq: RPartiteTableau) -> tuple[int, ...]:
    """Position i gets the index of the component containing entry i."""
    colors = [0] * bq.n
    for j, q in enumerate(bq.components):
        for x in q.entries():
            colors[x - 1] = j
    return tuple(colors)


def rpartite_descent_set(bq: RPartiteTableau) -> ColoredSet:
    """Entries i whose successor changes component, or descends within the
    same component; n is always included with its component's color."""
    _check_nonempty(bq.n)
    return ColoredSet(
        bq.n, bq.r, _raw_rpartite_descent_set(tuple(q.rows for q in bq.components))
    )


def _raw_rpartite_descent_set(filling) -> tuple[tuple[int, int], ...]:
    """The pairs of ``rpartite_descent_set`` of a filling given as one tuple
    of row tuples per component."""
    n = sum(map(len, chain.from_iterable(filling)))
    color = [0] * n
    row_of = [0] * n
    for j, rows in enumerate(filling):
        for k, row in enumerate(rows):
            for x in row:
                color[x - 1] = j
                row_of[x - 1] = k
    return tuple(
        (i, color[i - 1])
        for i in range(1, n + 1)
        if i == n or color[i - 1] != color[i] or row_of[i] > row_of[i - 1]
    )


def _raw_rpartite_descent_composition(filling) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(parts, colors) of ``rpartite_descent_composition`` of a filling given
    as one tuple of row tuples per component: its descent set, encoded."""
    return _raw_set_to_comp(_raw_rpartite_descent_set(filling))


def rpartite_descent_composition(bq: RPartiteTableau) -> ColoredComposition:
    _check_nonempty(bq.n)
    parts, colors = _raw_rpartite_descent_composition(
        tuple(q.rows for q in bq.components)
    )
    return ColoredComposition(parts, colors, bq.r)


def enumerate_rpartite_syt(shapes):
    """All standard fillings of an r-tuple of (possibly skew) shapes, lazily.

    Entries 1..n are placed in increasing order, each at an addable cell of
    some component, so only standard fillings are ever generated.  The
    caller decides how many to consume.
    """
    shapes = tuple(as_skew(s) for s in shapes)
    for filling in _raw_fillings(tuple((s.outer, s.inner) for s in shapes)):
        yield RPartiteTableau(
            tuple(StandardTableau(s, rows) for s, rows in zip(shapes, filling))
        )


def _raw_fillings(bounds):
    """The fillings of ``enumerate_rpartite_syt`` of the shapes whose
    (outer, inner) row bounds are ``bounds``, in its order, each as one
    tuple of row tuples per component, top row first."""
    # one entry per row of every component, components in order: its first
    # column, its length, and the flat index, first and end column of the
    # row above (0, 0 for a top row, so no column lies under it)
    spec: list[tuple[int, int, int, int, int]] = []
    blocks: list[tuple[int, int]] = []
    for outer, inner in bounds:
        top = len(spec)
        above = (top, 0, 0)
        for g, (o, i) in enumerate(zip(outer, inner), start=top):
            spec.append((i, o - i, *above))
            above = (g, i, o)
        blocks.append((top, len(spec)))
    n = sum(length for _, length, _, _, _ in spec)
    rows: list[list[int]] = [[] for _ in spec]

    def addable():
        out = []
        for g, (first, length, above, a_first, a_end) in enumerate(spec):
            filled = len(rows[g])
            if filled == length:
                continue
            col = first + filled
            if a_first <= col < a_end and col - a_first >= len(rows[above]):
                continue  # the cell above exists but is still empty
            out.append(g)
        return iter(out)

    def filling():
        return tuple(tuple(map(tuple, rows[lo:hi])) for lo, hi in blocks)

    if n == 0:
        yield filling()
        return
    # depth-first with an explicit stack, so the depth n is not bounded by
    # the recursion limit: stack[i - 1] holds the rows left to try for
    # entry i, and placed[i - 1] the row entry i sits in now
    stack = [addable()]
    placed: list[int] = []
    while stack:
        if len(placed) == len(stack):
            rows[placed.pop()].pop()
        g = next(stack[-1], None)
        if g is None:
            stack.pop()
            continue
        rows[g].append(len(stack))
        placed.append(g)
        if len(stack) == n:
            yield filling()
        else:
            stack.append(addable())


def enumerate_syt(shape):
    """All standard Young tableaux of one (possibly skew) shape, lazily."""
    for bq in enumerate_rpartite_syt((as_skew(shape),)):
        yield bq.components[0]


def enumerate_rpartite_partitions(n: int, r: int):
    """All r-tuples of partitions with total size n, ordered by the size
    vector and then componentwise."""
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    for sizes in product(range(n + 1), repeat=r):
        if sum(sizes) != n:
            continue
        for combo in product(*(list(partitions(s)) for s in sizes)):
            yield tuple(combo)


def enumerate_skew_shapes(ncells: int):
    """All skew diagrams with the given cell count, bottom-left justified and
    with no empty rows or columns (one representative per translation class)."""
    if ncells < 1:
        raise ValueError("ncells must be positive")
    out: list[SkewShape] = []

    def offsets(clens: list[int], i: int, chosen: list[int]):
        # chosen holds 0-indexed start columns, bottom row first
        if i < 0:
            k = len(clens)
            starts = chosen[::-1]  # top row first
            outer = tuple(starts[r] + clens[r] for r in range(k))
            inner = tuple(starts[r] for r in range(k))
            out.append(SkewShape(outer, inner))
            return
        below = chosen[-1]
        below_len = clens[i + 1]
        lo = max(below, below + below_len - clens[i])
        hi = below + below_len
        for o in range(lo, hi + 1):
            chosen.append(o)
            offsets(clens, i - 1, chosen)
            chosen.pop()

    for comp in enumerate_compositions(ncells):
        clens = list(comp.parts)  # row lengths top-down
        k = len(clens)
        if k == 1:
            out.append(SkewShape((clens[0],), ()))
            continue
        offsets(clens, k - 2, [0])
    return out

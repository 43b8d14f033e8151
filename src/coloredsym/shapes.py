"""Partitions, skew shapes, zigzag diagrams, r-partite shapes and tableaux.

Coordinate convention (used everywhere, including reading words and the
insertion correspondence): English notation, rows indexed from the top
starting at 0, columns from the left starting at 0.  "Lower row" always means
strictly larger row index.  Row r of ``SkewShape(outer, inner)`` occupies
columns ``inner[r] .. outer[r]-1``.

Zigzag diagrams (ribbons) are identified by their bottom-to-top row profile
and constructed in bottom-left justified position; skew shapes are normalized
by stripping trailing empty rows so equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import factorial

from .compositions import (
    ColoredComposition,
    ColoredSet,
    Composition,
    colored_set_to_colored_comp,
    enumerate_compositions,
    rainbow_decomposition,
)
from .errors import ResourceLimitError, ShapeError

#: Weakly decreasing positive parts, e.g. ``(3, 2, 1)``; ``()`` is empty.
Partition = tuple[int, ...]

#: r-tuple of partitions with a given total size.
RPartitePartition = tuple[Partition, ...]

#: Default cell bound for tableau enumerations.
DEFAULT_MAX_CELLS = 12


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


@dataclass(frozen=True)
class SkewShape:
    """Pair of partitions outer/inner with inner contained in outer.

    ``inner`` is stored padded with zeros to the length of ``outer``;
    trailing empty rows (outer_i == inner_i at the bottom) are stripped.
    """

    outer: tuple[int, ...]
    inner: tuple[int, ...]

    def __post_init__(self):
        outer = tuple(int(x) for x in self.outer)
        inner = tuple(int(x) for x in self.inner)
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
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

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
        return tuple(self.row_length(r) for r in reversed(range(self.nrows)))

    def is_straight(self) -> bool:
        return all(x == 0 for x in self.inner)

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
        inner = list(self.inner)
        while inner and inner[-1] == 0:
            inner.pop()
        return {"outer": list(self.outer), "inner": inner}


EMPTY_SHAPE = SkewShape((), ())


def straight_shape(parts: Partition) -> SkewShape:
    if not is_partition(parts):
        raise ShapeError(f"not a partition: {parts!r}")
    return SkewShape(tuple(parts), ())


def as_skew(shape) -> SkewShape:
    if isinstance(shape, SkewShape):
        return shape
    return straight_shape(tuple(shape))


@dataclass(frozen=True)
class ZigzagShape:
    """Connected skew shape with no 2x2 square, together with the
    composition giving its bottom-to-top row profile."""

    shape: SkewShape
    source: Composition

    def __post_init__(self):
        if self.shape.row_profile_bottom_to_top() != self.source.parts:
            raise ShapeError("row profile does not match the source composition")
        if not self.shape.is_connected() or self.shape.contains_2x2():
            raise ShapeError("a zigzag diagram must be connected and 2x2-free")

    @property
    def ncells(self) -> int:
        return self.shape.ncells


def zigzag_of(a: Composition) -> ZigzagShape:
    """The unique ribbon whose bottom-to-top row lengths are the parts of a.

    Consecutive rows overlap in exactly one column: each row starts at the
    column where the row below ends.
    """
    starts = [0]
    for p in a.parts[:-1]:
        starts.append(starts[-1] + p - 1)
    rows = list(zip(starts, a.parts))[::-1]  # top row first
    outer = tuple(s + p for s, p in rows)
    inner = tuple(s for s, _ in rows)
    return ZigzagShape(SkewShape(outer, inner), a)


@dataclass(frozen=True)
class ColoredZigzagShape:
    """Sequence of zigzag diagrams with colors, adjacent colors distinct."""

    zigzags: tuple[ZigzagShape, ...]
    colors: tuple[int, ...]

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
    """One zigzag per rainbow block, colored by the block color."""
    blocks = rainbow_decomposition(ce).blocks
    return ColoredZigzagShape(
        tuple(zigzag_of(comp) for comp, _ in blocks),
        tuple(color for _, color in blocks),
    )


def colored_zigzag_to_comp(czz: ColoredZigzagShape, r: int) -> ColoredComposition:
    """Inverse of ``colored_zigzag_of``."""
    parts: list[int] = []
    colors: list[int] = []
    for z, c in zip(czz.zigzags, czz.colors):
        parts.extend(z.source.parts)
        colors.extend([c] * len(z.source.parts))
    return ColoredComposition(tuple(parts), tuple(colors), r)


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
    """Component j is the direct sum, in index order, of the color-j zigzags."""
    if any(c >= r for c in czz.colors):
        raise ShapeError("zigzag color out of range")
    out = []
    for j in range(r):
        shapes = [z.shape for z, c in zip(czz.zigzags, czz.colors) if c == j]
        out.append(reduce(direct_sum, shapes, EMPTY_SHAPE))
    return tuple(out)


@dataclass(frozen=True)
class StandardTableau:
    """Filling of a skew shape by distinct positive integers, strictly
    increasing along rows and down columns."""

    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.shape.nrows or any(
            len(row) != self.shape.row_length(r) for r, row in enumerate(rows)
        ):
            raise ShapeError("rows do not match the shape")
        entries = [x for row in rows for x in row]
        if len(set(entries)) != len(entries):
            raise ShapeError("entries must be distinct")
        for row in rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ShapeError(f"row not strictly increasing: {row!r}")
        inner = self.shape.inner
        for r in range(1, len(rows)):
            # row r starts at or left of row r-1; compare shared columns only
            shared = zip(rows[r - 1], rows[r][inner[r - 1] - inner[r] :])
            for c, (above, x) in enumerate(shared, start=inner[r - 1]):
                if above >= x:
                    raise ShapeError(f"column not strictly increasing at {(r, c)}")

    @property
    def ncells(self) -> int:
        return self.shape.ncells

    def entries(self) -> tuple[int, ...]:
        return tuple(sorted(x for row in self.rows for x in row))

    def positions(self) -> dict[int, tuple[int, int]]:
        """Entry -> (row, column) in diagram coordinates."""
        out = {}
        for r, row in enumerate(self.rows):
            for k, x in enumerate(row):
                out[x] = (r, self.shape.inner[r] + k)
        return out

    def to_json(self) -> list:
        return [list(row) for row in self.rows]


def tableau_descent_set(q: StandardTableau) -> frozenset[int]:
    """Entries i such that i+1 sits in a strictly lower row than i."""
    n = q.ncells
    if q.entries() != tuple(range(1, n + 1)):
        raise ShapeError("descents need entries exactly 1..n")
    row_of = {x: r for r, row in enumerate(q.rows) for x in row}
    return frozenset(i for i in range(1, n) if row_of[i + 1] > row_of[i])


def tableau_descent_composition(q: StandardTableau) -> Composition:
    n = q.ncells
    des = sorted(tableau_descent_set(q))
    prev, parts = 0, []
    for d in des + [n]:
        parts.append(d - prev)
        prev = d
    return Composition(tuple(parts))


@dataclass(frozen=True)
class RPartiteTableau:
    """r-tuple of standard fillings whose entries partition [n].

    The component index is the color; entry i has color j when it lies in
    component j.
    """

    components: tuple[StandardTableau, ...]

    def __post_init__(self):
        entries = sorted(x for q in self.components for x in q.entries())
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

    def straight_shape(self) -> RPartitePartition:
        if any(not q.shape.is_straight() for q in self.components):
            raise ShapeError("components are not straight shapes")
        return tuple(q.shape.outer for q in self.components)

    def to_json(self) -> list:
        return [q.to_json() for q in self.components]


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
    n = bq.n
    colors = rpartite_color_vector(bq)
    row_of = {}
    for q in bq.components:
        for r, row in enumerate(q.rows):
            for x in row:
                row_of[x] = r
    pairs = [
        (i, colors[i - 1])
        for i in range(1, n)
        if colors[i - 1] != colors[i] or row_of[i + 1] > row_of[i]
    ]
    pairs.append((n, colors[n - 1]))
    return ColoredSet(n, bq.r, tuple(pairs))


def rpartite_descent_composition(bq: RPartiteTableau) -> ColoredComposition:
    return colored_set_to_colored_comp(rpartite_descent_set(bq))


def _addable_rows(shape: SkewShape, filled: list[int]) -> list[int]:
    """Rows whose next free cell has its left and upper neighbours settled."""
    out = []
    for r in range(shape.nrows):
        if filled[r] >= shape.row_length(r):
            continue
        col = shape.inner[r] + filled[r]
        if r > 0 and shape.inner[r - 1] <= col < shape.outer[r - 1]:
            if col - shape.inner[r - 1] >= filled[r - 1]:
                continue  # cell above exists but is still empty
        out.append(r)
    return out


def enumerate_rpartite_syt(shapes, max_cells: int = DEFAULT_MAX_CELLS):
    """All standard fillings of an r-tuple of (possibly skew) shapes.

    Entries 1..n are placed in increasing order, each at an addable cell of
    some component, so only standard fillings are ever generated.
    """
    shapes = tuple(as_skew(s) for s in shapes)
    n = sum(s.ncells for s in shapes)
    if n > max_cells:
        raise ResourceLimitError(f"{n} cells exceed the bound {max_cells}")
    filled = [[0] * s.nrows for s in shapes]
    rows: list[list[list[int]]] = [[[] for _ in range(s.nrows)] for s in shapes]

    def rec(i: int):
        if i > n:
            yield RPartiteTableau(
                tuple(
                    StandardTableau(s, tuple(tuple(row) for row in rows[k]))
                    for k, s in enumerate(shapes)
                )
            )
            return
        for k, s in enumerate(shapes):
            for r in _addable_rows(s, filled[k]):
                rows[k][r].append(i)
                filled[k][r] += 1
                yield from rec(i + 1)
                filled[k][r] -= 1
                rows[k][r].pop()

    yield from rec(1)


def enumerate_syt(shape, max_cells: int = DEFAULT_MAX_CELLS):
    """All standard Young tableaux of one (possibly skew) shape."""
    for bq in enumerate_rpartite_syt((as_skew(shape),), max_cells=max_cells):
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

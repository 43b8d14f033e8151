"""Diagrams, tableaux and their descent statistics."""

import re
import sys
from itertools import product
from math import factorial

import pytest

from coloredsym import (
    ColoredComposition,
    ColoredZigzagShape,
    Composition,
    SkewShape,
    StandardTableau,
    RPartiteTableau,
    ZigzagShape,
    colored_composition_shape,
    colored_zigzag_of,
    colored_zigzag_to_comp,
    direct_sum,
    enumerate_colored_compositions,
    enumerate_compositions,
    enumerate_rpartite_partitions,
    enumerate_rpartite_syt,
    enumerate_skew_shapes,
    enumerate_syt,
    extend_set_color_vector,
    hook_length_count,
    partitions,
    rpartite_color_vector,
    rpartite_descent_composition,
    rpartite_descent_set,
    rpartite_shape_of,
    tableau_descent_set,
    zigzag_of,
)
from coloredsym.errors import ShapeError
from coloredsym.shapes import (
    EMPTY_SHAPE,
    _raw_colored_zigzag,
    _raw_fillings,
    as_skew,
    straight_shape,
)

RUNNING = ColoredComposition((2, 2, 1, 1, 3, 1), (0, 1, 1, 3, 1, 2), 4)


def reference_colored_zigzag(ce):
    """The object route ``colored_zigzag_of`` took before it wrapped its raw
    core: one validated ``ZigzagShape`` per rainbow block, each placed row by
    row from column 0, bottom to top."""
    zigzags, block_colors = [], []
    begin, m = 0, len(ce.parts)
    for end in range(1, m + 1):
        if end == m or ce.colors[end] != ce.colors[begin]:
            a = Composition(ce.parts[begin:end])
            outer, inner, start = [], [], 0
            for p in a.parts:
                inner.append(start)
                outer.append(start + p)
                start += p - 1
            zigzags.append(ZigzagShape(SkewShape(outer[::-1], inner[::-1]), a))
            block_colors.append(ce.colors[begin])
            begin = end
    return ColoredZigzagShape(tuple(zigzags), tuple(block_colors))


def build_rpartite(rows_per_component):
    comps = []
    for rows in rows_per_component:
        shape = SkewShape(tuple(len(row) for row in rows), ())
        comps.append(StandardTableau(shape, tuple(tuple(row) for row in rows)))
    return RPartiteTableau(tuple(comps))


class TestPartitions:
    def test_counts(self):
        want = [1, 1, 2, 3, 5, 7, 11, 15, 22]
        assert [len(list(partitions(m))) for m in range(9)] == want

    def test_hook_lengths(self):
        assert hook_length_count((2, 2)) == 2
        assert hook_length_count((3, 2, 1)) == 16
        assert hook_length_count((4, 3, 2, 1)) == 768
        assert hook_length_count((5,)) == 1
        assert hook_length_count(()) == 1


class TestSkewShape:
    def test_normalization(self):
        s = SkewShape((3, 2, 1), (1,))
        assert s.inner == (1, 0, 0)
        # trailing empty row is stripped
        assert SkewShape((3, 1), (1, 1)) == SkewShape((3,), (1,))

    def test_invalid(self):
        with pytest.raises(ShapeError):
            SkewShape((1, 2), ())
        with pytest.raises(ShapeError):
            SkewShape((2,), (3,))

    def test_cells_and_profile(self):
        s = SkewShape((3, 2), (1,))
        assert s.ncells == 4
        assert s.cells() == [(0, 1), (0, 2), (1, 0), (1, 1)]
        assert s.row_profile_bottom_to_top() == (2, 2)


def contained_partitions(lam):
    """Every partition whose diagram fits in that of lam, zero-padded."""
    for mu in product(*(range(part + 1) for part in lam)):
        if all(a >= b for a, b in zip(mu, mu[1:])):
            yield mu


def cell_set_contains_2x2(shape):
    cells = set(shape.cells())
    return any(
        (r, c + 1) in cells and (r + 1, c) in cells and (r + 1, c + 1) in cells
        for r, c in cells
    )


def cell_set_is_connected(shape):
    cells = set(shape.cells())
    if not cells:
        return True
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        r, c = stack.pop()
        if (r, c) in seen:
            continue
        seen.add((r, c))
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if nb in cells and nb not in seen:
                stack.append(nb)
    return len(seen) == len(cells)


class TestRowOverlapChecks:
    def test_match_cell_set_reference(self):
        # every outer/inner pair with |outer| <= 9; an inner row as long as
        # its outer row leaves an empty row at the top or in the middle
        shapes = [
            SkewShape(lam, mu)
            for m in range(10)
            for lam in partitions(m)
            for mu in contained_partitions(lam)
        ]
        assert len(shapes) == 1592
        assert any(s.nrows and s.row_length(0) == 0 for s in shapes)
        assert any(
            s.row_length(r) == 0 for s in shapes for r in range(1, s.nrows - 1)
        )
        for s in shapes:
            assert s.contains_2x2() == cell_set_contains_2x2(s), s
            assert s.is_connected() == cell_set_is_connected(s), s


class TestStandardTableau:
    def test_column_violation_on_skew_shape(self):
        shape = SkewShape((3, 3), (1,))
        StandardTableau(shape, ((1, 2), (3, 4, 5)))
        # the first violation in reading order is reported
        for rows, cell in (
            (((4, 5), (1, 2, 3)), (1, 1)),
            (((1, 5), (2, 3, 4)), (1, 2)),
        ):
            message = f"column not strictly increasing at {cell}"
            with pytest.raises(ShapeError, match=re.escape(message)):
                StandardTableau(shape, rows)

    def test_cells_outside_the_row_above_are_unchecked(self):
        StandardTableau(SkewShape((4, 2), (1,)), ((2, 3, 4), (1, 5)))
        StandardTableau(SkewShape((3, 1, 1), (1, 1)), ((2, 3), (), (1,)))


class TestZigzag:
    def test_rejects_square_and_disconnected(self):
        for shape, parts in (
            (SkewShape((2, 2), ()), (2, 2)),
            (SkewShape((3, 1), (2,)), (1, 1)),
        ):
            with pytest.raises(ShapeError, match="connected and 2x2-free"):
                ZigzagShape(shape, Composition(parts))

    def test_displayed_example(self):
        z = zigzag_of(Composition((2, 1, 2, 3, 1)))
        assert z.shape.outer == (5, 5, 3, 2, 2)
        assert z.shape.inner == (4, 2, 1, 1, 0)

    def test_row_and_column(self):
        assert zigzag_of(Composition((4,))).shape == SkewShape((4,), ())
        assert zigzag_of(Composition((1, 1, 1))).shape == SkewShape((1, 1, 1), ())

    def test_injective_over_compositions(self):
        for n in range(1, 9):
            shapes = {zigzag_of(a).shape for a in enumerate_compositions(n)}
            assert len(shapes) == 2 ** (n - 1)

    def test_shape_is_ribbon(self):
        for n in range(1, 7):
            for a in enumerate_compositions(n):
                z = zigzag_of(a)
                assert z.shape.is_connected()
                assert not z.shape.contains_2x2()
                assert z.shape.row_profile_bottom_to_top() == a.parts


class TestDirectSum:
    def test_basic(self):
        got = direct_sum(straight_shape((2,)), straight_shape((1,)))
        assert got == SkewShape((3, 2), (2,))

    def test_identity(self):
        s = SkewShape((2, 2), (1,))
        assert direct_sum(s, EMPTY_SHAPE) == s
        assert direct_sum(EMPTY_SHAPE, s) == s

    def test_displayed_component(self):
        got = direct_sum(zigzag_of(Composition((2, 1))).shape, straight_shape((3,)))
        assert got == SkewShape((5, 2, 2), (2, 1))

    def test_associative_and_additive(self):
        shapes = [straight_shape((2, 1)), SkewShape((2, 2), (1,)), straight_shape((3,))]
        a, b, c = shapes
        assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))
        assert direct_sum(a, b).ncells == a.ncells + b.ncells


class TestColoredZigzag:
    def test_running_example(self):
        czz = colored_zigzag_of(RUNNING)
        assert [z.source.parts for z in czz.zigzags] == [(2,), (2, 1), (1,), (3,), (1,)]
        assert czz.colors == (0, 1, 3, 1, 2)
        assert colored_zigzag_to_comp(czz, 4) == RUNNING

    def test_monochromatic(self):
        czz = colored_zigzag_of(ColoredComposition((4,), (2,), 3))
        assert len(czz.zigzags) == 1 and czz.colors == (2,)

    def test_round_trip_exhaustive(self):
        for n in range(1, 5):
            for r in (1, 2, 3):
                for ce in enumerate_colored_compositions(n, r):
                    assert colored_zigzag_to_comp(colored_zigzag_of(ce), r) == ce

    @pytest.mark.parametrize("n", range(1, 7))
    def test_raw_key_matches_object_route(self, n):
        for r in (1, 2, 3):
            for ce in enumerate_colored_compositions(n, r):
                want = reference_colored_zigzag(ce)
                assert _raw_colored_zigzag(ce.parts, ce.colors) == want.diagram_key(), ce
                assert colored_zigzag_of(ce) == want, ce

    def test_count_small(self):
        keys = {
            colored_zigzag_of(ce).diagram_key()
            for ce in enumerate_colored_compositions(2, 2)
        }
        assert len(keys) == 6

    def test_rpartite_shape_of_running_example(self):
        shapes = rpartite_shape_of(colored_zigzag_of(RUNNING), 4)
        assert colored_composition_shape(RUNNING) == shapes
        assert shapes == (
            straight_shape((2,)),
            SkewShape((5, 2, 2), (2, 1)),
            straight_shape((1,)),
            straight_shape((1,)),
        )

    def test_monochromatic_components(self):
        shapes = rpartite_shape_of(
            colored_zigzag_of(ColoredComposition((3,), (1,), 3)), 3
        )
        assert shapes[0] == EMPTY_SHAPE and shapes[2] == EMPTY_SHAPE
        assert shapes[1] == straight_shape((3,))

    def test_distinct_shapes_can_merge(self):
        # different colored zigzag shapes can produce equal r-partite shapes
        seen = {}
        collision = False
        for n in range(2, 5):
            for ce in enumerate_colored_compositions(n, 2):
                czz = colored_zigzag_of(ce)
                shape = rpartite_shape_of(czz, 2)
                key = czz.diagram_key()
                if shape in seen and seen[shape] != key:
                    collision = True
                seen[shape] = key
        assert collision


class TestColoredCompositionShape:
    @pytest.mark.parametrize(
        "n,r", [(n, r) for n in range(1, 7) for r in (1, 2, 3)] + [(7, 1), (8, 1)]
    )
    def test_equals_the_direct_sum_of_the_colored_zigzags(self, n, r):
        for ce in enumerate_colored_compositions(n, r):
            want = rpartite_shape_of(colored_zigzag_of(ce), r)
            assert colored_composition_shape(ce) == want, ce


class TestSytEnumeration:
    def test_straight_counts(self):
        assert len(list(enumerate_syt(straight_shape((2, 2))))) == 2
        assert len(list(enumerate_syt(straight_shape((5,))))) == 1

    def test_ribbon_count(self):
        z = zigzag_of(Composition((2, 2)))
        assert len(list(enumerate_syt(z.shape))) == 5

    def test_hook_length_oracle(self):
        for m in range(1, 9):
            for lam in partitions(m):
                got = len(list(enumerate_syt(straight_shape(lam))))
                assert got == hook_length_count(lam)

    def test_rpartite_two_singletons(self):
        fills = list(enumerate_rpartite_syt(((1,), (1,))))
        assert len(fills) == 2

    def test_rpartite_counted_example(self):
        bll = ((2,), (3, 2, 1), (1,), (1,))
        want = (
            factorial(10)
            // (factorial(2) * factorial(6) * factorial(1) * factorial(1))
            * hook_length_count((2,))
            * hook_length_count((3, 2, 1))
        )
        assert want == 40320
        got = sum(1 for _ in enumerate_rpartite_syt(bll))
        assert got == want

    def test_single_row_single_filling(self):
        fills = list(enumerate_rpartite_syt(((), (4,), ())))
        assert len(fills) == 1
        assert fills[0].components[1].rows == ((1, 2, 3, 4),)

    def test_no_cell_bound(self):
        # a lazy generator bounds nothing; its caller decides how much to take
        assert sum(1 for _ in enumerate_rpartite_syt(((13,),))) == 1

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        n = 3 * sys.getrecursionlimit()
        (bq,) = enumerate_rpartite_syt(((), (n,), ()))
        assert bq.components[1].rows == (tuple(range(1, n + 1)),)

    def test_raw_fillings_match_object_path_and_reference(self):
        for shapes in cross_check_shapes():
            raw = list(_raw_fillings(tuple((s.outer, s.inner) for s in shapes)))
            assert raw == [
                tuple(q.rows for q in bq.components)
                for bq in enumerate_rpartite_syt(shapes)
            ], shapes
            assert raw == list(reference_fillings(shapes)), shapes


def cross_check_shapes():
    """Every straight r-partite shape and every colored-composition shape
    with n <= 5, r <= 3, and every skew shape of at most 6 cells."""
    for n in range(1, 6):
        for r in (1, 2, 3):
            for bll in enumerate_rpartite_partitions(n, r):
                yield tuple(map(as_skew, bll))
            for ce in enumerate_colored_compositions(n, r):
                yield colored_composition_shape(ce)
    for m in range(1, 7):
        for shape in enumerate_skew_shapes(m):
            yield (shape,)


def reference_fillings(shapes):
    """The filling search that the raw generator replaced, kept as the
    reference: entry x goes, in component then row order, into each row
    whose next cell has its left and upper neighbours filled."""
    n = sum(s.ncells for s in shapes)
    rows = [[[] for _ in range(s.nrows)] for s in shapes]

    def addable(k, s, r):
        filled = len(rows[k][r])
        if filled >= s.row_length(r):
            return False
        col = s.inner[r] + filled
        return not (
            r > 0
            and s.inner[r - 1] <= col < s.outer[r - 1]
            and col - s.inner[r - 1] >= len(rows[k][r - 1])
        )

    def place(x):
        if x > n:
            yield tuple(tuple(map(tuple, comp)) for comp in rows)
            return
        for k, s in enumerate(shapes):
            for r in range(s.nrows):
                if addable(k, s, r):
                    rows[k][r].append(x)
                    yield from place(x + 1)
                    rows[k][r].pop()

    yield from place(1)


class TestTableauDescents:
    def test_classical_examples(self):
        q = StandardTableau(straight_shape((2, 2)), ((1, 2), (3, 4)))
        assert tableau_descent_set(q) == {2}
        row = StandardTableau(straight_shape((4,)), ((1, 2, 3, 4),))
        assert tableau_descent_set(row) == frozenset()
        col = StandardTableau(straight_shape((1, 1, 1)), ((1,), (2,), (3,)))
        assert tableau_descent_set(col) == {1, 2}

    def test_rpartite_example(self):
        bq = build_rpartite([[[1, 9]], [[3, 5, 6], [4, 10], [7]], [[2]], [[8]]])
        assert rpartite_color_vector(bq) == (0, 2, 1, 1, 1, 1, 1, 3, 0, 1)
        assert rpartite_descent_set(bq).pairs == (
            (1, 0), (2, 2), (3, 1), (6, 1), (7, 1), (8, 3), (9, 0), (10, 1),
        )

    def test_single_component(self):
        bq = build_rpartite([[], [[1, 2, 3]]])
        assert rpartite_descent_set(bq).pairs == ((3, 1),)

    def test_empty_tableau(self):
        # no cell has a classical descent; a colored descent set needs n >= 1
        q = StandardTableau(EMPTY_SHAPE, ())
        assert tableau_descent_set(q) == frozenset()
        bq = RPartiteTableau((q, q))
        assert rpartite_color_vector(bq) == ()
        for statistic in (rpartite_descent_set, rpartite_descent_composition):
            with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
                statistic(bq)

    def test_color_vector_matches_descent_extension(self):
        for n in range(1, 6):
            for bll in enumerate_rpartite_partitions(n, 3):
                for bq in enumerate_rpartite_syt(bll):
                    assert extend_set_color_vector(
                        rpartite_descent_set(bq)
                    ) == rpartite_color_vector(bq)

    def test_r1_reduces_to_classical(self):
        for lam in partitions(5):
            for q in enumerate_syt(straight_shape(lam)):
                bq = RPartiteTableau((q,))
                classical = tableau_descent_set(q)
                colored = {e for e, _ in rpartite_descent_set(bq).pairs if e < 5}
                assert colored == classical


def brute_force_skew_shapes(m):
    """Independent enumeration: all (outer, inner) pairs inside an m x m box
    with m cells, no empty rows and no empty columns."""
    def boxed_partitions(max_rows, max_part):
        out = [()]
        def rec(prefix, remaining_rows, cap):
            for part in range(1, cap + 1):
                cand = prefix + (part,)
                out.append(cand)
                if remaining_rows > 1:
                    rec(cand, remaining_rows - 1, part)
        rec((), max_rows, max_part)
        return out

    found = set()
    for outer in boxed_partitions(m, m):
        if not outer:
            continue
        subs = [()]
        for mu in boxed_partitions(len(outer), outer[0]):
            if len(mu) <= len(outer) and all(
                mu[i] <= outer[i] for i in range(len(mu))
            ):
                subs.append(mu)
        for inner in set(subs):
            padded = tuple(inner) + (0,) * (len(outer) - len(inner))
            if sum(outer) - sum(padded) != m:
                continue
            if any(o == i for o, i in zip(outer, padded)):
                continue  # empty row
            cols = set()
            for o, i in zip(outer, padded):
                cols.update(range(i, o))
            if cols != set(range(max(cols) + 1)):
                continue  # empty column
            found.add(SkewShape(outer, padded))
    return found


class TestSkewEnumeration:
    def test_matches_brute_force(self):
        # up to 6 cells, the skew-schur-f default
        for m in range(1, 7):
            assert set(enumerate_skew_shapes(m)) == brute_force_skew_shapes(m)

    def test_small_counts(self):
        assert len(enumerate_skew_shapes(1)) == 1
        assert len(enumerate_skew_shapes(2)) == 3
        assert len(enumerate_skew_shapes(3)) == 9

    def test_order(self):
        # the order fixes skew-schur-f's case and witness order: compositions
        # of the row lengths in their order, then the start of each row
        # against the row below, bottom up, the top row's start fastest
        found = [(s.outer, s.inner) for m in range(1, 4) for s in enumerate_skew_shapes(m)]
        assert found == [
            ((1,), (0,)),
            ((1, 1), (0, 0)),
            ((2, 1), (1, 0)),
            ((2,), (0,)),
            ((1, 1, 1), (0, 0, 0)),
            ((2, 1, 1), (1, 0, 0)),
            ((2, 2, 1), (1, 1, 0)),
            ((3, 2, 1), (2, 1, 0)),
            ((2, 2), (1, 0)),
            ((3, 2), (2, 0)),
            ((2, 1), (0, 0)),
            ((3, 1), (1, 0)),
            ((3,), (0,)),
        ]

    def test_no_empty_rows_or_columns(self):
        for m in range(1, 6):
            shapes = enumerate_skew_shapes(m)
            assert len(set(shapes)) == len(shapes)
            for s in shapes:
                assert s.ncells == m
                assert all(s.row_length(r) > 0 for r in range(s.nrows))
                covered = {c for _, c in s.cells()}
                assert covered == set(range(max(covered) + 1))

"""Packed colored-monomial coordinates against the truncated reference.

The public constructors place packed elements at the requested widths; the
truncated constructors in ``truncated_reference`` enumerate the same
polynomials monomial by monomial.
"""

from functools import reduce
from itertools import product

import pytest
from hypothesis import given, strategies as st

import truncated_reference as ref
from coloredsym import (
    MultiAlphabetPolynomial,
    colored_F,
    colored_h,
    colored_ribbon,
    colored_schur,
    enumerate_colored_compositions,
    enumerate_rpartite_partitions,
    enumerate_skew_shapes,
    expand_in_colored_schur,
    h_index_of_colored_comp,
    ribbon_schur_by_peeling,
)
from coloredsym._poly_py import mul_terms
from coloredsym.shapes import EMPTY_SHAPE, as_skew, colored_composition_shape, direct_sum
from coloredsym.symfun import _colored_h_terms, _colored_schur_terms, _place, _row_sum_bounds
from test_kernels import packed_maps

CELLS = [(n, r) for n in range(1, 6) for r in (1, 2, 3)] + [(6, 1), (7, 1)]


@pytest.mark.parametrize("n,r", CELLS)
def test_placed_elements_match_truncated_reference(n, r):
    widths = (n,) * r
    for ce in enumerate_colored_compositions(n, r):
        ribbon = ref.colored_ribbon(ce, widths)
        assert colored_ribbon(ce, widths).terms == ribbon
        assert colored_F(ce, widths).terms == ref.colored_F(ce, widths)
        bll = h_index_of_colored_comp(ce)
        assert colored_h(bll, widths).terms == ref.colored_h(bll, widths)
        peeled = expand_in_colored_schur(MultiAlphabetPolynomial(widths, ribbon))
        assert ribbon_schur_by_peeling(ce) == peeled


def _uneven(n, r):
    """Widths below, at and above n, mixed across the alphabets."""
    return [ws for ws in product((0, n - 1, n + 1), repeat=r) if len(set(ws)) > 1 or r == 1]


@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 5) for r in (1, 2, 3)])
def test_uneven_widths_match_truncated_reference(n, r):
    for widths in _uneven(n, r):
        for ce in enumerate_colored_compositions(n, r):
            assert colored_ribbon(ce, widths).terms == ref.colored_ribbon(ce, widths)
            assert colored_F(ce, widths).terms == ref.colored_F(ce, widths)
            bll = h_index_of_colored_comp(ce)
            assert colored_h(bll, widths).terms == ref.colored_h(bll, widths)
        for bll in enumerate_rpartite_partitions(n, r):
            assert colored_schur(bll, widths).terms == ref.colored_schur(bll, widths)


def test_colored_schur_terms_match_row_block_product():
    # every r-partite shape of a colored composition and every straight
    # r-partite shape with n <= 5, r <= 3, and every skew shape of <= 6 cells
    tuples = set()
    for n, r in product(range(1, 6), (1, 2, 3)):
        tuples.update(map(colored_composition_shape, enumerate_colored_compositions(n, r)))
        tuples.update(tuple(map(as_skew, bll)) for bll in enumerate_rpartite_partitions(n, r))
    for m in range(1, 7):
        tuples.update((shape,) for shape in enumerate_skew_shapes(m))
    assert len(tuples) == 1130
    for components in tuples:
        bounds = tuple((s.outer, s.inner) for s in components)
        assert _colored_schur_terms(bounds) == ref.row_block_schur_terms(components)


def test_h_row_bounds_match_the_direct_sum_of_the_rows():
    # every part of every r-partite partition with n <= 7, r <= 3: the row
    # bounds that key colored h are those of the direct sum of the rows
    parts = [
        part
        for n, r in product(range(8), (1, 2, 3))
        for bll in enumerate_rpartite_partitions(n, r)
        for part in bll
    ]
    assert len(parts) == 3075
    for part in parts:
        shape = reduce(direct_sum, (as_skew((k,)) for k in part), EMPTY_SHAPE)
        assert _row_sum_bounds(part) == (shape.outer, shape.inner), part


def test_colored_h_terms_match_quasi_shuffle_product():
    indices = [
        bll
        for n, r in product(range(7), (1, 2, 3))
        for bll in enumerate_rpartite_partitions(n, r)
    ]
    assert len(indices) == 584
    for bll in indices:
        assert _colored_h_terms(bll) == ref.quasi_shuffle_h_terms(bll)


@given(st.data(), st.integers(1, 3))
def test_quasi_shuffle_is_the_placed_product(data, r):
    a, b = data.draw(packed_maps(r)), data.draw(packed_maps(r))
    widths = data.draw(st.tuples(*[st.integers(0, 5)] * r))
    placed = _place(a, widths) * _place(b, widths)
    assert _place(mul_terms(a, b, r), widths) == placed

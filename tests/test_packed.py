"""Packed colored-monomial and tensor coordinates against the references.

The public symmetric constructors place each one-alphabet factor at its
alphabet's width, and colored F places its packed element; the truncated
constructors in ``truncated_reference`` enumerate the same polynomials
monomial by monomial.  The placed factors of each ribbon are checked
against the placed packed ribbon that the colored F-sum statement compares,
the ribbon and h factors against the routes they replaced, and the tensor
coordinates of the ribbon and h checks and the per-factor peel against
the packed elements and the packed peel.
"""

from functools import reduce
from itertools import product
from math import prod

import pytest
from hypothesis import given, strategies as st

import truncated_reference as ref
from coloredsym import (
    ColoredComposition,
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
from coloredsym.compositions import _raw_colored_compositions
from coloredsym.shapes import EMPTY_SHAPE, as_skew, colored_composition_shape, direct_sum
from coloredsym.symfun import (
    _blocks,
    _colored_schur_terms,
    _h_factors,
    _peeled,
    _place,
    _ribbon_blocks,
    _ribbon_factors,
    _tensor,
)
from test_kernels import packed_maps

CELLS = [(n, r) for n in range(1, 6) for r in (1, 2, 3)] + [(6, 1), (7, 1)]


def slow_at(cells, *slow):
    """The (n, r) cells, those in ``slow`` marked slow."""
    mark = pytest.mark.slow
    return [pytest.param(*cell, marks=mark) if cell in slow else cell for cell in cells]


@pytest.mark.parametrize("n,r", slow_at(CELLS, (5, 3), (7, 1)))
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


@pytest.mark.parametrize("n,r", slow_at([(n, r) for n in range(1, 5) for r in (1, 2, 3)], (4, 3)))
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
        blocks = tuple(_blocks(s.outer, s.inner) for s in components)
        assert _colored_schur_terms(blocks) == ref.row_block_schur_terms(components)


def test_h_row_bounds_match_the_direct_sum_of_the_rows():
    # every part of every r-partite partition with n <= 7, r <= 3: the row
    # bounds of the reference h factors are those of the direct sum of the
    # rows
    parts = [
        part
        for n, r in product(range(8), (1, 2, 3))
        for bll in enumerate_rpartite_partitions(n, r)
        for part in bll
    ]
    assert len(parts) == 3075
    for part in parts:
        shape = reduce(direct_sum, (as_skew((k,)) for k in part), EMPTY_SHAPE)
        assert ref.row_sum_bounds(part) == (shape.outer, shape.inner), part


def test_ribbon_and_h_factors_match_the_routes_they_replaced():
    # every colored composition and every r-partite partition with n <= 6,
    # r <= 3: a ribbon factor against the product of its zigzags, an h
    # factor against the chain count of the direct sum of its rows
    cases = indices = 0
    for n, r in product(range(1, 7), (1, 2, 3)):
        for parts, colors in _raw_colored_compositions(n, r):
            cases += 1
            assert _ribbon_factors(parts, colors, r) == ref.zigzag_product_factors(
                parts, colors, r
            ), (parts, colors)
        for bll in enumerate_rpartite_partitions(n, r):
            indices += 1
            assert _h_factors(bll) == ref.row_sum_h_factors(bll), bll
    assert (cases, indices) == (4886, 581)


def test_colored_h_terms_match_quasi_shuffle_product():
    # at widths of the degree every packed key fits and lands on distinct
    # monomials, so equal placements are equal packed elements
    indices = [
        bll
        for n, r in product(range(7), (1, 2, 3))
        for bll in enumerate_rpartite_partitions(n, r)
    ]
    assert len(indices) == 584
    for bll in indices:
        widths = (sum(map(sum, bll)),) * len(bll)
        assert colored_h(bll, widths) == _place(ref.quasi_shuffle_h_terms(bll), widths)


@given(st.data(), st.integers(1, 3))
def test_quasi_shuffle_is_the_placed_product(data, r):
    a, b = data.draw(packed_maps(r)), data.draw(packed_maps(r))
    widths = data.draw(st.tuples(*[st.integers(0, 5)] * r))
    placed = _place(a, widths) * _place(b, widths)
    assert _place(mul_terms(a, b, r), widths) == placed


def block_diagonal(terms, degrees):
    """The tensor coordinates read off a packed element of multidegree
    ``degrees``: its keys whose used indices carry alphabet 0 first, then
    alphabet 1, and so on, one alphabet per index, each alphabet's
    exponents joined in index order and padded to its degree."""
    r = len(degrees)
    out = {}
    for key, c in terms.items():
        w = len(key) // r
        used = [col for col in (key[t::w] for t in range(w)) if any(col)]
        alphabets = [[j for j, e in enumerate(col) if e] for col in used]
        if any(len(a) != 1 for a in alphabets) or alphabets != sorted(alphabets):
            continue
        parts = [bytes(col[j] for col in used if col[j]) for j in range(r)]
        out[b"".join(p + bytes(d - len(p)) for p, d in zip(parts, degrees))] = c
    return out


def test_block_diagonal_reads_one_key_per_tensor_key():
    # x1^2 y2 + x1 x2 y3 + x1 y1 + y1 x2 at degrees (2, 1): the last two
    # share an index or put alphabet 1 first
    terms = {
        bytes((2, 0, 0, 0, 1, 0)): 3,
        bytes((1, 1, 0, 0, 0, 1)): 5,
        bytes((1, 0, 0, 1, 0, 0)): 7,
        bytes((0, 1, 0, 1, 0, 0)): 11,
    }
    assert block_diagonal(terms, (2, 1)) == {bytes((2, 0, 1)): 3, bytes((1, 1, 1)): 5}


@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 6) for r in (1, 2, 3)])
def test_tensor_coordinates_are_the_block_diagonal_of_the_packed_elements(n, r):
    # the ribbon, from the chain counts of its r-partite shape, against the
    # packed ribbon and the packed product of its zigzags; every colored h
    # index against its colored F product
    for ce in enumerate_colored_compositions(n, r):
        degrees = tuple(map(sum, h_index_of_colored_comp(ce)))
        raw = (ce.parts, ce.colors, ce.r)
        packed = _colored_schur_terms(_ribbon_blocks(*raw))
        assert packed == ref.zigzag_product_ribbon(*raw)
        assert _tensor(_ribbon_factors(*raw)) == block_diagonal(packed, degrees)
    for bll in enumerate_rpartite_partitions(n, r):
        degrees = tuple(map(sum, bll))
        tensor = _tensor(_h_factors(bll))
        assert tensor == block_diagonal(ref.quasi_shuffle_h_terms(bll), degrees)


@pytest.mark.parametrize("n,r", slow_at([(n, r) for n in range(1, 6) for r in (1, 2, 3)], (5, 3)))
def test_placed_factors_are_the_placed_packed_ribbon_of_the_f_sum(n, r):
    # the public ribbon places each one-alphabet factor on its own; the
    # colored F-sum statement compares the packed ribbon of the same
    # blocks; a packed ribbon is placed once per widths, as many colored
    # compositions share their blocks
    for widths in [(n,) * r, *_uneven(n, r)]:
        placed = {}
        for ce in enumerate_colored_compositions(n, r):
            blocks = _ribbon_blocks(ce.parts, ce.colors, r)
            if blocks not in placed:
                placed[blocks] = _place(_colored_schur_terms(blocks), widths)
            assert colored_ribbon(ce, widths) == placed[blocks]


@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 6) for r in (1, 2, 3)])
def test_per_factor_peel_matches_the_packed_peel(n, r):
    for ce in enumerate_colored_compositions(n, r):
        assert ribbon_schur_by_peeling(ce).coeffs == ref.packed_peel(ce)


def test_memoized_peels_are_never_changed_by_the_product():
    # two color-0 zigzags and one cell each of colors 1 and 2, whose
    # factors share one memo entry; each peel of the ribbon multiplies the
    # memoized expansions of its factors, which stay equal to an unmemoized
    # peel of the same factor
    ce = ColoredComposition((2, 1, 1, 1), (0, 1, 0, 2), 3)
    components = _ribbon_blocks(ce.parts, ce.colors, ce.r)
    _peeled.cache_clear()
    first, second = ribbon_schur_by_peeling(ce), ribbon_schur_by_peeling(ce)
    fresh = [_peeled.__wrapped__(blocks) for blocks in components]
    assert [_peeled(blocks) for blocks in components] == fresh
    want = {
        index: prod(fresh[j][(part,)] for j, part in enumerate(index))
        for index in product(*[[part for (part,) in f] for f in fresh])
    }
    assert first.coeffs == second.coeffs == want == ref.packed_peel(ce)
    assert _peeled.cache_info().misses == len(set(components)) == 2

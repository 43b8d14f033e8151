"""Exact polynomial identities: Schur, fundamental, ribbon, h and e elements."""

import random
import sys
from collections import Counter
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from coloredsym import (
    ColoredComposition,
    Composition,
    MultiAlphabetPolynomial,
    SkewShape,
    colored_F,
    colored_h,
    colored_ribbon,
    colored_schur,
    coarsenings,
    e_poly,
    enumerate_colored_compositions,
    enumerate_colored_permutations,
    enumerate_compositions,
    enumerate_rpartite_partitions,
    enumerate_rpartite_syt,
    expand_in_colored_schur,
    fundamental_F,
    h_index_of_colored_comp,
    h_poly,
    hook_length_count,
    is_symmetric_per_alphabet,
    partitions,
    qsym_generating_function,
    ribbon_f_expansion,
    ribbon_h_expansion,
    parse_colored_composition,
    ribbon_schur_by_counting,
    ribbon_schur_by_peeling,
    rpartite_descent_composition,
    schur_poly,
    steingrimsson_descent_set,
    colored_descent_composition,
    conj_inverse_descent_class,
    zigzag_of,
)
from coloredsym import symfun
from coloredsym._poly_py import mul_terms
from coloredsym.errors import DimensionMismatchError, NotInSchurSpanError
from coloredsym.symfun import zero

RUNNING = ColoredComposition((2, 2, 1, 1, 3, 1), (0, 1, 1, 3, 1, 2), 4)


def poly_from(widths, entries):
    """Build a polynomial from {per-alphabet exponent tuples: coeff}."""
    terms = {}
    for mat, coeff in entries.items():
        key = b"".join(bytes(row) for row in mat)
        terms[key] = coeff
    return MultiAlphabetPolynomial(tuple(widths), terms)


def full_term_maps(nvars=4, max_exp=5, max_terms=6):
    key = st.binary(min_size=nvars, max_size=nvars).map(
        lambda b: bytes(x % (max_exp + 1) for x in b)
    )
    coeff = st.integers(min_value=-(10**6), max_value=10**6).filter(bool)
    return st.dictionaries(key, coeff, max_size=max_terms)


class TestRingOperations:
    def test_add_zero_and_mul_one(self):
        p = h_poly(2, 0, (3,))
        zero = MultiAlphabetPolynomial((3,), {})
        one = MultiAlphabetPolynomial((3,), {bytes(3): 1})
        assert p + zero == p
        assert p * one == p
        assert p - p == zero

    def test_difference_of_squares(self):
        x_plus_y = poly_from((2,), {((1, 0),): 1, ((0, 1),): 1})
        x_minus_y = poly_from((2,), {((1, 0),): 1, ((0, 1),): -1})
        assert x_plus_y * x_minus_y == poly_from(
            (2,), {((2, 0),): 1, ((0, 2),): -1}
        )

    def test_integer_scaling(self):
        p = e_poly(1, 0, (2,))
        assert 3 * p == p + p + p

    @given(full_term_maps(), full_term_maps())
    def test_mul_commutes(self, a, b):
        p, q = MultiAlphabetPolynomial((1, 3), a), MultiAlphabetPolynomial((1, 3), b)
        assert p * q == q * p

    def test_mul_edge_cases(self):
        p = poly_from((1, 2), {((1,), (0, 2)): 5, ((0,), (1, 0)): -3})
        assert p * zero((1, 2)) == zero((1, 2))
        assert p * MultiAlphabetPolynomial((1, 2), {bytes(3): 1}) == p

    def test_exponent_overflow_raises(self):
        # 255 is the largest exponent one byte holds; one more must raise,
        # not carry into the next variable as x^256 == x^0 * y^1 would
        x200 = poly_from((2,), {((200, 0),): 1})
        assert x200 * poly_from((2,), {((55, 0),): 1}) == poly_from((2,), {((255, 0),): 1})
        with pytest.raises(ValueError):
            x200 * poly_from((2,), {((56, 0),): 1})

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            h_poly(1, 0, (2,)) + h_poly(1, 0, (3,))

    @pytest.mark.parametrize("widths", [(2,), (2, 2)])
    @pytest.mark.parametrize("make", [
        lambda j, ws: schur_poly((2,), j, ws),
        lambda j, ws: h_poly(2, j, ws),
        lambda j, ws: h_poly(0, j, ws),
        lambda j, ws: e_poly(2, j, ws),
        lambda j, ws: fundamental_F(Composition((1, 1)), j, ws),
    ], ids=["schur", "h", "h0", "e", "F"])
    def test_alphabet_out_of_range(self, make, widths):
        for j in (len(widths), -1):
            with pytest.raises(DimensionMismatchError):
                make(j, widths)
        assert make(len(widths) - 1, widths) != zero(widths)

    def test_coefficient_lookup(self):
        p = schur_poly((2, 1), 0, (2,))
        assert p.coefficient([(2, 1)]) == 1
        assert p.coefficient([(3, 0)]) == 0
        q = colored_schur(((2,), (1,)), (2, 1))
        assert q.coefficient([(1, 1), (1,)]) == 1

    def test_coefficient_rejects_more_exponents_than_variables(self):
        # x1 * x3 has no variable x3 at widths (2, 2); its third exponent
        # must not be read as that of y1, whose x1 * y1 has coefficient 1
        p = colored_schur(((1,), (1,)), (2, 2))
        assert p.coefficient([(1, 0), (1, 0)]) == 1
        with pytest.raises(DimensionMismatchError, match="alphabet 0 has 2 variables"):
            p.coefficient([(1, 0, 1)])
        with pytest.raises(DimensionMismatchError, match="alphabet 1 has 2 variables"):
            p.coefficient([(1,), (0, 0, 1)])
        assert p.coefficient([(1,), (1,)]) == 1

    def test_coefficient_rejects_more_alphabets_than_widths(self):
        p = colored_schur(((1,), (1,)), (2, 2))
        with pytest.raises(DimensionMismatchError, match="alphabet 2 is not one of the 2"):
            p.coefficient([(1,), (1,), (0,)])

    def test_constructor_rejects_keys_of_the_wrong_length(self):
        # a 1-byte key at widths (2,) would mix with the 2-byte keys of
        # every polynomial of that ring
        with pytest.raises(DimensionMismatchError, match="every key needs 2 bytes"):
            MultiAlphabetPolynomial((2,), {b"\x01": 1})
        with pytest.raises(DimensionMismatchError, match="every key needs 2 bytes"):
            MultiAlphabetPolynomial((1, 1), {bytes(2): 1, bytes(3): 1})
        assert MultiAlphabetPolynomial((), {b"": 1}).coefficient([]) == 1

    def test_constructor_rejects_zero_coefficients(self):
        with pytest.raises(ValueError, match="coefficients must be nonzero"):
            MultiAlphabetPolynomial((2,), {bytes((1, 0)): 1, bytes((0, 1)): 0})

    @pytest.mark.parametrize("op", [
        lambda p: p + 1,
        lambda p: 1 + p,
        lambda p: p - 1,
        lambda p: p * 2.0,
        lambda p: 2.0 * p,
    ], ids=["add", "radd", "sub", "mul", "rmul"])
    def test_other_operands_raise_type_error(self, op):
        with pytest.raises(TypeError, match="unsupported operand"):
            op(schur_poly((1,), 0, (2,)))

    def test_int_scaling_from_either_side(self):
        p = schur_poly((1,), 0, (2,))
        assert 2 * p == p * 2 == p + p

    def test_terms_refuse_writes_after_construction(self):
        # a zero coefficient written past the constructor's checks would
        # make the polynomial unequal to an equal one and not zero
        p = schur_poly((1,), 0, (2,))
        with pytest.raises(TypeError):
            p.terms[b"\x00\x07"] = 0
        with pytest.raises(TypeError):
            del p.terms[b"\x01\x00"]
        assert p == schur_poly((1,), 0, (2,)) and not p.is_zero()

    def test_constructor_copies_the_terms_it_is_given(self):
        terms = {bytes((1, 0)): 1}
        p = MultiAlphabetPolynomial((2,), terms)
        terms[bytes((0, 1))] = 0
        assert dict(p.terms) == {bytes((1, 0)): 1}

    def test_equal_polynomials_hash_equal(self):
        p = schur_poly((1,), 0, (2,))
        q = MultiAlphabetPolynomial((2,), {bytes((0, 1)): 1, bytes((1, 0)): 1})
        assert p == q and hash(p) == hash(q)
        assert len({p, q, p + q, 2 * p, zero((2,)), zero((1, 1))}) == 4


def test_public_symmetric_constructors_multiply_in_one_alphabet_only(monkeypatch):
    # each factor is built in its own alphabet and placed there, so no
    # public symmetric constructor quasi-shuffles across alphabets; the
    # ribbon's two color-0 zigzags make the factors reach the kernel
    seen = []

    def counted(a, b, r):
        seen.append(r)
        return mul_terms(a, b, r)

    monkeypatch.setattr(symfun, "mul_terms", counted)
    symfun._schur_terms.cache_clear()
    widths = (5, 5, 5)
    ce = parse_colored_composition("2^0,1^1,1^0,1^2", 3)
    schur_poly(SkewShape((3, 1), (1,)), 1, widths)
    h_poly(3, 0, widths)
    e_poly(2, 2, widths)
    colored_schur(((2, 1), (1,), SkewShape((2, 2), (1,))), widths)
    colored_h(((2, 1), (1,), (1,)), widths)
    expand_in_colored_schur(colored_ribbon(ce, widths))
    assert seen and set(seen) == {1}


def ssyt_poly_direct(shape, width):
    """Unfactorized semistandard enumeration over the whole diagram."""
    cells = shape.cells()
    terms = {}
    grid = {}
    counts = bytearray(width)

    def rec(idx):
        if idx == len(cells):
            key = bytes(counts)
            terms[key] = terms.get(key, 0) + 1
            return
        r, c = cells[idx]
        lo = grid.get((r, c - 1), 1)
        above = grid.get((r - 1, c))
        if above is not None:
            lo = max(lo, above + 1)
        for v in range(lo, width + 1):
            grid[(r, c)] = v
            counts[v - 1] += 1
            rec(idx + 1)
            counts[v - 1] -= 1
        grid.pop((r, c), None)

    rec(0)
    return terms


class TestSchurPolynomials:
    def test_matches_direct_enumeration(self):
        # the row-block factorization agrees with whole-diagram enumeration
        from coloredsym import enumerate_skew_shapes

        for m in range(1, 6):
            for shape in enumerate_skew_shapes(m):
                assert schur_poly(shape, 0, (m,)).terms == ssyt_poly_direct(shape, m)

    def test_single_row_is_h(self):
        for n in range(1, 5):
            assert schur_poly((n,), 0, (4,)) == h_poly(n, 0, (4,))

    def test_single_column_is_e(self):
        for n in range(1, 5):
            assert schur_poly((1,) * n, 0, (4,)) == e_poly(n, 0, (4,))

    def test_s21_width_two(self):
        # two semistandard fillings: contents x1^2 x2 and x1 x2^2
        assert schur_poly((2, 1), 0, (2,)) == poly_from(
            (2,), {((2, 1),): 1, ((1, 2),): 1}
        )

    def test_zero_when_too_narrow(self):
        assert schur_poly((1, 1, 1), 0, (2,)).is_zero()

    @pytest.mark.slow
    def test_strip_chains_are_not_bounded_by_the_recursion_limit(self):
        # a column's one filling is a chain of one strip per cell
        n = 3 * sys.getrecursionlimit()
        column = (((1,) * n, (0,) * n),)
        assert symfun._schur_terms(column) == {bytes([1]) * n: 1}

    def test_symmetry(self):
        assert is_symmetric_per_alphabet(schur_poly((3, 1), 0, (4,)))
        assert is_symmetric_per_alphabet(schur_poly((2, 2), 1, (2, 4)))


class TestHE:
    def test_h0_e0(self):
        one = MultiAlphabetPolynomial((3,), {bytes(3): 1})
        assert h_poly(0, 0, (3,)) == one
        assert e_poly(0, 0, (3,)) == one

    def test_e_vanishes_beyond_width(self):
        assert e_poly(3, 0, (2,)).is_zero()

    def test_h2_width_two(self):
        assert h_poly(2, 0, (2,)) == poly_from(
            (2,), {((2, 0),): 1, ((1, 1),): 1, ((0, 2),): 1}
        )


class TestFundamental:
    def test_extremes(self):
        # h_k = F_(k) and e_k = F_(1^k), in each alphabet at mixed widths
        for widths in ((4,), (0, 3), (2, 5), (5, 1, 4)):
            for j, n in product(range(len(widths)), range(1, 6)):
                assert fundamental_F(Composition((n,)), j, widths) == h_poly(n, j, widths)
                assert fundamental_F(Composition((1,) * n), j, widths) == e_poly(n, j, widths)

    def test_schur_21_as_f_sum(self):
        widths = (3,)
        lhs = schur_poly((2, 1), 0, widths)
        rhs = fundamental_F(Composition((1, 2)), 0, widths) + fundamental_F(
            Composition((2, 1)), 0, widths
        )
        assert lhs == rhs

    def test_asymmetric_instance(self):
        assert not is_symmetric_per_alphabet(fundamental_F(Composition((1, 2)), 0, (3,)))


class TestColoredF:
    def test_monochromatic_h_and_e(self):
        widths = (3, 3, 3)
        for k in range(3):
            ce = ColoredComposition((3,), (k,), 3)
            assert colored_F(ce, widths) == h_poly(3, k, widths)
            ce = ColoredComposition((1, 1, 1), (k, k, k), 3)
            assert colored_F(ce, widths) == e_poly(3, k, widths)

    def test_r1_reduces_to_fundamental(self):
        for a in enumerate_compositions(4):
            ce = ColoredComposition(a.parts, (0,) * len(a.parts), 1)
            assert colored_F(ce, (4,)) == fundamental_F(a, 0, (4,))

    def test_two_color_strictness(self):
        widths = (2, 2)
        weak = colored_F(ColoredComposition((1, 1), (0, 1), 2), widths)
        strict = colored_F(ColoredComposition((1, 1), (1, 0), 2), widths)
        assert weak == poly_from(
            widths,
            {((1, 0), (1, 0)): 1, ((1, 0), (0, 1)): 1, ((0, 1), (0, 1)): 1},
        )
        assert strict == poly_from(widths, {((0, 1), (1, 0)): 1})

    def test_multiplicity_free(self):
        # each monomial corresponds to exactly one index chain
        for n in range(1, 5):
            for ce in enumerate_colored_compositions(n, 2):
                assert set(colored_F(ce, (n, n)).terms.values()) <= {1}

    def test_matches_descent_set_description(self):
        # chains with strict rises at the extended descent positions of any
        # class member rebuild the same element
        widths = (3, 3, 3)
        for w in enumerate_colored_permutations(3, 3):
            ce = colored_descent_composition(w)
            strict = steingrimsson_descent_set(w) - {w.n}
            terms = {}
            offs = (0, 3, 6)

            def rec(t, lo, counts):
                if t > w.n:
                    key = bytes(counts)
                    terms[key] = terms.get(key, 0) + 1
                    return
                al = w.colors[t - 1]
                for i in range(lo, 4):
                    counts[offs[al] + i - 1] += 1
                    rec(t + 1, i + (1 if t in strict else 0), counts)
                    counts[offs[al] + i - 1] -= 1

            rec(1, 1, bytearray(9))
            assert colored_F(ce, widths).terms == terms


class TestColoredSchur:
    def test_single_component(self):
        widths = (3, 3)
        assert colored_schur(((2, 1), ()), widths) == schur_poly((2, 1), 0, widths)

    def test_two_singletons_sum_of_f(self):
        widths = (2, 2)
        lhs = colored_schur(((1,), (1,)), widths)
        rhs = colored_F(ColoredComposition((1, 1), (0, 1), 2), widths) + colored_F(
            ColoredComposition((1, 1), (1, 0), 2), widths
        )
        assert lhs == rhs
        assert lhs == poly_from(
            widths,
            {
                ((1, 0), (1, 0)): 1,
                ((1, 0), (0, 1)): 1,
                ((0, 1), (1, 0)): 1,
                ((0, 1), (0, 1)): 1,
            },
        )

    def test_product_shape(self):
        widths = (2, 1)
        got = colored_schur(((2,), (1,)), widths)
        assert got == poly_from(
            widths,
            {((2, 0), (1,)): 1, ((1, 1), (1,)): 1, ((0, 2), (1,)): 1},
        )

    def test_fillings_expansion(self):
        # product of per-alphabet Schur polynomials equals the sum of colored
        # fundamentals over standard fillings of the component tuple
        for n in range(1, 6):
            for r in (1, 2, 3):
                widths = (n,) * r
                for bll in enumerate_rpartite_partitions(n, r):
                    lhs = colored_schur(bll, widths)
                    acc = MultiAlphabetPolynomial(widths, {})
                    for bq in enumerate_rpartite_syt(bll):
                        acc = acc + colored_F(
                            rpartite_descent_composition(bq), widths
                        )
                    assert lhs == acc


class TestColoredRibbon:
    def test_monochromatic(self):
        ce = ColoredComposition((4,), (1,), 2)
        assert colored_ribbon(ce, (4, 4)) == h_poly(4, 1, (4, 4))

    def test_r1_is_skew_schur_of_zigzag(self):
        for n in range(1, 6):
            for a in enumerate_compositions(n):
                ce = ColoredComposition(a.parts, (0,) * len(a.parts), 1)
                assert colored_ribbon(ce, (n,)) == schur_poly(
                    zigzag_of(a).shape, 0, (n,)
                )

    def test_classical_ribbon_expansion(self):
        ce = ColoredComposition((2, 2), (0, 0), 1)
        exp = expand_in_colored_schur(colored_ribbon(ce, (4,)))
        assert exp.coeffs == {((2, 2),): 1, ((3, 1),): 1}


class TestSymmetryOfConstructors:
    @pytest.mark.parametrize(
        "poly",
        [
            schur_poly((3, 1), 0, (4,)),
            schur_poly(zigzag_of(Composition((2, 1, 2))).shape, 0, (5,)),
            h_poly(3, 1, (3, 3)),
            e_poly(2, 0, (4, 2)),
            colored_schur(((2, 1), (2,)), (5, 5)),
            colored_ribbon(RUNNING, (3, 3, 3, 3)),
            colored_h(((2,), (3, 1)), (4, 4)),
        ],
        ids=["schur", "ribbon-schur", "h", "e", "colored-schur", "colored-ribbon", "colored-h"],
    )
    def test_symmetric_per_alphabet(self, poly):
        assert is_symmetric_per_alphabet(poly)

    def test_fundamental_is_generally_not(self):
        assert not is_symmetric_per_alphabet(
            colored_F(ColoredComposition((1, 2), (1, 0), 2), (3, 3))
        )


class TestColoredH:
    def test_index_of_running_example(self):
        assert h_index_of_colored_comp(RUNNING) == ((2,), (3, 2, 1), (1,), (1,))

    def test_single_color(self):
        ce = ColoredComposition((1, 3, 2), (0, 0, 0), 1)
        assert h_index_of_colored_comp(ce) == ((3, 2, 1),)

    def test_symmetry(self):
        assert is_symmetric_per_alphabet(colored_h(((2, 1), (2,)), (3, 3)))


class TestQsymGeneratingFunction:
    def test_empty(self):
        assert qsym_generating_function([], (2, 2)).is_zero()

    def test_single_word(self):
        from coloredsym import ColoredPermutation, Permutation

        w = ColoredPermutation(Permutation((1, 2, 3)), (1, 1, 1), 2)
        assert qsym_generating_function([w], (3, 3)) == h_poly(3, 1, (3, 3))

    def test_classical_ribbon(self):
        ce = ColoredComposition((2, 2), (0, 0), 1)
        members = conj_inverse_descent_class(ce)
        assert qsym_generating_function(members, (4,)) == colored_ribbon(ce, (4,))

    def test_rejects_mixed_groups(self):
        from coloredsym import identity_colored

        with pytest.raises(DimensionMismatchError):
            qsym_generating_function(
                [identity_colored(2, 2), identity_colored(3, 2)], (3, 3)
            )


class TestExpansion:
    def test_schur_units(self):
        widths = (3, 3)
        for bll in enumerate_rpartite_partitions(3, 2):
            exp = expand_in_colored_schur(colored_schur(bll, widths))
            assert exp.coeffs == {bll: 1}

    def test_h_difference(self):
        diff = colored_h(((3, 2, 1),), (6,)) - colored_h(((3, 3),), (6,))
        exp = expand_in_colored_schur(diff)
        assert exp.coeffs == {
            ((3, 2, 1),): 1,
            ((4, 1, 1),): 1,
            ((4, 2),): 1,
            ((5, 1),): 1,
        }

    def test_round_trip_random_combinations(self):
        rng = random.Random(0)
        for n in range(1, 6):
            for r in (1, 2):
                widths = (n,) * r
                blls = list(enumerate_rpartite_partitions(n, r))
                coeffs = {
                    bll: rng.randint(-5, 5) for bll in blls if rng.random() < 0.6
                }
                coeffs = {k: v for k, v in coeffs.items() if v}
                acc = MultiAlphabetPolynomial(widths, {})
                for bll, c in coeffs.items():
                    acc = acc + c * colored_schur(bll, widths)
                assert expand_in_colored_schur(acc).coeffs == coeffs

    def test_width_stability(self):
        for n in range(1, 5):
            ces = enumerate_colored_compositions(n, 2)
            sample = ces[:: max(1, len(ces) // 20)]
            for ce in sample:
                narrow = expand_in_colored_schur(colored_ribbon(ce, (n, n)))
                wide = expand_in_colored_schur(colored_ribbon(ce, (n + 1, n + 1)))
                assert narrow.coeffs == wide.coeffs

    def test_rejects_inhomogeneous(self):
        p = h_poly(1, 0, (3,)) + h_poly(2, 0, (3,))
        with pytest.raises(NotInSchurSpanError):
            expand_in_colored_schur(p)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotInSchurSpanError):
            expand_in_colored_schur(fundamental_F(Composition((1, 2)), 0, (3,)))

    def test_rejects_narrow_widths(self):
        with pytest.raises(ValueError):
            expand_in_colored_schur(h_poly(4, 0, (3,)))
        # one variable truncates the ribbon of (1, 1) to zero, so a zero
        # element is checked against its declared degree
        assert colored_ribbon(ColoredComposition((1, 1), (0, 0), 1), (1,)).is_zero()
        assert expand_in_colored_schur(zero((1,))).coeffs == {}
        with pytest.raises(ValueError):
            expand_in_colored_schur(zero((1,)), 2)

    def test_json_term_order(self):
        exp = expand_in_colored_schur(colored_ribbon(RUNNING_CLASSICAL, (4,)))
        out = exp.to_json()
        assert out == {
            "n": 4,
            "r": 1,
            "basis": "schur",
            "terms": [
                {"index": [[2, 2]], "coeff": 1},
                {"index": [[3, 1]], "coeff": 1},
            ],
        }


RUNNING_CLASSICAL = ColoredComposition((2, 2), (0, 0), 1)


def per_shape_counting_reference(ce):
    """Schur coefficients of the colored ribbon by one pruned filling search
    per r-tuple of partitions of the color-class sizes."""
    ext = ce.extended_colors()
    boundary = set(ce.composition().partial_sums()[:-1])

    def count(bll):
        filled = [[0] * len(part) for part in bll]
        total = 0

        def rec(i, prev_row):
            nonlocal total
            if i > ce.n:
                total += 1
                return
            color = ext[i - 1]
            part, fill = bll[color], filled[color]
            for row in range(len(part)):
                if fill[row] == part[row] or (row and fill[row - 1] <= fill[row]):
                    continue
                if i > 1 and ext[i - 2] == color:
                    if ((i - 1) in boundary) != (row > prev_row):
                        continue
                fill[row] += 1
                rec(i + 1, row)
                fill[row] -= 1

        rec(1, -1)
        return total

    sizes = map(sum, h_index_of_colored_comp(ce))
    shapes = product(*(list(partitions(size)) for size in sizes))
    return {bll: c for bll in shapes if (c := count(bll))}


class TestTableauCounting:
    def test_classical_22(self):
        exp = ribbon_schur_by_counting(RUNNING_CLASSICAL)
        assert exp.coeffs == {((2, 2),): 1, ((3, 1),): 1}

    def test_counts_match_enumeration(self):
        # pruned counting agrees with filtering a full enumeration
        for n in range(1, 5):
            for ce in enumerate_colored_compositions(n, 2):
                coeffs = ribbon_schur_by_counting(ce).coeffs
                for bll in enumerate_rpartite_partitions(n, 2):
                    brute = sum(
                        1
                        for bq in enumerate_rpartite_syt(bll)
                        if rpartite_descent_composition(bq) == ce
                    )
                    assert coeffs.get(bll, 0) == brute

    @pytest.mark.parametrize(
        "n,r", [(n, r) for n in range(1, 7) for r in (1, 2, 3)] + [(7, 1)]
    )
    def test_one_search_matches_per_shape_reference(self, n, r):
        for ce in enumerate_colored_compositions(n, r):
            want = per_shape_counting_reference(ce)
            assert ribbon_schur_by_counting(ce).coeffs == want

    def test_counting_is_not_bounded_by_the_recursion_limit(self):
        n = 3 * sys.getrecursionlimit()
        row = ColoredComposition((n,), (0,), 1)
        column = ColoredComposition((1,) * n, (0,) * n, 1)
        assert ribbon_schur_by_counting(row).coeffs == {((n,),): 1}
        assert ribbon_schur_by_counting(column).coeffs == {((1,) * n,): 1}

    def test_alternating_single_cells_count_pairs_of_standard_fillings(self):
        # (1^0, 1^1) ten times: each component is ten single cells, so the
        # ribbon is s_1^10 in each alphabet and the coefficient of
        # (lambda, mu) is f^lambda * f^mu, over 90,174,016 fillings in all
        ce = parse_colored_composition(",".join(["1^0", "1^1"] * 10))
        f = {la: hook_length_count(la) for la in partitions(10)}
        want = {(la, mu): f[la] * f[mu] for la in f for mu in f}
        assert ribbon_schur_by_counting(ce).coeffs == want
        assert sum(want.values()) == 9496**2 == 90_174_016

    @pytest.mark.parametrize("text", ["7^0,7^1", "4^0,4^1,4^2", "1^0,1^1,1^0,1^1,1^0,1^1"])
    def test_peeling_matches_counting(self, text):
        # peeled per alphabet, the rows take no packed element of n = 14 or
        # n = 12 cells; the single cells multiply the coefficient 2 of
        # s_21 in s_1^3 across the two alphabets
        ce = parse_colored_composition(text)
        peeled = ribbon_schur_by_peeling(ce)
        assert peeled == ribbon_schur_by_counting(ce)
        assert max(peeled.coeffs.values()) == (4 if ce.n == 6 else 1)

    def test_counting_expansion_running_example(self):
        exp = ribbon_schur_by_counting(RUNNING)
        assert exp.coeffs == {
            ((2,), (3, 2, 1), (1,), (1,)): 1,
            ((2,), (4, 1, 1), (1,), (1,)): 1,
            ((2,), (4, 2), (1,), (1,)): 1,
            ((2,), (5, 1), (1,), (1,)): 1,
        }


class TestRibbonExpansions:
    def test_h_expansion_running_example(self):
        exp = ribbon_h_expansion(RUNNING)
        assert exp.coeffs == {
            ((2,), (3, 2, 1), (1,), (1,)): 1,
            ((2,), (3, 3), (1,), (1,)): -1,
        }

    def test_h_expansion_classical(self):
        assert ribbon_h_expansion(RUNNING_CLASSICAL).coeffs == {
            ((2, 2),): 1,
            ((4,),): -1,
        }

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 7) for r in (1, 2, 3)])
    def test_h_expansion_is_the_signed_sum_over_coarsenings(self, n, r):
        for ce in enumerate_colored_compositions(n, r):
            want = Counter()
            for beta in coarsenings(ce):
                want[h_index_of_colored_comp(beta)] += (-1) ** (len(ce.parts) - len(beta.parts))
            assert ribbon_h_expansion(ce).coeffs == {k: c for k, c in want.items() if c}

    def test_h_expansion_of_a_long_column_is_e_in_the_h_basis(self):
        # 30 parts 1^0 make e_30 = sum over mu of
        # (-1)^(30 - l(mu)) l(mu)! / prod m_i(mu)! h_mu, over 2^29 coarsenings
        ce = ColoredComposition((1,) * 30, (0,) * 30, 1)
        want = {
            (mu,): (-1) ** (30 - len(mu))
            * factorial(len(mu))
            // prod(map(factorial, Counter(mu).values()))
            for mu in partitions(30)
        }
        assert len(want) == 5604
        assert ribbon_h_expansion(ce).coeffs == want

    def test_h_expansion_single_part(self):
        ce = ColoredComposition((4,), (1,), 2)
        assert ribbon_h_expansion(ce).coeffs == {((), (4,)): 1}

    def test_f_expansion_classical(self):
        counts = {
            ce.parts: mult
            for ce, mult in ribbon_f_expansion(RUNNING_CLASSICAL).items()
        }
        assert counts == {(2, 2): 2, (3, 1): 1, (1, 3): 1, (1, 2, 1): 1}

    def test_f_expansion_matches_class(self):
        # multiplicities equal the descent-composition distribution over the
        # conjugate-inverse descent class
        from collections import Counter

        for n in range(1, 5):
            for ce in enumerate_colored_compositions(n, 2):
                by_class = Counter(
                    colored_descent_composition(a)
                    for a in conj_inverse_descent_class(ce)
                )
                assert ribbon_f_expansion(ce) == dict(by_class)

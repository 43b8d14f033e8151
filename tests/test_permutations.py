"""Group law, descent statistics and descent classes."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from coloredsym import (
    ColoredComposition,
    ColoredPermutation,
    Permutation,
    colored_descent_composition,
    colored_descent_set,
    conj_inverse,
    conj_inverse_descent_class,
    conjugate,
    descent_class,
    descent_class_size,
    descent_composition,
    descent_set,
    enumerate_colored_compositions,
    enumerate_colored_permutations,
    extend_set_color_vector,
    identity_colored,
    inverse,
    multiply,
    parse_colored_permutation,
    steingrimsson_descent_set,
)
from coloredsym.compositions import Composition, RainbowDecomposition
from coloredsym.errors import DimensionMismatchError, ParseError, ResourceLimitError
from coloredsym.permutations import _raw_colored_descent_composition, _raw_group

import group_reference as ref


def matrix_of(a: ColoredPermutation) -> dict:
    """Monomial-matrix realization: column j holds root-of-unity exponent
    z_j in row pi_j.  Serves as an independent oracle for the group law."""
    return {(a.word[j], j + 1): a.colors[j] for j in range(a.n)}


def matrix_mul(ma: dict, mb: dict, n: int, r: int) -> dict:
    out = {}
    for (i, j), e1 in ma.items():
        for (jj, k), e2 in mb.items():
            if j == jj:
                out[(i, k)] = (e1 + e2) % r
    assert len(out) == n
    return out


class TestGroupLaw:
    def test_multiply_example(self):
        a = ColoredPermutation(Permutation((2, 1)), (1, 0), 2)
        b = ColoredPermutation(Permutation((2, 1)), (0, 1), 2)
        c = multiply(a, b)
        assert c.word == (1, 2) and c.colors == (0, 0)

    def test_identity(self):
        e = identity_colored(3, 2)
        for a in enumerate_colored_permutations(3, 2):
            assert multiply(a, e) == a
            assert multiply(e, a) == a

    def test_inverse_example(self):
        a = ColoredPermutation(Permutation((2, 1)), (1, 0), 2)
        assert inverse(a) == ColoredPermutation(Permutation((2, 1)), (0, 1), 2)

    def test_inverses_exhaustive(self):
        e = identity_colored(3, 3)
        for a in enumerate_colored_permutations(3, 3):
            assert multiply(a, inverse(a)) == e
            assert multiply(inverse(a), a) == e
            assert inverse(inverse(a)) == a

    def test_associativity_sampled(self):
        rng = random.Random(7)
        elements = list(enumerate_colored_permutations(3, 3))
        for _ in range(300):
            a, b, c = (rng.choice(elements) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_matrix_realization_oracle(self):
        for n, r in ((2, 2), (3, 2)):
            elements = list(enumerate_colored_permutations(n, r))
            for a in elements:
                for b in elements:
                    got = matrix_of(multiply(a, b))
                    want = matrix_mul(matrix_of(a), matrix_of(b), n, r)
                    assert got == want

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            multiply(identity_colored(2, 2), identity_colored(3, 2))
        with pytest.raises(DimensionMismatchError):
            multiply(identity_colored(2, 2), identity_colored(2, 3))


class TestConjugateInverse:
    def test_conjugate_examples(self):
        a = ColoredPermutation(Permutation((1, 2, 3)), (1, 2, 0), 3)
        assert conjugate(a).colors == (2, 1, 0)
        plain = ColoredPermutation(Permutation((3, 1, 2)), (0, 0, 0), 3)
        assert conjugate(plain) == plain

    def test_conjugate_is_identity_on_colors_mod_2(self):
        for a in enumerate_colored_permutations(3, 2):
            assert conjugate(a) == a  # -1 == 1 mod 2

    def test_worked_example(self):
        w = parse_colored_permutation("2^0,3^0,7^1,10^1,5^1,6^3,1^1,8^1,9^1,4^2", 4)
        assert conj_inverse(w).text() == "7^1,1^0,2^0,10^2,5^1,6^3,3^1,8^1,9^1,4^1"

    def test_identity_fixed(self):
        e = identity_colored(4, 3)
        assert conj_inverse(e) == e

    def test_involution_exhaustive(self):
        for a in enumerate_colored_permutations(3, 3):
            assert conj_inverse(conj_inverse(a)) == a

    def test_factorizations(self):
        for a in enumerate_colored_permutations(4, 2):
            assert conj_inverse(a) == inverse(conjugate(a))
            assert conj_inverse(a) == conjugate(inverse(a))


class TestClassicalDescents:
    def test_examples(self):
        assert descent_set(Permutation((1, 3, 2, 4))) == {2}
        assert descent_set(Permutation((1, 2, 3, 4))) == frozenset()
        assert descent_set(Permutation((4, 3, 2, 1))) == {1, 2, 3}

    def test_descent_composition(self):
        assert descent_composition(Permutation((1, 3, 2, 4))).parts == (2, 2)
        assert descent_composition(Permutation((1, 2, 3))).parts == (3,)

    def test_empty_descent_composition_is_refused(self):
        # a composition needs a part, so n = 0 has none
        assert descent_set(Permutation(())) == frozenset()
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            descent_composition(Permutation(()))

    def test_call_is_bounded_to_one_through_n(self):
        p = Permutation((2, 1, 3))
        assert [p(i) for i in (1, 2, 3)] == [2, 1, 3]
        for i in (0, -1, 4):
            with pytest.raises(ValueError, match=f"^i must lie in 1..3, got {i}$"):
                p(i)


EMPTY = ColoredPermutation(Permutation(()), (), 2)


class TestEmptyColoredPermutation:
    def test_colored_descent_set_is_refused(self):
        # a colored set needs n >= 1
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            colored_descent_set(EMPTY)

    def test_colored_descent_composition_is_refused(self):
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            colored_descent_composition(EMPTY)

    def test_steingrimsson_descent_set_is_empty(self):
        assert steingrimsson_descent_set(EMPTY) == frozenset()


class TestColoredDescents:
    def test_colored_descent_set_from_definition(self):
        # The maximal increasing constant-color runs of this word end at
        # positions 2, 3, 5, 6, 9 (plus 10); the run colors follow the word.
        w = parse_colored_permutation("2^3,4^3,6^1,1^1,5^1,10^3,3^1,7^1,9^1,8^0", 4)
        assert colored_descent_set(w).pairs == (
            (2, 3), (3, 1), (5, 1), (6, 3), (9, 1), (10, 0),
        )
        assert colored_descent_composition(w).text() == "2^3,1^1,2^1,1^3,3^1,1^0"

    def test_identity_all_colors_zero(self):
        from coloredsym import identity_colored

        w = identity_colored(4, 3)
        assert colored_descent_set(w).pairs == ((4, 0),)

    def test_monochromatic_increasing(self):
        w = ColoredPermutation(Permutation((1, 2, 3, 4)), (2, 2, 2, 2), 3)
        assert colored_descent_set(w).pairs == ((4, 2),)
        assert colored_descent_composition(w).text() == "4^2"

    def test_last_position_always_present(self):
        for a in enumerate_colored_permutations(3, 3):
            pairs = colored_descent_set(a).pairs
            assert pairs[-1] == (3, a.colors[-1])

    def test_color_vector_preserved(self):
        for a in enumerate_colored_permutations(4, 2):
            assert extend_set_color_vector(colored_descent_set(a)) == a.colors

    def test_two_letter_example(self):
        w = parse_colored_permutation("2^1,1^0", 2)
        assert colored_descent_composition(w).text() == "1^1,1^0"


class TestSteingrimssonDescents:
    def test_examples(self):
        assert steingrimsson_descent_set(identity_colored(4, 2)) == frozenset()
        w = parse_colored_permutation("1^1,2^0", 2)
        assert steingrimsson_descent_set(w) == {1}

    def test_final_position_iff_positive_color(self):
        for a in enumerate_colored_permutations(3, 3):
            assert (a.n in steingrimsson_descent_set(a)) == (a.colors[-1] > 0)

    def test_classical_reduction(self):
        for n in range(1, 6):
            for a in enumerate_colored_permutations(n, 1):
                assert steingrimsson_descent_set(a) == descent_set(a.perm)

    def test_interior_positions_match_color_rule(self):
        # Away from n, the descents are the part boundaries whose colors
        # do not strictly increase.
        for a in enumerate_colored_permutations(3, 3):
            ce = colored_descent_composition(a)
            sums = ColoredComposition(ce.parts, ce.colors, ce.r).composition().partial_sums()
            want = {
                sums[j]
                for j in range(len(ce.parts) - 1)
                if ce.colors[j] >= ce.colors[j + 1]
            }
            assert steingrimsson_descent_set(a) - {a.n} == want


class TestDescentClasses:
    def test_classical_reading_words(self):
        ce = ColoredComposition((2, 2), (0, 0), 1)
        words = {a.word for a in descent_class(ce)}
        assert words == {(1, 3, 2, 4), (1, 4, 2, 3), (2, 3, 1, 4), (2, 4, 1, 3), (3, 4, 1, 2)}

    def test_classical_inverse_class(self):
        ce = ColoredComposition((2, 2), (0, 0), 1)
        words = {a.word for a in conj_inverse_descent_class(ce)}
        assert words == {(1, 3, 2, 4), (1, 3, 4, 2), (3, 1, 2, 4), (3, 1, 4, 2), (3, 4, 1, 2)}

    def test_singleton_class(self):
        ce = ColoredComposition((4,), (1,), 3)
        members = descent_class(ce)
        assert len(members) == 1
        assert members[0].word == (1, 2, 3, 4) and members[0].colors == (1, 1, 1, 1)

    @pytest.mark.parametrize("n,r", ref.CELLS)
    def test_partition_of_group(self, n, r):
        # the listed classes are disjoint, lie in their classes and cover
        # the group
        members = set()
        for ce in enumerate_colored_compositions(n, r):
            for a in descent_class(ce):
                assert colored_descent_composition(a) == ce
                members.add(a)
        assert len(members) == math.factorial(n) * r**n

    @pytest.mark.parametrize("n,r", [(3, 2), (4, 3)])
    def test_class_sizes_match_conj_inverse_sizes(self, n, r):
        for ce in enumerate_colored_compositions(n, r):
            assert len(descent_class(ce)) == len(conj_inverse_descent_class(ce))

    def test_resource_bound(self):
        # nine one-cell ribbons of alternating colors: 9! members
        ce = ColoredComposition((1,) * 9, (0, 1) * 4 + (0,), 2)
        assert descent_class_size(ce) == math.factorial(9)
        for fn in (descent_class, conj_inverse_descent_class):
            with pytest.raises(ResourceLimitError):
                fn(ce)

    @pytest.mark.parametrize("n,r", [(8, 4), (9, 1)])
    def test_class_bound_is_the_class_size(self, n, r):
        # one ribbon of one color is a class of one member, however large
        # the group
        ce = ColoredComposition((n,), (r - 1,), r)
        for fn in (descent_class, conj_inverse_descent_class):
            assert len(fn(ce)) == 1

    @pytest.mark.parametrize("n,r", ref.CELLS)
    def test_class_size_formula(self, n, r):
        table = ref.descent_class_table(n, r)
        for ce in enumerate_colored_compositions(n, r):
            assert descent_class_size(ce) == len(table.get(ce, []))

    def test_class_size_builds_no_object_and_counts_each_class(self, monkeypatch):
        # every class with n <= 5, r <= 3 against the group, counted on raw
        # pairs; the runs are split from the raw parts and colors, so no
        # composition object is built
        cells = [(n, r) for n in range(1, 6) for r in (1, 2, 3)]
        comps = {cell: enumerate_colored_compositions(*cell) for cell in cells}
        built = []
        for cls in (Composition, RainbowDecomposition):
            monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self))
        for n, r in cells:
            counts = Counter(_raw_colored_descent_composition(*w) for w in _raw_group(n, r))
            sizes = {(ce.parts, ce.colors): descent_class_size(ce) for ce in comps[n, r]}
            assert sizes == counts, (n, r)
        assert built == []


class TestText:
    def test_round_trip(self):
        w = parse_colored_permutation("2^0,3^0,7^1,10^1,5^1,6^3,1^1,8^1,9^1,4^2", 4)
        assert parse_colored_permutation(w.text(), 4) == w

    def test_rejects_non_permutation(self):
        with pytest.raises(ParseError):
            parse_colored_permutation("1^0,1^0", 2)

    def test_color_count_below_one_is_named(self):
        with pytest.raises(ValueError, match="^r must be at least 1, got 0$"):
            ColoredPermutation(Permutation((1,)), (0,), 0)
        with pytest.raises(ParseError, match="^r must be at least 1, got 0$"):
            parse_colored_permutation("1^0", 0)

    @given(st.integers(1, 6), st.integers(1, 4), st.randoms(use_true_random=False))
    def test_random_round_trip(self, n, r, rng):
        word = list(range(1, n + 1))
        rng.shuffle(word)
        colors = tuple(rng.randrange(r) for _ in range(n))
        a = ColoredPermutation(Permutation(tuple(word)), colors, r)
        assert parse_colored_permutation(a.text(), r) == a

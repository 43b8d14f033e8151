"""Reading words, the class/tableau correspondence and colored insertion."""

from itertools import groupby, islice

import pytest
from hypothesis import given, strategies as st

from coloredsym import (
    ColoredComposition,
    ColoredPermutation,
    Composition,
    Permutation,
    RPartiteTableau,
    StandardTableau,
    SkewShape,
    colored_class_to_tableau,
    colored_descent_composition,
    colored_descent_set,
    colored_rsk,
    colored_rsk_inverse,
    colored_tableau_to_class,
    colored_zigzag_of,
    conj_inverse,
    conj_inverse_descent_class,
    descent_class,
    descent_composition,
    direct_sum,
    enumerate_colored_compositions,
    enumerate_colored_permutations,
    enumerate_compositions,
    enumerate_syt,
    parse_colored_permutation,
    reading_word,
    reading_word_inverse,
    rpartite_descent_set,
    rpartite_shape_of,
    zigzag_of,
)
from coloredsym.errors import ShapeError
from coloredsym.bijections import _raw_rsk, _raw_rsk_inverse
from coloredsym.shapes import EMPTY_SHAPE, straight_shape

import group_reference as ref


def classical_rs(word):
    """Independent row-insertion oracle returning (P, Q) as row lists."""
    p_rows, q_rows = [], []
    for i, x in enumerate(word, start=1):
        r = 0
        while True:
            if r == len(p_rows):
                p_rows.append([x])
                q_rows.append([i])
                break
            row = p_rows[r]
            bigger = [k for k, v in enumerate(row) if v > x]
            if not bigger:
                row.append(x)
                q_rows[r].append(i)
                break
            x, row[bigger[0]] = row[bigger[0]], x
            r += 1
    return p_rows, q_rows


def class_to_tableau_by_blocks(a):
    """Reference: fill each maximal constant-color factor of the window word
    as the ribbon of its standardization, through ``reading_word_inverse``,
    then stack the ribbons of one color, later factors above and right."""
    shapes = [EMPTY_SHAPE] * a.r
    rows = [()] * a.r
    for color, group in groupby(zip(a.word, a.colors), key=lambda vc: vc[1]):
        values = [v for v, _ in group]
        ranked = sorted(values)
        std = Permutation(tuple(ranked.index(v) + 1 for v in values))
        q = reading_word_inverse(std, descent_composition(std))
        shapes[color] = direct_sum(shapes[color], q.shape)
        restored = tuple(tuple(ranked[x - 1] for x in row) for row in q.rows)
        rows[color] = restored + rows[color]
    return RPartiteTableau(
        tuple(StandardTableau(shape, rw) for shape, rw in zip(shapes, rows))
    )


class TestReadingWord:
    def test_displayed_pairs(self):
        shape = zigzag_of(Composition((2, 2))).shape
        pairs = {
            ((2, 4), (1, 3)): (1, 3, 2, 4),
            ((2, 3), (1, 4)): (1, 4, 2, 3),
            ((1, 4), (2, 3)): (2, 3, 1, 4),
            ((1, 3), (2, 4)): (2, 4, 1, 3),
            ((1, 2), (3, 4)): (3, 4, 1, 2),
        }
        for rows, word in pairs.items():
            q = StandardTableau(shape, rows)
            assert reading_word(q).word == word

    def test_single_row(self):
        q = StandardTableau(straight_shape((4,)), ((1, 2, 3, 4),))
        assert reading_word(q).word == (1, 2, 3, 4)

    def test_rejects_non_ribbon(self):
        q = StandardTableau(straight_shape((2, 2)), ((1, 2), (3, 4)))
        with pytest.raises(ShapeError):
            reading_word(q)

    def test_inverse_examples(self):
        q = reading_word_inverse(Permutation((1, 3, 2, 4)), Composition((2, 2)))
        assert q.rows == ((2, 4), (1, 3))
        row = reading_word_inverse(Permutation((1, 2, 3)), Composition((3,)))
        assert row.rows == ((1, 2, 3),)

    def test_inverse_requires_matching_composition(self):
        with pytest.raises(ShapeError):
            reading_word_inverse(Permutation((1, 2, 3)), Composition((1, 2)))

    def test_round_trip_over_compositions_of_5(self):
        for a in enumerate_compositions(5):
            for q in enumerate_syt(zigzag_of(a).shape):
                w = reading_word(q)
                assert descent_composition(w) == a
                assert reading_word_inverse(w, a) == q


class TestClassTableau:
    def test_worked_example(self):
        w = parse_colored_permutation("2^0,3^0,7^1,10^1,5^1,6^3,1^1,8^1,9^1,4^2", 4)
        bq = colored_class_to_tableau(w)
        assert bq.to_json() == [
            [[2, 3]],
            [[1, 8, 9], [5], [7, 10]],
            [[4]],
            [[6]],
        ]
        assert bq.components[1].shape == SkewShape((5, 2, 2), (2, 1))
        assert rpartite_descent_set(bq).pairs == (
            (1, 1), (3, 0), (4, 2), (5, 1), (6, 3), (9, 1), (10, 1),
        )
        assert rpartite_descent_set(bq) == colored_descent_set(conj_inverse(w))
        assert colored_tableau_to_class(bq, colored_descent_composition(w)) == w

    def test_matches_ribbon_by_ribbon_reference(self):
        for n in range(1, 5):
            for r in (1, 2):
                for a in enumerate_colored_permutations(n, r):
                    assert colored_class_to_tableau(a) == class_to_tableau_by_blocks(a)

    def test_monochromatic_word(self):
        w = ColoredPermutation(Permutation((1, 2, 3)), (1, 1, 1), 2)
        bq = colored_class_to_tableau(w)
        assert bq.to_json() == [[], [[1, 2, 3]]]

    def test_shape_matches_colored_zigzag(self):
        for a in enumerate_colored_permutations(4, 2):
            bq = colored_class_to_tableau(a)
            ce = colored_descent_composition(a)
            assert bq.shape() == rpartite_shape_of(colored_zigzag_of(ce), 2)

    @pytest.mark.parametrize("n,r", [(4, 2), (3, 3)])
    def test_round_trip_over_classes(self, n, r):
        for ce in enumerate_colored_compositions(n, r):
            for a in descent_class(ce):
                bq = colored_class_to_tableau(a)
                assert colored_tableau_to_class(bq, ce) == a

    @pytest.mark.parametrize("n,r", ref.CELLS)
    def test_generated_classes_match_filtered_group(self, n, r):
        # the classes built from fillings equal those filtered from the group,
        # in the same (word, colors) order
        table = ref.descent_class_table(n, r)
        conj_table = ref.descent_class_table(
            n, r, lambda a: colored_descent_composition(conj_inverse(a))
        )
        for ce in enumerate_colored_compositions(n, r):
            assert descent_class(ce) == table.get(ce, [])
            assert conj_inverse_descent_class(ce) == conj_table.get(ce, [])

    def test_shape_mismatch_rejected(self):
        w = ColoredPermutation(Permutation((1, 2)), (0, 0), 2)
        bq = colored_class_to_tableau(w)
        other = ColoredComposition((1, 1), (0, 1), 2)
        with pytest.raises(ShapeError):
            colored_tableau_to_class(bq, other)


class TestColoredRsk:
    def test_identity_word(self):
        w = ColoredPermutation(Permutation((1, 2, 3)), (0, 0, 0), 2)
        p, q = colored_rsk(w)
        assert p.to_json() == [[[1, 2, 3]], []]
        assert q.to_json() == [[[1, 2, 3]], []]

    def test_classical_frozen_example(self):
        w = ColoredPermutation(Permutation((3, 4, 1, 2)), (0, 0, 0, 0), 1)
        p, q = colored_rsk(w)
        assert p.to_json() == [[[1, 2], [3, 4]]]
        assert q.to_json() == [[[1, 2], [3, 4]]]

    def test_classical_oracle_on_s4(self):
        from itertools import permutations

        for word in permutations(range(1, 5)):
            w = ColoredPermutation(Permutation(word), (0, 0, 0, 0), 1)
            p, q = colored_rsk(w)
            p_rows, q_rows = classical_rs(word)
            assert p.to_json() == [[list(r) for r in p_rows]]
            assert q.to_json() == [[list(r) for r in q_rows]]

    def test_bijective_on_s43(self):
        seen = set()
        count = 0
        for w in enumerate_colored_permutations(4, 3):
            count += 1
            seen.add(colored_rsk(w))
        assert count == len(seen) == 1944

    def test_round_trip_on_s33(self):
        for w in enumerate_colored_permutations(3, 3):
            p, q = colored_rsk(w)
            assert p.shape() == q.shape()
            assert colored_rsk_inverse(p, q) == w

    def test_descent_transport(self):
        for w in islice(enumerate_colored_permutations(4, 2), 0, None, 3):
            p, q = colored_rsk(w)
            assert rpartite_descent_set(q) == colored_descent_set(w)
            assert rpartite_descent_set(p) == colored_descent_set(conj_inverse(w))

    def test_color_vector_bookkeeping(self):
        # recording side keeps the word's colors, insertion side those of
        # the conjugate-inverse
        from coloredsym import rpartite_color_vector

        for w in enumerate_colored_permutations(3, 2):
            p, q = colored_rsk(w)
            assert rpartite_color_vector(q) == w.colors
            assert rpartite_color_vector(p) == conj_inverse(w).colors

    def test_shape_mismatch_rejected(self):
        w1 = ColoredPermutation(Permutation((1, 2)), (0, 0), 2)
        w2 = ColoredPermutation(Permutation((2, 1)), (0, 0), 2)
        p1, _ = colored_rsk(w1)
        _, q2 = colored_rsk(w2)
        with pytest.raises(ShapeError):
            colored_rsk_inverse(p1, q2)

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 5) for r in (1, 2, 3)])
    def test_raw_insertion_matches_public(self, n, r):
        for w in enumerate_colored_permutations(n, r):
            p, q = colored_rsk(w)
            rows = (
                tuple(c.rows for c in p.components),
                tuple(c.rows for c in q.components),
            )
            assert _raw_rsk(w.word, w.colors, r) == rows
            assert _raw_rsk_inverse(*rows) == (w.word, w.colors)
            assert colored_rsk_inverse(p, q) == w

    @given(st.integers(1, 6), st.integers(1, 4), st.randoms(use_true_random=False))
    def test_random_round_trip(self, n, r, rng):
        word = list(range(1, n + 1))
        rng.shuffle(word)
        colors = tuple(rng.randrange(r) for _ in range(n))
        w = ColoredPermutation(Permutation(tuple(word)), colors, r)
        p, q = colored_rsk(w)
        assert colored_rsk_inverse(p, q) == w


def test_class_to_tableau_refuses_the_empty_permutation():
    # its shape is that of the colored descent composition, which needs n >= 1
    empty = ColoredPermutation(Permutation(()), (), 2)
    with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
        colored_class_to_tableau(empty)

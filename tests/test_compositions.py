"""Compositions, colored compositions and their subset encodings."""

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from coloredsym import (
    AugmentedSubset,
    ColoredComposition,
    Composition,
    augmented_set_to_comp,
    coarsening_covers,
    coarsenings,
    colored_comp_to_colored_set,
    colored_set_to_colored_comp,
    comp_to_augmented_set,
    composition_coarsenings,
    enumerate_colored_compositions,
    enumerate_compositions,
    extend_color_vector,
    extend_set_color_vector,
    parse_colored_composition,
    rainbow_decomposition,
    refines,
)
from coloredsym.compositions import _raw_colored_compositions, _raw_compositions
from coloredsym.errors import DimensionMismatchError, ParseError

RUNNING = parse_colored_composition("2^0,2^1,1^1,1^3,3^1,1^2", 4)


def colored_comps(max_n=6, max_r=4):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        r = draw(st.integers(1, max_r))
        parts = []
        while sum(parts) < n:
            parts.append(draw(st.integers(1, n - sum(parts))))
        colors = [draw(st.integers(0, r - 1)) for _ in parts]
        return ColoredComposition(tuple(parts), tuple(colors), r)

    return build()


class TestSubsetEncoding:
    def test_partial_sums(self):
        assert comp_to_augmented_set(Composition((2, 1, 2, 3, 1))).elements == (
            2, 3, 5, 8, 9,
        )
        assert comp_to_augmented_set(Composition((7,))).elements == (7,)
        assert comp_to_augmented_set(Composition((1, 1, 1, 1))).elements == (1, 2, 3, 4)

    def test_differences(self):
        assert augmented_set_to_comp(AugmentedSubset(9, (2, 3, 5, 8, 9))).parts == (
            2, 1, 2, 3, 1,
        )
        assert augmented_set_to_comp(AugmentedSubset(5, (5,))).parts == (5,)
        assert augmented_set_to_comp(AugmentedSubset(4, (1, 2, 3, 4))).parts == (
            1, 1, 1, 1,
        )

    @pytest.mark.parametrize("n", range(1, 11))
    def test_round_trip_exhaustive(self, n):
        for comp in enumerate_compositions(n):
            assert augmented_set_to_comp(comp_to_augmented_set(comp)) == comp

    def test_invalid_subsets(self):
        with pytest.raises(ValueError):
            AugmentedSubset(4, (1, 2))  # n missing
        with pytest.raises(ValueError):
            AugmentedSubset(4, (3, 2, 4))


class TestColoredEncoding:
    def test_running_example(self):
        cs = colored_comp_to_colored_set(RUNNING)
        assert cs.pairs == ((2, 0), (4, 1), (5, 1), (6, 3), (9, 1), (10, 2))
        assert colored_set_to_colored_comp(cs) == RUNNING

    def test_single_part(self):
        ce = ColoredComposition((5,), (2,), 3)
        assert colored_comp_to_colored_set(ce).pairs == ((5, 2),)

    def test_forced_partial_sums(self):
        ce = ColoredComposition((1, 1), (0, 1), 2)
        assert colored_comp_to_colored_set(ce).pairs == ((1, 0), (2, 1))

    def test_round_trip_exhaustive(self):
        for n in range(1, 7):
            for r in (1, 2, 3):
                for ce in enumerate_colored_compositions(n, r):
                    assert colored_set_to_colored_comp(
                        colored_comp_to_colored_set(ce)
                    ) == ce

    def test_extended_color_vector(self):
        assert extend_color_vector(RUNNING) == (0, 0, 1, 1, 1, 3, 1, 1, 1, 2)
        assert extend_color_vector(ColoredComposition((4,), (2,), 3)) == (2, 2, 2, 2)
        assert extend_color_vector(
            ColoredComposition((1, 1, 1), (0, 1, 0), 2)
        ) == (0, 1, 0)

    def test_extension_agrees_with_set_extension(self):
        for n in range(1, 6):
            for ce in enumerate_colored_compositions(n, 3):
                assert extend_color_vector(ce) == extend_set_color_vector(
                    colored_comp_to_colored_set(ce)
                )


class TestRefinement:
    def test_examples(self):
        coarse = ColoredComposition((4,), (0,), 2)
        fine_same = ColoredComposition((2, 2), (0, 0), 2)
        fine_mixed = ColoredComposition((2, 2), (0, 1), 2)
        assert refines(fine_same, coarse)
        assert not refines(fine_mixed, coarse)

    def test_reflexive(self):
        for ce in enumerate_colored_compositions(4, 2):
            assert refines(ce, ce)

    def test_requires_same_color_vector(self):
        for ce in enumerate_colored_compositions(4, 2):
            for beta in coarsenings(ce):
                assert extend_color_vector(beta) == extend_color_vector(ce)
                assert refines(ce, beta)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            refines(ColoredComposition((2,), (0,), 1), ColoredComposition((3,), (0,), 1))

    def test_matches_covering_relation_closure(self):
        # reachability by single merges == the subset characterization
        for n in range(1, 6):
            ces = enumerate_colored_compositions(n, 2)
            for ce in ces:
                reached = {ce}
                frontier = [ce]
                while frontier:
                    cur = frontier.pop()
                    for covered in coarsening_covers(cur):
                        if covered not in reached:
                            reached.add(covered)
                            frontier.append(covered)
                below = {beta for beta in ces if refines(ce, beta)}
                assert reached == below


class TestRainbow:
    def test_running_example(self):
        blocks = rainbow_decomposition(RUNNING).blocks
        assert [(b.parts, c) for b, c in blocks] == [
            ((2,), 0), ((2, 1), 1), ((1,), 3), ((3,), 1), ((1,), 2),
        ]

    def test_monochromatic(self):
        blocks = rainbow_decomposition(ColoredComposition((5,), (1,), 2)).blocks
        assert [(b.parts, c) for b, c in blocks] == [((5,), 1)]

    def test_alternating(self):
        blocks = rainbow_decomposition(
            ColoredComposition((1, 1, 1), (0, 1, 0), 2)
        ).blocks
        assert [(b.parts, c) for b, c in blocks] == [((1,), 0), ((1,), 1), ((1,), 0)]

    def test_properties_exhaustive(self):
        for n in range(1, 6):
            for ce in enumerate_colored_compositions(n, 3):
                rd = rainbow_decomposition(ce)
                colors = [c for _, c in rd.blocks]
                assert all(a != b for a, b in zip(colors, colors[1:]))
                assert rd.colored_composition(ce.r) == ce


class TestEnumeration:
    def test_classical_counts(self):
        assert [c.parts for c in enumerate_compositions(1)] == [(1,)]
        assert len(enumerate_compositions(3)) == 4
        assert len(enumerate_compositions(9)) == 256
        comps = enumerate_compositions(4)
        assert comps == sorted(comps, key=lambda c: c.parts)

    def test_colored_counts(self):
        assert len(enumerate_colored_compositions(2, 2)) == 6
        assert len(enumerate_colored_compositions(1, 7)) == 7
        assert len(enumerate_colored_compositions(5, 3)) == 3 * 4**4

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("r", range(1, 5))
    def test_colored_count_formula(self, n, r):
        assert len(enumerate_colored_compositions(n, r)) == r * (r + 1) ** (n - 1)

    def test_deterministic_order(self):
        once = enumerate_colored_compositions(4, 3)
        again = enumerate_colored_compositions(4, 3)
        assert once == again
        keys = [(extend_color_vector(ce), ce.parts) for ce in once]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_raw_enumerators_match_the_public_ones(self, n):
        # the raw parts are the compositions in lexicographic order, one
        # per subset of the n - 1 gaps; the raw colored pairs come in no
        # promised order and, sorted, are the public list
        cuts = [
            (0, *gaps, n)
            for k in range(n)
            for gaps in combinations(range(1, n), k)
        ]
        want = sorted(tuple(b - a for a, b in zip(c, c[1:])) for c in cuts)
        assert list(_raw_compositions(n)) == want
        assert [a.parts for a in enumerate_compositions(n)] == want
        for r in (1, 2, 3):
            raw = list(_raw_colored_compositions(n, r))
            ordered = sorted(
                raw,
                key=lambda pair: (
                    extend_color_vector(ColoredComposition(*pair, r)),
                    pair[0],
                ),
            )
            assert len(set(raw)) == len(raw)
            assert ordered == [
                (ce.parts, ce.colors) for ce in enumerate_colored_compositions(n, r)
            ]


class TestCoarsenings:
    def test_classical_count(self):
        a = Composition((2, 1, 3))
        betas = composition_coarsenings(a)
        assert len(betas) == 4
        assert Composition((6,)) in betas
        assert a in betas

    def test_colored_block_structure(self):
        betas = coarsenings(RUNNING)
        # merges only inside the (2,1) block: exactly two coarsenings
        assert len(betas) == 2
        texts = {ce.text() for ce in betas}
        assert texts == {"2^0,2^1,1^1,1^3,3^1,1^2", "2^0,3^1,1^3,3^1,1^2"}

    def test_count_is_product_over_blocks(self):
        for ce in enumerate_colored_compositions(5, 2):
            expected = 1
            for comp, _ in rainbow_decomposition(ce).blocks:
                expected *= 2 ** (len(comp.parts) - 1)
            assert len(coarsenings(ce)) == expected

    def test_covers_merge_one_pair(self):
        covers = coarsening_covers(RUNNING)
        assert [c.text() for c in covers] == ["2^0,3^1,1^3,3^1,1^2"]


class TestText:
    def test_parse_running_example(self):
        assert RUNNING.parts == (2, 2, 1, 1, 3, 1)
        assert RUNNING.colors == (0, 1, 1, 3, 1, 2)
        assert RUNNING.r == 4

    def test_whitespace_insensitive(self):
        assert parse_colored_composition(" 2^0 , 2^1 ", 2) == parse_colored_composition(
            "2^0,2^1", 2
        )

    def test_default_color_and_r(self):
        ce = parse_colored_composition("2,2")
        assert ce.colors == (0, 0) and ce.r == 1

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_colored_composition("2^", 2)
        with pytest.raises(ParseError):
            parse_colored_composition("", 2)
        with pytest.raises(ParseError):
            parse_colored_composition("2^5", 2)  # color out of range

    def test_color_count_below_one_is_named(self):
        for r in (0, -1):
            with pytest.raises(ValueError, match=f"^r must be at least 1, got {r}$"):
                ColoredComposition((1,), (0,), r)
            with pytest.raises(ParseError, match="^r must be at least 1"):
                parse_colored_composition("1^0", r)
        with pytest.raises(ValueError, match="^colors must lie in 0..0"):
            ColoredComposition((1,), (1,), 1)

    @given(colored_comps())
    def test_format_parse_round_trip(self, ce):
        assert parse_colored_composition(ce.text(), ce.r) == ce


def test_json_shapes():
    assert RUNNING.to_json() == {
        "n": 10,
        "r": 4,
        "parts": [2, 2, 1, 1, 3, 1],
        "colors": [0, 1, 1, 3, 1, 2],
    }
    cs = colored_comp_to_colored_set(RUNNING)
    assert cs.to_json()["pairs"][0] == [2, 0]
    assert Composition((2, 1)).to_json() == {"n": 3, "parts": [2, 1]}

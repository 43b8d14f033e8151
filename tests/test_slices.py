"""The classical statistics are r = 1 slices of the colored ones, and the
set-to-composition maps share one loop: each is checked against the loop it
replaced, kept in ``slice_reference``."""

import pytest

import slice_reference as ref
from coloredsym import (
    Permutation,
    StandardTableau,
    augmented_set_to_comp,
    colored_comp_to_colored_set,
    colored_set_to_colored_comp,
    colored_zigzag_of,
    comp_to_augmented_set,
    descent_composition,
    enumerate_colored_compositions,
    enumerate_compositions,
    enumerate_permutations,
    enumerate_skew_shapes,
    enumerate_syt,
    extend_set_color_vector,
    rainbow_decomposition,
    reading_word_inverse,
    rpartite_shape_of,
    tableau_descent_set,
)
from coloredsym.permutations import _raw_colored_descent_composition, _raw_group
from coloredsym.shapes import (
    _raw_colored_composition_shape,
    _raw_fillings,
    _raw_rpartite_descent_composition,
    _raw_rpartite_descent_set,
)

NS = range(1, 7)
RS = range(1, 4)


@pytest.mark.parametrize("n", NS)
def test_word_descent_compositions_match_the_run_loops(n):
    for r in RS:
        assert all(
            _raw_colored_descent_composition(w, z) == ref.colored_descent_composition(w, z)
            for w, z in _raw_group(n, r)
        )
    for p in enumerate_permutations(n):
        assert descent_composition(p) == ref.descent_composition(p)


@pytest.mark.parametrize("n", NS)
def test_set_encodings_and_rainbow_blocks_match_their_loops(n):
    for comp in enumerate_compositions(n):
        s = comp_to_augmented_set(comp)
        assert augmented_set_to_comp(s) == ref.augmented_set_to_comp(s) == comp
    for r in RS:
        for ce in enumerate_colored_compositions(n, r):
            cs = colored_comp_to_colored_set(ce)
            assert colored_set_to_colored_comp(cs) == ref.colored_set_to_colored_comp(cs) == ce
            assert extend_set_color_vector(cs) == ref.extend_set_color_vector(cs)
            assert rainbow_decomposition(ce) == ref.rainbow_decomposition(ce)


@pytest.mark.parametrize("n", range(1, 6))
def test_filling_descent_compositions_match_the_differences(n):
    # the fillings of the shapes of the colored compositions of n with r
    # colors are those of the whole group
    for r in RS:
        for ce in enumerate_colored_compositions(n, r):
            bounds = _raw_colored_composition_shape(ce.parts, ce.colors, r)
            for filling in _raw_fillings(bounds):
                assert _raw_rpartite_descent_composition(filling) == (
                    ref.rpartite_descent_composition(_raw_rpartite_descent_set(filling))
                )


@pytest.mark.parametrize("m", NS)
def test_tableau_descent_set_matches_the_row_rule(m):
    for shape in enumerate_skew_shapes(m):
        for q in enumerate_syt(shape):
            assert tableau_descent_set(q) == ref.tableau_descent_set(q)


@pytest.mark.parametrize("n", NS)
def test_paper_route_shape_and_reading_word_inverse_match_their_loops(n):
    for r in RS:
        for ce in enumerate_colored_compositions(n, r):
            czz = colored_zigzag_of(ce)
            assert rpartite_shape_of(czz, r) == ref.rpartite_shape_of(czz, r)
    for p in enumerate_permutations(n):
        a = descent_composition(p)
        assert reading_word_inverse(p, a) == ref.reading_word_inverse(p, a)

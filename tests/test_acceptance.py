"""Acceptance suite: the worked examples and every exhaustive sweep at its
full range, each with a stated wall-clock budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  All equalities are exact; there are no tolerances.
"""

import time
from collections import Counter

from coloredsym._poly_py import add_terms
from coloredsym import (
    ColoredComposition,
    ColoredPermutation,
    SkewShape,
    colored_class_to_tableau,
    colored_comp_to_colored_set,
    colored_descent_composition,
    colored_descent_set,
    colored_F,
    colored_ribbon,
    colored_rsk,
    colored_rsk_inverse,
    colored_schur,
    colored_h,
    conj_inverse,
    conj_inverse_descent_class,
    descent_class,
    descent_composition,
    descent_set,
    enumerate_colored_compositions,
    enumerate_compositions,
    enumerate_permutations,
    enumerate_rpartite_partitions,
    enumerate_rpartite_syt,
    expand_in_colored_schur,
    fundamental_F,
    parse_colored_permutation,
    qsym_generating_function,
    rainbow_decomposition,
    reading_word_inverse,
    ribbon_h_expansion,
    ribbon_schur_by_counting,
    rpartite_descent_composition,
    rpartite_descent_set,
    schur_poly,
    steingrimsson_descent_set,
    verify_colored_class_tableau,
    verify_colored_ribbon_h,
    verify_colored_ribbon_schur,
    verify_colored_rsk,
    verify_colored_zigzag_count,
    verify_reading_word_bijection,
    verify_skew_schur_f_expansion,
    zigzag_of,
)
RUNNING = ColoredComposition((2, 2, 1, 1, 3, 1), (0, 1, 1, 3, 1, 2), 4)
CLASSICAL = ColoredComposition((2, 2), (0, 0), 1)


def _finish(name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name} took {elapsed:.1f}s (budget {budget}s)"
    print(f"PASS {name} ({elapsed:.2f} s)")


def test_criterion_01_classical_ribbon_example():
    started = time.perf_counter()
    inverse_class = {a.word for a in conj_inverse_descent_class(CLASSICAL)}
    assert inverse_class == {
        (1, 3, 2, 4), (1, 3, 4, 2), (3, 1, 2, 4), (3, 1, 4, 2), (3, 4, 1, 2),
    }
    f_counts = Counter(
        colored_descent_composition(a).parts
        for a in conj_inverse_descent_class(CLASSICAL)
    )
    assert f_counts == {(2, 2): 2, (3, 1): 1, (1, 3): 1, (1, 2, 1): 1}
    ribbon = colored_ribbon(CLASSICAL, (4,))
    assert ribbon == qsym_generating_function(
        conj_inverse_descent_class(CLASSICAL), (4,)
    )
    assert expand_in_colored_schur(ribbon).coeffs == {((2, 2),): 1, ((3, 1),): 1}
    assert ribbon_schur_by_counting(CLASSICAL).coeffs == {((2, 2),): 1, ((3, 1),): 1}
    assert ribbon_h_expansion(CLASSICAL).coeffs == {((2, 2),): 1, ((4,),): -1}
    assert ribbon == colored_h(((2, 2),), (4,)) - colored_h(((4,),), (4,))
    _finish("criterion 1: classical ribbon example (n=4)", started, 1.0)


def test_criterion_02_colored_running_example():
    started = time.perf_counter()
    assert colored_comp_to_colored_set(RUNNING).pairs == (
        (2, 0), (4, 1), (5, 1), (6, 3), (9, 1), (10, 2),
    )
    assert [(b.parts, c) for b, c in rainbow_decomposition(RUNNING).blocks] == [
        ((2,), 0), ((2, 1), 1), ((1,), 3), ((3,), 1), ((1,), 2),
    ]
    assert ribbon_schur_by_counting(RUNNING).coeffs == {
        ((2,), (3, 2, 1), (1,), (1,)): 1,
        ((2,), (4, 1, 1), (1,), (1,)): 1,
        ((2,), (4, 2), (1,), (1,)): 1,
        ((2,), (5, 1), (1,), (1,)): 1,
    }
    assert ribbon_h_expansion(RUNNING).coeffs == {
        ((2,), (3, 2, 1), (1,), (1,)): 1,
        ((2,), (3, 3), (1,), (1,)): -1,
    }
    diff = colored_h(((3, 2, 1),), (6,)) - colored_h(((3, 3),), (6,))
    assert expand_in_colored_schur(diff).coeffs == {
        ((3, 2, 1),): 1, ((4, 1, 1),): 1, ((4, 2),): 1, ((5, 1),): 1,
    }
    _finish("criterion 2: colored running example (n=10, r=4)", started, 60.0)


def test_criterion_03_worked_class_tableau_example():
    started = time.perf_counter()
    w = parse_colored_permutation("2^0,3^0,7^1,10^1,5^1,6^3,1^1,8^1,9^1,4^2", 4)
    ci = conj_inverse(w)
    assert ci.text() == "7^1,1^0,2^0,10^2,5^1,6^3,3^1,8^1,9^1,4^1"
    bq = colored_class_to_tableau(w)
    assert bq.to_json() == [[[2, 3]], [[1, 8, 9], [5], [7, 10]], [[4]], [[6]]]
    assert bq.components[1].shape == SkewShape((5, 2, 2), (2, 1))
    want_sdes = ((1, 1), (3, 0), (4, 2), (5, 1), (6, 3), (9, 1), (10, 1))
    assert rpartite_descent_set(bq).pairs == want_sdes
    assert colored_descent_set(ci).pairs == want_sdes
    _finish("criterion 3: worked colored example reproduced end-to-end", started, 1.0)


def test_criterion_04_colored_ribbon_schur_exhaustive():
    started = time.perf_counter()
    report = verify_colored_ribbon_schur(5, 3)
    assert report.passed, report.failures
    assert report.breakdown["n=5,r=3"] == 768
    _finish("criterion 4: colored ribbon Schur identity (n<=5, r<=3)", started, 600.0)


def test_criterion_05_colored_ribbon_h_exhaustive():
    started = time.perf_counter()
    report = verify_colored_ribbon_h(5, 3)
    assert report.passed, report.failures
    assert report.breakdown["n=5,r=3"] == 768
    _finish("criterion 5: colored alternating h-expansion (n<=5, r<=3)", started, 600.0)


def test_criterion_06_colored_zigzag_count():
    started = time.perf_counter()
    report = verify_colored_zigzag_count(7, 4)
    assert report.passed, report.failures
    assert report.breakdown["n=7,r=4"] == 4 * 5**6
    _finish("criterion 6: colored zigzag count r(r+1)^(n-1) (n<=7, r<=4)", started, 60.0)


def test_criterion_07_colored_insertion_exhaustive():
    started = time.perf_counter()
    report = verify_colored_rsk(4, 3)
    assert report.passed, report.failures
    assert report.breakdown["n=4,r=3"] == 1944
    _finish("criterion 7: colored insertion correspondence (n<=4, r<=3)", started, 300.0)


def test_criterion_08_bijection_suites():
    started = time.perf_counter()
    classical = verify_reading_word_bijection(6)
    assert classical.passed, classical.failures
    colored = verify_colored_class_tableau(5, 3)
    assert colored.passed, colored.failures
    _finish("criterion 8: reading-word and class/tableau bijections", started, 600.0)


def test_criterion_09_expansion_suites():
    started = time.perf_counter()
    skew = verify_skew_schur_f_expansion(6)
    assert skew.passed, skew.failures
    # product Schur elements decompose into colored fundamentals over fillings
    for n in range(1, 6):
        for r in (1, 2, 3):
            widths = (n,) * r
            for bll in enumerate_rpartite_partitions(n, r):
                lhs = colored_schur(bll, widths)
                acc: dict = {}
                for bq in enumerate_rpartite_syt(bll):
                    add_terms(
                        acc,
                        colored_F(rpartite_descent_composition(bq), widths).terms,
                        1,
                    )
                assert lhs.terms == acc, (bll, widths)
    # width stability on a deterministic sample per degree
    for n in range(1, 6):
        ces = enumerate_colored_compositions(n, 2)
        step = max(1, len(ces) // 20)
        for ce in ces[::step][:20]:
            narrow = expand_in_colored_schur(colored_ribbon(ce, (n, n)))
            wide = expand_in_colored_schur(colored_ribbon(ce, (n + 1, n + 1)))
            assert narrow.coeffs == wide.coeffs
    _finish("criterion 9: expansion suites and width stability", started, 600.0)


def test_criterion_10_single_color_reductions():
    started = time.perf_counter()
    for n in range(1, 6):
        # compositions and their colored forms coincide
        plain = [a.parts for a in enumerate_compositions(n)]
        colored = [ce.parts for ce in enumerate_colored_compositions(n, 1)]
        assert sorted(plain) == sorted(colored)
        widths = (n,)
        for a in enumerate_compositions(n):
            ce = ColoredComposition(a.parts, (0,) * len(a.parts), 1)
            assert colored_F(ce, widths) == fundamental_F(a, 0, widths)
            assert colored_ribbon(ce, widths) == schur_poly(
                zigzag_of(a).shape, 0, widths
            )
            assert [(b.parts, c) for b, c in rainbow_decomposition(ce).blocks] == [
                (a.parts, 0)
            ]
        for p in enumerate_permutations(n):
            w = ColoredPermutation(p, (0,) * n, 1)
            assert colored_descent_composition(w).parts == descent_composition(p).parts
            assert steingrimsson_descent_set(w) == descent_set(p)
            # the class/tableau map reduces to the inverse reading word
            bq = colored_class_to_tableau(w)
            assert bq.components[0] == reading_word_inverse(
                p, descent_composition(p)
            )
            pt, qt = colored_rsk(w)
            assert colored_rsk_inverse(pt, qt) == w
        for a in enumerate_compositions(n):
            ce = ColoredComposition(a.parts, (0,) * len(a.parts), 1)
            classical_class = {
                p.word for p in enumerate_permutations(n) if descent_composition(p) == a
            }
            assert {x.word for x in descent_class(ce)} == classical_class
    _finish("criterion 10: single-color operations match classical ones", started, 600.0)

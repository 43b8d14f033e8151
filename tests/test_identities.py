"""Report plumbing and reduced-range runs of every identity suite."""

import json

import pytest

from coloredsym import (
    IDENTITY_REGISTRY,
    ColoredComposition,
    Expansion,
    VerificationReport,
    ribbon_h_expansion,
    run_identity,
)
from coloredsym import SkewShape, bijections, colored_composition_shape, identities
from coloredsym.symfun import _colored_F_terms, _colored_h_terms
from coloredsym.identities import (
    verify_colored_ribbon_h,
    verify_colored_ribbon_schur,
    verify_colored_rsk,
)

REDUCED = {
    "reading-word": (4, None),
    "skew-schur-f": (4, None),
    "ribbon-schur": (4, None),
    "ribbon-h": (4, None),
    "zigzag-count": (4, 3),
    "class-tableau": (4, 2),
    "colored-ribbon-schur": (4, 2),
    "colored-ribbon-h": (4, 2),
    "rsk": (3, 2),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_REGISTRY))
def test_reduced_range_passes(name):
    max_n, max_r = REDUCED[name]
    report = run_identity(name, max_n, max_r)
    assert report.passed
    assert report.failure_count == 0
    assert report.cases_checked == report.expected_cases
    assert report.cases_checked > 0
    assert sum(report.breakdown.values()) == report.cases_checked


def test_unknown_identity():
    with pytest.raises(KeyError):
        run_identity("nope")


def test_reports_are_deterministic():
    first = verify_colored_ribbon_schur(3, 2).to_json()
    second = verify_colored_ribbon_schur(3, 2).to_json()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_timing_excluded_by_default():
    report = verify_colored_ribbon_h(2, 2)
    assert "wall_time_s" not in report.to_json()
    assert "wall_time_s" in report.to_json(include_timing=True)


def test_parallel_matches_serial():
    serial = verify_colored_ribbon_h(4, 2, jobs=1).to_json()
    parallel = verify_colored_ribbon_h(4, 2, jobs=2).to_json()
    assert serial == parallel


def test_worker_count_is_clamped(monkeypatch):
    # a pool starts all its workers at once, so never more than can run
    monkeypatch.setattr(identities.os, "cpu_count", lambda: 4)
    assert identities._worker_count(5000, 100) == 4
    assert identities._worker_count(5000, 3) == 3
    assert identities._worker_count(2, 100) == 2
    assert identities._worker_count(3, 0) == 0
    monkeypatch.setattr(identities.os, "cpu_count", lambda: None)
    assert identities._worker_count(8, 100) == 1


def test_report_invariants():
    report = VerificationReport(
        identity="demo",
        max_n=2,
        max_r=None,
        cases_checked=3,
        expected_cases=3,
        failure_count=1,
        failures=[{"bad": True}],
        wall_time=0.1,
    )
    assert not report.passed
    assert "FAIL" in report.table()
    clean = VerificationReport(
        identity="demo",
        max_n=2,
        max_r=None,
        cases_checked=3,
        expected_cases=3,
        failure_count=0,
        failures=[],
        wall_time=0.1,
    )
    assert clean.passed
    assert "PASS" in clean.table()
    skipped = VerificationReport(
        identity="demo",
        max_n=2,
        max_r=None,
        cases_checked=2,
        expected_cases=3,
        failure_count=0,
        failures=[],
        wall_time=0.1,
    )
    assert not skipped.passed  # silently skipped cases flip the verdict


def test_rsk_square_sum_guard():
    report = verify_colored_rsk(3, 2)
    assert report.passed
    assert report.breakdown["n=3,r=2"] == 48


def test_classical_ribbon_suites_are_the_r1_slices():
    for classical, colored in (("ribbon-schur", "colored-ribbon-schur"),
                               ("ribbon-h", "colored-ribbon-h")):
        small = run_identity(classical, 4).to_json()
        sliced = run_identity(colored, 4, 1).to_json()
        assert small["max_r"] is None and sliced["max_r"] == 1
        assert small["cases_checked"] == sliced["cases_checked"] == 15
        assert list(small["breakdown"]) == ["n=1", "n=2", "n=3", "n=4"]
        assert list(sliced["breakdown"]) == ["n=1,r=1", "n=2,r=1", "n=3,r=1", "n=4,r=1"]


def _doubled_at(fn, target):
    """``fn`` with every coefficient doubled at ``target``."""
    def planted(key):
        terms = fn(key)
        return {k: 2 * c for k, c in terms.items()} if key == target else terms

    return planted


def test_planted_fundamental_fault_fails_ribbon_schur(monkeypatch):
    target = ColoredComposition((1, 2), (0, 0), 1)
    monkeypatch.setattr(
        identities, "_colored_F_terms", _doubled_at(_colored_F_terms, target)
    )
    report = run_identity("ribbon-schur", 3)
    assert not report.passed
    assert report.failure_count > 0


def test_planted_h_fault_fails_ribbon_h(monkeypatch):
    monkeypatch.setattr(
        identities, "_colored_h_terms", _doubled_at(_colored_h_terms, ((2, 1),))
    )
    report = run_identity("ribbon-h", 3)
    assert not report.passed
    assert report.failure_count > 0


def test_planted_h_expansion_fault_fails_ribbon_h(monkeypatch):
    target = ColoredComposition((1, 2), (0, 0), 1)

    def dropped(ce):
        expansion = ribbon_h_expansion(ce)
        if ce != target:
            return expansion
        kept = dict(expansion.sorted_items()[1:])
        return Expansion(expansion.basis, expansion.n, expansion.r, kept)

    monkeypatch.setattr(identities, "ribbon_h_expansion", dropped)
    report = run_identity("ribbon-h", 3)
    assert not report.passed
    assert report.failure_count == 1


def _shape_with_shifted_direct_sums(ce):
    """The one-pass r-partite shape with every run after the first of its
    color started one column right of its component's top row."""
    outer = [[] for _ in range(ce.r)]
    inner = [[] for _ in range(ce.r)]
    previous = None
    for p, c in zip(ce.parts, ce.colors):
        rows = outer[c]
        start = rows[-1] - 1 if c == previous else rows[-1] + 1 if rows else 0
        inner[c].append(start)
        rows.append(start + p)
        previous = c
    return tuple(SkewShape(o[::-1], i[::-1]) for o, i in zip(outer, inner))


def test_planted_direct_sum_shift_fails_class_tableau(monkeypatch):
    # the bijection builds the planted shape in both directions, so only the
    # suite's shape oracle, the direct sum of the colored zigzags, sees it
    ce = ColoredComposition((1, 1, 1), (0, 1, 0), 2)
    assert _shape_with_shifted_direct_sums(ce) != colored_composition_shape(ce)
    monkeypatch.setattr(
        bijections, "colored_composition_shape", _shape_with_shifted_direct_sums
    )
    report = run_identity("class-tableau", 3, 2)
    assert not report.passed
    assert report.failure_count > 0
    assert {(w["n"], w["r"]) for w in report.failures} == {(3, 2)}

"""Report plumbing and reduced-range runs of every identity suite."""

import functools
import importlib
import inspect
import json
import pkgutil
import re
from collections import Counter
from itertools import accumulate
from pathlib import Path

import pytest

import coloredsym
from coloredsym import (
    IDENTITY_REGISTRY,
    ColoredComposition,
    Composition,
    Expansion,
    VerificationReport,
    colored_zigzag_of,
    descent_class_size,
    enumerate_colored_compositions,
    enumerate_skew_shapes,
    enumerate_syt,
    ribbon_h_expansion,
    rpartite_shape_of,
    run_identity,
    tableau_descent_set,
    zigzag_of,
)
from coloredsym import (
    SkewShape,
    bijections,
    cli,
    compositions,
    identities,
    permutations,
    shapes,
    symfun,
)
from coloredsym.errors import ShapeError
from coloredsym.permutations import _raw_inverse
from coloredsym.shapes import _raw_colored_composition_shape
from coloredsym._poly_py import _patterns
from coloredsym.symfun import (
    _colored_F_terms,
    _h_factors,
    _peeled,
    _raw_ribbon_h_expansion,
    _schur_terms,
)
from coloredsym.identities import (
    verify_colored_ribbon_h,
    verify_colored_ribbon_schur,
    verify_colored_rsk,
)

import group_reference as ref

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


@pytest.mark.parametrize("name", sorted(IDENTITY_REGISTRY))
def test_registry_default_range_is_the_verifier_default(name):
    call, (default_n, default_r) = IDENTITY_REGISTRY[name]
    (verifier,) = call.__code__.co_names
    params = inspect.signature(getattr(identities, verifier)).parameters.values()
    defaults = tuple(p.default for p in params)
    assert defaults == ((default_n,) if default_r is None else (default_n, default_r))


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
    """``fn`` with every coefficient doubled at the arguments ``target``."""
    def planted(*key):
        terms = fn(*key)
        return {k: 2 * c for k, c in terms.items()} if key == target else terms

    return planted


def _pair(ce):
    """The (parts, colors) pair of ``ce``, as the sweeps take it."""
    return ce.parts, ce.colors


def _constructions(monkeypatch, cls):
    """The list that each validated construction of ``cls`` from now on
    appends its instance to."""
    built = []
    post_init = cls.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return built


POLYNOMIAL_MEMOS = (_colored_F_terms, _schur_terms, _peeled, _patterns)


def _clear_memos():
    for memo in POLYNOMIAL_MEMOS:
        memo.cache_clear()


@pytest.mark.parametrize("name,max_n,max_r", [
    ("colored-ribbon-schur", 3, 2),
    ("colored-ribbon-h", 3, 2),
    ("ribbon-schur", 4, None),
    ("ribbon-h", 4, None),
])
def test_polynomial_ribbon_sweeps_build_no_skew_shape(monkeypatch, name, max_n, max_r):
    # the shape memos are keyed by raw row bounds, so a sweep with the memos
    # cleared still validates no shape
    _clear_memos()
    built = _constructions(monkeypatch, SkewShape)
    assert run_identity(name, max_n, max_r).passed
    assert built == []


@pytest.mark.parametrize("name,max_n,max_r", [
    ("skew-schur-f", 4, None),
    ("colored-ribbon-schur", 3, 2),
    ("colored-ribbon-h", 3, 2),
    ("ribbon-schur", 4, None),
    ("ribbon-h", 4, None),
    ("zigzag-count", 4, 3),
    ("rsk", 3, 2),
])
def test_sweeps_build_no_colored_composition(monkeypatch, name, max_n, max_r):
    # the case lists, the memo keys and the group pass hold raw (parts,
    # colors) pairs, so a passing sweep with the memos cleared validates
    # no colored composition
    _clear_memos()
    built = _constructions(monkeypatch, ColoredComposition)
    assert run_identity(name, max_n, max_r).passed
    assert built == []


@pytest.mark.parametrize("name", ["class-tableau", "reading-word"])
def test_class_sweep_builds_one_colored_composition_per_case(monkeypatch, name):
    # its paper-route shape oracle takes the validated object
    built = _constructions(monkeypatch, ColoredComposition)
    report = run_identity(name, *REDUCED[name])
    assert report.passed
    assert len(built) == len(set(built)) == report.cases_checked


def test_cells_are_the_public_lists():
    # every colored sweep reads a cell as the raw pairs of the public list,
    # in its order
    cells = identities._Builder("cells", 6, 3).cells()
    assert list(cells) == [
        (n, r, [_pair(ce) for ce in enumerate_colored_compositions(n, r)])
        for n in range(1, 7)
        for r in range(1, 4)
    ]


@pytest.mark.parametrize("name,case", [
    ("colored-ribbon-schur", "_ribbon_schur_case"),
    ("colored-ribbon-h", "_ribbon_h_case"),
])
def test_witnesses_of_one_cell_follow_the_public_order(monkeypatch, name, case):
    # a fault at every composition of 3 with 2 colors whose first color is
    # 1: the raw stream meets (1, 2) with colors (1, 0) after the four
    # colorings of (1, 1, 1), the public order second
    def hit(parts, colors, r):
        return (sum(parts), r, colors[0]) == (3, 2, 1)

    checked = getattr(identities, case)
    monkeypatch.setattr(identities, case, lambda parts, colors, r, *rest: (
        {"reason": "planted"} if hit(parts, colors, r) else checked(parts, colors, r, *rest)
    ))
    report = run_identity(name, 3, 2)
    want = [ce.to_json() for ce in enumerate_colored_compositions(3, 2) if hit(*_pair(ce), 2)]
    assert report.failure_count == len(want) == 9
    assert [w["composition"] for w in report.failures] == want
    assert all(w["reason"] == "planted" for w in report.failures)


def test_planted_fundamental_fault_fails_ribbon_schur(monkeypatch):
    target = ((1, 2), (0, 0), 1)
    monkeypatch.setattr(
        identities, "_colored_F_terms", _doubled_at(_colored_F_terms, target)
    )
    report = run_identity("ribbon-schur", 3)
    assert not report.passed
    assert report.failure_count > 0


def _h_factors_changed(target, change):
    """``_h_factors`` with ``change`` applied to factor 0 of every colored h
    index that ``target`` accepts."""

    def planted(bll):
        factors = _h_factors(bll)
        if not target(bll):
            return factors
        return (change(factors[0]), *factors[1:])

    return planted


def _cases_with_h_index(max_n, rs, target):
    """The colored compositions in the range whose alternating h-expansion
    has a nonzero coefficient at an index ``target`` accepts: the h
    elements are linearly independent, so a change of those alone fails
    exactly these cases."""
    return [
        ce.to_json()
        for n in range(1, max_n + 1)
        for r in rs
        for ce in enumerate_colored_compositions(n, r)
        if any(map(target, ribbon_h_expansion(ce).coeffs))
    ]


def test_planted_h_fault_fails_ribbon_h(monkeypatch):
    target = ((2, 1),).__eq__
    monkeypatch.setattr(
        identities,
        "_h_factors",
        _h_factors_changed(target, lambda terms: {k: 2 * c for k, c in terms.items()}),
    )
    report = run_identity("ribbon-h", 3)
    assert not report.passed
    failing = _cases_with_h_index(3, (1,), target)
    assert report.failure_count == len(failing) == 3
    assert all(w["composition"] in failing and w["n"] == 3 for w in report.failures)


def test_planted_sign_flip_fails_colored_ribbon_h(monkeypatch):
    # the h side of the tensor check negated on every index of r >= 2
    # colors whose component 0 has two parts
    def target(bll):
        return len(bll) >= 2 and len(bll[0]) == 2

    monkeypatch.setattr(
        identities,
        "_h_factors",
        _h_factors_changed(target, lambda terms: {k: -c for k, c in terms.items()}),
    )
    report = run_identity("colored-ribbon-h", 4, 2)
    assert not report.passed
    failing = _cases_with_h_index(4, (1, 2), target)
    assert report.failure_count == len(failing) > 0
    assert all(w["composition"] in failing and w["r"] == 2 for w in report.failures)


def test_planted_h_expansion_fault_fails_ribbon_h(monkeypatch):
    target = ((1, 2), (0, 0), 1)

    def dropped(*ce):
        expansion = _raw_ribbon_h_expansion(*ce)
        if ce != target:
            return expansion
        kept = dict(expansion.sorted_items()[1:])
        return Expansion(expansion.basis, expansion.n, expansion.r, kept)

    monkeypatch.setattr(identities, "_raw_ribbon_h_expansion", dropped)
    report = run_identity("ribbon-h", 3)
    assert not report.passed
    assert report.failure_count == 1


def _planted_shape(parts, colors, r, start):
    """The row bounds of the one-pass r-partite shape of the colored
    composition (parts, colors) with the first column of each part after
    the first of its color given by ``start(top, continues)``: ``top`` ends
    its component's top row, and ``continues`` says whether the part
    continues a color run (the correct start is then top - 1)."""
    outer = [[] for _ in range(r)]
    inner = [[] for _ in range(r)]
    previous = None
    for p, c in zip(parts, colors):
        rows = outer[c]
        first = start(rows[-1], c == previous) if rows else 0
        inner[c].append(first)
        rows.append(first + p)
        previous = c
    return tuple((tuple(o[::-1]), tuple(i[::-1])) for o, i in zip(outer, inner))


def _shape_with_shifted_direct_sums(parts, colors, r):
    """Every run after the first of its color started one column right of
    its component's top row."""
    return _planted_shape(
        parts, colors, r, lambda top, continues: top - 1 if continues else top + 1
    )


def _shape_with_broken_ribbons(parts, colors, r):
    """Every part that continues a color run started at the end of the row
    below, so the ribbon splits into a direct sum."""
    return _planted_shape(parts, colors, r, lambda top, continues: top)


def test_planted_direct_sum_shift_fails_class_tableau(monkeypatch):
    # the one-pass shape is planted where the bijection's class listing
    # builds it and where the suite compares it with the shape oracle, once
    # per class, so only that oracle, the direct sum of the colored
    # zigzags, sees it
    ce = ColoredComposition((1, 1, 1), (0, 1, 0), 2)
    raw = (ce.parts, ce.colors, ce.r)
    assert _shape_with_shifted_direct_sums(*raw) != _raw_colored_composition_shape(*raw)
    for module in (bijections, identities):
        monkeypatch.setattr(
            module, "_raw_colored_composition_shape", _shape_with_shifted_direct_sums
        )
    report = run_identity("class-tableau", 3, 2)
    assert not report.passed
    assert report.failure_count > 0
    assert {(w["n"], w["r"]) for w in report.failures} == {(3, 2)}


@pytest.mark.parametrize("name", ["colored-ribbon-schur", "colored-ribbon-h"])
def test_planted_broken_ribbon_fails_ribbon_suites(monkeypatch, name):
    # both suites build the ribbon's one-alphabet factors from symfun's
    # r-partite shape; they change exactly for the compositions with a
    # color run of two parts
    raw = ((1, 1), (0, 0), 1)
    assert _shape_with_broken_ribbons(*raw) != _raw_colored_composition_shape(*raw)
    monkeypatch.setattr(symfun, "_raw_colored_composition_shape", _shape_with_broken_ribbons)
    broken = [
        ce.to_json()
        for n in range(1, 4)
        for r in (1, 2)
        for ce in enumerate_colored_compositions(n, r)
        if any(a == b for a, b in zip(ce.colors, ce.colors[1:]))
    ]
    report = run_identity(name, 3, 2)
    assert not report.passed
    assert report.failure_count == len(broken)
    assert all(w["composition"] in broken for w in report.failures)


# Planted faults in the two class suites, which read every class from
# fillings and certify it by counting: each fault must fail the planted cell
# and no other.  Each planted class has the size of another class of its
# cell, (1^0, 2^1) and (1, 2), so a composition duplicated in its place
# leaves the size sum at the group order.
FAULTS = [
    "wrong-member",
    "duplicated-filling",
    "dropped-filling",
    "nonstandard-filling",
    "duplicated-composition",
]
PLANTED_CE = ColoredComposition((2, 1), (0, 1), 2)
PLANTED_COMP = ColoredComposition((2, 1), (0, 0), 1)


def _first_long_row_reversed(filling):
    """A filling, one tuple of row tuples per component, with its first row
    of two or more entries reversed: the entries keep their rows, so the
    descent set is unchanged, but the row decreases."""
    done, out = False, []
    for rows in filling:
        new_rows = []
        for row in rows:
            if not done and len(row) >= 2:
                row, done = row[::-1], True
            new_rows.append(row)
        out.append(tuple(new_rows))
    assert done
    return tuple(out)


CHANGE_FILLINGS = {
    "duplicated-filling": lambda fillings: fillings + fillings[:1],
    "dropped-filling": lambda fillings: fillings[1:],
    "nonstandard-filling": lambda fillings: [
        _first_long_row_reversed(fillings[0]), *fillings[1:]
    ],
}


def _first_changed(fn, hit, change):
    """``fn`` with ``change`` applied to its first result on arguments that
    ``hit`` accepts."""
    pending = [True]

    def planted(*args):
        out = fn(*args)
        if pending and hit(*args):
            pending.pop()
            return change(out)
        return out

    return planted


def _fillings_changed(fn, target, change):
    """``fn`` with ``change`` applied to the list of fillings of the row
    bounds ``target``."""

    def planted(bounds, *rest):
        out = list(fn(bounds, *rest))
        return change(out) if bounds == target else out

    return planted


def _bounds(shapes):
    """The (outer, inner) row bounds of each shape, as the raw cores take
    them."""
    return tuple((s.outer, s.inner) for s in shapes)


def _replaced_at(fn, at, old, new):
    """``fn`` with ``old`` replaced by ``new`` in its list for arguments ``at``."""

    def planted(*args):
        out = fn(*args)
        return [new if x == old else x for x in out] if args == at else out

    return planted


def _swap_last_two(word, colors):
    """(word, colors) with the last two letters, values and colors,
    exchanged: a member of another class."""
    return word[:-2] + word[:-3:-1], colors[:-2] + colors[:-3:-1]


@pytest.mark.parametrize("fault", FAULTS)
def test_planted_fault_fails_class_tableau_at_its_cell(monkeypatch, fault):
    if fault == "wrong-member":
        monkeypatch.setattr(identities, "_raw_read_rows", _first_changed(
            bijections._raw_read_rows,
            lambda filling, parts, colors: (parts, colors)
            == (PLANTED_CE.parts, PLANTED_CE.colors),
            lambda member: _swap_last_two(*member),
        ))
    elif fault in CHANGE_FILLINGS:
        target = _bounds(rpartite_shape_of(colored_zigzag_of(PLANTED_CE), 2))
        monkeypatch.setattr(identities, "_raw_fillings", _fillings_changed(
            shapes._raw_fillings, target, CHANGE_FILLINGS[fault]
        ))
    else:
        other = ColoredComposition((1, 2), (0, 1), 2)
        assert descent_class_size(other) == descent_class_size(PLANTED_CE)
        monkeypatch.setattr(identities, "_raw_colored_composition_list", _replaced_at(
            compositions._raw_colored_composition_list, (3, 2), _pair(PLANTED_CE), _pair(other)
        ))
    report = run_identity("class-tableau", 4, 2)
    assert not report.passed
    assert {(w["n"], w["r"]) for w in report.failures} == {(3, 2)}
    if fault in ("wrong-member", "duplicated-composition"):
        assert report.failure_count == 1


@pytest.mark.parametrize("fault", FAULTS)
def test_planted_fault_fails_reading_word_at_its_size(monkeypatch, fault):
    # reading-word is the r = 1 slice of class-tableau: the same faults at
    # the same points, planted at the class of (2, 1) with one color
    if fault == "wrong-member":
        monkeypatch.setattr(identities, "_raw_read_rows", _first_changed(
            bijections._raw_read_rows,
            lambda filling, parts, colors: (parts, colors)
            == (PLANTED_COMP.parts, PLANTED_COMP.colors),
            lambda member: _swap_last_two(*member),
        ))
    elif fault in CHANGE_FILLINGS:
        # the r-partite shape at r = 1 is the ribbon of the composition
        ribbon = (zigzag_of(Composition(PLANTED_COMP.parts)).shape,)
        assert rpartite_shape_of(colored_zigzag_of(PLANTED_COMP), 1) == ribbon
        target = _bounds(ribbon)
        monkeypatch.setattr(identities, "_raw_fillings", _fillings_changed(
            shapes._raw_fillings, target, CHANGE_FILLINGS[fault]
        ))
    else:
        other = ColoredComposition((1, 2), (0, 0), 1)
        assert descent_class_size(other) == descent_class_size(PLANTED_COMP)
        monkeypatch.setattr(identities, "_raw_colored_composition_list", _replaced_at(
            compositions._raw_colored_composition_list, (3, 1), _pair(PLANTED_COMP), _pair(other)
        ))
    report = run_identity("reading-word", 5)
    assert not report.passed
    assert {w["n"] for w in report.failures} == {3}
    if fault in ("wrong-member", "duplicated-composition"):
        assert report.failure_count == 1


@pytest.mark.parametrize("name", ["class-tableau", "reading-word"])
def test_planted_class_size_fault_fails_class_tableau_at_its_cell(monkeypatch, name):
    # the filling count of each class must equal its counted size
    planted = PLANTED_CE if name == "class-tableau" else PLANTED_COMP
    monkeypatch.setattr(
        identities,
        "descent_class_size",
        lambda ce: descent_class_size(ce) + (ce == planted),
    )
    report = run_identity(name, *REDUCED[name])
    assert not report.passed
    assert report.failure_count == 1
    assert report.failures[0]["composition"] == planted.to_json()


def test_planted_missed_descent_fails_skew_schur_f_where_it_occurs(monkeypatch):
    # the raw descent reading drops the descent at 2; fundamentals are
    # linearly independent, so exactly the shapes with a filling that has
    # that descent fail
    def missed(filling):
        parts, colors = shapes._raw_rpartite_descent_composition(filling)
        if 2 in accumulate(parts[:-1]):
            k = list(accumulate(parts)).index(2)
            parts = parts[:k] + (parts[k] + parts[k + 1],) + parts[k + 2 :]
            colors = colors[:k] + colors[k + 1 :]
        return parts, colors

    monkeypatch.setattr(identities, "_raw_rpartite_descent_composition", missed)
    with_descent = [
        shape.to_json()
        for m in range(1, 5)
        for shape in enumerate_skew_shapes(m)
        if any(2 in tableau_descent_set(q) for q in enumerate_syt(shape))
    ]
    report = run_identity("skew-schur-f", 4)
    assert not report.passed
    assert report.failure_count == len(with_descent)
    assert all(w["shape"] in with_descent for w in report.failures)
    assert {w["cells"] for w in report.failures} == {3, 4}


def test_planted_unpermuted_conj_inverse_colors_fail_colored_cells_only(monkeypatch):
    # a conjugate-inverse that keeps the colors in place is right at r = 1
    monkeypatch.setattr(
        identities, "_raw_conj_inverse", lambda word, colors: (_raw_inverse(word), colors)
    )
    report = run_identity("colored-ribbon-schur", 4, 2)
    assert not report.passed
    assert report.failure_count > 0
    assert {w["r"] for w in report.failures} == {2}
    assert run_identity("ribbon-schur", 5).passed


def test_planted_nonstandard_filling_fails_skew_schur_f_at_its_shape(monkeypatch):
    # a reversed row keeps every entry in its row, so its descent
    # composition is unchanged: only the standard test of the raw fillings
    # sees the fault, and the F it keeps out of the sum fails the shape
    target = SkewShape((3, 2), (1,))
    monkeypatch.setattr(identities, "_raw_fillings", _fillings_changed(
        shapes._raw_fillings, _bounds((target,)), CHANGE_FILLINGS["nonstandard-filling"]
    ))
    report = run_identity("skew-schur-f", 5)
    assert not report.passed
    assert report.failure_count == 1
    assert report.failures[0]["shape"] == target.to_json()


def _plant_cell_pairs(monkeypatch, change):
    """The shared tableau rule ``shapes._raw_cell_pairs`` with each column
    pair (tagged with its lower cell) passed through ``change``, which
    returns the pairs to keep in its place."""
    cell_pairs = shapes._raw_cell_pairs

    def planted(outer, inner, start=0):
        return [
            new
            for pair in cell_pairs(outer, inner, start)
            for new in (change(pair) if isinstance(pair[2], tuple) else (pair,))
        ]

    monkeypatch.setattr(shapes, "_raw_cell_pairs", planted)


DECREASING_COLUMN = ((1, 1), (0, 0)), ((2,), (1,))


def test_dropped_column_pairs_pass_constructor_and_raw_test_alike(monkeypatch):
    # the constructor and the sweeps' raw test read one rule: without its
    # column pairs both accept a column that decreases
    bounds, rows = DECREASING_COLUMN
    with pytest.raises(ShapeError, match=r"column not strictly increasing at \(1, 0\)"):
        shapes.StandardTableau(SkewShape(*bounds), rows)
    assert not shapes._raw_standard_test([bounds])((rows,))
    _plant_cell_pairs(monkeypatch, lambda pair: ())
    assert shapes.StandardTableau(SkewShape(*bounds), rows).rows == rows
    assert shapes._raw_standard_test([bounds])((rows,))


def test_upside_down_column_pairs_fail_class_tableau_where_a_column_is(monkeypatch):
    # read upside down, the column rule accepts the decreasing column in
    # the constructor and refuses every standard filling with a column in
    # the sweep: the classes of the compositions whose shape has one fail
    bounds, rows = DECREASING_COLUMN
    _plant_cell_pairs(monkeypatch, lambda pair: ((pair[1], pair[0], pair[2]),))
    assert shapes.StandardTableau(SkewShape(*bounds), rows).rows == rows
    report = run_identity("class-tableau", 2, 2)
    assert not report.passed
    failed = {
        (w["n"], w["r"], tuple(w["composition"]["parts"]), tuple(w["composition"]["colors"]))
        for w in report.failures
    }
    assert failed == {(2, 1, (1, 1), (0, 0)), (2, 2, (1, 1), (0, 0)), (2, 2, (1, 1), (1, 1))}
    assert report.failure_count == 3


def test_block_color_rule_is_shared_by_constructor_and_raw_zigzag_test(monkeypatch):
    # two blocks of one color read back as a composition with that color:
    # both sides refuse the key, and both accept it once the rule is gone
    block = shapes._raw_zigzag((1,))
    key, parts, colors = ((block, block), (0, 0)), (1, 1), (0, 0)
    zigzags = (zigzag_of(Composition((1,))),) * 2
    with pytest.raises(ShapeError, match="adjacent zigzag colors must differ"):
        shapes.ColoredZigzagShape(zigzags, (0, 0))
    assert not shapes._raw_zigzag_test(key, parts, colors)
    monkeypatch.setattr(shapes, "_check_block_colors", lambda blocks, colors: None)
    assert shapes.ColoredZigzagShape(zigzags, (0, 0)).colors == (0, 0)
    assert shapes._raw_zigzag_test(key, parts, colors)


def _rows_reversed(p):
    return tuple(tuple(row[::-1] for row in rows) for rows in p)


def _plant_reversed_insertion_rows(monkeypatch):
    """Make the raw insertion return P with every row reversed, and its
    inverse undo that first: shapes, descent sets and the round trip all
    hold, and P is not standard wherever it has a row of two entries."""

    def rsk(word, colors, r):
        p, q = bijections._raw_rsk(word, colors, r)
        return _rows_reversed(p), q

    monkeypatch.setattr(identities, "_raw_rsk", rsk)
    monkeypatch.setattr(
        identities,
        "_raw_rsk_inverse",
        lambda p, q: bijections._raw_rsk_inverse(_rows_reversed(p), q),
    )


def test_planted_nonstandard_insertion_fails_rsk(monkeypatch):
    _plant_reversed_insertion_rows(monkeypatch)
    report = run_identity("rsk", 3, 2)
    assert not report.passed
    long_rows = {
        (n, r): sum(
            any(
                len(row) >= 2
                for rows in bijections._raw_rsk(*w, r)[0]
                for row in rows
            )
            for w in identities._raw_group(n, r)
        )
        for n in range(1, 4)
        for r in (1, 2)
    }
    # one witness per element with a row of two, and one distinct-pair
    # count per cell that lost them
    assert report.failure_count == sum(long_rows.values()) + sum(
        1 for k in long_rows.values() if k
    )
    assert {w["n"] for w in report.failures} == {2, 3}


def test_planted_nonstandard_insertion_passes_without_standardness(monkeypatch):
    # the fault above is seen by the standardness check alone
    _plant_reversed_insertion_rows(monkeypatch)
    monkeypatch.setattr(identities, "_raw_standard_test", lambda bounds: lambda filling: True)
    assert run_identity("rsk", 3, 2).passed


def test_planted_swapped_column_fails_rsk(monkeypatch):
    # the two top entries of the first column of P exchanged, and exchanged
    # back before the inverse
    def swapped(p):
        out = []
        for rows in p:
            if len(rows) >= 2:
                rows = ((rows[1][0], *rows[0][1:]), (rows[0][0], *rows[1][1:]), *rows[2:])
            out.append(rows)
        return tuple(out)

    def rsk(word, colors, r):
        p, q = bijections._raw_rsk(word, colors, r)
        return swapped(p), q

    monkeypatch.setattr(identities, "_raw_rsk", rsk)
    monkeypatch.setattr(
        identities,
        "_raw_rsk_inverse",
        lambda p, q: bijections._raw_rsk_inverse(swapped(p), q),
    )
    report = run_identity("rsk", 3, 2)
    assert not report.passed
    assert {w["n"] for w in report.failures} == {2, 3}


def _cell_witness(report, n, r):
    [witness] = [w for w in report.failures if "distinct_pairs" in w and (w["n"], w["r"]) == (n, r)]
    return witness


def test_planted_insertion_of_two_words_to_one_pair_fails_rsk(monkeypatch):
    # the second word gets the pair of the first; the two agree on both
    # colored descent sets, so only the round trip sees it, and the cell's
    # count of distinct pairs falls by one
    group = list(identities._raw_group(3, 2))
    key = {
        w: (identities._raw_colored_descent_set(*w),
            identities._raw_colored_descent_set(*identities._raw_conj_inverse(*w)))
        for w in group
    }
    first, second = next(
        (a, b) for i, a in enumerate(group) for b in group[i + 1:] if key[a] == key[b]
    )

    def rsk(word, colors, r):
        if (word, colors) == second:
            word, colors = first
        return bijections._raw_rsk(word, colors, r)

    monkeypatch.setattr(identities, "_raw_rsk", rsk)
    report = run_identity("rsk", 3, 2)
    assert not report.passed
    assert report.failure_count == 2
    assert report.failures[0]["word"] == {
        "n": 3, "r": 2, "word": list(second[0]), "colors": list(second[1]),
    }
    assert _cell_witness(report, 3, 2)["distinct_pairs"] == 47


def test_planted_repeat_in_the_group_stream_fails_rsk(monkeypatch):
    # one element met twice and its successor never: every element the
    # stream yields passes its own checks and the case count holds
    def group(n, r):
        elements = list(permutations._raw_group(n, r))
        if (n, r) == (3, 2):
            elements[10] = elements[9]
        return iter(elements)

    monkeypatch.setattr(identities, "_raw_group", group)
    report = run_identity("rsk", 3, 2)
    assert not report.passed
    assert report.cases_checked == report.expected_cases
    assert report.failure_count == 2
    assert report.failures[0]["word"]["word"] == list(list(permutations._raw_group(3, 2))[9][0])
    assert _cell_witness(report, 3, 2)["distinct_pairs"] == 47


def _encoded(pairs, n, r):
    """A colored descent set, given as its (i, color) pairs, packed as both
    key functions pack it: the index of its color vector in
    product(range(r), repeat=n) above n mask bits, bit i - 1 for each i < n
    in the set whose color the next position keeps."""
    colors, start = [], 0
    for i, c in pairs:
        colors += [c] * (i - start)
        start = i
    index = 0
    for c in colors:
        index = index * r + c
    return index << n | sum(1 << (i - 1) for i, c in pairs[:-1] if colors[i] == c)


def test_group_keys_pack_the_colored_descent_sets():
    # every element with n <= 5, r <= 3, and the conjugate-inverse of each;
    # a key never stands for two sets
    set_of_key, elements = {}, 0
    for n in range(1, 6):
        for r in (1, 2, 3):
            group = list(identities._group_keys(n, r))
            assert [w for w, _, _ in group] == list(permutations._raw_group(n, r))
            for w, key, conj_inverse_key in group:
                for v, k in ((w, key), (permutations._raw_conj_inverse(*w), conj_inverse_key)):
                    pairs = permutations._raw_colored_descent_set(*v)
                    assert k == _encoded(pairs, n, r)
                    assert set_of_key.setdefault((n, r, k), pairs) == pairs
            elements += len(group)
    assert elements == 35722


def test_tableau_keys_pack_the_rpartite_descent_sets():
    # every standard filling of every straight r-partite shape with
    # n <= 5, r <= 3; a key never stands for two sets
    set_of_key, fillings = {}, Counter()
    for n in range(1, 6):
        for r in (1, 2, 3):
            for bll in shapes.enumerate_rpartite_partitions(n, r):
                bounds = tuple((part, (0,) * len(part)) for part in bll)
                for filling in shapes._raw_fillings(bounds):
                    pairs = shapes._raw_rpartite_descent_set(filling)
                    key = shapes._raw_rpartite_descent_key(filling)
                    assert key == _encoded(pairs, n, r)
                    assert set_of_key.setdefault((n, r, key), pairs) == pairs
                    fillings[n, r] += 1
    assert fillings[4, 2] == 76 and fillings[5, 3] == 1458


def _standard_rpartite_count(n, r):
    total = 0
    for bll in shapes.enumerate_rpartite_partitions(n, r):
        count = identities._multinomial(n, tuple(map(sum, bll)))
        for part in bll:
            count *= shapes.hook_length_count(part)
        total += count
    return total


def test_rsk_keys_each_distinct_tableau_once_and_builds_no_descent_set(monkeypatch):
    def refused(*args):
        raise AssertionError("a descent set was built as a tuple")

    for module in (identities, permutations, shapes):
        for name in ("_raw_colored_descent_set", "_raw_rpartite_descent_set"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    keyed = Counter()
    key = shapes._raw_rpartite_descent_key

    def counted(filling):
        keyed[len(filling)] += 1
        return key(filling)

    monkeypatch.setattr(identities, "_raw_rpartite_descent_key", counted)
    assert run_identity("rsk", 4, 3).passed
    # every standard r-partite filling of size n is the P of some element
    # of its cell, so each cell keys all of them, once
    assert keyed == {
        r: sum(_standard_rpartite_count(n, r) for n in range(1, 5)) for r in (1, 2, 3)
    }


def _one_row_in_component_1(filling):
    return tuple(
        (tuple(sorted(x for row in rows for x in row)),) if j == 1 and rows else rows
        for j, rows in enumerate(filling)
    )


def test_planted_key_without_the_row_rule_in_one_component_fails_rsk_only(monkeypatch):
    # component 1 read as one row loses its descents from the tableau-side
    # key: every element whose P or Q has one fails, and one distinct-pair
    # count per cell that has such elements; the ribbon Schur pass reads
    # only word-side keys
    key = shapes._raw_rpartite_descent_key
    monkeypatch.setattr(
        identities, "_raw_rpartite_descent_key", lambda f: key(_one_row_in_component_1(f))
    )
    changed = {
        (n, r): sum(
            any(key(_one_row_in_component_1(t)) != key(t) for t in bijections._raw_rsk(*w, r))
            for w in permutations._raw_group(n, r)
        )
        for n in range(1, 4)
        for r in (1, 2)
    }
    report = run_identity("rsk", 3, 2)
    assert report.failure_count == sum(changed.values()) + sum(1 for k in changed.values() if k)
    assert {(w["n"], w["r"]) for w in report.failures} == {c for c, k in changed.items() if k}
    assert {c for c, k in changed.items() if k} == {(2, 2), (3, 2)}
    assert run_identity("colored-ribbon-schur", 3, 2).passed


def test_planted_tableau_checks_keyed_by_shape_fail_rsk(monkeypatch):
    # the first tableau met of each shape answers for all of that shape
    class ByShape(identities._TableauChecks):
        def __getitem__(self, tableau):
            shape = tuple(tuple(map(len, rows)) for rows in tableau)
            if shape not in self:
                self[shape] = self.__missing__(tableau)
            return dict.__getitem__(self, shape)

    monkeypatch.setattr(identities, "_TableauChecks", ByShape)
    # at n <= 2, r = 1 each shape has one standard filling
    assert run_identity("rsk", 2, 1).passed
    report = run_identity("rsk", 3, 2)
    assert not report.passed
    assert {(w["n"], w["r"]) for w in report.failures} == {(2, 2), (3, 1), (3, 2)}


def test_planted_conj_inverse_mask_of_the_word_fails_rsk_and_ribbon_schur(monkeypatch):
    # the inverse read as the word, the colors still permuted: the
    # conjugate-inverse key takes the word's descents, which differ from
    # the inverse's only off the involutions, so first at n = 3
    monkeypatch.setattr(
        identities,
        "_raw_conj_inverse",
        lambda word, colors: (word, permutations._raw_conj_inverse(word, colors)[1]),
    )
    for name in ("rsk", "colored-ribbon-schur"):
        report = run_identity(name, 3, 2)
        assert not report.passed
        assert {w["n"] for w in report.failures} == {3}


# Planted faults in zigzag-count.  The first three change the raw key of
# one colored composition, the first time it is met, so at its r = 2 cell
# only: each key fails the zigzag test, and lies outside the generated set.
# The fourth drops one shape from the set generated at one cell.
ZIGZAG_FAULTS = {
    # the top row of the last block one cell longer: reads back as (2, 2)
    "wrong-left-inverse": (
        ColoredComposition((2, 1), (0, 1), 2),
        ((((2,), (0,)), ((2,), (0,))), (0, 1)),
    ),
    # the run (2, 1) of color 1 as two blocks of color 1
    "merged-color-run": (
        ColoredComposition((2, 1), (1, 1), 2),
        ((((2,), (0,)), ((1,), (0,))), (1, 1)),
    ),
    # the rows of the run (2, 2) of color 1 share two columns
    "non-ribbon-block": (
        ColoredComposition((2, 2), (1, 1), 2),
        ((((2, 2), (0, 0)),), (1,)),
    ),
}


def _plant_zigzag_fault(monkeypatch, fault):
    """Plant ``fault``; returns its (n, r) cell."""
    if fault == "missing-generated-shape":
        generate = identities._generated_colored_zigzags

        def dropped(n, r, zigzags):
            out = generate(n, r, zigzags)
            return set(sorted(out)[1:]) if (n, r) == (3, 2) else out

        monkeypatch.setattr(identities, "_generated_colored_zigzags", dropped)
        return 3, 2
    ce, key = ZIGZAG_FAULTS[fault]
    assert shapes._raw_colored_zigzag(ce.parts, ce.colors) != key
    monkeypatch.setattr(identities, "_raw_colored_zigzag", _first_changed(
        shapes._raw_colored_zigzag,
        lambda parts, colors: (parts, colors) == (ce.parts, ce.colors),
        lambda _: key,
    ))
    return ce.n, ce.r


def _zigzag_witnesses(report):
    """(n, r, kind) of each witness: the key checks or the onto check."""
    return sorted(
        (w["n"], w["r"], "onto" if "generated_shapes" in w else "keys")
        for w in report.failures
    )


@pytest.mark.parametrize("fault", [*ZIGZAG_FAULTS, "missing-generated-shape"])
def test_planted_fault_fails_zigzag_count_at_its_cell(monkeypatch, fault):
    n, r = _plant_zigzag_fault(monkeypatch, fault)
    report = run_identity("zigzag-count", 4, 3)
    assert not report.passed
    assert report.cases_checked == report.expected_cases
    if fault == "missing-generated-shape":
        assert _zigzag_witnesses(report) == [(n, r, "onto")]
        assert report.failures[0]["generated_shapes"] == 17
        assert report.failures[0]["distinct_shapes"] == 18
    else:
        # the key fails the zigzag test, and is not a generated shape
        assert _zigzag_witnesses(report) == [(n, r, "keys"), (n, r, "onto")]
        keys = next(w for w in report.failures if "rejected_shapes" in w)
        assert keys["rejected_shapes"] == 1
        assert keys["distinct_shapes"] == keys["colored_compositions"] == keys["formula"]
    assert report.failure_count == len(report.failures)


@pytest.mark.parametrize("fault", [*ZIGZAG_FAULTS, "missing-generated-shape"])
def test_planted_zigzag_fault_passes_the_key_count(monkeypatch, fault):
    # with the zigzag test accepting every key, the key count (distinct
    # keys, compositions and formula agree) passes each fault, so only the
    # zigzag test and the onto check see it
    n, r = _plant_zigzag_fault(monkeypatch, fault)
    monkeypatch.setattr(identities, "_raw_zigzag_test", lambda *args: True)
    report = run_identity("zigzag-count", 4, 3)
    assert _zigzag_witnesses(report) == [(n, r, "onto")]
    assert report.failure_count == 1


def test_block_memos_are_bounded_and_never_evict_at_the_default_range():
    # the memos of the zigzag-count blocks hold the 2^7 - 1 compositions of
    # 1..7, each once, so a default run misses once per block and keeps all
    memos = (shapes._raw_zigzag, shapes._raw_ribbon_rows)
    for memo in memos:
        assert memo.cache_info().maxsize is not None
        memo.cache_clear()
    assert run_identity("zigzag-count").passed
    for memo in memos:
        info = memo.cache_info()
        assert info.misses == info.currsize == 2**7 - 1 <= info.maxsize


def test_every_memo_is_bounded_and_listed_in_the_readme():
    # every function or method of the package with ``cache_info()``, found
    # in the module that defines it, is an ``lru_cache`` with a maxsize,
    # and the set of them is the one README "Memos" names
    found = {}
    for info in pkgutil.iter_modules(coloredsym.__path__):
        module = importlib.import_module(f"coloredsym.{info.name}")
        owners = [module, *(v for v in vars(module).values() if isinstance(v, type))]
        for owner in owners:
            for name, obj in vars(owner).items():
                if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                    found[f"{info.name}.{name}"] = obj.cache_info().maxsize
    assert None not in found.values(), found
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Memos", 1)[1].split("\n## ", 1)[0]
    assert section.lstrip().startswith("Six memos")
    assert set(re.findall(r"`(\w+\._\w+)`", section)) == set(found)
    assert len(found) == 6


@pytest.mark.slow
def test_polynomial_memos_are_bounded_and_never_evict_at_the_raised_range():
    # the suites of ``verify --identity all`` that read the colored F,
    # one-alphabet factor, peel and quasi-shuffle pattern memos, the colored
    # ribbon suites at n <= 6, r <= 3 (which hold every case of their
    # defaults): every miss is kept, and the colored F memo holds one key
    # per colored composition of the range
    _clear_memos()
    for name in ("skew-schur-f", "ribbon-schur", "ribbon-h"):
        assert run_identity(name).passed
    for name in ("colored-ribbon-schur", "colored-ribbon-h"):
        assert run_identity(name, 6, 3).passed
    for memo in POLYNOMIAL_MEMOS:
        info = memo.cache_info()
        assert info.maxsize is not None
        assert info.misses == info.currsize <= info.maxsize
    sizes = [memo.cache_info().currsize for memo in POLYNOMIAL_MEMOS]
    assert sizes == [4886, 424, 120, 97]


def test_ribbon_schur_builds_each_ribbon_once(monkeypatch):
    # each case builds the r-partite shape of its raw (parts, colors, r)
    # once: its blocks key the packed ribbon, for the F-sum, and give the
    # one-alphabet factors that the peel reads; the packed ribbon of each
    # distinct blocks is built once, and each distinct factor is peeled
    # once per process, across runs
    _clear_memos()
    calls = {}
    for module, name in (
        (identities, "_ribbon_blocks"),
        (symfun, "_raw_colored_composition_shape"),
        (identities, "_colored_schur_terms"),
        (symfun, "_peel"),
    ):
        build = getattr(symfun, name)

        def counted(*args, build=build, seen=calls.setdefault(name, [])):
            seen.append(args)
            return build(*args)

        monkeypatch.setattr(module, name, counted)
    report = run_identity("colored-ribbon-schur", 3, 2)
    assert report.passed
    cases = calls["_ribbon_blocks"]
    assert calls["_raw_colored_composition_shape"] == cases
    assert len(cases) == len(set(cases)) == report.cases_checked == 33
    built = [args[0] for args in calls["_colored_schur_terms"]]
    assert len(built) == len(set(built)) < 33
    assert set(built) == {symfun._ribbon_blocks(*ce) for ce in cases}
    factors = {blocks for ce in cases for blocks in symfun._ribbon_blocks(*ce)}
    peels = calls["_peel"]
    assert len(peels) == len(factors) < 33
    assert run_identity("colored-ribbon-schur", 4, 3).passed
    assert len(peels) == 21
    assert run_identity("colored-ribbon-schur", 3, 2).passed
    assert len(peels) == _peeled.cache_info().currsize == 21


@pytest.mark.slow
def test_verify_all_builds_each_factor_once_across_the_colored_ribbon_suites(
    monkeypatch, capsys
):
    # both colored ribbon suites read the factors of every ribbon of their
    # common default range, and the h suites the products of rows; within
    # one ``verify --identity all`` each distinct block tuple is built once
    built = []
    build = _schur_terms.__wrapped__

    def counted(blocks):
        built.append(blocks)
        return build(blocks)

    memo = functools.lru_cache(maxsize=symfun.SCHUR_MEMO_SIZE)(counted)
    for module in (symfun, identities):
        monkeypatch.setattr(module, "_schur_terms", memo)
    _clear_memos()
    assert cli.main(["verify", "--identity", "all"]) == 0
    capsys.readouterr()
    assert len(built) == len(set(built)) == 424
    max_n, max_r = IDENTITY_REGISTRY["colored-ribbon-schur"][1]
    assert IDENTITY_REGISTRY["colored-ribbon-h"][1] == (max_n, max_r)
    assert {
        blocks
        for n in range(1, max_n + 1)
        for r in range(1, max_r + 1)
        for ce in compositions._raw_colored_compositions(n, r)
        for blocks in symfun._ribbon_blocks(*ce, r)
    } <= set(built)


def test_a_changed_memoized_peel_fails_the_tableau_count():
    # the product of the peels reads the memo and never writes it, so one
    # wrong coefficient planted there reaches every case with that factor
    # and fails it against the tableau counts
    _clear_memos()
    peeled = _peeled(symfun._ribbon_blocks((2, 1), (0, 1), 2)[0])
    part = next(iter(peeled))
    peeled[part] += 1
    try:
        report = run_identity("colored-ribbon-schur", 3, 2)
    finally:
        _clear_memos()
    assert report.failure_count > 0
    assert {w["reason"] for w in report.failures} == {
        "tableau counts differ from peeled coefficients"
    }
    assert run_identity("colored-ribbon-schur", 3, 2).passed


@pytest.mark.parametrize(
    "n,r", [(n, r) for n in range(1, 6) for r in (1, 2, 3)] + [(6, 1)]
)
def test_raw_group_counters_match_object_path(n, r):
    # the reference keys its counters by validated objects, the pass by
    # their (parts, colors) pairs
    want = {
        _pair(key): Counter({_pair(ce): mult for ce, mult in counter.items()})
        for key, counter in ref.conj_inverse_f_counters(n, r).items()
    }
    assert identities._conj_inverse_f_counters(n, r) == want

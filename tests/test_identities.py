"""Report plumbing and reduced-range runs of every identity suite."""

import importlib
import inspect
import json
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import coloredsym
from coloredsym import (
    IDENTITY_REGISTRY,
    ColoredComposition,
    Composition,
    VerificationReport,
    enumerate_colored_compositions,
    run_identity,
    zigzag_of,
)
from coloredsym import (
    SkewShape,
    compositions,
    identities,
    permutations,
    shapes,
    symfun,
)
from coloredsym.errors import ShapeError
from coloredsym._poly_py import _patterns
from coloredsym.symfun import _colored_F_terms, _peeled, _schur_terms
from coloredsym.identities import (
    verify_colored_ribbon_h,
    verify_colored_ribbon_schur,
    verify_colored_rsk,
)

import group_reference as ref
from memos import clear_memos
from test_faults import DECREASING_COLUMN, _column_pairs, _pair

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


def test_skew_shape_count_is_the_enumerators_count():
    counts = [identities._skew_shape_count(m) for m in range(1, 10)]
    assert counts == [1, 3, 9, 28, 87, 272, 850, 2659, 8318]
    assert counts == [len(set(shapes.enumerate_skew_shapes(m))) for m in range(1, 10)]


def test_classical_ribbon_suites_are_the_r1_slices():
    for classical, colored in (("ribbon-schur", "colored-ribbon-schur"),
                               ("ribbon-h", "colored-ribbon-h")):
        small = run_identity(classical, 4).to_json()
        sliced = run_identity(colored, 4, 1).to_json()
        assert small["max_r"] is None and sliced["max_r"] == 1
        assert small["cases_checked"] == sliced["cases_checked"] == 15
        assert list(small["breakdown"]) == ["n=1", "n=2", "n=3", "n=4"]
        assert list(sliced["breakdown"]) == ["n=1,r=1", "n=2,r=1", "n=3,r=1", "n=4,r=1"]


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


@pytest.mark.parametrize("name,max_n,max_r", [
    ("colored-ribbon-schur", 3, 2),
    ("colored-ribbon-h", 3, 2),
    ("ribbon-schur", 4, None),
    ("ribbon-h", 4, None),
])
def test_polynomial_ribbon_sweeps_build_no_skew_shape(monkeypatch, name, max_n, max_r):
    # the shape memos are keyed by raw row bounds, so a sweep with the memos
    # cleared still validates no shape
    clear_memos()
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
    clear_memos()
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


def test_dropped_column_pairs_pass_constructor_and_raw_test_alike(monkeypatch):
    # the constructor and the sweeps' raw test read one rule: without its
    # column pairs both accept a column that decreases
    bounds, rows = DECREASING_COLUMN
    with pytest.raises(ShapeError, match=r"column not strictly increasing at \(1, 0\)"):
        shapes.StandardTableau(SkewShape(*bounds), rows)
    assert not shapes._raw_standard_test([bounds])((rows,))
    monkeypatch.setattr(shapes, "_raw_cell_pairs", _column_pairs(lambda pair: ())(
        shapes._raw_cell_pairs
    ))
    assert shapes.StandardTableau(SkewShape(*bounds), rows).rows == rows
    assert shapes._raw_standard_test([bounds])((rows,))


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
    clear_memos()
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
    clear_memos()
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
def test_verify_all_builds_each_factor_once_across_the_colored_ribbon_suites(verify_all):
    # both colored ribbon suites read the factors of every ribbon of their
    # common default range, and the h suites the products of rows; within
    # one ``verify --identity all`` each distinct block tuple is built once
    assert verify_all.code == 0
    built = verify_all.built
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

"""Fast tests of the benchmark: its checks accept the program's real outputs
and reject planted wrong ones, its metric lists match BENCHMARK.json, the
tracer sees the kernel on the polynomial suites only and skips names the
package lacks, and a run accepts one Python kernel only.

    python3 -m pytest -q perfbench
"""

import contextlib
import copy
import io
import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from coloredsym import cli  # noqa: E402


def output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return json.loads(buf.getvalue())


def query(kind, item):
    q = queries.make_query(kind, item)
    return q, output(q["argv"])


def rejects(q, obj):
    return queries.check(q, obj) is not None


RIBBONS = [("2^0,1^1,2^1", 2), ("1^0,1^2,2^2,1^0", 3), ("3^0,1^0", 1)]


@pytest.mark.parametrize("item", RIBBONS)
@pytest.mark.parametrize("kind", ["ribbon.schur", "ribbon.schur-poly", "ribbon.h", "ribbon.f"])
def test_ribbon_coefficient_changed(kind, item):
    q, obj = query(kind, item)
    assert queries.check(q, obj) is None
    for i in range(len(obj["terms"])):
        bad = copy.deepcopy(obj)
        bad["terms"][i]["coeff"] += 1
        assert rejects(q, bad)


@pytest.mark.parametrize("kind", ["ribbon.schur", "ribbon.schur-poly", "ribbon.h"])
def test_ribbon_index_transposed(kind):
    """f^lambda = f^lambda' and the h dims match too, so only the recomputed
    expansion can tell a transposed index from the right one."""
    q, obj = query(kind, ("2^0,2^0", 1))
    assert [t["index"] for t in obj["terms"]] != [[[2, 2]]]
    for term in obj["terms"]:
        part = term["index"][0]
        conj = [sum(1 for p in part if p > j) for j in range(part[0])]
        if conj != part and kind != "ribbon.h":
            bad = copy.deepcopy(obj)
            bad["terms"][obj["terms"].index(term)]["index"][0] = conj
            assert oracle.schur_dim([tuple(conj)]) == oracle.schur_dim([tuple(part)])
            assert rejects(q, bad)
    bad = copy.deepcopy(obj)
    for term in bad["terms"]:
        part = term["index"][0]
        term["index"][0] = [sum(1 for p in part if p > j) for j in range(part[0])]
    assert rejects(q, bad)


def test_ribbon_coefficient_moved_between_equal_dims():
    """s_(3,3) and s_(5,1) both have dimension 5 and are not conjugate."""
    q, obj = query("ribbon.schur", ("3^0,3^0", 1))
    assert oracle.schur_dim([(3, 3)]) == oracle.schur_dim([(5, 1)])
    bad = copy.deepcopy(obj)
    terms = {tuple(t["index"][0]): t for t in bad["terms"]}
    terms[5, 1]["coeff"] += terms[3, 3]["coeff"]
    bad["terms"].remove(terms[3, 3])
    assert rejects(q, bad)


def test_expansions_have_the_class_dimension():
    """The recomputed expansions pass the dimension count themselves."""
    for text, r in RIBBONS + [("1^1,2^0,1^1,2^2", 3)]:
        pairs = oracle.parse_pairs(text)
        parts, colors = tuple(p for p, _ in pairs), tuple(c for _, c in pairs)
        size = oracle.class_size(parts, colors)
        for basis, dim in (("schur", oracle.schur_dim), ("h", oracle.h_dim), ("f", lambda k: 1)):
            exp = oracle.ribbon_expansion(parts, colors, r, basis)
            assert sum(c * dim(k) for k, c in exp.items()) == size


@pytest.mark.parametrize("kind", ["descent-class", "descent-class.conj-inverse"])
def test_descent_class_member_dropped(kind):
    q, obj = query(kind, ("2^0,1^1,1^1", 2))
    assert queries.check(q, obj) is None
    dropped = copy.deepcopy(obj)
    dropped["members"].pop()
    assert rejects(q, dropped)
    dropped["count"] -= 1
    assert rejects(q, dropped)
    swapped = copy.deepcopy(obj)
    swapped["members"][0] = "1^0,2^0,3^0,4^0"
    assert rejects(q, swapped)


def test_rsk_and_tableau_of():
    for kind in ("rsk", "tableau-of"):
        q, obj = query(kind, ("3^1,1^0,4^1,2^2,5^0", 3))
        assert queries.check(q, obj) is None
    q, obj = query("rsk", ("3^1,1^0,4^1,2^2,5^0", 3))
    bad = copy.deepcopy(obj)
    bad["P"][1][0].reverse()
    assert rejects(q, bad)
    bad = copy.deepcopy(obj)
    bad["Q"][0], bad["Q"][1] = bad["Q"][1], bad["Q"][0]
    assert rejects(q, bad)
    q, obj = query("tableau-of", ("3^1,1^0,4^1,2^2,5^0", 3))
    bad = copy.deepcopy(obj)
    bad["sdes"][0][1] = (bad["sdes"][0][1] + 1) % 3
    assert rejects(q, bad)


def test_rsk_other_standard_pair_rejected():
    """Two standard P of one shape and content; only insertion gives one."""
    q, obj = query("rsk", ("2^0,1^0,3^0", 1))
    assert obj["P"] == [[[1, 3], [2]]]
    bad = copy.deepcopy(obj)
    bad["P"] = [[[1, 2], [3]]]
    assert rejects(q, bad)


def test_enum_comps_item_dropped():
    q, obj = query("enum-comps", (3, 2))
    assert queries.check(q, obj) is None
    bad = copy.deepcopy(obj)
    bad["items"].pop()
    assert rejects(q, bad)
    bad["items"].append(bad["items"][0])
    assert rejects(q, bad)


@pytest.mark.parametrize(
    "suite,max_n,max_r",
    [("colored-ribbon-schur", 2, 2), ("skew-schur-f", 4, None), ("rsk", 3, 2), ("reading-word", 4, None)],
)
def test_verify_cases_off_by_one(suite, max_n, max_r):
    argv = ["verify", "--identity", suite, "--max-n", str(max_n), "--jobs", "1"]
    if max_r is not None:
        argv += ["--max-r", str(max_r)]
    obj = output(argv)
    assert oracle.check_verify(obj, suite, max_n, max_r) is None
    for delta in (1, -1):
        bad = dict(obj, cases_checked=obj["cases_checked"] + delta)
        assert oracle.check_verify(bad, suite, max_n, max_r) is not None
    assert oracle.check_verify(dict(obj, failure_count=1), suite, max_n, max_r) is not None


def test_stream_is_seeded_and_whole_rounds():
    a, b = queries.rounds(7), queries.rounds(7)
    first = [next(a) for _ in range(3)]
    assert first == [next(b) for _ in range(3)]
    assert first[0] != next(queries.rounds(8))
    assert all(len(batch) == len(queries.KINDS) * queries.COPIES for batch in first)


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.METRICS


def test_tracer_sees_kernel_on_polynomial_suites_only():
    env = run.child_env(0)
    poly = run.run_child(env, "cold", "colored-ribbon-h", 3, 2, 1)
    comb = run.run_child(env, "cold", "class-tableau", 3, 2, 1)
    assert poly["trace"]["kernel.mul_terms.calls"] > 0
    assert poly["trace"]["kernel.add_terms.calls"] > 0
    assert "kernel.mul_terms.calls" not in comb["trace"]
    assert comb["trace"]["shapes.construct.calls"] > 0
    again = run.run_child(env, "cold", "class-tableau", 3, 2, 1)
    counts = {k: v for k, v in comb["trace"].items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in again["trace"].items() if not k.endswith("_s")}


def test_tracer_skips_missing_names():
    """A traced function, verifier or cache that the package lacks reads 0."""
    symfun = types.ModuleType("coloredsym.symfun")
    symfun.colored_F = lambda ce, widths: ce  # no cache_info
    symfun.mul_terms = lambda a, b: a
    identities = types.ModuleType("coloredsym.identities")
    t = tracer.Tracer().install({m.__name__: m for m in (symfun, identities)})
    symfun.colored_F(1, 2)
    symfun.mul_terms(3, [4])
    m = tracer.metrics(t.snapshot(), 0.0)
    assert m["kernel.mul_terms.calls"] == 1 and m["kernel.mul_terms.term_pairs"] == 0
    assert m["symfun.colored_F.calls"] == 1 and m["symfun.colored_F.hit_ratio"] == 0.0
    assert m["identities.rsk.self_s"] == 0.0 and m["shapes.construct.calls"] == 0


def test_kernel_must_be_one_python_kernel():
    r = run.Run()
    r.started({"kernel": ["coloredsym._poly_py", "python"]})
    r.started({"kernel": ["coloredsym._poly_py", "python"]})
    assert r.kernel() == ("coloredsym._poly_py", "python")
    with pytest.raises(run.BenchError):
        r.started({"kernel": None})
    with pytest.raises(run.BenchError):
        run.Run().started({"kernel": ["coloredsym._speedups", "compiled"]})
    res = run.run_child(run.child_env(0), "import")
    assert res["kernel"] is None or res["kernel"][1] == "python"

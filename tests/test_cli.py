"""Command-line behaviour: schemas, determinism and exit codes."""

import json
import shlex
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from coloredsym import (
    ColoredComposition,
    colored_ribbon,
    enumerate_colored_compositions,
    ribbon_schur_by_counting,
)
from coloredsym import bijections, cli, symfun
from coloredsym.cli import main
from coloredsym.errors import ResourceLimitError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enum_comps(capsys):
    code, out, _ = run_cli(capsys, "enum-comps", "--n", "1", "--r", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert [item["colors"] for item in payload["items"]] == [[0], [1], [2]]


def test_enum_comps_bound_is_the_item_count(capsys, monkeypatch):
    # n = 8 at r = 4 lists 4 * 5^7 = 312,500 items and n = 9 lists
    # 1,562,500; the count is checked before anything is built
    cli._check_enum_size(8, 4)
    for n, r in ((9, 4), (2, 99999999999), (10**12, 2)):
        code, out, err = run_cli(capsys, "enum-comps", "--n", str(n), "--r", str(r))
        assert code == 2 and out == ""
        assert f"more than {cli.MAX_ENUM_ITEMS} colored compositions of n={n}" in err
    # both sides of the bound at a size that runs: 3 * 4 = 12 items
    monkeypatch.setattr(cli, "MAX_ENUM_ITEMS", 12)
    code, out, _ = run_cli(capsys, "enum-comps", "--n", "2", "--r", "3")
    assert code == 0 and json.loads(out)["count"] == 12
    code, out, _ = run_cli(capsys, "enum-comps", "--n", "2", "--r", "4")
    assert code == 2 and out == ""
    # n or r below 1 keeps the enumerator's own error
    for n, r, message in ((0, 99999999999, "n must be positive"), (2, 0, "r must be positive")):
        code, _, err = run_cli(capsys, "enum-comps", "--n", str(n), "--r", str(r))
        assert code == 2 and message in err


def test_ribbon_polynomial_bound_is_the_term_count(capsys, monkeypatch):
    # each factor h_k of k^0,k^1 places its packed keys, one per
    # composition of k, on C(w, l) index choices, l the key's parts: 12,376
    # for h_6 at its default width 12 and 1,716 for h_7 at width 7; the
    # count is checked before anything is placed
    for comp, flags, size in (
        ("6^0,6^1", ("--dump-poly",), 12376**2),
        ("7^0,7^1", ("--dump-poly", "--widths", "7,7"), 1716**2),
        ("6^0,6^1", ("--via-poly", "--widths", "12,12"), 12376**2),
    ):
        code, out, err = run_cli(capsys, "ribbon", "--comp", comp, *flags)
        assert code == 2 and out == ""
        assert f"has {size} terms, over the bound of {cli.MAX_POLY_TERMS}" in err
    # both sides of the bound at a size that runs: 3 * 3 = 9 terms, as h_2
    # places to 3 monomials at width 2 and e_2, the column of 1^1,1^1, to
    # C(3, 2) = 3 at width 3
    monkeypatch.setattr(cli, "MAX_POLY_TERMS", 9)
    args = ("ribbon", "--comp", "2^0,1^1,1^1", "--r", "2", "--widths", "2,3")
    code, out, _ = run_cli(capsys, *args, "--dump-poly")
    assert code == 0 and len(json.loads(out)["polynomial"]) == 9
    monkeypatch.setattr(cli, "MAX_POLY_TERMS", 8)
    code, out, err = run_cli(capsys, *args, "--dump-poly")
    assert code == 2 and out == "" and "has 9 terms" in err
    # widths the constructor refuses keep its own error, with either flag
    for flag in ("--dump-poly", "--via-poly"):
        for widths, message in (
            ("2", "error: need 2 alphabet widths, got 1\n"),
            ("2,-1", "error: alphabet widths must be nonnegative\n"),
        ):
            code, out, err = run_cli(capsys, *args[:-1], widths, flag)
            assert (code, out, err) == (2, "", message)


def test_ribbon_polynomial_bound_reads_the_exact_term_count(monkeypatch):
    # every colored composition with n <= 3, r <= 2 at every width in 0..3:
    # a bound of the number of placed terms admits it, and one below refuses
    for n in range(1, 4):
        for r in (1, 2):
            for ce in enumerate_colored_compositions(n, r):
                for widths in product(range(4), repeat=r):
                    size = len(colored_ribbon(ce, widths).terms)
                    monkeypatch.setattr(cli, "MAX_POLY_TERMS", size)
                    cli._check_poly_size(ce, widths)
                    monkeypatch.setattr(cli, "MAX_POLY_TERMS", size - 1)
                    with pytest.raises(ResourceLimitError, match=f"has {size} terms"):
                        cli._check_poly_size(ce, widths)


def test_ribbon_polynomial_is_built_once(capsys, monkeypatch):
    built = []

    def counted(ce, widths):
        built.append(widths)
        return colored_ribbon(ce, widths)

    monkeypatch.setattr(cli, "colored_ribbon", counted)
    args = ("ribbon", "--comp", "2^0,1^1,1^0", "--r", "2", "--via-poly", "--widths", "4,6")
    code, out, _ = run_cli(capsys, *args, "--dump-poly")
    assert code == 0 and built == [(4, 6)]
    assert json.loads(out)["expansion"] == json.loads(
        (GOLDEN / "ribbon_via_poly_widths_4_6.json").read_text()
    )


def test_ribbon_refuses_peel_widths_below_n_before_building(capsys, monkeypatch):
    # the peel's own message and exit code, from the parsed widths alone
    def refused(ce, widths):
        raise AssertionError("the placed polynomial was built")

    monkeypatch.setattr(cli, "colored_ribbon", refused)
    for flags in ((), ("--dump-poly",)):
        code, out, err = run_cli(
            capsys, "ribbon", "--comp", "6^0,6^1", "--via-poly", "--widths", "6,6", *flags
        )
        assert code == 2 and out == ""
        assert err == "error: peeling needs widths >= degree 12 in every alphabet: (6, 6)\n"


def test_ribbon_dump_poly_needs_json(capsys):
    # the table view shows only the expansion, so the polynomial would be
    # built for nothing
    code, out, err = run_cli(
        capsys, "ribbon", "--comp", "2^0", "--dump-poly", "--format", "table"
    )
    assert code == 2 and out == ""
    assert "--dump-poly applies only with --format json" in err


def test_ribbon_schur_matches_library_bytes(capsys):
    code, out, _ = run_cli(
        capsys, "ribbon", "--comp", "2^0,2^0", "--r", "1", "--basis", "schur"
    )
    assert code == 0
    expected = ribbon_schur_by_counting(ColoredComposition((2, 2), (0, 0), 1))
    assert out == json.dumps(expected.to_json(), indent=2, sort_keys=True) + "\n"


def test_ribbon_paths_agree(capsys):
    args = ("ribbon", "--comp", "1^0,2^1,1^0", "--r", "2")
    _, counted, _ = run_cli(capsys, *args, "--basis", "schur")
    _, peeled, _ = run_cli(capsys, *args, "--basis", "schur", "--via-poly")
    assert counted == peeled


def test_ribbon_h_running_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "ribbon",
        "--comp",
        "2^0,2^1,1^1,1^3,3^1,1^2",
        "--r",
        "4",
        "--basis",
        "h",
    )
    assert code == 0
    payload = json.loads(out)
    assert sorted(t["coeff"] for t in payload["terms"]) == [-1, 1]


def test_ribbon_f_basis(capsys):
    code, out, _ = run_cli(
        capsys, "ribbon", "--comp", "2^0,2^0", "--r", "1", "--basis", "f"
    )
    assert code == 0
    payload = json.loads(out)
    counts = {tuple(t["parts"]): t["coeff"] for t in payload["terms"]}
    assert counts == {(2, 2): 2, (3, 1): 1, (1, 3): 1, (1, 2, 1): 1}


def test_ribbon_f_basis_has_no_cell_bound(capsys):
    code, out, _ = run_cli(capsys, "ribbon", "--comp", "13^0", "--r", "1", "--basis", "f")
    assert code == 0
    assert json.loads(out)["terms"] == [{"parts": [13], "colors": [0], "coeff": 1}]


def test_ribbon_f_basis_is_bounded_by_the_class_size(capsys, monkeypatch):
    # the class of 2^0,1^1 has 3 members: both sides of the bound
    args = ("ribbon", "--comp", "2^0,1^1", "--r", "2", "--basis", "f")
    monkeypatch.setattr(bijections, "MAX_CLASS_SIZE", 3)
    assert run_cli(capsys, *args)[0] == 0
    monkeypatch.setattr(bijections, "MAX_CLASS_SIZE", 2)
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "") and "3 members" in err
    # at the real bound, the 9! members of the alternating class are
    # refused by both commands before any filling is built
    monkeypatch.undo()

    def refused(bounds):
        raise AssertionError("a filling was built")

    for module in (bijections, symfun):
        monkeypatch.setattr(module, "_raw_fillings", refused)
    alternating = ",".join(["1^0", "1^1"] * 4 + ["1^0"])
    for argv in (("ribbon", "--basis", "f"), ("descent-class",)):
        code, out, err = run_cli(capsys, *argv, "--comp", alternating, "--r", "2")
        assert (code, out) == (2, "")
        assert err == (
            "error: the descent class has 362880 members for n=9, r=2, "
            f"over the bound {bijections.MAX_CLASS_SIZE}\n"
        )


def test_ribbon_factor_bound_is_checked_before_any_factor_is_built(capsys, monkeypatch):
    # a row of m cells has 2^(m-1) packed keys: 17^0 has 2^16 and is
    # accepted, 18^0 and 20^0 are refused on both polynomial paths
    def refused(blocks):
        raise AssertionError("a one-alphabet factor was built")

    monkeypatch.setattr(symfun, "_schur_terms", refused)
    cli._check_factor_size(ColoredComposition((17,), (0,), 1))
    for comp, flag in (("18^0", "--dump-poly"), ("20^0", "--via-poly"), ("18^0", "--via-poly")):
        code, out, err = run_cli(capsys, "ribbon", "--comp", comp, "--r", "1", flag)
        assert (code, out) == (2, "")
        assert f"may have more than {cli.MAX_FACTOR_KEYS} packed keys" in err
    monkeypatch.undo()
    # both sides of the bound at a size that runs: the row 3^0 has 4 keys
    monkeypatch.setattr(cli, "MAX_FACTOR_KEYS", 4)
    assert run_cli(capsys, "ribbon", "--comp", "3^0", "--r", "1", "--via-poly")[0] == 0
    code, out, err = run_cli(capsys, "ribbon", "--comp", "4^0", "--r", "1", "--dump-poly")
    assert (code, out) == (2, "") and "(4 cells in 4 columns)" in err


def test_ribbon_factor_bound_holds_on_every_small_ribbon(monkeypatch):
    # every colored composition with n <= 5, r <= 3: a bound below its
    # largest factor's key count refuses it, and a row of n cells, with
    # exactly 2^(n-1) keys, passes at that bound
    for n in range(1, 6):
        for r in (1, 2, 3):
            for ce in enumerate_colored_compositions(n, r):
                size = max(map(len, symfun._ribbon_factors(ce.parts, ce.colors, r)))
                monkeypatch.setattr(cli, "MAX_FACTOR_KEYS", size - 1)
                with pytest.raises(ResourceLimitError, match="may have more than"):
                    cli._check_factor_size(ce)
                if ce.parts == (n,):
                    assert size == 2 ** (n - 1)
                    monkeypatch.setattr(cli, "MAX_FACTOR_KEYS", size)
                    cli._check_factor_size(ce)


@pytest.mark.parametrize("flag", ["--via-poly", "--dump-poly"])
def test_ribbon_polynomial_paths_take_a_column_past_the_recursion_limit(capsys, flag):
    # the factor bound lets a column through, as its factor has one key,
    # and that factor is a chain of more strips than the recursion limit
    n = sys.getrecursionlimit() + 200
    code, out, err = run_cli(capsys, "ribbon", "--comp", ",".join(["1^0"] * n), "--r", "1", flag)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    expansion = payload["expansion"] if flag == "--dump-poly" else payload
    assert expansion["terms"] == [{"coeff": 1, "index": [[1] * n]}]


def test_ribbon_dump_poly(capsys):
    code, out, _ = run_cli(
        capsys,
        "ribbon", "--comp", "2^0", "--r", "1", "--basis", "schur", "--dump-poly",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["widths"] == [2]
    assert {tuple(t["exponents"][0]) for t in payload["polynomial"]} == {
        (2, 0), (1, 1), (0, 2),
    }


GOLDEN = Path(__file__).parent / "golden"


_RIBBON_R2 = ("ribbon", "--comp", "2^0,1^1,1^0", "--r", "2")
RIBBON_R2_GOLDENS = [
    (("--dump-poly", "--widths", "2,5"), "ribbon_dump_poly_widths_2_5.json"),
    (("--dump-poly",), "ribbon_dump_poly.json"),
    (("--via-poly", "--widths", "4,6"), "ribbon_via_poly_widths_4_6.json"),
]


@pytest.mark.parametrize("flags,golden", RIBBON_R2_GOLDENS)
def test_ribbon_polynomial_golden_stdout(capsys, flags, golden):
    # placement on uneven widths is where packed and full polynomials meet
    code, out, _ = run_cli(capsys, *_RIBBON_R2, *flags)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


_RIBBON_R3_POLY = ("ribbon", "--comp", "2^0,1^1,2^2", "--r", "3")
RIBBON_R3_GOLDENS = [
    (("--dump-poly", "--widths", "3,2,4"), "ribbon_dump_poly_r3_widths_3_2_4.json"),
    (("--dump-poly", "--widths", "3,0,4"), "ribbon_dump_poly_r3_widths_3_0_4.json"),
    (("--via-poly", "--widths", "5,6,5"), "ribbon_via_poly_r3_widths_5_6_5.json"),
]


@pytest.mark.parametrize("flags,golden", RIBBON_R3_GOLDENS)
def test_three_color_ribbon_polynomial_golden_stdout(capsys, flags, golden):
    # widths below n truncate each alphabet on its own, and a zero width
    # truncates the ribbon to zero
    code, out, _ = run_cli(capsys, *_RIBBON_R3_POLY, *flags)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_descent_class(capsys):
    code, out, _ = run_cli(
        capsys, "descent-class", "--comp", "2^0,2^0", "--r", "1", "--conj-inverse"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    assert "1^0,3^0,2^0,4^0" in payload["members"]


def test_descent_class_bound_is_the_class_size(capsys):
    # a class of one member in a group of 9! elements
    code, out, _ = run_cli(capsys, "descent-class", "--comp", "9^0", "--r", "1")
    assert code == 0
    assert json.loads(out)["members"] == ["1^0,2^0,3^0,4^0,5^0,6^0,7^0,8^0,9^0"]
    alternating = ",".join(["1^0", "1^1"] * 4 + ["1^0"])
    code, out, err = run_cli(capsys, "descent-class", "--comp", alternating, "--r", "2")
    assert code == 2 and out == ""
    assert "362880 members" in err


def test_descent_class_cells_are_bounded_by_the_class_size_only(capsys):
    # one-member classes longer than the 12-cell enumeration default, up to
    # a length the recursion limit would refuse to a recursive search
    for n in (13, 2000):
        code, out, err = run_cli(capsys, "descent-class", "--comp", f"{n}^0", "--r", "1")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["members"] == [",".join(f"{i}^0" for i in range(1, n + 1))]


VERIFY_GOLDENS = [
    (
        ("--identity", "zigzag-count", "--max-n", "4", "--max-r", "3"),
        "verify_zigzag_count_n4_r3.json",
    ),
    (
        ("--identity", "class-tableau", "--max-n", "3", "--max-r", "2"),
        "verify_class_tableau_n3_r2.json",
    ),
    (
        ("--identity", "class-tableau", "--max-n", "4", "--max-r", "2"),
        "verify_class_tableau_n4_r2.json",
    ),
    (
        ("--identity", "reading-word", "--max-n", "6"),
        "verify_reading_word_n6.json",
    ),
    (("--identity", "all"), "verify_all.json"),
]


@pytest.mark.parametrize("argv,golden", [
    pytest.param(*case, marks=pytest.mark.slow) if case[0] == ("--identity", "all") else case
    for case in VERIFY_GOLDENS
])
def test_verify_golden_stdout(capsys, request, argv, golden):
    # report bytes and breakdown order of the shape and class suites, and
    # of every suite at its default range, from the shared run
    if argv == ("--identity", "all"):
        run = request.getfixturevalue("verify_all")
        code, out = run.code, run.out
    else:
        code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


_RIBBON_R3 = ("ribbon", "--comp", "2^0,1^1,2^2,1^1", "--r", "3", "--basis")
_DESCENT_CLASS = ("descent-class", "--comp", "2^0,1^1,1^1", "--r", "2")


POINT_QUERY_GOLDENS = [
    (("enum-comps", "--n", "4", "--r", "3"), "enum_comps_n4_r3.json"),
    (_DESCENT_CLASS, "descent_class_2_1_1.json"),
    ((*_DESCENT_CLASS, "--conj-inverse"), "descent_class_2_1_1_conj_inverse.json"),
    (("rsk", "--perm", "3^1,5^0,1^2,4^0,2^1", "--r", "3"), "rsk_r3.json"),
    (
        ("tableau-of", "--perm", "2^0,3^0,7^1,10^1,5^1,6^3,1^1,8^1,9^1,4^2", "--r", "4"),
        "tableau_of_running_example.json",
    ),
    ((*_RIBBON_R3, "schur"), "ribbon_schur_r3.json"),
    ((*_RIBBON_R3, "h"), "ribbon_h_r3.json"),
    ((*_RIBBON_R3, "f"), "ribbon_f_r3.json"),
]


@pytest.mark.parametrize("argv,golden", POINT_QUERY_GOLDENS)
def test_point_query_golden_stdout(capsys, argv, golden):
    # the bytes each subcommand wrote when json.dumps encoded its output
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("argv,golden", POINT_QUERY_GOLDENS)
def test_point_query_golden_table_stdout(capsys, argv, golden):
    # the table renderers read the same objects as the JSON writer
    code, out, _ = run_cli(capsys, *argv, "--format", "table")
    assert code == 0
    assert out == (GOLDEN / golden.replace(".json", "_table.txt")).read_text()


def test_rsk_round_trip_schema(capsys):
    code, out, _ = run_cli(
        capsys, "rsk", "--perm", "3^0,4^0,1^0,2^0", "--r", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["P"] == [[[1, 2], [3, 4]]]
    assert payload["Q"] == [[[1, 2], [3, 4]]]


def test_tableau_of(capsys):
    code, out, _ = run_cli(
        capsys,
        "tableau-of",
        "--perm",
        "2^0,3^0,7^1,10^1,5^1,6^3,1^1,8^1,9^1,4^2",
        "--r",
        "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["components"] == [
        [[2, 3]], [[1, 8, 9], [5], [7, 10]], [[4]], [[6]],
    ]
    assert payload["sdes"] == [[1, 1], [3, 0], [4, 2], [5, 1], [6, 3], [9, 1], [10, 1]]


def test_verify_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "zigzag-count", "--max-n", "3", "--max-r", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True


@pytest.mark.parametrize(
    "flag,value", [("--max-n", "0"), ("--max-r", "0"), ("--jobs", "-3")]
)
def test_verify_rejects_empty_range_and_bad_jobs(capsys, flag, value):
    # an empty range would check 0 of 0 cases and pass vacuously
    code, out, err = run_cli(capsys, "verify", "--identity", "rsk", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_runs_in_process_only(capsys):
    # every suite runs in-process, so a worker count other than 1 is refused
    # rather than ignored
    args = ("verify", "--identity", "rsk", "--max-n", "2")
    code, out, err = run_cli(capsys, *args, "--jobs", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--jobs" in err
    code, out, _ = run_cli(capsys, *args, "--jobs", "1")
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize(
    "identity", ["reading-word", "skew-schur-f", "ribbon-schur", "ribbon-h"]
)
def test_verify_rejects_max_r_without_a_color_range(capsys, identity):
    # these suites have no color range and would drop --max-r unread
    code, out, err = run_cli(
        capsys, "verify", "--identity", identity, "--max-n", "3", "--max-r", "3"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "max_r" in err


def test_verify_all_passes_max_r_to_the_colored_suites_only(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "all", "--max-n", "2", "--max-r", "2"
    )
    assert code == 0
    max_r = {report["identity"]: report["max_r"] for report in json.loads(out)}
    assert max_r["reading-word"] is None and max_r["ribbon-h"] is None
    assert max_r["rsk"] == 2 and max_r["colored-ribbon-schur"] == 2


def test_ribbon_widths_need_a_polynomial_path(capsys):
    args = ("ribbon", "--comp", "2^0,2^0", "--r", "1")
    code, out, err = run_cli(capsys, *args, "--widths", "4,4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--widths" in err
    code, out, _ = run_cli(capsys, *args, "--widths", "4", "--via-poly")
    assert code == 0
    assert json.loads(out)["basis"] == "schur"


@pytest.mark.parametrize(
    "comp,flags,needle",
    [
        ("2^0,1^0", ("--basis", "h", "--via-poly", "--widths", "9"), "--via-poly"),
        ("2^0,1^0", ("--basis", "f", "--via-poly"), "--via-poly"),
        ("1^0,1^0", ("--via-poly", "--widths", "1"), "widths >= degree 2"),
        ("2^0", ("--via-poly", "--widths", "1"), "widths >= degree 2"),
        ("2^0", ("--via-poly", "--widths", ""), "--widths takes"),
        ("1^0", ("--via-poly", "--widths", "a"), "comma-separated integers, got 'a'"),
        ("1^0", ("--via-poly", "--widths", "3,,4"), ", got '3,,4'"),
    ],
)
def test_ribbon_rejects_ignored_or_narrow_polynomial_path(capsys, comp, flags, needle):
    # the h and f bases never peel a polynomial, and one variable truncates
    # the ribbon of (1, 1) to zero
    code, out, err = run_cli(capsys, "ribbon", "--comp", comp, "--r", "1", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and needle in err


def test_verify_table_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "rsk", "--max-n", "2", "--max-r", "2",
        "--format", "table",
    )
    assert code == 0
    assert "PASS" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    # a failing report must surface as exit status 1
    from coloredsym import cli
    from coloredsym.identities import VerificationReport

    broken = VerificationReport(
        identity="rsk", max_n=1, max_r=1, cases_checked=1, expected_cases=1,
        failure_count=1, failures=[{"oops": 1}], wall_time=0.0,
    )
    monkeypatch.setattr(cli, "run_identity", lambda *a, **k: broken)
    code, out, _ = run_cli(capsys, "verify", "--identity", "rsk")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "ribbon", "--comp", "oops", "--r", "1")
    assert code == 2
    assert "oops" in err


def test_color_count_below_one_is_named(capsys):
    code, out, err = run_cli(capsys, "ribbon", "--comp", "1^0", "--r", "0")
    assert code == 2 and out == ""
    assert err == "error: r must be at least 1, got 0\n"


def test_bad_flag_exit_code(capsys):
    code, _, _ = run_cli(capsys, "ribbon", "--comp", "2^0", "--basis", "typo")
    assert code == 2


def test_deterministic_output(capsys):
    args = ("ribbon", "--comp", "2^0,1^1", "--r", "2", "--basis", "schur")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


HELP_GOLDENS = {
    "top": (),
    "enum-comps": ("enum-comps",),
    "descent-class": ("descent-class",),
    "ribbon": ("ribbon",),
    "rsk": ("rsk",),
    "tableau-of": ("tableau-of",),
    "verify": ("verify",),
}


def _set_columns(monkeypatch, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)


@pytest.mark.parametrize("columns", [None, "40", "200"])
@pytest.mark.parametrize("name", sorted(HELP_GOLDENS))
def test_help_golden_stdout(capsys, monkeypatch, name, columns):
    # help wraps at 78 columns, the width argparse takes for piped output
    # when COLUMNS is unset; the terminal width and COLUMNS are not read
    _set_columns(monkeypatch, columns)
    code, out, err = run_cli(capsys, *HELP_GOLDENS[name], "--help")
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"help_{name}.txt").read_text()


@pytest.mark.parametrize("columns", [None, "40"])
def test_usage_error_golden_stderr(capsys, monkeypatch, columns):
    _set_columns(monkeypatch, columns)
    code, out, err = run_cli(capsys, "enum-comps", "--n", "x")
    assert code == 2 and out == ""
    assert err == (GOLDEN / "usage_enum_comps_n_x.txt").read_text()


COLD_CALL = """
import sys
sys.path.insert(0, sys.argv[1])
from coloredsym.cli import main
codes = [main(["verify", "--identity", "ribbon-h", "--max-n", "1"])]
loaded = ["shutil" in sys.modules]
codes.append(main(["enum-comps", "--n", "x"]))
loaded.append("shutil" in sys.modules)
print(codes, loaded)
"""


def test_cold_cli_call_does_not_import_shutil():
    # argparse imports shutil (and with it zlib, bz2, lzma) to read the
    # terminal width unless the formatter is given one
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", COLD_CALL, str(src)],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[0, 2] [False, False]"
    assert "error: argument --n: invalid int value: 'x'" in proc.stderr


COLD_WELL_FORMED_CALL = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import coloredsym, coloredsym.cli
from coloredsym.cli import main
loaded = [sorted({"argparse", "gettext", "locale"} & set(sys.modules))]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["verify", "--identity", "ribbon-h", "--max-n", "1"])]
loaded.append(sorted({"argparse", "gettext", "locale"} & set(sys.modules)))
help_out = io.StringIO()
with contextlib.redirect_stdout(help_out):
    codes.append(main(["enum-comps", "--help"]))
usage_err = io.StringIO()
with contextlib.redirect_stderr(usage_err):
    codes.append(main(["enum-comps", "--n", "x"]))
print(json.dumps([codes, loaded, help_out.getvalue(), usage_err.getvalue()]))
"""


def test_cold_well_formed_call_does_not_import_argparse(monkeypatch):
    # argparse with gettext and locale is most of a cold import and of a
    # first call; it is built only for help and errors, which read as before
    monkeypatch.delenv("COLUMNS", raising=False)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", COLD_WELL_FORMED_CALL, str(src)],
        capture_output=True, text=True, check=True,
    )
    codes, loaded, help_out, usage_err = json.loads(proc.stdout)
    assert codes == [0, 0, 2]
    assert loaded == [[], []]
    assert help_out == (GOLDEN / "help_enum-comps.txt").read_text()
    assert usage_err == (GOLDEN / "usage_enum_comps_n_x.txt").read_text()


def _readme_examples():
    """The ``coloredsym`` command lines of the README's bash blocks."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = text.split("```bash\n")[1:]
    lines = [line for block in blocks for line in block.split("```")[0].splitlines()]
    return [line for line in lines if line.startswith("coloredsym ")]


def test_readme_has_its_examples():
    assert len(_readme_examples()) == 10


@pytest.mark.parametrize("line", [
    pytest.param(line, marks=pytest.mark.slow) if line.endswith("--identity all") else line
    for line in _readme_examples()
])
def test_readme_example_exits_0_with_json(capsys, monkeypatch, request, line):
    # and its bytes are json.dumps(indent=2, sort_keys=True) of its object;
    # the default verify-all is the shared run
    argv = shlex.split(line, comments=True)[1:]
    if argv == ["verify", "--identity", "all"]:
        run = request.getfixturevalue("verify_all")
        code, out, emitted = run.code, run.out, run.emitted
    else:
        emitted = []
        emit = cli._emit

        def recorded(obj, *args):
            emitted.append(obj)
            emit(obj, *args)

        monkeypatch.setattr(cli, "_emit", recorded)
        code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    [obj] = emitted
    assert out == json.dumps(obj, indent=2, sort_keys=True) + "\n"

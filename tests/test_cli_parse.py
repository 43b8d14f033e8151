"""The option-table parser of the CLI against argparse.

``cli._parse`` reads well-formed command lines from ``cli.COMMANDS``; every
other command line goes to the argparse parser built from the same table.
For every argv of the corpus below, ``_parse`` either declines (None) or
returns exactly the namespace ``build_parser().parse_args`` returns.
"""

import contextlib
import io
import itertools
import os
import shlex
import sys

import pytest

from coloredsym import cli
from test_cli import (
    _RIBBON_R2,
    _RIBBON_R3_POLY,
    HELP_GOLDENS,
    POINT_QUERY_GOLDENS,
    RIBBON_R2_GOLDENS,
    RIBBON_R3_GOLDENS,
    VERIFY_GOLDENS,
    _readme_examples,
)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _session_argv(rounds=30, seed=7):
    """Every argv of the first ``rounds`` rounds of perfbench's session."""
    sys.path.append(PERFBENCH)
    try:
        import queries
    finally:
        sys.path.remove(PERFBENCH)
    stream = queries.rounds(seed)
    return [q["argv"] for _ in range(rounds) for q in next(stream)]


def _sweep_argv():
    """The argv of perfbench's cold calls: one ``verify`` per suite."""
    out = []
    for name, (_, (_, default_r)) in sorted(cli.IDENTITY_REGISTRY.items()):
        argv = ["verify", "--identity", name, "--max-n", "2", "--jobs", "1"]
        out.append(argv if default_r is None else argv + ["--max-r", "2"])
    return out


def _well_formed():
    """The argv the goldens, the README and perfbench use."""
    corpus = [list(argv) for argv, _ in POINT_QUERY_GOLDENS]
    corpus += [["verify", *argv] for argv, _ in VERIFY_GOLDENS]
    corpus += [[*_RIBBON_R2, *flags] for flags, _ in RIBBON_R2_GOLDENS]
    corpus += [[*_RIBBON_R3_POLY, *flags] for flags, _ in RIBBON_R3_GOLDENS]
    corpus += [shlex.split(line, comments=True)[1:] for line in _readme_examples()]
    corpus += _sweep_argv()
    return corpus


#: Spellings argparse accepts or refuses that are not the plain form.
ODD = [
    [],
    ["--format", "json"],
    ["bogus"],
    ["Verify"],
    ["--", "verify"],
    ["-h"],
    ["--help"],
    ["enum-comps", "--n", "3"],
    ["enum-comps", "--r", "3"],
    ["enum-comps"],
    ["ribbon"],
    ["rsk", "--r", "2"],
    ["ribbon", "--comp"],
    ["ribbon", "--comp", "--r", "2"],
    ["ribbon", "--comp", "-", "--r", "1"],
    ["ribbon", "--comp", "-1 2", "--r", "1"],
    ["ribbon", "--comp", "", "--r", "1"],
    ["ribbon", "--comp", "2^0", "--r", ""],
    ["ribbon", "--comp", "2^0", "--widths", "", "--via-poly"],
    ["ribbon", "--comp", "2^0", "--basis", "typo"],
    ["ribbon", "--comp", "2^0", "--basis", "Schur"],
    ["ribbon", "--comp", "2^0", "--basis", ""],
    ["ribbon", "--comp", "2^0", "--format", "yaml"],
    ["ribbon", "--comp", "2^0", "--bogus"],
    ["ribbon", "--comp", "2^0", "--bogus", "1"],
    ["ribbon", "--comp", "2^0", "-x"],
    ["ribbon", "--comp", "2^0", "extra"],
    ["ribbon", "--comp", "2^0", "--via-poly", "yes"],
    ["ribbon", "--comp", "2^0", "--dump", "--wid", "2"],
    ["ribbon", "--comp", "2^0", "--r", "1", "--"],
    ["ribbon", "--", "--comp", "2^0"],
    ["ribbon", "--comp=2^0", "--r=1"],
    ["ribbon", "--comp", "2^0", "--r", "1", "--r", "2"],
    ["ribbon", "--comp", "2^0", "--comp", "1^0,1^0"],
    ["ribbon", "--comp", "2^0", "--via-poly", "--via-poly"],
    ["ribbon", "--comp", "2^0", "--format", "table", "--format", "json"],
    ["descent-class", "--comp", "2^0", "--conj"],
    ["descent-class", "--comp", "2^0", "--c", "1^0"],
    ["descent-class", "--comp", "2^0", "--conj-inverse", "--conj-inverse"],
    ["enum-comps", "--n", "x", "--r", "2"],
    ["enum-comps", "--n", "1.5", "--r", "2"],
    ["enum-comps", "--n", "", "--r", "2"],
    ["enum-comps", "--n", " 3", "--r", "2"],
    ["enum-comps", "--n", "+3", "--r", "2"],
    ["enum-comps", "--n", "3_0", "--r", "2"],
    ["enum-comps", "--n", "\u0663", "--r", "2"],
    ["enum-comps", "--n", "-3", "--r", "2"],
    ["enum-comps", "--n", "3", "--r", "-1"],
    ["enum-comps", "--n=3", "--r", "2"],
    ["enum-comps", "--n", "3", "--r", "2", "--n", "4"],
    ["enum-comps", "--n", "3", "--r", "2", "--n", "x"],
    ["verify", "--identity", "nope"],
    ["verify", "--identity", ""],
    ["verify", "--iden", "rsk"],
    ["verify", "--max", "2"],
    ["verify", "--max-", "2"],
    ["verify", "--max-n", "-2"],
    ["verify", "--jobs", "-3"],
    ["verify", "--jobs", "2"],
    ["verify", "--jobs", "x"],
    ["verify", "--identity", "rsk", "--identity", "all"],
    ["verify", "--identity=rsk", "--max-n=2"],
    ["verify", "-h", "--identity", "rsk"],
    ["verify", "rsk"],
]


def _mutations(argv):
    """``-h`` and ``--help`` at every position, every token dropped, every
    long option abbreviated or joined to its value with ``=``, and every
    token repeated."""
    out = []
    for i in range(len(argv) + 1):
        out.append(argv[:i] + ["-h"] + argv[i:])
        out.append(argv[:i] + ["--help"] + argv[i:])
    for i, token in enumerate(argv):
        out.append(argv[:i] + argv[i + 1:])
        out.append(argv[:i + 1] + [token] + argv[i + 1:])
        if token.startswith("--"):
            for end in range(3, len(token)):
                out.append(argv[:i] + [token[:end]] + argv[i + 1:])
            if i + 1 < len(argv):
                out.append(argv[:i] + [f"{token}={argv[i + 1]}"] + argv[i + 2:])
    return out


def _typed(namespace: dict) -> dict:
    # True == 1, so compare the types too
    return {key: (type(value), value) for key, value in namespace.items()}


@pytest.fixture(scope="module")
def argparse_parse():
    parser = cli.build_parser()

    def parse(argv):
        """argparse's namespace as a dict, or its exit code; its help and
        messages are swallowed."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return vars(parser.parse_args(list(argv)))
            except SystemExit as exc:
                return exc.code

    return parse


def _check(argv, argparse_parse):
    fast = cli._parse(list(argv))
    if fast is not None:
        assert _typed(vars(fast)) == _typed(argparse_parse(argv)), argv
    return fast


def test_well_formed_argv_take_the_fast_path(argparse_parse):
    corpus = _well_formed() + _session_argv()
    assert len(corpus) > 1000
    for argv in corpus:
        assert _check(argv, argparse_parse) is not None, argv


def test_session_argv_cover_every_query_kind():
    assert {argv[0] for argv in _session_argv()} == set(cli.COMMANDS) - {"verify"}


def test_odd_spellings_agree_with_argparse_or_fall_back(argparse_parse):
    taken = [argv for argv in ODD if _check(argv, argparse_parse) is not None]
    # an empty value, a repeated option (the last value wins) and anything
    # int() reads are as argparse takes them; the rest falls back
    assert taken == [
        ["ribbon", "--comp", "", "--r", "1"],
        ["ribbon", "--comp", "2^0", "--widths", "", "--via-poly"],
        ["ribbon", "--comp", "2^0", "--r", "1", "--r", "2"],
        ["ribbon", "--comp", "2^0", "--comp", "1^0,1^0"],
        ["ribbon", "--comp", "2^0", "--via-poly", "--via-poly"],
        ["ribbon", "--comp", "2^0", "--format", "table", "--format", "json"],
        ["descent-class", "--comp", "2^0", "--conj-inverse", "--conj-inverse"],
        ["enum-comps", "--n", " 3", "--r", "2"],
        ["enum-comps", "--n", "+3", "--r", "2"],
        ["enum-comps", "--n", "3_0", "--r", "2"],
        ["enum-comps", "--n", "\u0663", "--r", "2"],
        ["enum-comps", "--n", "3", "--r", "2", "--n", "4"],
        ["verify", "--jobs", "2"],
        ["verify", "--identity", "rsk", "--identity", "all"],
    ]


def test_mutated_argv_agree_with_argparse_or_fall_back(argparse_parse):
    # help, abbreviations and `=` never take the fast path
    seen = set()
    for argv in itertools.chain(_well_formed(), ODD):
        for mutated in _mutations(list(argv)):
            key = tuple(mutated)
            if key in seen:
                continue
            seen.add(key)
            fast = _check(mutated, argparse_parse)
            joined = any(t.startswith("--") and "=" in t for t in mutated)
            if "-h" in mutated or "--help" in mutated or joined:
                assert fast is None, mutated
    assert len(seen) > 2000


@pytest.mark.parametrize("name", sorted(HELP_GOLDENS))
def test_help_is_argparse_s(argparse_parse, name):
    argv = [*HELP_GOLDENS[name], "--help"]
    assert cli._parse(argv) is None
    assert argparse_parse(argv) == 0


def test_fast_path_namespace_matches_argparse_on_each_subcommand(argparse_parse):
    # every default of every subcommand, and the namespace is a plain one
    for name in cli.COMMANDS:
        options = cli.COMMANDS[name][1]
        argv = [name]
        for flag, _, kind, _, choices, required, _ in options:
            if required:
                argv += [flag, "3" if kind is int else "2^0"]
        fast = _check(argv, argparse_parse)
        assert fast is not None and fast.command == name
        assert set(vars(fast)) == {"command"} | {dest for _, dest, *_ in options}

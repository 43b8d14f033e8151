"""Command-line front end.

Subcommands
-----------
enum-comps      enumerate colored compositions of n with r colors
descent-class   list a colored descent class (or its conjugate-inverse class)
ribbon          expand a colored ribbon element in the schur / h / f basis
rsk             apply the insertion correspondence to a colored permutation
tableau-of      map a colored permutation to its r-partite standard filling
verify          run one (or all) of the exhaustive identity suites

Output is JSON by default (byte-deterministic: the bytes of
``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, written by
``_write_json``), ``--format table`` renders a human-readable view.  Exit codes: 0 success, 1 verification failure, 2 bad
arguments or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bijections import (
    colored_class_to_tableau,
    colored_rsk,
    conj_inverse_descent_class,
    descent_class,
)
from .compositions import enumerate_colored_compositions, parse_colored_composition
from .errors import ResourceLimitError
from .identities import IDENTITY_REGISTRY, run_identity
from .permutations import colored_descent_composition, parse_colored_permutation
from .shapes import rpartite_descent_set
from .symfun import (
    colored_ribbon,
    expand_in_colored_schur,
    ribbon_f_expansion,
    ribbon_h_expansion,
    ribbon_schur_by_counting,
    ribbon_schur_by_peeling,
)


#: ``json``'s ASCII string escaper, in C where ``_json`` is built.
_escape = json.encoder.encode_basestring_ascii


class _Stream:
    """A JSON array whose items are made while ``_emit`` writes them, so
    the list of items is never held."""

    __slots__ = ("items",)

    def __init__(self, items):
        self.items = items


#: Pieces of text ``_write_json`` holds before an array hands them to stdout.
_STREAM_CHUNKS = 8192


def _write_json(obj, out: list, depth: int) -> None:
    """Append to ``out`` the text of ``json.dumps(obj, indent=2,
    sort_keys=True)`` as it reads nested ``depth`` levels deep.

    ``json`` runs its pure-Python encoder whenever ``indent`` is set; this
    writes the same bytes with the C string escaper and one join per list
    of ints.  A value other than an exact str, int, bool, None, list, tuple
    or str-keyed dict goes through ``json.dumps`` itself
    (``_write_by_json``), so a float, a subclass or an unserializable
    object reads, or fails, as it does there.
    """
    cls = obj.__class__
    if cls is str:
        out.append(_escape(obj))
    elif cls is int:
        out.append(int.__repr__(obj))
    elif cls is list or cls is tuple:
        if not obj:
            out.append("[]")
            return
        for item in obj:
            if item.__class__ is not int:
                _write_items(obj, out, depth)
                return
        inner = "\n" + "  " * (depth + 1)
        ints = ("," + inner).join(map(int.__repr__, obj))
        out.append("[" + inner + ints + "\n" + "  " * depth + "]")
    elif cls is dict:
        if not obj:
            out.append("{}")
            return
        for key in obj:
            if key.__class__ is not str:
                _write_by_json(obj, out, depth)
                return
        inner = "\n" + "  " * (depth + 1)
        sep = "{" + inner
        for key in sorted(obj):
            value = obj[key]
            # the scalars of the CLI's objects are written in place
            if value.__class__ is int:
                out.append(sep + _escape(key) + ": " + int.__repr__(value))
            elif value.__class__ is str:
                out.append(sep + _escape(key) + ": " + _escape(value))
            else:
                out.append(sep + _escape(key) + ": ")
                _write_json(value, out, depth + 1)
            sep = "," + inner
        out.append("\n" + "  " * depth + "}")
    elif cls is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif cls is _Stream:
        _write_items(obj.items, out, depth)
    else:
        _write_by_json(obj, out, depth)


def _write_items(items, out: list, depth: int) -> None:
    """``_write_json`` of a list of the items of an iterable.  Past
    ``_STREAM_CHUNKS`` pieces the text so far goes to stdout, so a long
    answer is never held as one text."""
    inner = "\n" + "  " * (depth + 1)
    sep = "[" + inner
    for item in items:
        out.append(sep)
        _write_json(item, out, depth + 1)
        sep = "," + inner
        if len(out) > _STREAM_CHUNKS:
            sys.stdout.write("".join(out))
            out.clear()
    out.append("[]" if sep[0] == "[" else "\n" + "  " * depth + "]")


def _write_by_json(obj, out: list, depth: int) -> None:
    """``_write_json`` of a value through ``json.dumps`` itself: its string
    literals hold no newline, so each line break takes the depth's indent."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    out.append(text.replace("\n", "\n" + "  " * depth) if depth else text)


def _emit(obj, fmt: str, table_renderer=None) -> None:
    if fmt == "json" or table_renderer is None:
        out: list[str] = []
        _write_json(obj, out, 0)
        out.append("\n")
        sys.stdout.write("".join(out))
    else:
        print(table_renderer(obj))


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("json", "table"), default="json", help="output format"
    )


def _help_formatter(prog: str) -> argparse.HelpFormatter:
    """argparse's formatter at the width it uses when stdout is not a
    terminal: with no width given it imports ``shutil`` to read the terminal
    size, and argparse builds a formatter for every argument it adds."""
    return argparse.HelpFormatter(prog, width=78)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coloredsym",
        description="colored descent combinatorics and exact symmetric-function identities",
        formatter_class=_help_formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "enum-comps",
        help="enumerate colored compositions",
        formatter_class=_help_formatter,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_format(p)

    p = sub.add_parser(
        "descent-class",
        help="list a colored descent class",
        formatter_class=_help_formatter,
    )
    p.add_argument("--comp", required=True, help='caret form, e.g. "2^0,2^1,1^1"')
    p.add_argument("--r", type=int, default=None)
    p.add_argument(
        "--conj-inverse",
        action="store_true",
        help="list the conjugate-inverse descent class instead",
    )
    _add_format(p)

    p = sub.add_parser(
        "ribbon",
        help="expand a colored ribbon element",
        formatter_class=_help_formatter,
    )
    p.add_argument("--comp", required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--basis", choices=("schur", "h", "f"), default="schur")
    p.add_argument(
        "--via-poly",
        action="store_true",
        help="force the polynomial peeling path for the schur basis",
    )
    p.add_argument(
        "--dump-poly",
        action="store_true",
        help="also emit the full ribbon polynomial",
    )
    p.add_argument(
        "--widths",
        default=None,
        help="comma-separated per-alphabet widths (default: n per alphabet)",
    )
    _add_format(p)

    p = sub.add_parser(
        "rsk",
        help="insertion correspondence",
        formatter_class=_help_formatter,
    )
    p.add_argument("--perm", required=True, help='window form, e.g. "2^0,3^0,1^1"')
    p.add_argument("--r", type=int, default=None)
    _add_format(p)

    p = sub.add_parser(
        "tableau-of",
        help="descent class to r-partite filling",
        formatter_class=_help_formatter,
    )
    p.add_argument("--perm", required=True)
    p.add_argument("--r", type=int, default=None)
    _add_format(p)

    p = sub.add_parser(
        "verify",
        help="run exhaustive identity suites",
        formatter_class=_help_formatter,
    )
    p.add_argument(
        "--identity",
        default="all",
        choices=sorted(IDENTITY_REGISTRY) + ["all"],
    )
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-r", type=int, default=None)
    # kept so that scripts passing `--jobs 1` still run; any other value exits 2
    p.add_argument(
        "--jobs", type=int, default=1, help="accepted only as 1: suites run in-process"
    )
    _add_format(p)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on first use: parsing keeps no state
    in it, and building it costs more than most point queries."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def _cmd_enum_comps(args) -> int:
    items = enumerate_colored_compositions(args.n, args.r)
    obj = {
        "n": args.n,
        "r": args.r,
        "count": len(items),
        "items": [ce.to_json() for ce in items],
    }
    _emit(obj, args.format, lambda o: "\n".join(ce.text() for ce in items))
    return 0


def _cmd_descent_class(args) -> int:
    ce = parse_colored_composition(args.comp, args.r)
    members = (
        conj_inverse_descent_class(ce) if args.conj_inverse else descent_class(ce)
    )
    obj = {
        "n": ce.n,
        "r": ce.r,
        "composition": ce.text(),
        "conj_inverse": bool(args.conj_inverse),
        "count": len(members),
        "members": [a.text() for a in members],
    }
    _emit(obj, args.format, lambda o: "\n".join(o["members"]))
    return 0


def _cmd_ribbon(args) -> int:
    ce = parse_colored_composition(args.comp, args.r)
    if args.widths is not None and not (args.via_poly or args.dump_poly):
        raise ValueError("--widths applies only with --via-poly or --dump-poly")
    if args.via_poly and args.basis != "schur":
        raise ValueError("--via-poly applies only with --basis schur")
    widths = _parse_widths(args.widths) if args.widths is not None else (ce.n,) * ce.r
    if args.basis == "schur":
        if args.via_poly and args.widths is not None:
            expansion = expand_in_colored_schur(colored_ribbon(ce, widths), ce.n)
        elif args.via_poly:
            expansion = ribbon_schur_by_peeling(ce)
        else:
            expansion = ribbon_schur_by_counting(ce)
        obj = expansion.to_json()
    elif args.basis == "h":
        obj = ribbon_h_expansion(ce).to_json()
    else:
        counts = ribbon_f_expansion(ce)
        obj = {
            "n": ce.n,
            "r": ce.r,
            "basis": "f",
            "terms": [
                {"parts": list(c.parts), "colors": list(c.colors), "coeff": mult}
                for c, mult in sorted(
                    counts.items(), key=lambda kv: (kv[0].parts, kv[0].colors)
                )
            ],
        }
    if args.dump_poly:
        poly = colored_ribbon(ce, widths)
        obj = {
            "expansion": obj,
            "polynomial": _Stream(
                {"exponents": [list(row) for row in mat], "coeff": c}
                for mat, c in poly.iter_term_items()
            ),
            "widths": list(widths),
        }
    _emit(obj, args.format, _ribbon_table)
    return 0


def _parse_widths(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(w) for w in text.split(","))
    except ValueError:
        raise ValueError(f"--widths takes comma-separated integers, got {text!r}") from None


def _ribbon_table(obj) -> str:
    terms = obj.get("expansion", obj).get("terms", [])
    lines = []
    for t in terms:
        if "index" in t:
            label = " | ".join(
                ",".join(map(str, part)) if part else "-" for part in t["index"]
            )
        else:
            label = ",".join(
                f"{p}^{c}" for p, c in zip(t["parts"], t["colors"])
            )
        lines.append(f"{t['coeff']:+d}  {label}")
    return "\n".join(lines)


def _cmd_rsk(args) -> int:
    w = parse_colored_permutation(args.perm, args.r)
    p, q = colored_rsk(w)
    obj = {
        "n": w.n,
        "r": w.r,
        "word": w.text(),
        "P": p.to_json(),
        "Q": q.to_json(),
        "shape": [shape.to_json() for shape in p.shape()],
    }
    _emit(obj, args.format, lambda o: f"P = {o['P']}\nQ = {o['Q']}")
    return 0


def _cmd_tableau_of(args) -> int:
    w = parse_colored_permutation(args.perm, args.r)
    bq = colored_class_to_tableau(w)
    sdes = rpartite_descent_set(bq)
    obj = {
        "n": w.n,
        "r": w.r,
        "word": w.text(),
        "descent_composition": colored_descent_composition(w).text(),
        "components": bq.to_json(),
        "shapes": [shape.to_json() for shape in bq.shape()],
        "sdes": [list(pair) for pair in sdes.pairs],
    }
    _emit(obj, args.format, lambda o: f"components = {o['components']}")
    return 0


def _cmd_verify(args) -> int:
    if args.jobs != 1:
        raise ValueError(f"--jobs must be 1 (every suite runs in-process), got {args.jobs}")
    names = sorted(IDENTITY_REGISTRY) if args.identity == "all" else [args.identity]
    reports = []
    for name in names:
        _, (_, default_r) = IDENTITY_REGISTRY[name]
        # `all` passes --max-r only to the suites that have a color range
        max_r = None if args.identity == "all" and default_r is None else args.max_r
        reports.append(run_identity(name, args.max_n, max_r))
    payload = [report.to_json() for report in reports]
    _emit(payload[0] if len(payload) == 1 else payload, args.format,
          lambda _: "\n\n".join(report.table() for report in reports))
    return 0 if all(report.passed for report in reports) else 1


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "enum-comps": _cmd_enum_comps,
        "descent-class": _cmd_descent_class,
        "ribbon": _cmd_ribbon,
        "rsk": _cmd_rsk,
        "tableau-of": _cmd_tableau_of,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands
-----------
enum-comps      enumerate colored compositions of n with r colors
descent-class   list a colored descent class (or its conjugate-inverse class)
ribbon          expand a colored ribbon element in the schur / h / f basis
rsk             apply the insertion correspondence to a colored permutation
tableau-of      map a colored permutation to its r-partite standard filling
verify          run one (or all) of the exhaustive identity suites

Each subcommand and its options are described once, in ``COMMANDS``.  A
well-formed command line (the subcommand, then its exact long options with
their values) is parsed from that table by ``_parse``; ``argparse`` is
imported and its parser built only for help, errors and the less common
spellings (``--n=3``, abbreviations, negative numbers, ``--``).

Output is JSON by default (byte-deterministic: the bytes of
``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, written by
``_write_json``), ``--format table`` renders a human-readable view.  Exit codes: 0 success, 1 verification failure, 2 bad
arguments or parse error.
"""

from __future__ import annotations

import json
import sys
from itertools import starmap
from math import comb
from types import SimpleNamespace

from .bijections import _raw_class_to_tableau, _raw_descent_class, _raw_rsk
from .compositions import (
    _raw_colored_composition_list,
    _raw_text,
    parse_colored_composition,
)
from .errors import ResourceLimitError
from .identities import IDENTITY_REGISTRY, run_identity
from .permutations import _raw_conj_inverse, parse_colored_permutation
from .shapes import (
    _raw_colored_composition_shape,
    _raw_filling_json,
    _raw_rpartite_descent_set,
    _raw_shape_json,
)
from .symfun import (
    _check_peel_widths,
    _raw_ribbon_f_counts,
    _ribbon_factors,
    colored_ribbon,
    expand_in_colored_schur,
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


def _option(flag, kind=str, default=None, choices=None, required=False, help=None):
    """One row of the option table: ``(flag, dest, kind, default, choices,
    required, help)``, with the dest argparse gives a long flag.  ``kind`` is
    ``int``, ``str`` or ``bool``, and a ``bool`` option is a store-true flag."""
    if kind is bool:
        default = False
    return (flag, flag[2:].replace("-", "_"), kind, default, choices, required, help)


_FORMAT = _option("--format", choices=("json", "table"), default="json", help="output format")

#: Each subcommand once: its help and its options in order.  ``build_parser``
#: builds argparse's parser from it, and ``_parse`` reads well-formed argv by it.
COMMANDS = {
    "enum-comps": ("enumerate colored compositions", (
        _option("--n", int, required=True),
        _option("--r", int, required=True),
        _FORMAT,
    )),
    "descent-class": ("list a colored descent class", (
        _option("--comp", required=True, help='caret form, e.g. "2^0,2^1,1^1"'),
        _option("--r", int),
        _option("--conj-inverse", bool, help="list the conjugate-inverse descent class instead"),
        _FORMAT,
    )),
    "ribbon": ("expand a colored ribbon element", (
        _option("--comp", required=True),
        _option("--r", int),
        _option("--basis", choices=("schur", "h", "f"), default="schur"),
        _option("--via-poly", bool, help="force the polynomial peeling path for the schur basis"),
        _option("--dump-poly", bool, help="also emit the full ribbon polynomial"),
        _option("--widths", help="comma-separated per-alphabet widths (default: n per alphabet)"),
        _FORMAT,
    )),
    "rsk": ("insertion correspondence", (
        _option("--perm", required=True, help='window form, e.g. "2^0,3^0,1^1"'),
        _option("--r", int),
        _FORMAT,
    )),
    "tableau-of": ("descent class to r-partite filling", (
        _option("--perm", required=True),
        _option("--r", int),
        _FORMAT,
    )),
    "verify": ("run exhaustive identity suites", (
        _option("--identity", choices=(*sorted(IDENTITY_REGISTRY), "all"), default="all"),
        _option("--max-n", int),
        _option("--max-r", int),
        # kept so that scripts passing `--jobs 1` still run; any other value exits 2
        _option("--jobs", int, default=1, help="accepted only as 1: suites run in-process"),
        _FORMAT,
    )),
}


def build_parser():
    """The ``argparse.ArgumentParser`` of ``COMMANDS``.  ``main`` builds it
    only for the argv that ``_parse`` leaves to it: help, errors and the
    less common spellings."""
    import argparse

    def formatter(prog: str):
        # argparse's formatter at the width it uses when stdout is not a
        # terminal: with no width given it imports ``shutil`` to read the
        # terminal size, and argparse builds a formatter for every argument
        return argparse.HelpFormatter(prog, width=78)

    parser = argparse.ArgumentParser(
        prog="coloredsym",
        description="colored descent combinatorics and exact symmetric-function identities",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary, formatter_class=formatter)
        for flag, dest, kind, default, choices, required, text in options:
            if kind is bool:
                p.add_argument(flag, dest=dest, action="store_true", help=text)
            else:
                p.add_argument(
                    flag, dest=dest, type=int if kind is int else None, default=default,
                    choices=choices, required=required, help=text,
                )
    return parser


_PARSER = None


def _parser():
    """The parser of ``main``, built on first use: parsing keeps no state
    in it, and building it costs more than most point queries."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


#: subcommand -> (flag -> (dest, kind, choices), defaults by dest, required
#: dests): ``COMMANDS`` as ``_parse`` reads it.
_SPECS = {
    name: (
        {flag: (dest, kind, choices) for flag, dest, kind, _, choices, _, _ in options},
        {dest: default for _, dest, _, default, _, _, _ in options},
        [dest for _, dest, _, _, _, required, _ in options if required],
    )
    for name, (_, options) in COMMANDS.items()
}


def _parse(argv):
    """``build_parser().parse_args(argv)`` for a well-formed argv, else None.

    Well-formed: a subcommand, then exact long options of it, each value a
    token that does not start with ``-``, converts as argparse converts it
    and is among its choices, with every required option given.  Any other
    argv (``-h``, an error, ``--n=3``, an abbreviation, a negative number,
    ``--``) is argparse's, which alone writes help and error messages.
    """
    if not argv:
        return None
    spec = _SPECS.get(argv[0])
    if spec is None:
        return None
    flags, defaults, required = spec
    values = dict(defaults, command=argv[0])
    tokens = iter(argv[1:])
    for token in tokens:
        option = flags.get(token)
        if option is None:
            return None
        dest, kind, choices = option
        if kind is bool:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value.__class__ is not str or value[:1] == "-":
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    for dest in required:
        # a given value is a str or an int, never the default None
        if values[dest] is None:
            return None
    return SimpleNamespace(**values)


#: Most colored compositions that ``enum-comps`` lists: every n <= 8 at
#: r = 4 (312,500 items), none at n = 9 (1,562,500).
MAX_ENUM_ITEMS = 2**20


def _check_enum_size(n: int, r: int) -> None:
    """Refuse an ``enum-comps`` answer of more than ``MAX_ENUM_ITEMS``
    items, r(r+1)^(n-1) of them, before any is built; the product stops
    once it passes the bound.  An n or r below 1 is left to the enumerator,
    which refuses it."""
    if n < 1 or r < 1:
        return
    count = r
    for _ in range(n - 1):
        if count > MAX_ENUM_ITEMS:
            break
        count *= r + 1
    if count > MAX_ENUM_ITEMS:
        raise ResourceLimitError(
            f"there are more than {MAX_ENUM_ITEMS} colored compositions of "
            f"n={n} with r={r} colors, over the bound of enum-comps"
        )


def _cmd_enum_comps(args) -> int:
    n, r = args.n, args.r
    _check_enum_size(n, r)
    pairs = _raw_colored_composition_list(n, r)
    obj = {
        "n": n,
        "r": r,
        "count": len(pairs),
        "items": [
            {"n": n, "r": r, "parts": list(parts), "colors": list(colors)}
            for parts, colors in pairs
        ],
    }
    _emit(obj, args.format, lambda o: "\n".join(starmap(_raw_text, pairs)))
    return 0


def _cmd_descent_class(args) -> int:
    ce = parse_colored_composition(args.comp, args.r)
    members = _raw_descent_class(ce)
    if args.conj_inverse:
        members = list(starmap(_raw_conj_inverse, members))
    members.sort()
    obj = {
        "n": ce.n,
        "r": ce.r,
        "composition": ce.text(),
        "conj_inverse": bool(args.conj_inverse),
        "count": len(members),
        "members": list(starmap(_raw_text, members)),
    }
    _emit(obj, args.format, lambda o: "\n".join(o["members"]))
    return 0


#: Most terms of a ribbon polynomial that ``ribbon`` places (with
#: ``--dump-poly``, or ``--via-poly --widths``): ``6^0,6^1`` has 462^2 =
#: 213,444 terms at widths 6,6, and 12,376^2 = 153,165,376 at its default
#: widths 12,12; ``7^0,7^1`` has 1,716^2 = 2,944,656 at widths 7,7.
MAX_POLY_TERMS = 2**20


def _check_poly_size(ce, widths) -> None:
    """Refuse a placed ribbon polynomial of more than ``MAX_POLY_TERMS``
    terms before it is built.  Factor j places each of its packed keys on
    C(w_j, l) choices of indices, l the indices the key uses, and the
    placements of the factors join as a product.  Widths that
    ``colored_ribbon`` refuses are left to it."""
    if not _placeable(ce, widths):
        return
    size = 1
    for factor, w in zip(_ribbon_factors(ce.parts, ce.colors, ce.r), widths):
        size *= sum(comb(w, len(key) - key.count(0)) for key in factor)
    if size > MAX_POLY_TERMS:
        raise ResourceLimitError(
            f"the ribbon polynomial of {ce.text()} at widths "
            f"{','.join(map(str, widths))} has {size} terms, over the bound "
            f"of {MAX_POLY_TERMS}"
        )


def _placeable(ce, widths) -> bool:
    """Whether ``colored_ribbon`` accepts ``widths``: r of them, none
    negative."""
    return len(widths) == ce.r and min(widths) >= 0


def _cmd_ribbon(args) -> int:
    ce = parse_colored_composition(args.comp, args.r)
    if args.widths is not None and not (args.via_poly or args.dump_poly):
        raise ValueError("--widths applies only with --via-poly or --dump-poly")
    if args.via_poly and args.basis != "schur":
        raise ValueError("--via-poly applies only with --basis schur")
    if args.dump_poly and args.format != "json":
        raise ValueError("--dump-poly applies only with --format json")
    widths = _parse_widths(args.widths) if args.widths is not None else (ce.n,) * ce.r
    peel_poly = args.via_poly and args.widths is not None
    if args.dump_poly or peel_poly:
        _check_poly_size(ce, widths)
        if peel_poly and _placeable(ce, widths):
            # the peel's own refusal, before the polynomial is built
            _check_peel_widths(widths, ce.n)
        poly = colored_ribbon(ce, widths)
    if args.basis == "schur":
        if peel_poly:
            expansion = expand_in_colored_schur(poly, ce.n)
        elif args.via_poly:
            expansion = ribbon_schur_by_peeling(ce)
        else:
            expansion = ribbon_schur_by_counting(ce)
        obj = expansion.to_json()
    elif args.basis == "h":
        obj = ribbon_h_expansion(ce).to_json()
    else:
        counts = _raw_ribbon_f_counts(ce.parts, ce.colors, ce.r)
        obj = {
            "n": ce.n,
            "r": ce.r,
            "basis": "f",
            "terms": [
                {"parts": list(parts), "colors": list(colors), "coeff": mult}
                for (parts, colors), mult in sorted(counts.items())
            ],
        }
    if args.dump_poly:
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
    lines = []
    for t in obj["terms"]:
        if "index" in t:
            label = " | ".join(
                ",".join(map(str, part)) if part else "-" for part in t["index"]
            )
        else:
            label = _raw_text(t["parts"], t["colors"])
        lines.append(f"{t['coeff']:+d}  {label}")
    return "\n".join(lines)


def _cmd_rsk(args) -> int:
    w = parse_colored_permutation(args.perm, args.r)
    p, q = _raw_rsk(w.word, w.colors, w.r)
    obj = {
        "n": w.n,
        "r": w.r,
        "word": w.text(),
        "P": _raw_filling_json(p),
        "Q": _raw_filling_json(q),
        # each component of P is a straight shape of its row lengths
        "shape": [_raw_shape_json(tuple(map(len, rows)), ()) for rows in p],
    }
    _emit(obj, args.format, lambda o: f"P = {o['P']}\nQ = {o['Q']}")
    return 0


def _cmd_tableau_of(args) -> int:
    w = parse_colored_permutation(args.perm, args.r)
    (parts, colors), filling = _raw_class_to_tableau(w.word, w.colors, w.r)
    bounds = _raw_colored_composition_shape(parts, colors, w.r)
    obj = {
        "n": w.n,
        "r": w.r,
        "word": w.text(),
        "descent_composition": _raw_text(parts, colors),
        "components": _raw_filling_json(filling),
        "shapes": list(starmap(_raw_shape_json, bounds)),
        "sdes": [list(pair) for pair in _raw_rpartite_descent_set(filling)],
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
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
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

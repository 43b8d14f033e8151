"""The seeded query stream of the ``session`` workload.

A stream is a sequence of rounds.  Every round holds the same multiset of
query kinds, COPIES of each, in a seeded order, so each run
attempts whole rounds of the same operations whatever its length.  Inputs are
drawn with repetition from pools fixed by the seed, so later rounds repeat
earlier queries and the program's memo caches are reused, as in a notebook.

Each query is a dict with ``kind``, the ``argv`` passed to
``coloredsym.cli.main`` and the fields ``check`` needs.
"""

from __future__ import annotations

import random

from oracle import (
    caret,
    check_descent_class,
    check_enum_comps,
    check_ribbon,
    check_rsk,
    check_tableau_of,
)

#: Query kind -> the input pool it draws from: every point query of the
#: CLI, with the ribbon and descent-class options as kinds of their own.
#: The root README's CLI examples show one command of each kind but plain
#: ``descent-class``.
KINDS = {
    "ribbon.schur": "ribbon",
    "ribbon.schur-poly": "ribbon",
    "ribbon.h": "ribbon",
    "ribbon.f": "ribbon",
    "descent-class": "class",
    "descent-class.conj-inverse": "class",
    "rsk": "perm",
    "tableau-of": "perm",
    "enum-comps": "sizes",
}

#: Slots of every kind per round: all kinds weigh the same.  Descent classes
#: are filtered from the whole group of 4!*2^4 = 384 elements, about 20 ms a
#: query here.  Every other stratum is cut so that none of its queries costs
#: as much, not even a first computation that the memo caches do not yet
#: hold (at most about 12 ms), so descent classes alone set the tail: at 2/9
#: of the queries, p99 falls inside their stratum and not on the edge between
#: two strata.
COPIES = 4

#: Inputs per (n, r) cell of every seeded pool.
PER_CELL = 12

def _colored_comp(rng: random.Random, n: int, r: int) -> str:
    parts, run = [], 1
    for _ in range(n - 1):
        if rng.random() < 0.5:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return caret(parts, [rng.randrange(r) for _ in parts])


def _colored_perm(rng: random.Random, n: int, r: int) -> str:
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return caret(word, [rng.randrange(r) for _ in word])


def pools(seed: int) -> dict:
    """Input pools, as (text, r) or (n, r) pairs: PER_CELL seeded inputs per
    (n, r) cell, and every size for ``enum-comps``."""
    rng = random.Random(f"pools:{seed}")
    return {
        "ribbon": [
            (_colored_comp(rng, n, r), r)
            for n in range(3, 6)
            for r in range(1, 4)
            for _ in range(PER_CELL)
        ],
        "class": [(_colored_comp(rng, 4, 2), 2) for _ in range(PER_CELL)],
        "perm": [
            (_colored_perm(rng, n, r), r)
            for n in range(3, 9)
            for r in range(1, 5)
            for _ in range(PER_CELL)
        ],
        "sizes": [(n, r) for n in range(1, 5) for r in range(1, 4)],
    }


def make_query(kind: str, item) -> dict:
    if kind == "enum-comps":
        n, r = item
        return {"kind": kind, "n": n, "r": r,
                "argv": ["enum-comps", "--n", str(n), "--r", str(r)]}
    text, r = item
    q = {"kind": kind, "text": text, "r": r}
    if kind.startswith("ribbon."):
        basis = kind.split(".")[1]
        argv = ["ribbon", "--comp", text, "--r", str(r), "--basis", basis[:5]]
        if basis == "schur-poly":
            argv.append("--via-poly")
    elif kind.startswith("descent-class"):
        argv = ["descent-class", "--comp", text, "--r", str(r)]
        if kind.endswith("conj-inverse"):
            argv.append("--conj-inverse")
    else:
        argv = [kind, "--perm", text, "--r", str(r)]
    q["argv"] = argv
    return q


def rounds(seed: int):
    """Endless seeded stream of rounds, each a list of queries."""
    pool = pools(seed)
    rng = random.Random(f"stream:{seed}")
    slots = sorted(KINDS.items()) * COPIES
    while True:
        batch = [make_query(kind, rng.choice(pool[stratum])) for kind, stratum in slots]
        rng.shuffle(batch)
        yield batch


def check(q: dict, obj) -> str | None:
    """Independent check of one query's parsed output."""
    kind = q["kind"]
    if kind == "enum-comps":
        return check_enum_comps(obj, q["n"], q["r"])
    if kind.startswith("ribbon."):
        basis = kind.split(".")[1][:5]
        return check_ribbon(obj, q["text"], q["r"], basis)
    if kind.startswith("descent-class"):
        return check_descent_class(obj, q["text"], q["r"], kind.endswith("conj-inverse"))
    if kind == "rsk":
        return check_rsk(obj, q["text"], q["r"])
    return check_tableau_of(obj, q["text"], q["r"])

"""The point queries answer from the raw cores; their outputs equal the
``to_json`` / ``text`` of the validated objects of the public functions,
over every colored permutation and colored composition with n <= 4, r <= 3."""

import contextlib
import io
import json

from coloredsym import (
    colored_class_to_tableau,
    colored_descent_composition,
    colored_rsk,
    conj_inverse_descent_class,
    descent_class,
    enumerate_colored_compositions,
    enumerate_colored_permutations,
    ribbon_f_expansion,
    rpartite_descent_set,
)
from coloredsym.cli import main

CELLS = [(n, r) for n in range(1, 5) for r in (1, 2, 3)]


def query(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())


def test_rsk_and_tableau_of_match_the_object_path():
    seen = 0
    for n, r in CELLS:
        for w in enumerate_colored_permutations(n, r):
            head = {"n": n, "r": r, "word": w.text()}
            p, q = colored_rsk(w)
            assert query("rsk", "--perm", w.text(), "--r", str(r)) == {
                **head,
                "P": p.to_json(),
                "Q": q.to_json(),
                "shape": [shape.to_json() for shape in p.shape()],
            }
            bq = colored_class_to_tableau(w)
            assert query("tableau-of", "--perm", w.text(), "--r", str(r)) == {
                **head,
                "descent_composition": colored_descent_composition(w).text(),
                "components": bq.to_json(),
                "shapes": [shape.to_json() for shape in bq.shape()],
                "sdes": [list(pair) for pair in rpartite_descent_set(bq).pairs],
            }
            seen += 1
    assert seen == 2602


def test_descent_classes_and_f_expansions_match_the_object_path():
    seen = 0
    for n, r in CELLS:
        for ce in enumerate_colored_compositions(n, r):
            argv = ("--comp", ce.text(), "--r", str(r))
            head = {"n": n, "r": r, "composition": ce.text()}
            for flag, members in (
                ((), descent_class(ce)),
                (("--conj-inverse",), conj_inverse_descent_class(ce)),
            ):
                assert query("descent-class", *argv, *flag) == {
                    **head,
                    "conj_inverse": bool(flag),
                    "count": len(members),
                    "members": [a.text() for a in members],
                }
            counts = sorted(
                ribbon_f_expansion(ce).items(), key=lambda kv: (kv[0].parts, kv[0].colors)
            )
            assert query("ribbon", *argv, "--basis", "f") == {
                "n": n,
                "r": r,
                "basis": "f",
                "terms": [
                    {"parts": list(c.parts), "colors": list(c.colors), "coeff": mult}
                    for c, mult in counts
                ],
            }
            seen += 1
    assert seen == 350

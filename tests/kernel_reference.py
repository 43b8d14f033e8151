"""The quasi-shuffle kernel as it was before its patterns were compiled,
kept as the reference: each pattern of each pair of keys builds its
columns, adding the two vectors of a joint column, and joins them back into
alphabet-major rows."""

from itertools import chain
from operator import add

from coloredsym._poly_py import _columns, _quasi_shuffles


def mul_terms(a, b, r=1):
    """Quasi-shuffle product of two packed term maps over r alphabets, as a
    new dict (zero coefficients dropped)."""
    out = {}
    if not a or not b:
        return out
    zero = bytes(r)
    right = [(*_columns(kb, r), cb) for kb, cb in b.items()]
    shuffles = {}
    for ka, ca in a.items():
        wa, left = _columns(ka, r)
        for wb, cols, cb in right:
            p, q = len(left), len(cols)
            if (p, q) not in shuffles:
                shuffles[p, q] = _quasi_shuffles(p, q)
            pad = [zero] * (wa + wb)
            c = ca * cb
            for pairs in shuffles[p, q]:
                columns = [
                    cols[j] if i < 0 else left[i] if j < 0 else bytes(map(add, left[i], cols[j]))
                    for i, j in pairs
                ]
                # back to alphabet-major rows, padded to the product width
                key = bytes(chain.from_iterable(zip(*columns, *pad[len(columns) :])))
                cur = out.get(key)
                if cur is None:
                    out[key] = c
                else:
                    cur += c
                    if cur:
                        out[key] = cur
                    else:
                        del out[key]
    return out

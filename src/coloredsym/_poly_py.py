"""The term-map kernels: the hot loops of every polynomial identity check.

A term map is a dict from exponent keys (``bytes``, one byte per exponent)
to nonzero Python ints.  ``mul_terms`` works on packed colored monomials
over r alphabets: a key of width w is r rows of w bytes, alphabet-major, and
column t holds the exponent vector of index t + 1.  A packed key uses exactly
the indices 1..k for some k <= w, so its columns after k are zero.  An
exponent above 255 in a product raises ``ValueError`` (from ``bytes``); it
never carries into the next variable.
"""

from itertools import chain
from operator import add


def _columns(key: bytes, r: int) -> tuple[int, list[bytes]]:
    """Width of a packed key over r alphabets, and its exponent vectors of
    the used indices in order."""
    w = len(key) // r
    columns = [key[t::w] for t in range(w)]
    while columns and not any(columns[-1]):
        columns.pop()
    return w, columns


def _quasi_shuffles(p: int, q: int) -> list[list[tuple[int, int]]]:
    """Every quasi-shuffle of p left and q right columns, as (i, j) pairs:
    each output column takes the next left column i, the next right column
    j, or both; -1 marks a side that gives nothing."""
    if not p or not q:
        return [[(i, -1) for i in range(p)] + [(-1, j) for j in range(q)]]
    return (
        [s + [(p - 1, -1)] for s in _quasi_shuffles(p - 1, q)]
        + [s + [(-1, q - 1)] for s in _quasi_shuffles(p, q - 1)]
        + [s + [(p - 1, q - 1)] for s in _quasi_shuffles(p - 1, q - 1)]
    )


def mul_terms(a, b, r=1):
    """Quasi-shuffle product of two packed term maps over r alphabets, as a
    new dict (zero coefficients dropped).  Keys of widths wa and wb give
    keys of width wa + wb; the empty key is the unit."""
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


def add_terms(acc, other, coeff=1):
    """In-place ``acc += coeff * other``; returns ``acc``."""
    if coeff == 0:
        return acc
    for k, c in other.items():
        cur = acc.get(k)
        if cur is None:
            acc[k] = coeff * c
        else:
            cur += coeff * c
            if cur:
                acc[k] = cur
            else:
                del acc[k]
    return acc

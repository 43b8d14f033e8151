"""The term-map kernels: the hot loops of every polynomial identity check.

A term map is a dict from exponent keys (``bytes``, one byte per exponent)
to nonzero Python ints.  ``mul_terms`` works on packed colored monomials
over r alphabets: a key of width w is r rows of w bytes, alphabet-major, and
column t holds the exponent vector of index t + 1.  A packed key uses exactly
the indices 1..k for some k <= w, so its columns after k are zero.  An
exponent above 255 in a product raises ``ValueError`` (from ``bytes``); it
never carries into the next variable.
"""

from functools import lru_cache
from itertools import chain
from operator import add, itemgetter

#: Bound of the compiled quasi-shuffle patterns, one entry per (p, q,
#: width, r); ``verify --identity all``, with the colored ribbon suites at
#: n <= 6, r <= 3, fills 97, so it never evicts.
PATTERN_MEMO_SIZE = 256


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


def _getter(indices: list[int]) -> itemgetter:
    # itemgetter of one index returns the item, not a 1-tuple, and of none
    # raises, so those two read a slice
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


@lru_cache(maxsize=PATTERN_MEMO_SIZE)
def _patterns(p: int, q: int, width: int, r: int) -> tuple[itemgetter, ...]:
    """Every quasi-shuffle of p left and q right columns into keys of
    ``width`` columns over r alphabets, each compiled into a getter of the
    key's bytes from the per-pair list ``[0, left columns, right columns,
    pairwise column sums]``.  The vector of left column i starts at
    1 + i*r, that of right column j at 1 + (p + j)*r and their sum at
    1 + (p + q + i*q + j)*r; the columns past the shuffle read the 0."""
    getters = []
    for pairs in _quasi_shuffles(p, q):
        starts = [
            1 + (p + j) * r if i < 0 else 1 + i * r if j < 0 else 1 + (p + q + i * q + j) * r
            for i, j in pairs
        ]
        pad = [0] * (width - len(starts))
        # alphabet-major rows, padded to the product width
        rows = [[s + a for s in starts] + pad for a in range(r)]
        getters.append(_getter(list(chain.from_iterable(rows))))
    return tuple(getters)


def mul_terms(a, b, r=1):
    """Quasi-shuffle product of two packed term maps over r alphabets, as a
    new dict (zero coefficients dropped).  Keys of widths wa and wb give
    keys of width wa + wb; the empty key is the unit."""
    out = {}
    if not a or not b:
        return out
    right = []
    for kb, cb in b.items():
        wb, cols = _columns(kb, r)
        right.append((wb, len(cols), b"".join(cols), cb))
    for ka, ca in a.items():
        wa, left = _columns(ka, r)
        head = [0, *b"".join(left)]
        for wb, q, flat, cb in right:
            vals = head + list(flat)
            for col in left:
                # column col plus each right column, alphabet by alphabet
                vals += map(add, col * q, flat)
            c = ca * cb
            for getter in _patterns(len(left), q, wa + wb, r):
                key = bytes(getter(vals))
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

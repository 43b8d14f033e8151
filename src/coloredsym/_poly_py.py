"""The term-map kernels: the hot loops of every polynomial identity check.

A term map is a dict from exponent vectors (``bytes``, one byte per variable)
to nonzero Python ints.  Keys of both operands must have equal length; the
callers guarantee this.  An exponent above 255 in a product raises
``ValueError`` (from ``bytes``); it never carries into the next variable.
"""


def mul_terms(a, b):
    """Product of two term maps as a new dict (zero coefficients dropped)."""
    out = {}
    if not a or not b:
        return out
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = bytes(x + y for x, y in zip(ka, kb))
            cur = out.get(key)
            if cur is None:
                out[key] = ca * cb
            else:
                cur += ca * cb
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

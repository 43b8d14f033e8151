"""Ring laws and edge cases of the term-map kernels."""

import pytest
from hypothesis import given, strategies as st

from coloredsym._poly_py import add_terms, mul_terms


def term_maps(nvars=4, max_exp=5, max_terms=6):
    key = st.binary(min_size=nvars, max_size=nvars).map(
        lambda b: bytes(x % (max_exp + 1) for x in b)
    )
    coeff = st.integers(min_value=-(10**6), max_value=10**6).filter(bool)
    return st.dictionaries(key, coeff, max_size=max_terms)


@given(a=term_maps(), b=term_maps())
def test_mul_commutes(a, b):
    assert mul_terms(a, b) == mul_terms(b, a)


def test_mul_edge_cases():
    one = {bytes(3): 1}
    p = {bytes((1, 0, 2)): 5, bytes((0, 1, 0)): -3}
    assert mul_terms(p, {}) == {}
    assert mul_terms(p, one) == p
    # (x - y) * (x + y) == x^2 - y^2 : cancellation drops the cross terms
    x, y = bytes((1, 0)), bytes((0, 1))
    left = {x: 1, y: -1}
    right = {x: 1, y: 1}
    assert mul_terms(left, right) == {bytes((2, 0)): 1, bytes((0, 2)): -1}


def test_exponent_overflow_raises():
    # 255 is the largest exponent one byte holds; one more must raise, not
    # carry into the next variable as x^256 == x^0 * y^1 would
    assert mul_terms({bytes((200, 0)): 1}, {bytes((55, 0)): 1}) == {bytes((255, 0)): 1}
    with pytest.raises(ValueError):
        mul_terms({bytes((200, 0)): 1}, {bytes((56, 0)): 1})


def test_add_cancellation():
    acc = {bytes((1, 1)): 2}
    add_terms(acc, {bytes((1, 1)): 1}, -2)
    assert acc == {}

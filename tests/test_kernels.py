"""Quasi-shuffle laws and edge cases of the term-map kernels."""

import pytest
from hypothesis import example, given, strategies as st

import kernel_reference as ref
from coloredsym._poly_py import PATTERN_MEMO_SIZE, _patterns, add_terms, mul_terms


def packed_key(columns, r, pad=0):
    """Alphabet-major key of the given exponent vectors, one per index."""
    width = len(columns) + pad
    rows = [bytes(col[j] for col in columns) + bytes(pad) for j in range(r)]
    assert all(len(row) == width for row in rows)
    return b"".join(rows)


@st.composite
def packed_maps(draw, r, max_terms=4):
    """Packed term maps over r alphabets whose keys share one width, so
    that no monomial has two keys.  Widths 0 and 1 are drawn most often,
    so that at every r many pairs multiply a width-0 map by a width-1 map,
    whose patterns read one index per alphabet."""
    width = draw(st.one_of(st.integers(0, 1), st.integers(0, 3)))
    vector = st.tuples(*[st.integers(0, 4)] * r).filter(any)
    key = st.lists(vector, max_size=width).map(
        lambda cols: packed_key(cols, r, width - len(cols))
    )
    coeff = st.integers(min_value=-(10**6), max_value=10**6).filter(bool)
    return draw(st.dictionaries(key, coeff, max_size=max_terms))


@given(st.data(), st.integers(1, 3))
def test_mul_commutes(data, r):
    a, b = data.draw(packed_maps(r)), data.draw(packed_maps(r))
    assert mul_terms(a, b, r) == mul_terms(b, a, r)


@given(st.data(), st.integers(1, 3))
def test_mul_associative(data, r):
    a, b, c = (data.draw(packed_maps(r, max_terms=3)) for _ in range(3))
    assert mul_terms(mul_terms(a, b, r), c, r) == mul_terms(a, mul_terms(b, c, r), r)


@given(st.data(), st.integers(1, 3))
def test_empty_key_is_the_unit(data, r):
    a = data.draw(packed_maps(r))
    assert mul_terms(a, {b"": 1}, r) == a
    assert mul_terms({b"": 1}, a, r) == a


def test_mul_edge_cases():
    p = {packed_key([(1, 0), (0, 2)], 2): 5, packed_key([(0, 1)], 2, pad=1): -3}
    assert mul_terms(p, {}, 2) == {}
    assert mul_terms({}, p, 2) == {}
    # M_1 * M_1 = 2 M_11 + M_2 in one alphabet
    m1 = {bytes((1,)): 1}
    assert mul_terms(m1, m1) == {bytes((1, 1)): 2, bytes((2, 0)): 1}
    # over two alphabets the joint column adds the vectors
    x, y = packed_key([(1, 0)], 2), packed_key([(0, 1)], 2)
    assert mul_terms({x: 1}, {y: 1}, 2) == {
        packed_key([(1, 0), (0, 1)], 2): 1,
        packed_key([(0, 1), (1, 0)], 2): 1,
        packed_key([(1, 1)], 2, pad=1): 1,
    }
    # (M_1 - M_2) * M_1 + M_2 * M_1 == M_1 * M_1 : cancellation drops terms
    left = mul_terms({bytes((1, 0)): 1, bytes((2, 0)): -1}, m1)
    add_terms(left, mul_terms({bytes((2, 0)): 1}, m1))
    assert left == {bytes((1, 1, 0)): 2, bytes((2, 0, 0)): 1}


def test_exponent_overflow_raises():
    # 255 is the largest exponent one byte holds; one more must raise, not
    # carry into the next variable as x^256 == x^0 * y^1 would
    assert mul_terms({bytes((200, 0)): 1}, {bytes((55, 0)): 1}) == {
        bytes((200, 55, 0, 0)): 1,
        bytes((55, 200, 0, 0)): 1,
        bytes((255, 0, 0, 0)): 1,
    }
    with pytest.raises(ValueError):
        mul_terms({bytes((200, 0)): 1}, {bytes((56, 0)): 1})


#: A width-1 map of each r: the one index carries x^1 in every alphabet.
WIDTH_ONE = {r: {packed_key([(1,) * r], r): 1} for r in (1, 2, 3)}


@given(st.integers(1, 3).flatmap(lambda r: st.tuples(st.just(r), packed_maps(r), packed_maps(r))))
@example((1, {b"": 1}, WIDTH_ONE[1]))
@example((1, WIDTH_ONE[1], {b"": 1}))
@example((1, {b"": 1}, {b"\x00": 2}))
@example((2, {b"": 1}, WIDTH_ONE[2]))
@example((2, WIDTH_ONE[2], {b"": 1}))
@example((3, {b"": 1}, WIDTH_ONE[3]))
@example((3, WIDTH_ONE[3], {b"": 1}))
def test_compiled_patterns_match_the_per_pattern_reference(drawn):
    # widths 0-3 on each side, so products of widths 0-6; the examples
    # multiply width 0 by width 1 at every r, where r = 1 reads one index
    r, a, b = drawn
    assert mul_terms(a, b, r) == ref.mul_terms(a, b, r)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_compiled_patterns_at_zero_and_one_index(r):
    # a product of width 0 reads no index, and one of width 1 at r = 1 one
    # index, where itemgetter would raise or return the bare item
    unit, x = {b"": 1}, {packed_key([(1,) * r], r): 3}
    for a, b in ((unit, unit), (unit, x), (x, unit)):
        assert mul_terms(a, b, r) == ref.mul_terms(a, b, r) == (x if x in (a, b) else unit)
    assert mul_terms({b"": 1}, {b"\x01": 1}) == {b"\x01": 1}
    assert mul_terms({b"": 2}, {b"": -3}, r) == {b"": -6}


def test_compiled_patterns_keep_255_and_raise_above():
    # each joint column is summed once per pair and read through bytes,
    # which takes 200 + 55 and refuses 200 + 56 in both orders and alphabets
    for r, rest in ((1, ()), (2, (0,)), (2, (3,))):
        for hi, lo in ((200, 55), (55, 200)):
            a = {packed_key([(hi, *rest)], r): 1}
            b = {packed_key([(lo, *rest)], r): 1}
            product = mul_terms(a, b, r)
            assert product == ref.mul_terms(a, b, r)
            assert packed_key([(255, *(2 * e for e in rest))], r, pad=1) in product
            with pytest.raises(ValueError):
                mul_terms(a, {packed_key([(lo + 1, *rest)], r): 1}, r)


def test_pattern_memo_is_keyed_by_shape_and_bounded():
    # one entry per (p, q, width, r): keys of one and two used indices
    # give the four (p, q) of width 4, each compiled on its first pair only,
    # into the Delannoy number of p and q getters
    _patterns.cache_clear()
    m = {bytes((1, 0)): 1, bytes((2, 1)): 1}
    mul_terms(m, m)
    mul_terms(m, m)
    info = _patterns.cache_info()
    assert info.maxsize == PATTERN_MEMO_SIZE
    assert info.misses == info.currsize == info.hits == 4
    assert [len(_patterns(p, q, 4, 1)) for p, q in ((1, 1), (1, 2), (2, 2))] == [3, 5, 13]


def test_add_cancellation():
    acc = {bytes((1, 1)): 2}
    add_terms(acc, {bytes((1, 1)): 1}, -2)
    assert acc == {}

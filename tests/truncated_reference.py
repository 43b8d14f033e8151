"""The truncated constructors that the packed ones replaced, kept as the
reference: every monomial at the given widths is enumerated directly, and
products multiply exponent vectors variable by variable.  Two packed routes
that the colored skew Schur constructor replaced are kept here too: the
row-block product and h as a product of one-part colored F elements.  So is
the packed peel of the colored ribbon, which the per-factor peel
replaced, and the one-alphabet factors that the chain count of the
r-partite shape and the product of rows replaced: a ribbon factor as the
product of its zigzags, and an h factor chain-counted as the direct sum
of its rows."""

from functools import reduce
from itertools import accumulate, combinations_with_replacement

from coloredsym import zigzag_of
from coloredsym.compositions import rainbow_decomposition
from coloredsym.shapes import SkewShape, _raw_colored_zigzag, as_skew, colored_composition_shape
from coloredsym.symfun import (
    _colored_F_terms,
    _colored_schur_terms,
    _embed,
    _peel,
    _ssyt_terms,
)
from coloredsym._poly_py import mul_terms


def _product(factors, r):
    """Quasi-shuffle product of packed term maps over r alphabets; the unit
    when there are none."""
    return reduce(lambda a, b: mul_terms(a, b, r), factors, {b"": 1})


def _offsets(widths):
    out, total = [], 0
    for w in widths:
        out.append(total)
        total += w
    return out


def mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = bytes(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def product(factors, widths):
    acc = {bytes(sum(widths)): 1}
    for f in factors:
        acc = mul(acc, f)
    return acc


def embed(local, widths, alphabet):
    offs = _offsets(widths)
    pre = bytes(offs[alphabet])
    post = bytes(sum(widths) - offs[alphabet] - widths[alphabet])
    return {pre + k + post: c for k, c in local.items()}


def ssyt(shape, width):
    """Semistandard fillings of a skew shape with entries at most width."""
    cells = shape.cells()
    grid, terms = {}, {}
    counts = bytearray(width)

    def rec(idx):
        if idx == len(cells):
            key = bytes(counts)
            terms[key] = terms.get(key, 0) + 1
            return
        r, c = cells[idx]
        lo = grid.get((r, c - 1), 1)
        above = grid.get((r - 1, c))
        if above is not None:
            lo = max(lo, above + 1)
        for v in range(lo, width + 1):
            grid[(r, c)] = v
            counts[v - 1] += 1
            rec(idx + 1)
            counts[v - 1] -= 1
        grid.pop((r, c), None)

    rec(0)
    return terms


def schur(shape, alphabet, widths):
    return embed(ssyt(as_skew(shape), widths[alphabet]), widths, alphabet)


def h(k, alphabet, widths):
    width = widths[alphabet]
    local = {}
    for combo in combinations_with_replacement(range(width), k):
        counts = bytearray(width)
        for i in combo:
            counts[i] += 1
        local[bytes(counts)] = 1
    return embed(local, widths, alphabet)


def colored_F(ce, widths):
    """Weakly increasing index chains, strict after a part boundary exactly
    when the colors do not rise there."""
    ext = ce.extended_colors()
    offs = _offsets(widths)
    sums = ce.composition().partial_sums()
    strict_after = {
        sums[j] for j in range(len(ce.parts) - 1) if ce.colors[j] >= ce.colors[j + 1]
    }
    counts = bytearray(sum(widths))
    terms = {}

    def rec(t, lo):
        if t > ce.n:
            key = bytes(counts)
            terms[key] = terms.get(key, 0) + 1
            return
        al = ext[t - 1]
        for i in range(lo, widths[al] + 1):
            counts[offs[al] + i - 1] += 1
            rec(t + 1, i + (1 if t in strict_after else 0))
            counts[offs[al] + i - 1] -= 1

    rec(1, 1)
    return terms


def colored_ribbon(ce, widths):
    return product(
        (
            schur(zigzag_of(comp).shape, color, widths)
            for comp, color in rainbow_decomposition(ce).blocks
        ),
        widths,
    )


def colored_h(bll, widths):
    return product(
        (h(k, j, widths) for j, part in enumerate(bll) for k in part), widths
    )


def colored_schur(bll, widths):
    return product((schur(part, j, widths) for j, part in enumerate(bll)), widths)


def _row_blocks(shape):
    """Split at rows sharing no column, each block shifted left to the
    origin; an empty shape has no blocks."""
    ends = [i + 1 for i in range(shape.nrows - 1) if shape.inner[i] >= shape.outer[i + 1]]
    ends.append(shape.nrows)
    blocks = []
    for lo, hi in zip([0] + ends, ends):
        if lo < hi:
            shift = min(shape.inner[lo:hi])
            blocks.append(SkewShape(
                tuple(x - shift for x in shape.outer[lo:hi]),
                tuple(x - shift for x in shape.inner[lo:hi]),
            ))
    return blocks


def row_block_schur_terms(components):
    """Packed colored skew Schur element as the product of the Schur
    elements of the row blocks of each component, component j in alphabet
    j."""
    r = len(components)
    return _product(
        (
            _embed(_ssyt_terms(block.outer, block.inner), j, r)
            for j, comp in enumerate(components)
            for block in _row_blocks(comp)
        ),
        r,
    )


def quasi_shuffle_h_terms(bll):
    """Packed colored h as the quasi-shuffle product of its factors, h_k in
    alphabet j being the colored F of the one-part composition k^j."""
    r = len(bll)
    hs = (_colored_F_terms((k,), (j,), r) for j, part in enumerate(bll) for k in part)
    return _product(hs, r)


def zigzag_product_factors(parts, colors, r):
    """One-alphabet factors of the colored ribbon: factor j is the product
    of the Schur elements of the zigzags of the color-j runs."""
    factors = [{b"": 1} for _ in range(r)]
    for block, color in zip(*_raw_colored_zigzag(parts, colors)):
        factors[color] = mul_terms(factors[color], _ssyt_terms(*block), 1)
    return tuple(factors)


def zigzag_product_ribbon(parts, colors, r):
    """Packed colored ribbon as the quasi-shuffle of its zigzag product
    factors, factor j in alphabet j."""
    factors = zigzag_product_factors(parts, colors, r)
    return _product((_embed(f, j, r) for j, f in enumerate(factors)), r)


def row_sum_bounds(part):
    """(outer, inner) of the direct sum of the rows of ``part``: each row
    starts at the end of the row below, so outer is the partial sums, top
    row first."""
    outer = tuple(accumulate(part))[::-1]
    return outer, (outer[1:] + (0,) if outer else ())


def row_sum_h_factors(bll):
    """One-alphabet factors of colored h: factor j is the Schur element of
    the direct sum of the rows of part j, chain-counted as one shape."""
    return tuple(_ssyt_terms(*row_sum_bounds(part)) if part else {b"": 1} for part in bll)


def _direct_sums(shapes):
    """Blocks of ``_colored_schur_terms``: each component one shape."""
    return tuple(((s.outer, s.inner),) if s.outer else () for s in shapes)


def packed_peel(ce):
    """Colored Schur coefficients of the colored ribbon, peeled from the
    packed chain count of its r-partite shape with packed colored Schur
    elements."""
    return _peel(
        _colored_schur_terms(_direct_sums(colored_composition_shape(ce))),
        (ce.n,) * ce.r,
        lambda bll: _colored_schur_terms(_direct_sums(map(as_skew, bll))),
    )

"""Exact models of colored symmetric and quasisymmetric functions.

Every element built here is colored quasisymmetric in Poirier's sense: the
r alphabets share one index order, and the coefficient of a monomial
depends only on its packed form, which keeps the used indices in order and
renumbers them 1..k.  Each index of a packed monomial carries a nonzero
exponent vector in N^r.  An element is therefore fixed by its coefficients
on packed monomials: its coordinates in the colored monomial
quasisymmetric basis.

Every symmetric element is a colored skew Schur element: the product of
one-alphabet skew Schur elements, component j in alphabet j.  Schur, h_k
(the row (k)), e_k (the column 1^k), colored Schur, colored h (component j
the direct sum of the rows of part j) and the colored ribbon (component j
of its r-partite shape, the direct sum of the zigzags of color j) are all
of this form.  ``_schur_terms`` gives the one-alphabet factors in
one-alphabet packed coordinates: the chain-counted Schur element of one
skew shape, or the product (``mul_terms`` at r = 1) of those of the blocks
of a direct sum.  A ribbon component is chain-counted as one shape, and an
h component, h_λ = h_λ1·h_λ2·…, is the product of its rows.

The ring in disjoint alphabets is the tensor product of the one-alphabet
rings, so a product of factors is fixed by its tensor coordinates
(``_tensor``): a key joins one one-alphabet key per factor, and its
coefficient is the product of theirs, with no quasi-shuffle.  A factor's
keys have its degree as length, so among elements of one multidegree a key
splits one way only.  The ribbon/h comparison reads these coordinates, and
the Schur peel peels each factor as a one-alphabet polynomial: the
expansion of a product is the product of the expansions of its factors,
and ``_peeled`` keeps the expansion of each factor by its blocks.

Packed colored coordinates are built only where they are needed:
``_colored_F_terms`` gives colored F and F, which are not per-alphabet
symmetric, and ``_colored_schur_terms``, the quasi-shuffle of the factors
of a colored skew Schur element, serves only the colored F-sum comparison
of the ribbon Schur sweep, which keeps what it builds for one (n, r) cell.
A packed key of a degree-d element is r rows of d bytes, alphabet-major;
column t holds the exponent vector of index t + 1.  Coefficients are exact
Python ints.  Byte-wise lexicographic comparison of keys is the term order
of Schur-basis peeling: alphabet-major, then index-major, exponents
compared high to low; the leading monomial of a per-alphabet symmetric
element is packed, so peeling it gives the expansion.

The public constructors return a ``MultiAlphabetPolynomial``, in which
alphabet j has ``widths[j]`` variables.  A symmetric element places each
factor on every increasing choice of its alphabet's indices and joins the
placements by ``_tensor``; colored F, F and the generating function of a
descent class place each packed key on every increasing choice of indices
that fits the widths.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import lru_cache, reduce
from itertools import accumulate, combinations, compress, product, starmap
from operator import add, index, le, lt
from types import MappingProxyType

from ._poly_py import add_terms, mul_terms
from ._value import FrozenValue, set_field
from .compositions import ColoredComposition, Composition, _raw_extended_colors
from .errors import DimensionMismatchError, NotInSchurSpanError
from .permutations import _raw_colored_descent_composition
from .shapes import (
    EMPTY_SHAPE,
    RPartitePartition,
    SkewShape,
    _raw_colored_composition_shape,
    _raw_fillings,
    _raw_rpartite_descent_composition,
    as_skew,
    straight_shape,
)


#: Bounds of the colored F and one-alphabet factor memos; the second also
#: bounds the memo of their Schur peels, whose keys are factor keys.  The
#: first holds one key per colored composition, 4,886 with n <= 6, r <= 3;
#: ``verify --identity all`` fills 424 of the second, at its defaults and
#: with the colored ribbon suites at n <= 6, r <= 3, and 82 and 120 of the
#: peel memo.  Neither range evicts.
F_MEMO_SIZE, SCHUR_MEMO_SIZE = 8192, 1024


def _offsets(widths: tuple[int, ...]) -> tuple[int, ...]:
    out, total = [], 0
    for w in widths:
        out.append(total)
        total += w
    return tuple(out)


def _mul_full(a: dict[bytes, int], b: dict[bytes, int]) -> dict[bytes, int]:
    """Product of two full term maps of one variable layout."""
    out: dict[bytes, int] = {}
    for ka, ca in a.items():
        add_terms(out, {bytes(map(add, ka, kb)): cb for kb, cb in b.items()}, ca)
    return out


def _checked_widths(widths) -> tuple[int, ...]:
    widths = tuple(map(index, widths))
    if any(w < 0 for w in widths):
        raise ValueError("alphabet widths must be nonnegative")
    return widths


class MultiAlphabetPolynomial(FrozenValue):
    """Sparse polynomial over r truncated alphabets with exact integer
    coefficients; ``terms`` maps exponent bytes to nonzero ints.  The
    constructor copies the terms it is given and stores them read-only, so
    a polynomial keeps the checks it passed and can be hashed."""

    def __init__(self, widths: tuple[int, ...], terms: Mapping[bytes, int] = MappingProxyType({})):
        set_field(self, "widths", _checked_widths(widths))
        set_field(self, "terms", MappingProxyType(dict(terms)))
        self.__post_init__()

    def __post_init__(self):
        if set(map(len, self.terms)) - {self.nvars}:
            raise DimensionMismatchError(f"every key needs {self.nvars} bytes, one per variable")
        if not all(self.terms.values()):
            raise ValueError("coefficients must be nonzero")

    def __hash__(self) -> int:
        # the terms are a mappingproxy, which does not hash
        return hash((self.widths, frozenset(self.terms.items())))

    @property
    def r(self) -> int:
        return len(self.widths)

    @property
    def nvars(self) -> int:
        return sum(self.widths)

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {sum(k) for k in self.terms}

    def _check_ring(self, other: "MultiAlphabetPolynomial") -> None:
        if self.widths != other.widths:
            raise DimensionMismatchError(
                f"width mismatch: {self.widths!r} vs {other.widths!r}"
            )

    def _plus(self, other, sign: int):
        if not isinstance(other, MultiAlphabetPolynomial):
            return NotImplemented
        self._check_ring(other)
        return MultiAlphabetPolynomial(self.widths, add_terms(dict(self.terms), other.terms, sign))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, int):
            terms = {k: other * c for k, c in self.terms.items()} if other else {}
        elif isinstance(other, MultiAlphabetPolynomial):
            self._check_ring(other)
            terms = _mul_full(self.terms, other.terms)
        else:
            return NotImplemented
        return MultiAlphabetPolynomial(self.widths, terms)

    __rmul__ = __mul__

    def coefficient(self, exponents_by_alphabet) -> int:
        key = bytearray(self.nvars)
        offs = _offsets(self.widths)
        for j, exps in enumerate(exponents_by_alphabet):
            _check_alphabet(j, self.widths)
            for i, e in enumerate(exps):
                if i == self.widths[j]:
                    raise DimensionMismatchError(f"alphabet {j} has {i} variables, not more")
                key[offs[j] + i] = e
        return self.terms.get(bytes(key), 0)

    def term_items(self) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
        """Terms as (per-alphabet exponent tuples, coeff), leading term first."""
        return list(self.iter_term_items())

    def iter_term_items(self):
        """The items of ``term_items``, in its order, made one at a time."""
        slices = [slice(o, o + w) for o, w in zip(_offsets(self.widths), self.widths)]
        terms = self.terms
        for key in sorted(terms, reverse=True):
            yield tuple(tuple(key[s]) for s in slices), terms[key]


def zero(widths) -> MultiAlphabetPolynomial:
    return MultiAlphabetPolynomial(tuple(widths), {})


def _check_widths(r: int, widths: tuple[int, ...]) -> None:
    if len(widths) != r:
        raise DimensionMismatchError(f"need {r} alphabet widths, got {len(widths)}")


def _check_alphabet(alphabet: int, widths: tuple[int, ...]) -> None:
    if not 0 <= alphabet < len(widths):
        raise DimensionMismatchError(
            f"alphabet {alphabet} is not one of the {len(widths)} alphabets"
        )


def _place(terms: dict[bytes, int], widths) -> MultiAlphabetPolynomial:
    """The polynomial at ``widths`` of the element with packed coordinates
    ``terms``: each packed key placed on every increasing choice of indices
    whose variables exist in the widths."""
    widths = _checked_widths(widths)
    nvars = sum(widths)
    offs = _offsets(widths)
    out: dict[bytes, int] = {}
    for key, coeff in terms.items():
        w = len(key) // max(len(widths), 1)
        # per used index: the (variable offset, exponent) of its nonzero
        # entries, and the number of indices all its alphabets have
        columns, caps = [], []
        for t in range(w):
            col = key[t::w]
            if any(col):
                columns.append([(off, e) for off, e in zip(offs, col) if e])
                caps.append(min(compress(widths, col)))
        # the k-th used index needs an index of at least k below its cap
        if any(map(le, caps, range(len(caps)))):
            continue
        top = max(caps, default=0)
        capped = min(caps, default=0) < top
        for indices in combinations(range(top), len(caps)):
            if capped and not all(map(lt, indices, caps)):
                continue
            full = bytearray(nvars)
            for i, cells in zip(indices, columns):
                for off, e in cells:
                    full[off + i] = e
            out[bytes(full)] = coeff
    return MultiAlphabetPolynomial(widths, out)


def _embed(terms: dict[bytes, int], alphabet: int, r: int) -> dict[bytes, int]:
    """Lift one-alphabet packed terms into alphabet ``alphabet`` of r."""
    if r == 1:
        return terms
    out = {}
    for key, c in terms.items():
        w = len(key)
        out[bytes(alphabet * w) + key + bytes((r - 1 - alphabet) * w)] = c
    return out


def _ssyt_terms(outer: tuple[int, ...], inner: tuple[int, ...]) -> dict[bytes, int]:
    """Semistandard fillings of the skew shape outer/inner (inner padded to
    the length of outer) with entries exactly 1..k, as one-alphabet packed
    terms: the cells holding i form a nonempty horizontal strip, so each
    filling is a chain of strips from the inner shape to the outer one,
    keyed by the strip sizes.  The shapes reachable from the inner one are
    listed, each with those one strip above it, and the chains from each
    are summed from the largest shape down, with no recursion."""
    above: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    todo = [inner]
    while todo:
        shape = todo.pop()
        if shape not in above:
            # a horizontal strip adds to row i only columns that row i-1
            # already covered
            ranges = [
                range(shape[i], min(outer[i], shape[i - 1] if i else outer[0]) + 1)
                for i in range(len(outer))
            ]
            above[shape] = [nxt for nxt in product(*ranges) if nxt != shape]
            todo += above[shape]
    chains: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for shape in sorted(above, key=sum, reverse=True):
        got = chains[shape] = {(): 1} if shape == outer else {}
        for nxt in above[shape]:
            size = sum(nxt) - sum(shape)
            for sizes, c in chains[nxt].items():
                key = (size,) + sizes
                got[key] = got.get(key, 0) + c
    m = sum(outer) - sum(inner)
    return {bytes(sizes) + bytes(m - len(sizes)): c for sizes, c in chains[inner].items()}


@lru_cache(maxsize=F_MEMO_SIZE)
def _colored_F_terms(parts, colors, r: int) -> dict[bytes, int]:
    """Packed colored fundamental element (see ``colored_F``) of (parts,
    colors) with r colors.  A packed index chain groups the positions into
    consecutive blocks of equal index: a strict position always ends a
    block, any other position may.  Each grouping is one term."""
    ext = _raw_extended_colors(parts, colors)
    n = len(ext)
    sums = tuple(accumulate(parts))
    strict_after = {sums[j] for j in range(len(parts) - 1) if colors[j] >= colors[j + 1]}
    optional = [t for t in range(1, n) if t not in strict_after]
    terms: dict[bytes, int] = {}
    for chosen in product((False, True), repeat=len(optional)):
        ends = strict_after.union(t for t, end in zip(optional, chosen) if end)
        counts = bytearray(n * r)
        block = 0
        for t in range(1, n + 1):
            counts[ext[t - 1] * n + block] += 1
            block += t in ends
        terms[bytes(counts)] = 1
    return terms


@lru_cache(maxsize=SCHUR_MEMO_SIZE)
def _schur_terms(blocks) -> dict[bytes, int]:
    """One-alphabet packed Schur element of the direct sum of the nonempty
    skew shapes with (outer, inner) row bounds ``blocks``, in the form
    ``SkewShape`` stores: the product of their chain-counted Schur
    elements, the unit when there are none.  A product multiplies the
    element of all blocks but the last by that of the last, so the memo
    holds every prefix."""
    if len(blocks) > 1:
        return mul_terms(_schur_terms(blocks[:-1]), _schur_terms(blocks[-1:]), 1)
    return _ssyt_terms(*blocks[0]) if blocks else {b"": 1}


def _blocks(outer: tuple[int, ...], inner: tuple[int, ...]):
    """The blocks of ``_schur_terms`` of one shape: none if it is empty."""
    return ((outer, inner),) if outer else ()


def _colored_schur_terms(components) -> dict[bytes, int]:
    """Packed colored (skew) Schur element whose component j is the direct
    sum of the shapes ``components[j]`` (blocks of ``_schur_terms``), in
    alphabet j: the quasi-shuffle of its one-alphabet factors."""
    r = len(components)
    factors = [_embed(_schur_terms(blocks), j, r) for j, blocks in enumerate(components) if blocks]
    return reduce(lambda a, b: mul_terms(a, b, r), factors) if factors else {b"": 1}


def _tensor(factors) -> dict[bytes, int]:
    """Tensor coordinates of the product of one-alphabet elements, factor j
    in alphabet j: each key joins one key per factor, and its coefficient
    is the product of theirs."""
    return reduce(
        lambda a, b: {ka + kb: ca * cb for ka, ca in a.items() for kb, cb in b.items()},
        factors,
    )


def _place_factors(factors, widths) -> MultiAlphabetPolynomial:
    """The polynomial at ``widths`` of the product of one-alphabet packed
    elements, factor j in alphabet j: each factor placed at its alphabet's
    width, the placements joined by ``_tensor``; the unit when there are
    none."""
    widths = tuple(widths)
    placed = [_place(f, (w,)).terms for f, w in zip(factors, widths)]
    return MultiAlphabetPolynomial(widths, _tensor(placed) if placed else {b"": 1})


def _ribbon_blocks(parts, colors, r: int):
    """The blocks of ``_schur_terms`` of each component of the r-partite
    shape of the colored composition (parts, colors) with r colors."""
    return tuple(starmap(_blocks, _raw_colored_composition_shape(parts, colors, r)))


def _ribbon_factors(parts, colors, r: int) -> tuple[dict[bytes, int], ...]:
    """One-alphabet factors of the colored ribbon element: factor j is the
    Schur element of component j of its r-partite shape, chain-counted as
    one shape."""
    return tuple(map(_schur_terms, _ribbon_blocks(parts, colors, r)))


def _h_factors(bll: RPartitePartition) -> tuple[dict[bytes, int], ...]:
    """One-alphabet factors of the colored h element: factor j is h of part
    j, the product of the Schur elements of its rows."""
    return tuple(_schur_terms(tuple(((p,), (0,)) for p in part)) for part in bll)


def _schur_in_alphabet(shape: SkewShape, alphabet: int, widths) -> MultiAlphabetPolynomial:
    """The Schur polynomial of ``shape`` in alphabet ``alphabet``: the
    colored Schur polynomial whose other components are empty."""
    widths = tuple(widths)
    _check_alphabet(alphabet, widths)
    components = [EMPTY_SHAPE] * len(widths)
    components[alphabet] = shape
    return colored_schur(components, widths)


def schur_poly(shape, alphabet: int, widths) -> MultiAlphabetPolynomial:
    """Schur polynomial of a (possibly skew) shape in one alphabet: the
    generating function of its semistandard fillings with bounded entries."""
    return _schur_in_alphabet(as_skew(shape), alphabet, widths)


def h_poly(k: int, alphabet: int, widths) -> MultiAlphabetPolynomial:
    """Complete homogeneous: all weakly increasing degree-k monomials, the
    Schur polynomial of the row (k), which is empty at k = 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _schur_in_alphabet(SkewShape((k,), ()), alphabet, widths)


def e_poly(k: int, alphabet: int, widths) -> MultiAlphabetPolynomial:
    """Elementary: all squarefree degree-k monomials, the Schur polynomial
    of the column 1^k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _schur_in_alphabet(straight_shape((1,) * k), alphabet, widths)


def fundamental_F(a: Composition, alphabet: int, widths) -> MultiAlphabetPolynomial:
    """Fundamental quasisymmetric polynomial: weakly increasing index chains
    with strict rises exactly after the proper partial sums of ``a``.  It is
    the ``colored_F`` whose parts all have color ``alphabet``."""
    widths = tuple(widths)
    _check_alphabet(alphabet, widths)
    return _place(_colored_F_terms(a.parts, (alphabet,) * len(a.parts), len(widths)), widths)


def colored_F(ce: ColoredComposition, widths) -> MultiAlphabetPolynomial:
    """Colored fundamental quasisymmetric polynomial.

    One weakly increasing chain of indices i_1 <= ... <= i_n; position t
    draws its variable from the alphabet of the extended color vector at t,
    and the rise after the j-th part boundary is strict exactly when the
    colors satisfy color_j >= color_{j+1}.
    """
    widths = tuple(widths)
    _check_widths(ce.r, widths)
    return _place(_colored_F_terms(ce.parts, ce.colors, ce.r), widths)


def colored_schur(components, widths) -> MultiAlphabetPolynomial:
    """Product of per-alphabet (skew) Schur polynomials, component j in
    alphabet j."""
    widths = tuple(widths)
    components = tuple(map(as_skew, components))
    if len(components) != len(widths):
        raise DimensionMismatchError(f"{len(components)} components vs {len(widths)} alphabets")
    return _place_factors((_schur_terms(_blocks(s.outer, s.inner)) for s in components), widths)


def colored_ribbon(ce: ColoredComposition, widths) -> MultiAlphabetPolynomial:
    """Colored ribbon Schur element: the colored skew Schur polynomial of the
    r-partite shape of ``ce`` (``colored_composition_shape``)."""
    widths = tuple(widths)
    _check_widths(ce.r, widths)
    return _place_factors(_ribbon_factors(ce.parts, ce.colors, ce.r), widths)


def colored_h(bll: RPartitePartition, widths) -> MultiAlphabetPolynomial:
    """Product of complete homogeneous polynomials, component j in alphabet j."""
    widths = tuple(widths)
    if len(bll) != len(widths):
        raise DimensionMismatchError(f"{len(bll)} components vs {len(widths)} alphabets")
    return _place_factors(_h_factors(bll), widths)


def h_index_of_colored_comp(ce: ColoredComposition) -> RPartitePartition:
    """Split the parts by color and sort each class decreasingly."""
    classes: list[list[int]] = [[] for _ in range(ce.r)]
    for p, c in zip(ce.parts, ce.colors):
        classes[c].append(p)
    return tuple(tuple(sorted(cls, reverse=True)) for cls in classes)


def qsym_generating_function(
    group_elements, widths
) -> MultiAlphabetPolynomial:
    """Sum of the colored fundamental elements indexed by the colored descent
    compositions of the given colored permutations (all over the same n, r)."""
    widths = tuple(widths)
    elements = list(group_elements)
    if len({(a.n, a.r) for a in elements}) > 1:
        raise DimensionMismatchError("elements must share one n and one r")
    if elements:
        _check_widths(elements[0].r, widths)
    counter = Counter(_raw_colored_descent_composition(a.word, a.colors) for a in elements)
    acc: dict[bytes, int] = {}
    for (parts, colors), mult in counter.items():
        add_terms(acc, _colored_F_terms(parts, colors, len(widths)), mult)
    return _place(acc, widths)


class Expansion(FrozenValue):
    """Exact expansion of an element in the colored Schur or h basis,
    indexed by r-tuples of partitions.  Unhashable: ``coeffs`` is a dict."""

    __hash__ = None

    def __init__(self, basis: str, n: int, r: int, coeffs: dict[RPartitePartition, int]):
        set_field(self, "basis", basis)
        set_field(self, "n", n)
        set_field(self, "r", r)
        set_field(self, "coeffs", coeffs)

    def sorted_items(self) -> list[tuple[RPartitePartition, int]]:
        return sorted(self.coeffs.items())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "basis": self.basis,
            "terms": [
                {"index": [list(part) for part in index], "coeff": coeff}
                for index, coeff in self.sorted_items()
            ],
        }


def _peel(
    terms: dict[bytes, int], widths: tuple[int, ...], schur_terms
) -> dict[RPartitePartition, int]:
    """Colored Schur coefficients of ``terms`` by leading-monomial peeling;
    ``schur_terms(bll)`` gives the terms of the colored Schur element of
    ``bll`` in the same coordinates."""
    offs = _offsets(widths)
    rem = dict(terms)
    out: dict[RPartitePartition, int] = {}
    while rem:
        key = max(rem)
        bll = []
        for j, w in enumerate(widths):
            exps = tuple(key[offs[j] : offs[j] + w])
            if any(a < b for a, b in zip(exps, exps[1:])):
                raise NotInSchurSpanError(
                    f"leading exponent {exps!r} in alphabet {j} is not a partition"
                )
            bll.append(tuple(x for x in exps if x))
        bll = tuple(bll)
        coeff = rem[key]
        out[bll] = coeff
        add_terms(rem, schur_terms(bll), -coeff)
        if rem and max(rem) >= key:
            raise NotInSchurSpanError("peeling made no progress")
    return out


def _check_peel_widths(widths: tuple[int, ...], degree: int) -> None:
    """Refuse to peel an element of ``degree`` at ``widths`` below it."""
    if any(w < degree for w in widths):
        raise ValueError(
            f"peeling needs widths >= degree {degree} in every alphabet: {widths!r}"
        )


def expand_in_colored_schur(
    p: MultiAlphabetPolynomial, n: int | None = None
) -> Expansion:
    """Expand a homogeneous per-alphabet-symmetric element in the colored
    Schur basis by leading-monomial peeling of all its terms.

    Requires every alphabet width to be at least the degree, which is ``n``
    when given: too few variables can truncate a nonzero element to zero,
    so a zero element is checked against ``n`` too.  Raises
    ``NotInSchurSpanError`` when a leading exponent is not a partition in
    some alphabet, which is how asymmetric input manifests.
    """
    widths = p.widths
    if p.is_zero():
        degree = n if n is not None else 0
    else:
        degrees = p.degrees()
        if len(degrees) != 1:
            raise NotInSchurSpanError(f"not homogeneous: degrees {sorted(degrees)}")
        degree = degrees.pop()
        if n is not None and n != degree:
            raise NotInSchurSpanError(f"degree {degree} differs from declared {n}")
    _check_peel_widths(widths, degree)
    coeffs = _peel(p.terms, widths, lambda bll: colored_schur(bll, widths).terms)
    return Expansion("schur", degree, p.r, coeffs)


def ribbon_schur_by_peeling(ce: ColoredComposition) -> Expansion:
    """Schur expansion of the colored ribbon element: each one-alphabet
    factor is peeled from its packed coordinates, so no choice of widths is
    involved, and the expansion is the product of theirs."""
    return _peel_factors(_ribbon_blocks(ce.parts, ce.colors, ce.r))


@lru_cache(maxsize=SCHUR_MEMO_SIZE)
def _peeled(blocks) -> dict[RPartitePartition, int]:
    """Schur expansion of the one-alphabet factor ``_schur_terms(blocks)``,
    peeled at its degree, the length of its keys.  The memo hands the same
    dict to every caller, so no caller may change it."""
    terms = _schur_terms(blocks)
    return _peel(
        terms,
        (len(next(iter(terms))),),
        lambda bll: _schur_terms(_blocks(bll[0], (0,) * len(bll[0]))),
    )


def _peel_factors(components) -> Expansion:
    """Schur expansion of the product of the one-alphabet factors of
    ``components`` (blocks of ``_schur_terms``), factor j in alphabet j: the
    product of their memoized expansions."""
    coeffs: dict[RPartitePartition, int] = {(): 1}
    for peeled in map(_peeled, components):
        coeffs = {
            index + part: c * d for index, c in coeffs.items() for part, d in peeled.items()
        }
    n = sum(sum(outer) - sum(inner) for blocks in components for outer, inner in blocks)
    return Expansion("schur", n, len(components), coeffs)


def ribbon_schur_by_counting(ce: ColoredComposition) -> Expansion:
    """Schur expansion of the colored ribbon element: the coefficient of
    ``bll`` counts the standard fillings of the r-partite shape ``bll``
    whose colored descent composition is ``ce``."""
    return _raw_ribbon_schur_by_counting(ce.parts, ce.colors, ce.r)


def _raw_ribbon_schur_by_counting(parts, colors, r: int) -> Expansion:
    """``ribbon_schur_by_counting`` of (parts, colors) with r colors.

    A filling counted there puts entry i in the component of the extended
    color at i, in a strictly lower row than entry i-1 of the same
    component exactly when i-1 ends a part, and in no lower row otherwise.
    One forward pass places entry i at every addable row that obeys this,
    a new bottom row included.  Partial fillings in the same state
    continue alike, so each state is extended once and carries its count:
    the pass costs the number of states, not of fillings.
    """
    ext = _raw_extended_colors(parts, colors)
    n, ends = len(ext), set(accumulate(parts))
    # (row of the last entry if the next one shares its component, else -1;
    # the row lengths of every component) -> number of partial fillings
    states = {(-1, ((),) * r): 1}
    for i, color in enumerate(ext, 1):
        joins = i < n and ext[i] == color
        grown: dict[tuple, int] = {}
        for (prev, shape), count in states.items():
            lengths = shape[color]
            lo, hi = 0, len(lengths)
            if prev >= 0:
                lo, hi = (prev + 1, hi) if i - 1 in ends else (0, prev)
            for t in range(lo, hi + 1):
                if t == len(lengths):
                    row = lengths + (1,)
                elif t == 0 or lengths[t - 1] > lengths[t]:
                    row = lengths[:t] + (lengths[t] + 1,) + lengths[t + 1 :]
                else:
                    continue
                key = (t if joins else -1, shape[:color] + (row,) + shape[color + 1 :])
                grown[key] = grown.get(key, 0) + count
        states = grown
    return Expansion("schur", n, r, {shape: count for (_, shape), count in states.items()})


def ribbon_h_expansion(ce: ColoredComposition) -> Expansion:
    """Alternating h-basis expansion of the colored ribbon element, summed
    over the colored compositions below ``ce`` in reverse refinement."""
    return _raw_ribbon_h_expansion(ce.parts, ce.colors, ce.r)


def _raw_ribbon_h_expansion(parts, colors, r: int) -> Expansion:
    """``ribbon_h_expansion`` of (parts, colors) with r colors.

    One forward pass coarsens the parts in order: the open part closes or,
    when the next part has its color, merges with it, which flips the
    sign.  Each state is extended once and carries its signed count, so
    the pass costs the number of states, not of coarsenings."""
    # (the closed parts of each color, sorted decreasingly; the open part)
    # -> signed number of coarsenings
    states = {(((),) * r, parts[0]): 1}
    for k, color in enumerate(colors, 1):
        after = parts[k] if k < len(parts) else 0
        merges = k < len(parts) and colors[k] == color
        grown: dict[tuple, int] = {}
        for (closed, open_), coeff in states.items():
            shut = tuple(sorted(closed[color] + (open_,), reverse=True))
            key = (closed[:color] + (shut,) + closed[color + 1 :], after)
            grown[key] = grown.get(key, 0) + coeff
            if merges:
                key = (closed, open_ + after)
                grown[key] = grown.get(key, 0) - coeff
        states = grown
    return Expansion("h", sum(parts), r, {closed: c for (closed, _), c in states.items() if c})


def ribbon_f_expansion(ce: ColoredComposition) -> dict[ColoredComposition, int]:
    """Multiplicities of the colored fundamental elements in the colored
    ribbon element: the distribution of the colored descent composition over
    standard fillings of the attached r-partite skew shape."""
    return {
        ColoredComposition(parts, colors, ce.r): count
        for (parts, colors), count in _raw_ribbon_f_counts(ce.parts, ce.colors, ce.r).items()
    }


def _raw_ribbon_f_counts(parts, colors, r: int) -> Counter:
    """``ribbon_f_expansion`` of the colored composition (parts, colors),
    keyed by the (parts, colors) of each colored descent composition."""
    bounds = _raw_colored_composition_shape(parts, colors, r)
    return Counter(map(_raw_rpartite_descent_composition, _raw_fillings(bounds)))


def is_symmetric_per_alphabet(p: MultiAlphabetPolynomial) -> bool:
    """True when every adjacent-variable transposition inside each alphabet
    fixes the polynomial."""
    offs = _offsets(p.widths)
    for j, w in enumerate(p.widths):
        for i in range(w - 1):
            a, b = offs[j] + i, offs[j] + i + 1
            swapped: dict[bytes, int] = {}
            for key, coeff in p.terms.items():
                if key[a] != key[b]:
                    kb = bytearray(key)
                    kb[a], kb[b] = kb[b], kb[a]
                    swapped[bytes(kb)] = coeff
                else:
                    swapped[key] = coeff
            if swapped != p.terms:
                return False
    return True

"""Exact polynomial models of colored symmetric and quasisymmetric functions.

Elements live in truncated polynomial rings over r alphabets: alphabet j has
``widths[j]`` variables and a monomial is an exponent vector stored as bytes,
one byte per variable, alphabets concatenated in color order.  Coefficients
are exact (unbounded) Python ints.  Byte-wise lexicographic comparison of
keys is exactly the term order used for Schur-basis peeling: alphabet-major,
then variable-major, exponents compared high to low.

Degree-n identities are checked at widths n per alphabet, which suffices to
separate the Schur and fundamental elements of that degree; the width
stability of expansions (n vs n+1) is asserted in the test suite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations, combinations_with_replacement

from ._poly_py import add_terms, mul_terms
from .compositions import (
    ColoredComposition,
    Composition,
    coarsenings,
    rainbow_decomposition,
)
from .errors import DimensionMismatchError, NotInSchurSpanError, ShapeError
from .permutations import colored_descent_composition
from .shapes import (
    DEFAULT_MAX_CELLS,
    RPartitePartition,
    SkewShape,
    as_skew,
    colored_zigzag_of,
    enumerate_rpartite_syt,
    is_partition,
    rpartite_descent_composition,
    rpartite_shape_of,
    zigzag_of,
)


def _offsets(widths: tuple[int, ...]) -> tuple[int, ...]:
    out, total = [], 0
    for w in widths:
        out.append(total)
        total += w
    return tuple(out)


@dataclass(frozen=True, eq=True)
class MultiAlphabetPolynomial:
    """Sparse polynomial over r truncated alphabets with exact integer
    coefficients; ``terms`` maps exponent bytes to nonzero ints."""

    widths: tuple[int, ...]
    terms: dict[bytes, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if any(w < 0 for w in self.widths):
            raise ValueError("alphabet widths must be nonnegative")

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

    def __add__(self, other):
        self._check_ring(other)
        return MultiAlphabetPolynomial(
            self.widths, add_terms(dict(self.terms), other.terms, 1)
        )

    def __sub__(self, other):
        self._check_ring(other)
        return MultiAlphabetPolynomial(
            self.widths, add_terms(dict(self.terms), other.terms, -1)
        )

    def __neg__(self):
        return MultiAlphabetPolynomial(
            self.widths, {k: -c for k, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MultiAlphabetPolynomial(self.widths, {})
            return MultiAlphabetPolynomial(
                self.widths, {k: other * c for k, c in self.terms.items()}
            )
        self._check_ring(other)
        return MultiAlphabetPolynomial(
            self.widths, mul_terms(self.terms, other.terms)
        )

    __rmul__ = __mul__

    def coefficient(self, exponents_by_alphabet) -> int:
        key = bytearray(self.nvars)
        offs = _offsets(self.widths)
        for j, exps in enumerate(exponents_by_alphabet):
            for i, e in enumerate(exps):
                key[offs[j] + i] = e
        return self.terms.get(bytes(key), 0)

    def term_items(self) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
        """Terms as (per-alphabet exponent tuples, coeff), leading term first."""
        offs = _offsets(self.widths)
        out = []
        for key in sorted(self.terms, reverse=True):
            mat = tuple(
                tuple(key[offs[j] : offs[j] + w]) for j, w in enumerate(self.widths)
            )
            out.append((mat, self.terms[key]))
        return out


def zero(widths) -> MultiAlphabetPolynomial:
    return MultiAlphabetPolynomial(tuple(widths), {})


def one(widths) -> MultiAlphabetPolynomial:
    widths = tuple(widths)
    return MultiAlphabetPolynomial(widths, {bytes(sum(widths)): 1})


def _product(factors, widths) -> MultiAlphabetPolynomial:
    """Product of the factors, started from the first one; the unit when
    there are none."""
    factors = list(factors)
    return reduce(MultiAlphabetPolynomial.__mul__, factors) if factors else one(widths)


def _embed(local: dict[bytes, int], widths: tuple[int, ...], alphabet: int):
    """Lift a one-alphabet term map into the full variable layout."""
    offs = _offsets(widths)
    pre = bytes(offs[alphabet])
    post = bytes(sum(widths) - offs[alphabet] - widths[alphabet])
    return {pre + k + post: c for k, c in local.items()}


@lru_cache(maxsize=None)
def _ssyt_terms(shape: SkewShape, width: int) -> dict[bytes, int]:
    """Semistandard fillings of a connected row-block, as a local term map."""
    cells = shape.cells()
    if not cells:
        return {bytes(0): 1}
    if width < 1:
        return {}
    grid: dict[tuple[int, int], int] = {}
    counts = bytearray(width)
    terms: dict[bytes, int] = {}

    def rec(idx: int):
        if idx == len(cells):
            key = bytes(counts)
            terms[key] = terms.get(key, 0) + 1
            return
        r, c = cells[idx]
        left = grid.get((r, c - 1), 1)
        above = grid.get((r - 1, c))
        lo = max(left, above + 1 if above is not None else 1)
        for v in range(lo, width + 1):
            grid[(r, c)] = v
            counts[v - 1] += 1
            rec(idx + 1)
            counts[v - 1] -= 1
        grid.pop((r, c), None)

    rec(0)
    return terms


def _row_blocks(shape: SkewShape) -> list[SkewShape]:
    """Split at rows sharing no column; factors multiply independently."""
    blocks: list[SkewShape] = []
    start = 0
    for i in range(shape.nrows - 1):
        if shape.inner[i] >= shape.outer[i + 1]:
            blocks.append(_translate_rows(shape, start, i + 1))
            start = i + 1
    blocks.append(_translate_rows(shape, start, shape.nrows))
    return blocks


def _translate_rows(shape: SkewShape, lo: int, hi: int) -> SkewShape:
    shift = min(shape.inner[lo:hi])
    return SkewShape(
        tuple(x - shift for x in shape.outer[lo:hi]),
        tuple(x - shift for x in shape.inner[lo:hi]),
    )


def schur_poly(shape, alphabet: int, widths) -> MultiAlphabetPolynomial:
    """Schur polynomial of a (possibly skew) shape in one alphabet: the
    generating function of its semistandard fillings with bounded entries."""
    widths = tuple(widths)
    shape, width = as_skew(shape), widths[alphabet]
    local = _product(
        (
            MultiAlphabetPolynomial((width,), _ssyt_terms(block, width))
            for block in (_row_blocks(shape) if shape.ncells else [])
        ),
        (width,),
    )
    return MultiAlphabetPolynomial(widths, _embed(local.terms, widths, alphabet))


def h_poly(k: int, alphabet: int, widths) -> MultiAlphabetPolynomial:
    """Complete homogeneous: all weakly increasing degree-k monomials."""
    widths = tuple(widths)
    if k < 0:
        raise ValueError("k must be nonnegative")
    width = widths[alphabet]
    local: dict[bytes, int] = {}
    for combo in combinations_with_replacement(range(width), k):
        counts = bytearray(width)
        for i in combo:
            counts[i] += 1
        local[bytes(counts)] = 1
    return MultiAlphabetPolynomial(widths, _embed(local, widths, alphabet))


def e_poly(k: int, alphabet: int, widths) -> MultiAlphabetPolynomial:
    """Elementary: all squarefree degree-k monomials."""
    widths = tuple(widths)
    if k < 0:
        raise ValueError("k must be nonnegative")
    width = widths[alphabet]
    local: dict[bytes, int] = {}
    for combo in combinations(range(width), k):
        counts = bytearray(width)
        for i in combo:
            counts[i] = 1
        local[bytes(counts)] = 1
    return MultiAlphabetPolynomial(widths, _embed(local, widths, alphabet))


def fundamental_F(a: Composition, alphabet: int, widths) -> MultiAlphabetPolynomial:
    """Fundamental quasisymmetric polynomial: weakly increasing index chains
    with strict rises exactly after the proper partial sums of ``a``.  It is
    the one-color ``colored_F``, placed in alphabet ``alphabet``."""
    widths = tuple(widths)
    ce = ColoredComposition(a.parts, (0,) * len(a.parts), 1)
    local = colored_F(ce, (widths[alphabet],))
    return MultiAlphabetPolynomial(widths, _embed(local.terms, widths, alphabet))


@lru_cache(maxsize=None)
def colored_F(ce: ColoredComposition, widths) -> MultiAlphabetPolynomial:
    """Colored fundamental quasisymmetric polynomial.

    One weakly increasing chain of indices i_1 <= ... <= i_n; position t
    draws its variable from the alphabet of the extended color vector at t,
    and the rise after the j-th part boundary is strict exactly when the
    colors satisfy color_j >= color_{j+1}.
    """
    widths = tuple(widths)
    if len(widths) != ce.r:
        raise DimensionMismatchError(
            f"need {ce.r} alphabet widths, got {len(widths)}"
        )
    ext = ce.extended_colors()
    n = ce.n
    offs = _offsets(widths)
    sums = ce.composition().partial_sums()
    strict_after = {
        sums[j]
        for j in range(len(ce.parts) - 1)
        if ce.colors[j] >= ce.colors[j + 1]
    }
    counts = bytearray(sum(widths))
    terms: dict[bytes, int] = {}

    def rec(t: int, lo: int):
        if t > n:
            key = bytes(counts)
            terms[key] = terms.get(key, 0) + 1
            return
        al = ext[t - 1]
        pos = offs[al] - 1
        for i in range(lo, widths[al] + 1):
            counts[pos + i] += 1
            rec(t + 1, i + (1 if t in strict_after else 0))
            counts[pos + i] -= 1

    rec(1, 1)
    return MultiAlphabetPolynomial(widths, terms)


def _normalize_components(components) -> tuple[SkewShape, ...]:
    return tuple(as_skew(c) for c in components)


@lru_cache(maxsize=None)
def _colored_schur_cached(components: tuple[SkewShape, ...], widths):
    return _product(
        (schur_poly(comp, j, widths) for j, comp in enumerate(components)), widths
    )


def colored_schur(components, widths) -> MultiAlphabetPolynomial:
    """Product of per-alphabet (skew) Schur polynomials, component j in
    alphabet j."""
    widths = tuple(widths)
    components = _normalize_components(components)
    if len(components) != len(widths):
        raise DimensionMismatchError(
            f"{len(components)} components vs {len(widths)} alphabets"
        )
    return _colored_schur_cached(components, widths)


@lru_cache(maxsize=None)
def colored_ribbon(ce: ColoredComposition, widths) -> MultiAlphabetPolynomial:
    """Colored ribbon Schur element: the product over rainbow blocks of the
    ribbon Schur polynomial of the block in the block's alphabet."""
    widths = tuple(widths)
    if len(widths) != ce.r:
        raise DimensionMismatchError(
            f"need {ce.r} alphabet widths, got {len(widths)}"
        )
    return _product(
        (
            schur_poly(zigzag_of(comp).shape, color, widths)
            for comp, color in rainbow_decomposition(ce).blocks
        ),
        widths,
    )


@lru_cache(maxsize=None)
def colored_h(bll: RPartitePartition, widths) -> MultiAlphabetPolynomial:
    """Product of complete homogeneous polynomials, component j in alphabet j."""
    widths = tuple(widths)
    if len(bll) != len(widths):
        raise DimensionMismatchError(f"{len(bll)} components vs {len(widths)} alphabets")
    return _product(
        (h_poly(k, j, widths) for j, part in enumerate(bll) for k in part), widths
    )


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
    counter: Counter[ColoredComposition] = Counter(
        colored_descent_composition(a) for a in elements
    )
    acc: dict[bytes, int] = {}
    for ce, mult in counter.items():
        add_terms(acc, colored_F(ce, widths).terms, mult)
    return MultiAlphabetPolynomial(widths, acc)


@dataclass(frozen=True)
class Expansion:
    """Exact expansion of an element in the colored Schur or h basis,
    indexed by r-tuples of partitions."""

    basis: str
    n: int
    r: int
    coeffs: dict[RPartitePartition, int]

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


def expand_in_colored_schur(
    p: MultiAlphabetPolynomial, n: int | None = None
) -> Expansion:
    """Expand a homogeneous per-alphabet-symmetric element in the colored
    Schur basis by leading-monomial peeling.

    Requires every alphabet width to be at least the degree, which is ``n``
    when given: too few variables can truncate a nonzero element to zero,
    so a zero element is checked against ``n`` too.  Raises
    ``NotInSchurSpanError`` when a leading exponent is not a partition in
    some alphabet, which is how asymmetric input manifests.
    """
    widths = p.widths
    r = p.r
    if p.is_zero():
        degree = n if n is not None else 0
    else:
        degrees = p.degrees()
        if len(degrees) != 1:
            raise NotInSchurSpanError(f"not homogeneous: degrees {sorted(degrees)}")
        degree = degrees.pop()
        if n is not None and n != degree:
            raise NotInSchurSpanError(f"degree {degree} differs from declared {n}")
    if any(w < degree for w in widths):
        raise ValueError(
            f"peeling needs widths >= degree {degree} in every alphabet: {widths!r}"
        )
    offs = _offsets(widths)
    rem = dict(p.terms)
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
        add_terms(rem, colored_schur(bll, widths).terms, -coeff)
        if rem and max(rem) >= key:
            raise NotInSchurSpanError("peeling made no progress")
    return Expansion("schur", degree, r, out)


def schur_coeff_by_tableau_count(
    ce: ColoredComposition, bll: RPartitePartition
) -> int:
    """Number of standard fillings of the r-partite shape ``bll`` whose
    colored descent composition equals ``ce``: its coefficient in
    ``ribbon_schur_by_counting(ce)``."""
    bll = tuple(tuple(part) for part in bll)
    if len(bll) != ce.r:
        raise DimensionMismatchError(f"{len(bll)} components vs r={ce.r}")
    if any(not is_partition(part) for part in bll):
        raise ShapeError(f"not an r-tuple of partitions: {bll!r}")
    return ribbon_schur_by_counting(ce).coeffs.get(bll, 0)


def ribbon_schur_by_counting(ce: ColoredComposition) -> Expansion:
    """Schur expansion of the colored ribbon element: the coefficient of
    ``bll`` counts the standard fillings of the r-partite shape ``bll``
    whose colored descent composition is ``ce``.

    Such a filling puts entry i in the component of the extended color at
    i, in a strictly lower row than entry i-1 of the same component exactly
    when i-1 ends a part.  One search grows all shapes at once, placing
    entry i at any addable row that obeys this, a new bottom row included.
    Row 0 or a new bottom row always qualifies, so no branch dies and the
    search costs O(n) per counted filling.
    """
    ext = ce.extended_colors()
    ends = set(ce.composition().partial_sums())
    rows: list[list[int]] = [[] for _ in range(ce.r)]
    coeffs: dict[RPartitePartition, int] = {}

    def rec(i: int, prev: int):
        if i > ce.n:
            bll = tuple(tuple(lengths) for lengths in rows)
            coeffs[bll] = coeffs.get(bll, 0) + 1
            return
        lengths = rows[ext[i - 1]]
        lo, hi = 0, len(lengths)
        if i > 1 and ext[i - 2] == ext[i - 1]:
            lo, hi = (prev + 1, hi) if i - 1 in ends else (0, prev)
        for t in range(lo, hi + 1):
            if t == len(lengths):
                lengths.append(1)
                rec(i + 1, t)
                lengths.pop()
            elif t == 0 or lengths[t - 1] > lengths[t]:
                lengths[t] += 1
                rec(i + 1, t)
                lengths[t] -= 1

    rec(1, -1)
    return Expansion("schur", ce.n, ce.r, coeffs)


def ribbon_h_expansion(ce: ColoredComposition) -> Expansion:
    """Alternating h-basis expansion of the colored ribbon element, summed
    over the colored compositions below ``ce`` in reverse refinement."""
    coeffs: dict[RPartitePartition, int] = {}
    length = len(ce.parts)
    for beta in coarsenings(ce):
        sign = -1 if (length - len(beta.parts)) % 2 else 1
        key = h_index_of_colored_comp(beta)
        cur = coeffs.get(key, 0) + sign
        if cur:
            coeffs[key] = cur
        else:
            coeffs.pop(key, None)
    return Expansion("h", ce.n, ce.r, coeffs)


def ribbon_f_expansion(
    ce: ColoredComposition, max_cells: int = DEFAULT_MAX_CELLS
) -> dict[ColoredComposition, int]:
    """Multiplicities of the colored fundamental elements in the colored
    ribbon element: the distribution of the colored descent composition over
    standard fillings of the attached r-partite skew shape."""
    shape = rpartite_shape_of(colored_zigzag_of(ce), ce.r)
    counter: Counter[ColoredComposition] = Counter(
        rpartite_descent_composition(bq)
        for bq in enumerate_rpartite_syt(shape, max_cells=max_cells)
    )
    return dict(counter)


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

"""Compositions, colored compositions and their subset encodings.

A composition of n is a sequence of positive parts summing to n.  Colors are
integers ``0..r-1`` with the natural total order, and every colored object
carries ``r`` explicitly so that mixed-r operations can be rejected.  Subsets
are kept in augmented form (n is always a member) so that the color of the
final part survives the subset encoding.

The reverse-refinement order on colored compositions merges adjacent parts of
equal color; ``refines`` implements the equivalent characterization "same
extended color vector and containment of the colored subsets".

Every set-to-composition map, the classical ``augmented_set_to_comp`` (the
r = 1 slice) and the descent compositions of words and fillings included,
is the one loop ``_raw_set_to_comp``.
"""

from __future__ import annotations

import re
from itertools import accumulate, groupby, product, repeat
from operator import index, itemgetter

from ._value import FrozenValue, set_field
from .errors import DimensionMismatchError, ParseError

#: Length-n vector of colors, one per position.
ColorVector = tuple[int, ...]

_TOKEN_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


def _check_nonempty(n: int) -> None:
    """A run, a part or a colored descent needs a position."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")


def _check_colors(colors, r: int, shown) -> None:
    """Raise unless r >= 1 and each color lies in 0..r-1, showing ``shown``."""
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    if any(not 0 <= c < r for c in colors):
        raise ValueError(f"colors must lie in 0..{r - 1}: {shown!r}")


def _check_augmented(n: int, elems: tuple[int, ...]) -> None:
    """Raise unless ``elems`` strictly increase in [n] and end at n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    if not elems or elems[-1] != n:
        raise ValueError(f"augmented subset must contain n={n}: {elems!r}")
    if any(e < 1 for e in elems) or any(a >= b for a, b in zip(elems, elems[1:])):
        raise ValueError(f"elements must be strictly increasing in [n]: {elems!r}")


class Composition(FrozenValue):
    """Sequence of positive integer parts; ``n`` is their sum."""

    def __init__(self, parts: tuple[int, ...]):
        set_field(self, "parts", tuple(map(index, parts)))
        self.__post_init__()

    def __post_init__(self):
        parts = self.parts
        if not parts or min(parts) < 1:
            raise ValueError(f"composition parts must be positive: {parts!r}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def partial_sums(self) -> tuple[int, ...]:
        return tuple(accumulate(self.parts))

    def to_json(self) -> dict:
        return {"n": self.n, "parts": list(self.parts)}


class AugmentedSubset(FrozenValue):
    """Strictly increasing subset of [n] that always contains n."""

    def __init__(self, n: int, elements: tuple[int, ...]):
        set_field(self, "n", index(n))
        set_field(self, "elements", tuple(map(index, elements)))
        self.__post_init__()

    def __post_init__(self):
        _check_augmented(self.n, self.elements)


class ColoredComposition(FrozenValue):
    """Composition with a color in ``0..r-1`` attached to each part."""

    def __init__(self, parts: tuple[int, ...], colors: tuple[int, ...], r: int):
        set_field(self, "parts", tuple(map(index, parts)))
        set_field(self, "colors", tuple(map(index, colors)))
        set_field(self, "r", index(r))
        self.__post_init__()

    def __post_init__(self):
        parts, colors, r = self.parts, self.colors, self.r
        if not parts or min(parts) < 1:
            raise ValueError(f"composition parts must be positive: {parts!r}")
        if len(parts) != len(colors):
            raise ValueError("parts and colors must have equal length")
        _check_colors(colors, r, colors)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def composition(self) -> Composition:
        return Composition(self.parts)

    def extended_colors(self) -> ColorVector:
        """Color vector of length n: color of part i repeated parts[i] times."""
        return _raw_extended_colors(self.parts, self.colors)

    def text(self) -> str:
        return _raw_text(self.parts, self.colors)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "parts": list(self.parts),
            "colors": list(self.colors),
        }


class ColoredSet(FrozenValue):
    """Augmented subset of [n] with a color attached to each element."""

    def __init__(self, n: int, r: int, pairs: tuple[tuple[int, int], ...]):
        set_field(self, "n", index(n))
        set_field(self, "r", index(r))
        set_field(self, "pairs", tuple((index(e), index(c)) for e, c in pairs))
        self.__post_init__()

    def __post_init__(self):
        _check_augmented(self.n, self.elements())
        _check_colors((c for _, c in self.pairs), self.r, self.pairs)

    def elements(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.pairs)

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r, "pairs": [list(p) for p in self.pairs]}


class RainbowDecomposition(FrozenValue):
    """Maximal monochromatic blocks of a colored composition.

    Adjacent blocks carry distinct colors and concatenating the blocks
    restores the original colored composition.
    """

    def __init__(self, blocks: tuple[tuple[Composition, int], ...]):
        set_field(self, "blocks", tuple((comp, index(color)) for comp, color in blocks))
        self.__post_init__()

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("rainbow decomposition must be nonempty")
        colors = [c for _, c in self.blocks]
        if any(a == b for a, b in zip(colors, colors[1:])):
            raise ValueError("adjacent block colors must differ")

    def colored_composition(self, r: int) -> ColoredComposition:
        pairs = [(p, color) for comp, color in self.blocks for p in comp.parts]
        return ColoredComposition(*zip(*pairs), r)


def comp_to_augmented_set(a: Composition) -> AugmentedSubset:
    """Partial sums of the parts, as an augmented subset of [n]."""
    return AugmentedSubset(a.n, a.partial_sums())


def augmented_set_to_comp(s: AugmentedSubset) -> Composition:
    """Consecutive differences; mutually inverse with ``comp_to_augmented_set``.
    The r = 1 slice of ``colored_set_to_colored_comp``."""
    return Composition(_raw_set_to_comp(zip(s.elements, repeat(0)))[0])


def colored_comp_to_colored_set(ce: ColoredComposition) -> ColoredSet:
    """Partial sum r_i carries the color of part i."""
    return ColoredSet(ce.n, ce.r, tuple(zip(ce.composition().partial_sums(), ce.colors)))


def colored_set_to_colored_comp(cs: ColoredSet) -> ColoredComposition:
    """Inverse of ``colored_comp_to_colored_set``."""
    return ColoredComposition(*_raw_set_to_comp(cs.pairs), cs.r)


def _raw_set_to_comp(pairs) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(parts, colors) of the colored set with (element, color) pairs
    ``pairs``: each part ends at its element and takes its color."""
    parts, colors, prev = [], [], 0
    for e, c in pairs:
        parts.append(e - prev)
        colors.append(c)
        prev = e
    return tuple(parts), tuple(colors)


def extend_color_vector(ce: ColoredComposition) -> ColorVector:
    return ce.extended_colors()


def _raw_extended_colors(parts, colors) -> ColorVector:
    """``extend_color_vector`` of the colored composition (parts, colors)."""
    return tuple(c for p, c in zip(parts, colors) for _ in range(p))


def extend_set_color_vector(cs: ColoredSet) -> ColorVector:
    """Positions j with s_{i-1} < j <= s_i all get the color of s_i."""
    return _raw_extended_colors(*_raw_set_to_comp(cs.pairs))


def refines(fine: ColoredComposition, coarse: ColoredComposition) -> bool:
    """True when ``coarse`` arises from ``fine`` by merging adjacent
    equal-colored parts, i.e. coarse lies below fine in reverse refinement."""
    if (fine.n, fine.r) != (coarse.n, coarse.r):
        raise DimensionMismatchError(
            f"cannot compare (n={fine.n}, r={fine.r}) with (n={coarse.n}, r={coarse.r})"
        )
    if fine.extended_colors() != coarse.extended_colors():
        return False
    fine_pairs = set(colored_comp_to_colored_set(fine).pairs)
    return all(p in fine_pairs for p in colored_comp_to_colored_set(coarse).pairs)


def rainbow_decomposition(ce: ColoredComposition) -> RainbowDecomposition:
    """Split into maximal runs of parts with constant color."""
    runs = groupby(zip(ce.parts, ce.colors), key=itemgetter(1))
    return RainbowDecomposition(
        tuple((Composition(tuple(map(itemgetter(0), run))), c) for c, run in runs)
    )


def enumerate_compositions(n: int) -> list[Composition]:
    """All 2^(n-1) compositions of n in lexicographic part order."""
    if n < 1:
        raise ValueError("n must be positive")
    return [Composition(parts) for parts in _raw_compositions(n)]


def _raw_compositions(n: int):
    """The part tuples of ``enumerate_compositions(n)``, in its order."""
    if n == 0:
        yield ()
        return
    for p in range(1, n + 1):
        for rest in _raw_compositions(n - p):
            yield (p, *rest)


def enumerate_colored_compositions(n: int, r: int) -> list[ColoredComposition]:
    """All r(r+1)^(n-1) colored compositions of n, ordered lexicographically
    by (extended color vector, part sequence)."""
    return [ColoredComposition(*pair, r) for pair in _raw_colored_composition_list(n, r)]


def _raw_colored_composition_list(n: int, r: int) -> list:
    """The (parts, colors) pairs of ``enumerate_colored_compositions(n, r)``,
    in its order; n and r below 1 raise its errors."""
    if r < 1:
        raise ValueError("r must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    return sorted(_raw_colored_compositions(n, r), key=lambda p: (_raw_extended_colors(*p), p[0]))


def _raw_colored_compositions(n: int, r: int):
    """The pairs of ``_raw_colored_composition_list(n, r)``, lazily and in
    no promised order: every coloring of every composition."""
    for parts in _raw_compositions(n):
        for colors in product(range(r), repeat=len(parts)):
            yield parts, colors


def composition_coarsenings(a: Composition) -> list[Composition]:
    """All compositions below ``a`` in reverse refinement (adjacent merges),
    including ``a`` itself: the r = 1 slice of ``coarsenings``."""
    one_color = ColoredComposition(a.parts, (0,) * len(a.parts), 1)
    return [Composition(beta.parts) for beta in coarsenings(one_color)]


def coarsenings(ce: ColoredComposition) -> list[ColoredComposition]:
    """All colored compositions below ``ce`` in reverse refinement, in the
    order of ``_raw_coarsenings``."""
    return [
        ColoredComposition(parts, colors, ce.r)
        for parts, colors in _raw_coarsenings(ce.parts, ce.colors)
    ]


def _raw_coarsenings(parts, colors):
    """The (parts, colors) pairs of ``coarsenings``: each boundary between
    adjacent parts of equal color is merged or kept, and each choice is
    built in one pass over the parts."""
    optional = [i for i in range(1, len(parts)) if colors[i - 1] == colors[i]]
    for merges in product((False, True), repeat=len(optional)):
        merged = {i for i, merge in zip(optional, merges) if merge}
        out_parts, out_colors = [parts[0]], [colors[0]]
        for i in range(1, len(parts)):
            if i in merged:
                out_parts[-1] += parts[i]
            else:
                out_parts.append(parts[i])
                out_colors.append(colors[i])
        yield tuple(out_parts), tuple(out_colors)


def coarsening_covers(ce: ColoredComposition) -> list[ColoredComposition]:
    """Elements covered by ``ce``: one adjacent equal-colored pair merged."""
    out = []
    for i in range(len(ce.parts) - 1):
        if ce.colors[i] == ce.colors[i + 1]:
            parts = (
                ce.parts[:i] + (ce.parts[i] + ce.parts[i + 1],) + ce.parts[i + 2 :]
            )
            colors = ce.colors[:i] + ce.colors[i + 1 :]
            out.append(ColoredComposition(parts, colors, ce.r))
    return out


def _raw_text(values, colors) -> str:
    """The caret text form ``"v^c,..."`` of values with their colors: the
    ``text()`` of a colored composition (its parts) and of a colored
    permutation (its word), and the form the parsers read."""
    return ",".join(map("{}^{}".format, values, colors))


def _parse_tokens(text: str) -> list[tuple[int, int]]:
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ParseError("empty input")
    pairs = []
    for token in compact.split(","):
        m = _TOKEN_RE.match(token)
        if m is None:
            raise ParseError(f"cannot parse token {token!r}")
        value = int(m.group(1))
        color = int(m.group(2)) if m.group(2) is not None else 0
        pairs.append((value, color))
    return pairs


def parse_colored_composition(text: str, r: int | None = None) -> ColoredComposition:
    """Parse the caret form ``"2^0,2^1,1^1"`` (color defaults to 0).

    When ``r`` is omitted it is taken as one more than the largest color.
    """
    pairs = _parse_tokens(text)
    parts = tuple(v for v, _ in pairs)
    colors = tuple(c for _, c in pairs)
    if r is None:
        r = max(colors) + 1
    try:
        return ColoredComposition(parts, colors, r)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

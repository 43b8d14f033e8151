"""The symmetric group and the r-colored permutation group.

A colored permutation is a pair (word, colors): a permutation of [n] in
one-line notation plus a color in ``0..r-1`` per position.  The group law is
the wreath-product rule ``(pi, z) * (tau, w) = (pi tau, w + tau(z))`` with
``(pi tau)(i) = pi(tau(i))``, ``tau(z) = (z_{tau_1}, ..., z_{tau_n})`` and
coordinatewise addition mod r.

Descent statistics:

* ``colored_descent_set`` records the ending positions of maximal increasing
  runs of constant color, together with their colors (n always included).
  ``colored_descent_composition`` encodes it, and the classical
  ``descent_composition`` is its r = 1 slice (every color 0).
* ``steingrimsson_descent_set`` is the variant on [n] with color drops
  counted everywhere and position n present exactly when its color is > 0.

The verifiers enumerate the whole group only for statements about the
whole group (the insertion correspondence and the conjugate-inverse class
counts); descent classes are listed by ``bijections`` from standard
fillings.
"""

from __future__ import annotations

from itertools import permutations as _permutations
from itertools import product
from operator import index

from ._value import FrozenValue, set_field
from .compositions import (
    ColoredComposition,
    ColoredSet,
    Composition,
    _check_colors,
    _check_nonempty,
    _parse_tokens,
    _raw_set_to_comp,
    _raw_text,
)
from .errors import DimensionMismatchError, ParseError


class Permutation(FrozenValue):
    """Permutation of [n] in one-line notation."""

    def __init__(self, word: tuple[int, ...]):
        set_field(self, "word", tuple(map(index, word)))
        self.__post_init__()

    def __post_init__(self):
        if sorted(self.word) != list(range(1, len(self.word) + 1)):
            raise ValueError(f"not a permutation of [n]: {self.word!r}")

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"i must lie in 1..{self.n}, got {i}")
        return self.word[i - 1]

    def inverse(self) -> "Permutation":
        return Permutation(_raw_inverse(self.word))


class ColoredPermutation(FrozenValue):
    """Element (word, colors) of the r-colored permutation group."""

    def __init__(self, perm: Permutation, colors: tuple[int, ...], r: int):
        set_field(self, "perm", perm)
        set_field(self, "colors", tuple(map(index, colors)))
        set_field(self, "r", index(r))
        self.__post_init__()

    def __post_init__(self):
        if len(self.colors) != self.perm.n:
            raise ValueError("colors must have length n")
        _check_colors(self.colors, self.r, self.colors)

    @property
    def n(self) -> int:
        return self.perm.n

    @property
    def word(self) -> tuple[int, ...]:
        return self.perm.word

    def text(self) -> str:
        return _raw_text(self.word, self.colors)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "word": list(self.word),
            "colors": list(self.colors),
        }


def identity_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def identity_colored(n: int, r: int) -> ColoredPermutation:
    return ColoredPermutation(identity_permutation(n), (0,) * n, r)


def _check_same_group(a: ColoredPermutation, b: ColoredPermutation) -> None:
    if (a.n, a.r) != (b.n, b.r):
        raise DimensionMismatchError(
            f"cannot combine (n={a.n}, r={a.r}) with (n={b.n}, r={b.r})"
        )


def multiply(a: ColoredPermutation, b: ColoredPermutation) -> ColoredPermutation:
    """Wreath-product law: ``(pi, z)(tau, w) = (pi tau, w + tau(z))``."""
    _check_same_group(a, b)
    pi, z = a.word, a.colors
    tau, w = b.word, b.colors
    word = tuple(pi[t - 1] for t in tau)
    colors = tuple((wi + z[t - 1]) % a.r for wi, t in zip(w, tau))
    return ColoredPermutation(Permutation(word), colors, a.r)


def inverse(a: ColoredPermutation) -> ColoredPermutation:
    """Group inverse ``(pi^-1, -pi^-1(z))``."""
    inv = a.perm.inverse()
    colors = tuple((-a.colors[v - 1]) % a.r for v in inv.word)
    return ColoredPermutation(inv, colors, a.r)


def conjugate(a: ColoredPermutation) -> ColoredPermutation:
    """Color negation ``(pi, -z)``."""
    return ColoredPermutation(a.perm, tuple((-c) % a.r for c in a.colors), a.r)


def conj_inverse(a: ColoredPermutation) -> ColoredPermutation:
    """Conjugate-inverse ``(pi^-1, pi^-1(z))``; an involution on the group."""
    word, colors = _raw_conj_inverse(a.word, a.colors)
    return ColoredPermutation(Permutation(word), colors, a.r)


def _raw_inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(word)
    for i, v in enumerate(word, start=1):
        inv[v - 1] = i
    return tuple(inv)


def _raw_conj_inverse(word, colors) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``conj_inverse`` on a raw (word, colors) pair."""
    inv = _raw_inverse(word)
    return inv, tuple([colors[v - 1] for v in inv])


def descent_set(p: Permutation) -> frozenset[int]:
    """Positions i in [n-1] with ``p(i) > p(i+1)``."""
    w = p.word
    return frozenset(i for i in range(1, p.n) if w[i - 1] > w[i])


def descent_composition(p: Permutation) -> Composition:
    """Lengths of the maximal increasing runs of ``p``: the parts of the
    colored descent composition of ``p`` with every color 0."""
    _check_nonempty(p.n)
    return Composition(_raw_colored_descent_composition(p.word, (0,) * p.n)[0])


def colored_descent_set(a: ColoredPermutation) -> ColoredSet:
    """Ending positions of maximal increasing runs of constant color,
    each carrying the color of its run; n is always included."""
    _check_nonempty(a.n)
    return ColoredSet(a.n, a.r, _raw_colored_descent_set(a.word, a.colors))


def _raw_colored_descent_set(w, z) -> tuple[tuple[int, int], ...]:
    """The pairs of ``colored_descent_set`` of a raw (word, colors) pair."""
    n = len(w)
    pairs = [
        (i, z[i - 1])
        for i in range(1, n)
        if z[i - 1] != z[i] or w[i - 1] > w[i]
    ]
    pairs.append((n, z[n - 1]))
    return tuple(pairs)


def colored_descent_composition(a: ColoredPermutation) -> ColoredComposition:
    """Run lengths of maximal increasing constant-color runs with colors."""
    _check_nonempty(a.n)
    parts, colors = _raw_colored_descent_composition(a.word, a.colors)
    return ColoredComposition(parts, colors, a.r)


def _raw_colored_descent_composition(w, z) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(parts, colors) of ``colored_descent_composition`` of a raw (word,
    colors) pair: the encoding of its colored descent set."""
    return _raw_set_to_comp(_raw_colored_descent_set(w, z))


def steingrimsson_descent_set(a: ColoredPermutation) -> frozenset[int]:
    """Descents on [n]: color drops, or classical descents at equal colors,
    against the sentinel color 0 past position n."""
    w, z = a.word, a.colors
    out = set()
    for i in range(1, a.n):
        if z[i - 1] > z[i] or (z[i - 1] == z[i] and w[i - 1] > w[i]):
            out.add(i)
    if a.n and z[-1] > 0:
        out.add(a.n)
    return frozenset(out)


def enumerate_permutations(n: int):
    """All of S_n in lexicographic one-line order."""
    for word in _permutations(range(1, n + 1)):
        yield Permutation(word)


def enumerate_colored_permutations(n: int, r: int):
    """All n! * r^n colored permutations, lexicographic by (word, colors)."""
    for word, colors in _raw_group(n, r):
        yield ColoredPermutation(Permutation(word), colors, r)


def _raw_group(n: int, r: int):
    """The (word, colors) pairs of ``enumerate_colored_permutations``, in
    its order."""
    colorings = list(product(range(r), repeat=n))
    for word in _permutations(range(1, n + 1)):
        for colors in colorings:
            yield word, colors


def parse_colored_permutation(text: str, r: int | None = None) -> ColoredPermutation:
    """Parse window notation ``"2^0,3^0,7^1,..."`` (color defaults to 0)."""
    pairs = _parse_tokens(text)
    word = tuple(v for v, _ in pairs)
    colors = tuple(c for _, c in pairs)
    if r is None:
        r = max(colors) + 1
    try:
        return ColoredPermutation(Permutation(word), colors, r)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

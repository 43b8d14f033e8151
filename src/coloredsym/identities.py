"""Exhaustive verification of the classical and colored identities.

Every verifier sweeps a configurable (n, r) range, checks each case with
exact integer arithmetic, and returns a :class:`VerificationReport` whose
``cases_checked`` is compared against the a-priori cardinality of the case
set, so silently skipped cases are impossible.  Failure witnesses carry the
offending input and both sides of the identity (capped at 10 per report).
The class suites read each descent class from fillings and certify it by
counting; only ``rsk`` and the conjugate-inverse counts of the ribbon Schur
suites enumerate the group, as their statements are about all of it.  The
sweeps run on raw tuples from the private ``_raw_*`` cores of
``compositions``, ``shapes``, ``permutations``, ``bijections`` and
``symfun``, which the public functions wrap and validate.  A colored
composition is a (parts, colors) pair with r beside it, in the case lists,
the memo keys and the group pass, and a shape is its (outer, inner) row
bounds.  Objects are built only as the skew shapes ``skew-schur-f``
enumerates, for the paper-route oracle of the class sweep (one colored
composition and its shapes per case), and for witnesses.  Every raw filling a
sweep reads is checked standard by the rule ``StandardTableau`` reads,
``shapes._raw_cell_pairs``, and every raw colored zigzag by the block and
color rules of the zigzag constructors.  The group pass and ``rsk`` read
the colored descent sets of the group's elements from one generator,
``_group_keys``, as int keys.

Every suite runs in-process.  The ribbon and h elements are per-alphabet
symmetric, so ``colored-ribbon-h`` compares them in tensor coordinates
(one one-alphabet key per alphabet, see ``symfun``), and the Schur peel
peels each distinct one-alphabet factor of the ribbons once, in a memo
keyed by its blocks.  The colored F-sum is only
colored quasisymmetric, so ``colored-ribbon-schur`` compares it with the
packed ribbon, the quasi-shuffle of the same factors, which the sweep
keeps for one (n, r) cell only.  The two colored ribbon verifiers share
the memoized one-alphabet factors of each ribbon, the chain-counted Schur
elements of the components of its r-partite shape, so a double pass (as
in ``verify --identity all``) certifies mutual consistency of the
Schur-positivity identity and the alternating h-expansion.  The h side
multiplies the Schur elements of the rows in the kernel instead.
Three classical suites are r = 1 slices of colored ones, run through the
same sweeps: ``reading-word`` of ``class-tableau``, ``ribbon-schur`` of
``colored-ribbon-schur`` and ``ribbon-h`` of ``colored-ribbon-h``.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from itertools import accumulate, compress, product
from math import factorial
from operator import eq, gt, itemgetter

from ._poly_py import add_terms
from ._value import Value
from .bijections import (
    _raw_class_to_tableau,
    _raw_read_rows,
    _raw_rsk,
    _raw_rsk_inverse,
    descent_class_size,
)
from .compositions import (
    ColoredComposition,
    _raw_colored_composition_list,
    _raw_colored_compositions,
    _raw_compositions,
)
from .permutations import (
    ColoredPermutation,
    Permutation,
    _raw_colored_descent_composition,
    _raw_colored_descent_set,
    _raw_conj_inverse,
    _raw_group,
)
from .shapes import (
    _raw_colored_composition_shape,
    _raw_colored_zigzag,
    _raw_fillings,
    _raw_standard_test,
    _raw_rpartite_descent_composition,
    _raw_rpartite_descent_key,
    _raw_rpartite_descent_set,
    _raw_zigzag_test,
    colored_zigzag_of,
    enumerate_rpartite_partitions,
    enumerate_skew_shapes,
    hook_length_count,
    is_partition,
    rpartite_shape_of,
)
from .symfun import (
    _colored_F_terms,
    _colored_schur_terms,
    _h_factors,
    _peel_factors,
    _raw_ribbon_h_expansion,
    _raw_ribbon_schur_by_counting,
    _ribbon_blocks,
    _ribbon_factors,
    _schur_terms,
    _tensor,
)

MAX_WITNESSES = 10

SYMFUN_LEVEL_NOTE = (
    "characters are certified through their symmetric-function images only"
)


class VerificationReport(Value):
    """Outcome of one exhaustive identity sweep."""

    def __init__(
        self,
        identity: str,
        max_n: int,
        max_r: int | None,
        cases_checked: int,
        expected_cases: int,
        failure_count: int,
        failures: list[dict],
        wall_time: float,
        breakdown: dict[str, int] | None = None,
        note: str = "",
    ):
        self.identity = identity
        self.max_n = max_n
        self.max_r = max_r
        self.cases_checked = cases_checked
        self.expected_cases = expected_cases
        self.failure_count = failure_count
        self.failures = failures
        self.wall_time = wall_time
        self.breakdown = {} if breakdown is None else breakdown
        self.note = note

    @property
    def passed(self) -> bool:
        return self.failure_count == 0 and self.cases_checked == self.expected_cases

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "max_n": self.max_n,
            "max_r": self.max_r,
            "cases_checked": self.cases_checked,
            "expected_cases": self.expected_cases,
            "failure_count": self.failure_count,
            "failures": self.failures,
            "breakdown": self.breakdown,
            "passed": self.passed,
            "note": self.note,
        }

    def table(self) -> str:
        lines = [
            f"identity        : {self.identity}",
            f"range           : n <= {self.max_n}"
            + (f", r <= {self.max_r}" if self.max_r is not None else ""),
            f"cases checked   : {self.cases_checked} (expected {self.expected_cases})",
            f"failures        : {self.failure_count}",
            f"wall time       : {self.wall_time:.2f} s",
            f"verdict         : {'PASS' if self.passed else 'FAIL'}",
        ]
        if self.note:
            lines.append(f"note            : {self.note}")
        for witness in self.failures:
            lines.append(f"  witness: {witness}")
        return "\n".join(lines)


class _Builder:
    """Case counter and witness collector of one sweep.  A sweep without a
    color range (``max_r`` None) is the r = 1 slice, and its breakdown keys
    name only the size."""

    def __init__(self, identity, max_n, max_r, expected=None, note="", unit="n"):
        self.identity = identity
        self.max_n = max_n
        self.max_r = max_r
        self.expected = (
            _colored_comp_cases(max_n, max_r or 1) if expected is None else expected
        )
        self.note = note
        self.unit = unit
        self.counts: Counter = Counter()
        self.failure_count = 0
        self.failures: list[dict] = []
        self.t0 = time.perf_counter()

    def cells(self):
        """(n, r, the (parts, colors) pairs of the colored compositions of n
        with r colors, in public order) over the range, r = 1 only when
        there is no color range."""
        for n in range(1, self.max_n + 1):
            for r in range(1, (self.max_r or 1) + 1):
                yield n, r, _raw_colored_composition_list(n, r)

    def case(self, n: int, r: int = 1) -> None:
        """Count one case of (n, r); ``report`` names the cells."""
        self.counts[n, r] += 1

    def check(self, n: int, r: int, ce, witness: dict | None) -> None:
        """Count the case of the (parts, colors) pair ``ce`` of (n, r); a
        witness, which names ``ce`` first and is tagged with n and r, fails it."""
        self.case(n, r)
        if witness is not None:
            composition = ColoredComposition(*ce, r).to_json()
            self.fail({"composition": composition, **witness, "n": n, "r": r})

    def fail(self, witness: dict) -> None:
        self.failure_count += 1
        if len(self.failures) < MAX_WITNESSES:
            self.failures.append(witness)

    def report(self) -> VerificationReport:
        return VerificationReport(
            identity=self.identity,
            max_n=self.max_n,
            max_r=self.max_r,
            cases_checked=sum(self.counts.values()),
            expected_cases=self.expected,
            failure_count=self.failure_count,
            failures=self.failures,
            wall_time=time.perf_counter() - self.t0,
            breakdown={
                f"{self.unit}={n}" if self.max_r is None else f"{self.unit}={n},r={r}": count
                for (n, r), count in self.counts.items()
            },
            note=self.note,
        )


def _term_diff(lhs: dict, rhs: dict, limit: int = 5) -> list[dict]:
    """First few monomials on which two term maps disagree."""
    out = []
    for key in sorted(set(lhs) | set(rhs), reverse=True):
        a, b = lhs.get(key, 0), rhs.get(key, 0)
        if a != b:
            out.append({"exponents": list(key), "lhs": a, "rhs": b})
            if len(out) == limit:
                break
    return out


def _colored_comp_cases(max_n: int, max_r: int) -> int:
    return sum(
        r * (r + 1) ** (n - 1)
        for n in range(1, max_n + 1)
        for r in range(1, max_r + 1)
    )


def verify_skew_schur_f_expansion(max_n: int = 6) -> VerificationReport:
    """A skew Schur function equals the sum of fundamental quasisymmetric
    functions over the descent compositions of its standard fillings, for
    every skew shape of at most ``max_n`` cells.  Each distinct descent
    composition, read from the raw rows, adds its F once with its
    multiplicity.  Only the fillings that pass the standard test are
    counted, so a nonstandard one leaves its F out and fails the case."""
    shape_lists = {m: enumerate_skew_shapes(m) for m in range(1, max_n + 1)}
    expected = sum(len(v) for v in shape_lists.values())
    b = _Builder("skew-schur-f", max_n, None, expected, unit="cells")
    for m, shapes in shape_lists.items():
        for shape in shapes:
            b.case(m)
            # one shape's row bounds are its one block and its r = 1 bounds
            bounds = ((shape.outer, shape.inner),)
            lhs = _schur_terms(bounds)
            standard = _raw_standard_test(bounds)
            counts = Counter(
                map(_raw_rpartite_descent_composition, filter(standard, _raw_fillings(bounds)))
            )
            acc: dict[bytes, int] = {}
            for (parts, colors), mult in counts.items():
                add_terms(acc, _colored_F_terms(parts, colors, 1), mult)
            if lhs != acc:
                b.fail(
                    {
                        "cells": m,
                        "shape": shape.to_json(),
                        "diff": _term_diff(lhs, acc),
                    }
                )
    return b.report()


def verify_colored_zigzag_count(max_n: int = 7, max_r: int = 4) -> VerificationReport:
    """Colored compositions biject onto colored zigzag shapes, whose number
    is r(r+1)^(n-1).  Each (n, r) cell streams the raw colored compositions
    and keys each by its raw colored zigzag, which must pass
    ``_raw_zigzag_test``: a shape the constructors accept whose rows read
    back, block by block, as the composition.  A key is built and tested
    in full for every composition, but the work on one rainbow block, its
    zigzag and its rows, is memoized per block (``_raw_zigzag``,
    ``_raw_ribbon_rows``), as blocks repeat across compositions; both
    memos hold every block of the default range.  The keys must be distinct,
    as many as the compositions and the formula, and equal to the set of
    colored zigzag shapes generated from the definition.  Keys are not
    kept, so a cell holds one set of shapes: each key is ticked off a copy
    of the generated set, only keys outside the set are stored, and the
    distinct keys are the generated ones met plus those."""
    b = _Builder("zigzag-count", max_n, max_r)
    zigzags = {m: _zigzags(m) for m in range(1, max_n + 1)}
    for n in range(1, max_n + 1):
        for r in range(1, max_r + 1):
            generated = _generated_colored_zigzags(n, r, zigzags)
            unseen, strays = set(generated), set()
            count = rejected = 0
            for parts, colors in _raw_colored_compositions(n, r):
                b.case(n, r)
                key = _raw_colored_zigzag(parts, colors)
                rejected += not _raw_zigzag_test(key, parts, colors)
                count += 1
                if key in unseen:
                    unseen.remove(key)
                elif key not in generated:
                    strays.add(key)
            distinct = len(generated) - len(unseen) + len(strays)
            target = r * (r + 1) ** (n - 1)
            if not (rejected == 0 and distinct == count == target):
                b.fail(
                    {
                        "n": n,
                        "r": r,
                        "distinct_shapes": distinct,
                        "colored_compositions": count,
                        "formula": target,
                        "rejected_shapes": rejected,
                    }
                )
            if not (len(generated) == target and not unseen and not strays):
                b.fail(
                    {
                        "n": n,
                        "r": r,
                        "generated_shapes": len(generated),
                        "distinct_shapes": distinct,
                    }
                )
    return b.report()


def _zigzags(m: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(outer, inner) of every zigzag of m cells: the connected skew
    shapes with no 2x2 square, each shifted so that its bottom row starts
    at column 0, as ``zigzag_of`` places it."""
    out = []
    for shape in enumerate_skew_shapes(m):
        if shape.is_connected() and not shape.contains_2x2():
            shift = shape.inner[-1]
            out.append((
                tuple(o - shift for o in shape.outer),
                tuple(i - shift for i in shape.inner),
            ))
    return out


def _generated_colored_zigzags(n: int, r: int, zigzags: dict) -> set:
    """The diagram keys of the colored zigzag shapes of n cells with colors
    in 0..r-1, from the definition: a sequence of zigzags, ``zigzags[m]``
    those of m cells, one color each and adjacent colors distinct.  Each
    coloring is a first color and steps of 1..r-1 modulo r."""
    out = set()
    for sizes in _raw_compositions(n):
        colorings = [
            tuple(accumulate(steps, lambda a, b: (a + b) % r, initial=first))
            for first in range(r)
            for steps in product(range(1, r), repeat=len(sizes) - 1)
        ]
        for blocks in product(*(zigzags[m] for m in sizes)):
            out.update((blocks, colors) for colors in colorings)
    return out


def _class_tableau_sweep(identity, max_n, max_r) -> VerificationReport:
    b = _Builder(identity, max_n, max_r)
    for n, r, cell in b.cells():
        total = 0
        for target in cell:
            # the paper-route shape oracle takes the validated object
            ce = ColoredComposition(*target, r)
            bounds = tuple(
                (s.outer, s.inner) for s in rpartite_shape_of(colored_zigzag_of(ce), r)
            )
            standard = _raw_standard_test(bounds)
            keys, ok = [], _raw_colored_composition_shape(*target, r) == bounds
            for filling in _raw_fillings(bounds):
                member = _raw_read_rows(filling, *target)
                keys.append(member)
                ok = (
                    ok
                    and standard(filling)
                    and _raw_class_to_tableau(*member, r) == (target, filling)
                    and _raw_rpartite_descent_set(filling)
                    == _raw_colored_descent_set(*_raw_conj_inverse(*member))
                )
            class_size = len(set(keys))
            total += class_size
            passed = ok and class_size == len(keys) == descent_class_size(ce)
            b.check(n, r, target, None if passed else {
                "class_size": class_size,
                "filling_count": len(keys),
            })
        # descent classes partition the group, so distinct sets in the
        # classes of distinct compositions that sum to the group order are
        # those classes
        order = factorial(n) * r**n
        if len(set(cell)) != len(cell) or total != order:
            b.fail({"n": n, "r": r, "class_size_sum": total, "group_order": order,
                    "distinct_compositions": len(set(cell))})
    return b.report()


def verify_colored_class_tableau(max_n: int = 5, max_r: int = 3) -> VerificationReport:
    """Each colored descent class bijects with the standard fillings of its
    r-partite skew shape, transporting the colored descent set of the
    conjugate-inverse; hence both sDes distributions agree.  Each class is
    read from the fillings of the direct sum of its colored zigzag and
    certified by counting: ``descent_class_size`` distinct members, each
    mapped back to its filling and so to the class, and the class sizes of
    each (n, r) sum to the group order.  Fillings and members are compared
    as raw tuples, and each filling is checked standard.  The forward
    bijection maps a member to the shape of its colored descent
    composition, checked to be ``ce``, so its image shape is compared with
    the oracle once per class."""
    return _class_tableau_sweep("class-tableau", max_n, max_r)


def verify_reading_word_bijection(max_n: int = 6) -> VerificationReport:
    """The r = 1 slice of ``verify_colored_class_tableau``: reading words
    biject ribbon fillings with the descent class of the ribbon's
    composition, matching descents of fillings with descents of inverses;
    consequently descent sets are equidistributed over the inverse class
    and the fillings.  At r = 1 the row reading is the reading word and the
    r-partite shape is the ribbon."""
    return _class_tableau_sweep("reading-word", max_n, None)


def _group_keys(n: int, r: int):
    """(w, key, conj_inverse_key) for each element w of ``_raw_group(n,
    r)``, in its order: the colored descent sets of w and of its
    conjugate-inverse, each packed in one int.

    A colored descent set breaks where the colors differ or the word
    descends, so it is in bijection with (colors, descent mask &
    equal-color mask), packed as the coloring's index in
    ``product(range(r), repeat=n)`` above n mask bits
    (``shapes._raw_rpartite_descent_key`` packs a filling's set alike).
    Per word the pass computes its inverse, the descent masks of both and
    the index permutation of the conjugate-inverse colors, read from
    ``_raw_conj_inverse`` of the positions; per coloring it looks up the
    index and equal-color mask of the colors and of their permutation."""
    bits = [1 << i for i in range(n)]

    def mask(seq, rel) -> int:
        # bit i - 1 set for each i in 1..len(seq)-1 with rel(seq[i-1], seq[i])
        return sum(compress(bits, map(rel, seq, seq[1:])))

    colorings = product(range(r), repeat=n)
    # coloring -> (its index shifted above the mask bits, its equal-color mask)
    coded = {z: (i << n, mask(z, eq)) for i, z in enumerate(colorings)}
    positions = tuple(range(n))
    word = None
    for w in _raw_group(n, r):
        if w[0] is not word:
            word = w[0]
            inv, perm = _raw_conj_inverse(word, positions)
            des, inv_des = mask(word, gt), mask(inv, gt)
            # itemgetter of one index returns the item, not a 1-tuple
            permute = itemgetter(*perm) if n > 1 else tuple
        index, equal = coded[w[1]]
        inv_index, inv_equal = coded[permute(w[1])]
        yield w, index | (des & equal), inv_index | (inv_des & inv_equal)


def _conj_inverse_f_counters(n: int, r: int) -> dict[tuple, Counter]:
    """For each colored composition, the multiset of colored descent
    compositions over its conjugate-inverse descent class, as raw pairs.

    The group pass counts the pairs of ``_group_keys`` and decodes each
    distinct key once, by ``_raw_colored_descent_composition`` of an
    element with that key: the key's coloring, and the identity word with
    each maximal run of masked positions reversed, which descends at
    exactly those positions."""
    colorings = list(product(range(r), repeat=n))

    def decode(key: int) -> tuple:
        index, masked = divmod(key, 1 << n)
        word, start = [], 1
        for i in range(1, n + 1):
            if not masked >> (i - 1) & 1:
                word += range(i, start - 1, -1)
                start = i + 1
        return _raw_colored_descent_composition(tuple(word), colorings[index])

    # (key, conj_inverse_key) -> the number of elements with that pair
    counts = Counter(map(itemgetter(1, 2), _group_keys(n, r)))
    comp = {key: decode(key) for key in {key for pair in counts for key in pair}}
    out: dict[tuple, Counter] = defaultdict(Counter)
    for (key, conj_inverse_key), mult in counts.items():
        out[comp[conj_inverse_key]][comp[key]] = mult
    return out


def _ribbon_schur_case(parts, colors, r: int, counter: Counter, ribbons: dict) -> dict | None:
    # the F-sum is colored quasisymmetric, so it is compared with the packed
    # ribbon, kept in ``ribbons`` by the blocks of its r-partite shape,
    # which fix n and r; the peel multiplies the memoized expansions of the
    # ribbon's one-alphabet factors, the Schur elements of the same blocks
    blocks = _ribbon_blocks(parts, colors, r)
    ribbon = ribbons.get(blocks)
    if ribbon is None:
        ribbon = ribbons[blocks] = _colored_schur_terms(blocks)
    acc: dict[bytes, int] = {}
    for comp, mult in counter.items():
        add_terms(acc, _colored_F_terms(*comp, r), mult)
    if ribbon != acc:
        return {
            "reason": "generating function differs from ribbon element",
            "diff": _term_diff(ribbon, acc),
        }
    expansion = _peel_factors(blocks)
    if any(c <= 0 for c in expansion.coeffs.values()):
        return {"reason": "negative coefficient", "expansion": expansion.to_json()}
    counted = _raw_ribbon_schur_by_counting(parts, colors, r)
    if expansion.coeffs != counted.coeffs:
        return {
            "reason": "tableau counts differ from peeled coefficients",
            "expansion": expansion.to_json(),
            "counted": counted.to_json(),
        }
    return None


def _ribbon_schur_sweep(identity, max_n, max_r) -> VerificationReport:
    b = _Builder(identity, max_n, max_r)
    for n, r, cell in b.cells():
        counters, ribbons = _conj_inverse_f_counters(n, r), {}
        for ce in cell:
            b.check(n, r, ce, _ribbon_schur_case(*ce, r, counters.get(ce, Counter()), ribbons))
    return b.report()


def verify_colored_ribbon_schur(max_n: int = 5, max_r: int = 3) -> VerificationReport:
    """Three-way identity: the colored ribbon element equals the colored
    quasisymmetric generating function of the conjugate-inverse descent
    class, and its Schur expansion is nonnegative with coefficients counting
    r-partite standard fillings by colored descent composition."""
    return _ribbon_schur_sweep("colored-ribbon-schur", max_n, max_r)


def verify_ribbon_schur_positive(max_n: int = 6) -> VerificationReport:
    """The r = 1 slice of ``verify_colored_ribbon_schur``: the ribbon Schur
    polynomial equals the generating function of the inverse descent class
    and expands Schur-positively with coefficients counting standard
    fillings by descent composition."""
    return _ribbon_schur_sweep("ribbon-schur", max_n, None)


def _ribbon_h_case(parts, colors, r: int) -> dict | None:
    # both sides are per-alphabet symmetric of one multidegree, so they are
    # compared in tensor coordinates
    ribbon = _tensor(_ribbon_factors(parts, colors, r))
    acc: dict[bytes, int] = {}
    for index, coeff in _raw_ribbon_h_expansion(parts, colors, r).coeffs.items():
        add_terms(acc, _tensor(_h_factors(index)), coeff)
    if ribbon != acc:
        return {
            "reason": "alternating h-sum differs from ribbon element",
            "diff": _term_diff(ribbon, acc),
        }
    return None


def _ribbon_h_sweep(identity, max_n, max_r) -> VerificationReport:
    b = _Builder(identity, max_n, max_r, note=SYMFUN_LEVEL_NOTE)
    for n, r, cell in b.cells():
        for ce in cell:
            b.check(n, r, ce, _ribbon_h_case(*ce, r))
    return b.report()


def verify_colored_ribbon_h(max_n: int = 5, max_r: int = 3) -> VerificationReport:
    """The colored ribbon element is the alternating sum of colored complete
    homogeneous products over the coarsenings of its colored composition."""
    return _ribbon_h_sweep("colored-ribbon-h", max_n, max_r)


def verify_ribbon_h_alternating(max_n: int = 6) -> VerificationReport:
    """The r = 1 slice of ``verify_colored_ribbon_h``: the ribbon Schur
    polynomial is the alternating sum of complete homogeneous products over
    the coarsenings of its composition."""
    return _ribbon_h_sweep("ribbon-h", max_n, None)


def verify_colored_rsk(max_n: int = 4, max_r: int = 3) -> VerificationReport:
    """The insertion correspondence is a bijection onto equal-shape pairs of
    r-partite standard fillings, the recording side carries the colored
    descent set of the word and the insertion side that of its
    conjugate-inverse; shape counting squares to the group order.

    Per element: the insertion, the descent keys of the word and of its
    conjugate-inverse from ``_group_keys``, and the round trip.  Once per
    distinct tableau of an (n, r) cell, in a dict dropped with the cell
    (``_TableauChecks``): the standard test on the straight shapes of its
    own row lengths, and then its shape and its r-partite descent key.  An
    element passes only if P and Q pass that check with one shape, Q's key
    is the word's and P's key the conjugate-inverse's.

    The pairs are counted, not kept.  An element passes only if
    ``_raw_rsk_inverse(p, q)`` gives it back, and the inverse is a
    function, so two passing elements never share a pair.  The group
    stream is checked strictly increasing, its lexicographic order, so no
    element is met twice; a stream that repeated one element and dropped
    another would otherwise pass every per-element check."""
    b = _Builder(
        "rsk",
        max_n,
        max_r,
        sum(
            factorial(n) * r**n
            for n in range(1, max_n + 1)
            for r in range(1, max_r + 1)
        ),
    )
    for n in range(1, max_n + 1):
        for r in range(1, max_r + 1):
            distinct, previous, checks = 0, (), _TableauChecks()
            for w, key, conj_inverse_key in _group_keys(n, r):
                b.case(n, r)
                increasing, previous = w > previous, w
                p, q = _raw_rsk(*w, r)
                checked = checks[p]
                ok = (
                    increasing
                    and checked is not None
                    and checks[q] == (checked[0], key)
                    and checked[1] == conj_inverse_key
                    and _raw_rsk_inverse(p, q) == w
                )
                if not ok:
                    word = ColoredPermutation(Permutation(w[0]), w[1], r)
                    b.fail({"n": n, "r": r, "word": word.to_json()})
                    continue
                distinct += 1
            order = factorial(n) * r**n
            square_sum = 0
            for bll in enumerate_rpartite_partitions(n, r):
                count = _multinomial(n, tuple(sum(part) for part in bll))
                for part in bll:
                    count *= hook_length_count(part)
                square_sum += count * count
            if distinct != order or square_sum != order:
                b.fail(
                    {
                        "n": n,
                        "r": r,
                        "distinct_pairs": distinct,
                        "square_sum": square_sum,
                        "group_order": order,
                    }
                )
    return b.report()


class _TableauChecks(dict):
    """The check of each distinct tableau of one ``rsk`` cell, given as one
    tuple of row tuples per component and made when it is first met: None
    unless it is standard on the straight shapes of its own row lengths,
    else (those lengths, its ``_raw_rpartite_descent_key``)."""

    def __init__(self):
        super().__init__()
        self.standard_on: dict = {}

    def __missing__(self, tableau):
        shape = tuple(tuple(map(len, rows)) for rows in tableau)
        standard = self.standard_on.get(shape)
        if standard is None:
            standard = self.standard_on[shape] = _straight_standard_test(shape)
        check = self[tableau] = (
            (shape, _raw_rpartite_descent_key(tableau)) if standard(tableau) else None
        )
        return check


def _straight_standard_test(shape: tuple[tuple[int, ...], ...]):
    """``_raw_standard_test`` on the straight shapes with the row lengths
    of ``shape``, one tuple per component; no filling passes when some
    component's lengths are not a partition."""
    if not all(map(is_partition, shape)):
        return lambda filling: False
    return _raw_standard_test([(outer, (0,) * len(outer)) for outer in shape])


def _multinomial(n: int, sizes: tuple[int, ...]) -> int:
    out = factorial(n)
    for s in sizes:
        out //= factorial(s)
    return out


#: name -> (callable taking max_n, max_r; default range).  The lambdas look
#: the verifiers up as module globals at call time, so rebinding a verifier
#: in this module reaches the registry.
IDENTITY_REGISTRY = {
    "reading-word": (lambda max_n, max_r: verify_reading_word_bijection(max_n), (6, None)),
    "skew-schur-f": (lambda max_n, max_r: verify_skew_schur_f_expansion(max_n), (6, None)),
    "ribbon-schur": (lambda max_n, max_r: verify_ribbon_schur_positive(max_n), (6, None)),
    "ribbon-h": (lambda max_n, max_r: verify_ribbon_h_alternating(max_n), (6, None)),
    "zigzag-count": (lambda max_n, max_r: verify_colored_zigzag_count(max_n, max_r), (7, 4)),
    "class-tableau": (lambda max_n, max_r: verify_colored_class_tableau(max_n, max_r), (5, 3)),
    "colored-ribbon-schur": (lambda max_n, max_r: verify_colored_ribbon_schur(max_n, max_r), (5, 3)),
    "colored-ribbon-h": (lambda max_n, max_r: verify_colored_ribbon_h(max_n, max_r), (5, 3)),
    "rsk": (lambda max_n, max_r: verify_colored_rsk(max_n, max_r), (4, 3)),
}


def run_identity(
    name: str, max_n: int | None = None, max_r: int | None = None
) -> VerificationReport:
    """Run one registered identity at its default or overridden range.
    ``max_r`` applies only to the suites with a color range."""
    if name not in IDENTITY_REGISTRY:
        raise KeyError(f"unknown identity {name!r}")
    for label, value in (("max_n", max_n), ("max_r", max_r)):
        if value is not None and value < 1:
            raise ValueError(f"{label} must be at least 1, got {value}")
    fn, (default_n, default_r) = IDENTITY_REGISTRY[name]
    if max_r is not None and default_r is None:
        raise ValueError(f"{name} has no color range; max_r does not apply")
    return fn(
        max_n if max_n is not None else default_n,
        max_r if max_r is not None else default_r,
    )

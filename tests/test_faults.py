"""Planted faults: one table of faults in the cores the sweeps read, and one
test that runs every row.

A row patches each ``(module, name)`` it lists with ``fault(original)``,
runs one suite at one range, and asserts that every case was counted and
that the suite failed: with exactly ``count`` failures when given (0 for a
row that disables a check and expects a pass), with witnesses from exactly
the ``cells`` when given, and with every witness accepted by ``check``.
``given``, asserted once the patches are in, states what the fault changes;
the suites in ``passes`` must still pass under the same patches.  Every
memo is cleared before and after a row, so a fault planted under a memo
reaches only its own row.  A fault that no suite catches keeps its row as
a strict xfail that names the gap.
"""

from collections import Counter
from functools import cache
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

import pytest

import coloredsym
from coloredsym import (
    ColoredComposition,
    Expansion,
    SkewShape,
    _poly_py,
    bijections,
    colored_zigzag_of,
    enumerate_colored_compositions,
    identities,
    permutations,
    rpartite_shape_of,
    run_identity,
    shapes,
    symfun,
)

from memos import MEMOS, clear_memos

class Row(NamedTuple):
    suite: str
    max_n: int
    max_r: int | None
    patches: tuple
    count: object = None
    cells: set | None = None
    check: object = None
    passes: tuple = ()
    given: object = None


def row(id, suite, max_n, max_r, *patches, xfail=None, **expect):
    """One row of the table; ``count`` may be a function, called before
    the patches go in."""
    marks = [pytest.mark.xfail(strict=True, reason=xfail)] if xfail else []
    return pytest.param(Row(suite, max_n, max_r, patches, **expect), id=id, marks=marks)


# Fault factories: each takes the original and returns its replacement.


def _changed(hit, change, once=False):
    """The result of each call whose arguments ``hit`` accepts passed
    through ``change``; of the first such call only, when ``once``."""

    def fault(fn):
        pending = [True]

        def planted(*args):
            out = fn(*args)
            if pending and hit(*args):
                if once:
                    pending.pop()
                return change(out)
            return out

        return planted

    return fault


def _at(*target):
    """``hit`` of the calls with the arguments ``target``."""
    return lambda *args: args == target


def _always(*args):
    return True


def _replaced(replacement):
    return lambda fn: replacement


def _doubled(terms):
    return {k: 2 * c for k, c in terms.items()}


def _negated(terms):
    return {k: -c for k, c in terms.items()}


def _pair(ce):
    """The (parts, colors) pair of ``ce``, as the sweeps take it."""
    return ce.parts, ce.colors


def _bounds(shape_list):
    """The (outer, inner) row bounds of each shape, as the raw cores take
    them."""
    return tuple((s.outer, s.inner) for s in shape_list)


def _cell(witness):
    """The cell of a witness: its size for ``skew-schur-f``, else (n, r)."""
    return (witness["n"], witness["r"]) if "n" in witness else witness["cells"]


# The colored ribbon h suites: the h elements are linearly independent, so
# a change of factor 0 of some indices fails exactly the cases whose
# expansion uses one of them.


@cache
def _cases(max_n, rs, keep):
    """The JSON of each colored composition with n <= max_n and r in ``rs``
    that ``keep`` accepts."""
    return [
        ce.to_json()
        for n in range(1, max_n + 1)
        for r in rs
        for ce in enumerate_colored_compositions(n, r)
        if keep(ce)
    ]


def _with_h_index(target):
    return lambda ce: any(map(target, symfun.ribbon_h_expansion(ce).coeffs))


H_21 = _at(((2, 1),))
WITH_H_21 = _with_h_index(H_21)


def _two_parts_in_component_0(bll):
    return len(bll) >= 2 and len(bll[0]) == 2


WITH_TWO_PARTS_IN_COMPONENT_0 = _with_h_index(_two_parts_in_component_0)


# The r-partite shape, one pass, with the first column of each part after
# the first of its color planted.


def _planted_shape(parts, colors, r, start):
    """The row bounds of the one-pass r-partite shape of (parts, colors)
    with the first column of each part after the first of its color given
    by ``start(top, continues)``: ``top`` ends its component's top row, and
    ``continues`` says whether the part continues a color run (the correct
    start is then top - 1)."""
    outer = [[] for _ in range(r)]
    inner = [[] for _ in range(r)]
    previous = None
    for p, c in zip(parts, colors):
        rows = outer[c]
        first = start(rows[-1], c == previous) if rows else 0
        inner[c].append(first)
        rows.append(first + p)
        previous = c
    return tuple((tuple(o[::-1]), tuple(i[::-1])) for o, i in zip(outer, inner))


def _shape_with_shifted_direct_sums(parts, colors, r):
    """Every run after the first of its color started one column right of
    its component's top row."""
    return _planted_shape(
        parts, colors, r, lambda top, continues: top - 1 if continues else top + 1
    )


def _shape_with_broken_ribbons(parts, colors, r):
    """Every part that continues a color run started at the end of the row
    below, so the ribbon splits into a direct sum."""
    return _planted_shape(parts, colors, r, lambda top, continues: top)


def _with_a_run(ce):
    return any(a == b for a, b in zip(ce.colors, ce.colors[1:]))


# The class suites read every class from fillings and certify it by
# counting: each fault must fail the planted cell and no other.  Each
# planted class has the size of another class of its cell, (1^0, 2^1) and
# (1, 2), so a composition duplicated in its place leaves the size sum at
# the group order.

PLANTED_CE = ColoredComposition((2, 1), (0, 1), 2)
PLANTED_COMP = ColoredComposition((2, 1), (0, 0), 1)


def _first_long_row_reversed(filling):
    """A filling, one tuple of row tuples per component, with its first row
    of two or more entries reversed: the entries keep their rows, so the
    descent set is unchanged, but the row decreases."""
    done, out = False, []
    for rows in filling:
        new_rows = []
        for row_ in rows:
            if not done and len(row_) >= 2:
                row_, done = row_[::-1], True
            new_rows.append(row_)
        out.append(tuple(new_rows))
    assert done
    return tuple(out)


def _fillings_changed(bounds, change):
    """``_raw_fillings`` with the list of fillings of ``bounds`` passed
    through ``change``."""
    return _changed(_at(bounds), lambda out: change(list(out)))


def _nonstandard_first(fillings):
    return [_first_long_row_reversed(fillings[0]), *fillings[1:]]


def _class_rows(suite, max_n, max_r, planted, other, cells, ribbon_given=None):
    """The five class faults of ``suite``, planted at the class of
    ``planted``; ``other`` takes its place in the duplicated composition."""
    target = _bounds(rpartite_shape_of(colored_zigzag_of(planted), planted.r))

    def fillings(change):
        return identities, "_raw_fillings", _fillings_changed(target, change)

    return [
        # the last two letters of one member, values and colors, exchanged:
        # a member of another class
        row(f"wrong-member@{suite}", suite, max_n, max_r, (
            identities, "_raw_read_rows", _changed(
                lambda filling, parts, colors: (parts, colors) == _pair(planted),
                lambda m: (m[0][:-2] + m[0][:-3:-1], m[1][:-2] + m[1][:-3:-1]),
                once=True,
            ),
        ), cells=cells, count=1),
        row(f"duplicated-filling@{suite}", suite, max_n, max_r,
            fillings(lambda out: out + out[:1]), cells=cells, given=ribbon_given),
        row(f"dropped-filling@{suite}", suite, max_n, max_r,
            fillings(lambda out: out[1:]), cells=cells, given=ribbon_given),
        row(f"nonstandard-filling@{suite}", suite, max_n, max_r,
            fillings(_nonstandard_first),
            cells=cells, given=ribbon_given),
        row(f"duplicated-composition@{suite}", suite, max_n, max_r, (
            identities, "_raw_colored_composition_list", _changed(
                _at(planted.n, planted.r),
                lambda out: [_pair(other) if x == _pair(planted) else x for x in out],
            ),
        ), cells=cells, count=1,
            given=lambda: bijections.descent_class_size(other)
            == bijections.descent_class_size(planted)),
    ]


@cache
def _shapes_with_a_descent_at_2():
    return [
        shape.to_json()
        for m in range(1, 5)
        for shape in shapes.enumerate_skew_shapes(m)
        if any(2 in shapes.tableau_descent_set(q) for q in shapes.enumerate_syt(shape))
    ]


def _missed_descent_at_2(filling):
    """The raw descent composition of ``filling`` without its descent at 2."""
    parts, colors = shapes._raw_rpartite_descent_composition(filling)
    if 2 in accumulate(parts[:-1]):
        k = list(accumulate(parts)).index(2)
        parts = parts[:k] + (parts[k] + parts[k + 1],) + parts[k + 2 :]
        colors = colors[:k] + colors[k + 1 :]
    return parts, colors


def _column_pairs(change):
    """The shared tableau rule ``shapes._raw_cell_pairs`` with each column
    pair (tagged with its lower cell) passed through ``change``, which
    returns the pairs to keep in its place."""

    def fault(cell_pairs):
        def planted(outer, inner, start=0):
            return [
                new
                for pair in cell_pairs(outer, inner, start)
                for new in (change(pair) if isinstance(pair[2], tuple) else (pair,))
            ]

        return planted

    return fault


DECREASING_COLUMN = ((1, 1), (0, 0)), ((2,), (1,))


# Faults in the insertion sweep.


def _rows_reversed(p):
    return tuple(tuple(r[::-1] for r in rows) for rows in p)


def _swapped_column(p):
    """The two top entries of the first column of each component swapped."""
    out = []
    for rows in p:
        if len(rows) >= 2:
            rows = ((rows[1][0], *rows[0][1:]), (rows[0][0], *rows[1][1:]), *rows[2:])
        out.append(rows)
    return tuple(out)


def _insertion_through(change):
    """The patches of an insertion whose P goes through ``change`` and
    whose inverse undoes it first, for an involution ``change``: shapes,
    descent sets and the round trip all hold."""
    return (
        (identities, "_raw_rsk", lambda rsk: lambda word, colors, r: (
            lambda p, q: (change(p), q)
        )(*rsk(word, colors, r))),
        (identities, "_raw_rsk_inverse", lambda inverse: lambda p, q: inverse(change(p), q)),
    )


def _elements_where(changed):
    """The number of elements w of each cell with n <= 3, r <= 2 for which
    ``changed(w, r)`` holds."""
    return {
        (n, r): sum(changed(w, r) for w in permutations._raw_group(n, r))
        for n in range(1, 4)
        for r in (1, 2)
    }


def _failures_per_element(changed):
    """One witness per element where ``changed`` holds, and one
    distinct-pair count per cell that has such elements."""
    counts = _elements_where(changed).values()
    return sum(counts) + sum(map(bool, counts))


def _has_a_long_row(p):
    return any(len(x) >= 2 for rows in p for x in rows)


def _one_row_in_component_1(filling):
    return tuple(
        (tuple(sorted(x for row_ in rows for x in row_)),) if j == 1 and rows else rows
        for j, rows in enumerate(filling)
    )


def _key_changed_by_one_row(w, r):
    key = shapes._raw_rpartite_descent_key
    return any(key(_one_row_in_component_1(t)) != key(t) for t in bijections._raw_rsk(*w, r))


@cache
def _two_words_with_one_key():
    """The first two elements of n = 3, r = 2 that agree on the colored
    descent sets of the word and of its conjugate-inverse."""
    group = list(permutations._raw_group(3, 2))
    key = {
        w: (permutations._raw_colored_descent_set(*w),
            permutations._raw_colored_descent_set(*permutations._raw_conj_inverse(*w)))
        for w in group
    }
    return next((a, b) for i, a in enumerate(group) for b in group[i + 1:] if key[a] == key[b])


def _one_pair_for_two_words(rsk):
    def planted(word, colors, r):
        first, second = _two_words_with_one_key()
        if (word, colors) == second:
            word, colors = first
        return rsk(word, colors, r)

    return planted


def _word_or_cell(element, distinct_pairs):
    """``check`` of an ``rsk`` report at n = 3, r = 2 whose element
    witnesses name ``element()`` and whose cell witnesses count
    ``distinct_pairs``."""
    return lambda w: (
        w["word"] == {"n": 3, "r": 2, "word": list(element()[0]), "colors": list(element()[1])}
        if "word" in w
        else w["distinct_pairs"] == distinct_pairs
    )


def _repeated_at(i, *cell):
    """The stream of ``cell`` with item i + 1 replaced by item i: one item
    met twice and its successor never."""

    def change(stream):
        items = list(stream)
        items[i + 1] = items[i]
        return iter(items)

    return _changed(_at(*cell), change)


def _keyed_by_shape(tableau_checks):
    """The tableau checks of a cell with the first tableau met of each
    shape answering for all of that shape."""

    def by_shape():
        check, first = tableau_checks(), {}

        def keyed(tableau):
            shape = tuple(tuple(map(len, rows)) for rows in tableau)
            if shape not in first:
                first[shape] = check(tableau)
            return first[shape]

        return keyed

    return by_shape


# Faults in zigzag-count.  The first three change the raw key of one
# colored composition, the first time it is met, so at its r = 2 cell
# only: each key fails the zigzag test, and lies outside the generated set.
# The fourth drops one shape from the set generated at one cell.
ZIGZAG_KEYS = {
    # the top row of the last block one cell longer: reads back as (2, 2)
    "wrong-left-inverse": (
        ColoredComposition((2, 1), (0, 1), 2),
        ((((2,), (0,)), ((2,), (0,))), (0, 1)),
    ),
    # the run (2, 1) of color 1 as two blocks of color 1
    "merged-color-run": (
        ColoredComposition((2, 1), (1, 1), 2),
        ((((2,), (0,)), ((1,), (0,))), (1, 1)),
    ),
    # the rows of the run (2, 2) of color 1 share two columns
    "non-ribbon-block": (
        ColoredComposition((2, 2), (1, 1), 2),
        ((((2, 2), (0, 0)),), (1,)),
    ),
}


def _zigzag_rows(fault, ce, key):
    patch = (identities, "_raw_colored_zigzag", _changed(
        lambda parts, colors: (parts, colors) == _pair(ce), lambda _: key, once=True
    ))
    given = lambda: shapes._raw_colored_zigzag(*_pair(ce)) != key  # noqa: E731
    cells = {(ce.n, ce.r)}
    return [
        # the key fails the zigzag test, and is not a generated shape
        row(f"{fault}@zigzag-count", "zigzag-count", 4, 3, patch, given=given,
            cells=cells, count=2, check=lambda w: "generated_shapes" in w or (
                w["rejected_shapes"] == 1
                and w["distinct_shapes"] == w["colored_compositions"] == w["formula"]
            )),
        # with the zigzag test accepting every key, the key count (distinct
        # keys, compositions and formula agree) passes the fault, so only
        # the onto check sees it
        row(f"{fault}@zigzag-count-without-the-zigzag-test", "zigzag-count", 4, 3, patch,
            (identities, "_raw_zigzag_test", _replaced(_always)), given=given,
            cells=cells, count=1, check=lambda w: "generated_shapes" in w),
    ]


MISSING_SHAPE = (identities, "_generated_colored_zigzags", _changed(
    lambda n, r, zigzags: (n, r) == (3, 2), lambda out: set(sorted(out)[1:])
))


def _changed_memo_entry(peeled):
    """One coefficient of the memoized expansion of a factor of (2^0, 1^1)
    raised in the memo itself: the product of the peels reads the memo and
    never writes it, so every case with that factor reads the change."""
    expansion = peeled(symfun._ribbon_blocks((2, 1), (0, 1), 2)[0])
    expansion[next(iter(expansion))] += 1
    return peeled


def _reason(text):
    return lambda w: w["reason"] == text


COUNTS_DIFFER = _reason("tableau counts differ from peeled coefficients")
SUM_DIFFERS = _reason("generating function differs from ribbon element")
H_SUM_DIFFERS = _reason("alternating h-sum differs from ribbon element")


ROWS = [
    row("doubled-fundamental@ribbon-schur", "ribbon-schur", 3, None,
        (identities, "_colored_F_terms", _changed(_at((1, 2), (0, 0), 1), _doubled))),
    row("doubled-h-factor@ribbon-h", "ribbon-h", 3, None,
        (identities, "_h_factors", _changed(H_21, lambda f: (_doubled(f[0]), *f[1:]))),
        count=3, given=lambda: len(_cases(3, (1,), WITH_H_21)) == 3,
        check=lambda w: w["composition"] in _cases(3, (1,), WITH_H_21) and w["n"] == 3),
    # the h side negated on every index of r >= 2 colors whose component 0
    # has two parts
    row("negated-h-factor@colored-ribbon-h", "colored-ribbon-h", 4, 2,
        (identities, "_h_factors",
         _changed(_two_parts_in_component_0, lambda f: (_negated(f[0]), *f[1:]))),
        count=lambda: len(_cases(4, (1, 2), WITH_TWO_PARTS_IN_COMPONENT_0)),
        given=lambda: _cases(4, (1, 2), WITH_TWO_PARTS_IN_COMPONENT_0),
        check=lambda w: w["r"] == 2
        and w["composition"] in _cases(4, (1, 2), WITH_TWO_PARTS_IN_COMPONENT_0)),
    row("dropped-h-term@ribbon-h", "ribbon-h", 3, None,
        (identities, "_raw_ribbon_h_expansion",
         _changed(_at((1, 2), (0, 0), 1), lambda e: Expansion(
             e.basis, e.n, e.r, dict(e.sorted_items()[1:])
         ))),
        count=1),
    # planted where the bijection's class listing builds the one-pass shape
    # and where the suite compares it with the shape oracle, once per
    # class, so only that oracle, the direct sum of the colored zigzags,
    # sees it
    row("shifted-direct-sum@class-tableau", "class-tableau", 3, 2,
        *((module, "_raw_colored_composition_shape", _replaced(_shape_with_shifted_direct_sums))
          for module in (bijections, identities)),
        cells={(3, 2)},
        given=lambda: _shape_with_shifted_direct_sums((1, 1, 1), (0, 1, 0), 2)
        != shapes._raw_colored_composition_shape((1, 1, 1), (0, 1, 0), 2)),
    # both suites build the ribbon's one-alphabet factors from symfun's
    # r-partite shape; they change exactly for the compositions with a
    # color run of two parts
    *(row(f"broken-ribbon@{suite}", suite, 3, 2,
          (symfun, "_raw_colored_composition_shape", _replaced(_shape_with_broken_ribbons)),
          count=lambda: len(_cases(3, (1, 2), _with_a_run)),
          check=lambda w: w["composition"] in _cases(3, (1, 2), _with_a_run),
          given=lambda: _shape_with_broken_ribbons((1, 1), (0, 0), 1)
          != shapes._raw_colored_composition_shape((1, 1), (0, 0), 1))
      for suite in ("colored-ribbon-schur", "colored-ribbon-h")),
    *_class_rows("class-tableau", 4, 2, PLANTED_CE,
                 ColoredComposition((1, 2), (0, 1), 2), {(3, 2)}),
    # reading-word is the r = 1 slice of class-tableau: the same faults at
    # the same points, planted at the class of (2, 1) with one color, whose
    # r-partite shape is its ribbon
    *_class_rows("reading-word", 5, None, PLANTED_COMP,
                 ColoredComposition((1, 2), (0, 0), 1), {(3, 1)},
                 ribbon_given=lambda: rpartite_shape_of(colored_zigzag_of(PLANTED_COMP), 1)
                 == (shapes.zigzag_of(coloredsym.Composition(PLANTED_COMP.parts)).shape,)),
    # the filling count of each class must equal its counted size
    *(row(f"class-size-plus-one@{suite}", suite, max_n, max_r,
          (identities, "descent_class_size",
           lambda size, planted=planted: lambda ce: size(ce) + (ce == planted)),
          count=1, check=lambda w, planted=planted: w["composition"] == planted.to_json())
      for suite, max_n, max_r, planted in (
          ("class-tableau", 4, 2, PLANTED_CE), ("reading-word", 4, None, PLANTED_COMP))),
    # fundamentals are linearly independent, so exactly the shapes with a
    # filling that has a descent at 2 fail
    row("missed-descent@skew-schur-f", "skew-schur-f", 4, None,
        (identities, "_raw_rpartite_descent_composition", _replaced(_missed_descent_at_2)),
        count=lambda: len(_shapes_with_a_descent_at_2()), cells={3, 4},
        check=lambda w: w["shape"] in _shapes_with_a_descent_at_2()),
    # a conjugate-inverse that keeps the colors in place is right at r = 1
    row("unpermuted-conj-inverse-colors@colored-ribbon-schur", "colored-ribbon-schur", 4, 2,
        (identities, "_raw_conj_inverse",
         _replaced(lambda word, colors: (permutations._raw_inverse(word), colors))),
        check=lambda w: w["r"] == 2, passes=(("ribbon-schur", 5, None),)),
    # a reversed row keeps every entry in its row, so its descent
    # composition is unchanged: only the standard test of the raw fillings
    # sees the fault, and the F it keeps out of the sum fails the shape
    row("nonstandard-filling@skew-schur-f", "skew-schur-f", 5, None,
        (identities, "_raw_fillings",
         _fillings_changed(_bounds((SkewShape((3, 2), (1,)),)), _nonstandard_first)),
        count=1, check=lambda w: w["shape"] == SkewShape((3, 2), (1,)).to_json()),
    # read upside down, the column rule accepts the decreasing column in
    # the constructor and refuses every standard filling with a column in
    # the sweep: the classes of the compositions whose shape has one fail
    row("upside-down-column-pairs@class-tableau", "class-tableau", 2, 2,
        (shapes, "_raw_cell_pairs", _column_pairs(lambda pair: ((pair[1], pair[0], pair[2]),))),
        given=lambda: shapes.StandardTableau(
            SkewShape(*DECREASING_COLUMN[0]), DECREASING_COLUMN[1]
        ).rows == DECREASING_COLUMN[1],
        count=3,
        check=lambda w: (
            w["n"], w["r"], tuple(w["composition"]["parts"]), tuple(w["composition"]["colors"])
        ) in {(2, 1, (1, 1), (0, 0)), (2, 2, (1, 1), (0, 0)), (2, 2, (1, 1), (1, 1))}),
    # P with every row reversed, and the inverse undoing that first:
    # shapes, descent sets and the round trip all hold, and P is not
    # standard wherever it has a row of two entries
    row("reversed-insertion-rows@rsk", "rsk", 3, 2, *_insertion_through(_rows_reversed),
        count=lambda: _failures_per_element(
            lambda w, r: _has_a_long_row(bijections._raw_rsk(*w, r)[0])
        ), cells={(2, 1), (2, 2), (3, 1)}),
    # the fault above is seen by the standardness check alone
    row("reversed-insertion-rows@rsk-without-the-standard-test", "rsk", 3, 2,
        *_insertion_through(_rows_reversed),
        (identities, "_raw_standard_test", _replaced(lambda bounds: _always)), count=0),
    row("swapped-column@rsk", "rsk", 3, 2, *_insertion_through(_swapped_column),
        cells={(2, 1), (2, 2), (3, 1)}),
    # the second word gets the pair of the first; the two agree on both
    # colored descent sets, so only the round trip sees it, and the cell's
    # count of distinct pairs falls by one
    row("two-words-to-one-pair@rsk", "rsk", 3, 2,
        (identities, "_raw_rsk", _one_pair_for_two_words),
        count=2, cells={(3, 2)},
        check=_word_or_cell(lambda: _two_words_with_one_key()[1], 47)),
    # every element the stream yields passes its own checks and the case
    # count holds
    row("repeat-in-the-group-stream@rsk", "rsk", 3, 2,
        (identities, "_raw_group", _repeated_at(9, 3, 2)),
        count=2, cells={(3, 2)},
        check=_word_or_cell(lambda: list(permutations._raw_group(3, 2))[9], 47)),
    # component 1 read as one row loses its descents from the tableau-side
    # key; the ribbon Schur pass reads only word-side keys
    row("one-row-key-in-component-1@rsk", "rsk", 3, 2,
        (identities, "_raw_rpartite_descent_key",
         lambda key: lambda filling: key(_one_row_in_component_1(filling))),
        count=lambda: _failures_per_element(_key_changed_by_one_row), cells={(2, 2), (3, 2)},
        given=lambda: {c for c, k in _elements_where(_key_changed_by_one_row).items() if k}
        == {(2, 2), (3, 2)},
        passes=(("colored-ribbon-schur", 3, 2),)),
    # at n <= 2, r = 1 each shape has one standard filling
    row("tableau-checks-keyed-by-shape@rsk", "rsk", 3, 2,
        (identities, "_tableau_checks", _keyed_by_shape),
        cells={(2, 2), (3, 1), (3, 2)}, passes=(("rsk", 2, 1),)),
    # the inverse read as the word, the colors still permuted: the
    # conjugate-inverse key takes the word's descents, which differ from
    # the inverse's only off the involutions, so first at n = 3
    *(row(f"conj-inverse-word-mask@{suite}", suite, 3, 2,
          (identities, "_raw_conj_inverse", _replaced(
              lambda word, colors: (word, permutations._raw_conj_inverse(word, colors)[1])
          )),
          cells={(3, 1), (3, 2)})
      for suite in ("rsk", "colored-ribbon-schur")),
    *(r for fault, (ce, key) in ZIGZAG_KEYS.items() for r in _zigzag_rows(fault, ce, key)),
    row("missing-generated-shape@zigzag-count", "zigzag-count", 4, 3, MISSING_SHAPE,
        cells={(3, 2)}, count=1,
        check=lambda w: (w["generated_shapes"], w["distinct_shapes"]) == (17, 18)),
    row("missing-generated-shape@zigzag-count-without-the-zigzag-test", "zigzag-count", 4, 3,
        MISSING_SHAPE, (identities, "_raw_zigzag_test", _replaced(_always)),
        cells={(3, 2)}, count=1, check=lambda w: "generated_shapes" in w),
    row("changed-memoized-peel@colored-ribbon-schur", "colored-ribbon-schur", 3, 2,
        (symfun, "_peeled", _changed_memo_entry), check=COUNTS_DIFFER),
]


# Rows for the cores that no fault above reaches.


def _bumped(expansion):
    """``expansion`` with its first coefficient raised by one."""
    coeffs = dict(expansion.coeffs)
    first = min(coeffs)
    coeffs[first] += 1
    return Expansion(expansion.basis, expansion.n, expansion.r, coeffs)


def _without_the_first_pair(pairs):
    """A descent set, as (i, color) pairs, missing its first descent."""
    return pairs[1:] if len(pairs) > 1 else pairs


def _bumped_terms(terms):
    top = max(terms)
    return {**terms, top: terms[top] + 1}


def _product_without_its_top_term_at(hit):
    """``mul_terms`` dropping the top key of every product of two or more
    keys over r alphabets that ``hit(r)`` accepts."""

    def fault(mul):
        def planted(a, b, r=1):
            out = mul(a, b, r)
            if hit(r) and len(out) > 1:
                del out[max(out)]
            return out

        return planted

    return fault


def _conjugate(part):
    return tuple(sum(p > i for p in part) for i in range(part[0])) if part else part


ROWS += [
    row("class-rows-bottom-up@class-tableau", "class-tableau", 2, 1,
        (identities, "_raw_class_to_tableau", _changed(_always, lambda out: (
            out[0], tuple(rows[::-1] for rows in out[1])
        ))),
        count=1, cells={(2, 1)}),
    row("missed-word-descent@class-tableau", "class-tableau", 2, 2,
        (identities, "_raw_colored_descent_set", _changed(_always, _without_the_first_pair)),
        count=5, cells={(2, 1), (2, 2)}),
    row("missed-tableau-descent@class-tableau", "class-tableau", 2, 2,
        (identities, "_raw_rpartite_descent_set", _changed(_always, _without_the_first_pair)),
        count=5, cells={(2, 1), (2, 2)}),
    row("repeat-in-the-composition-stream@zigzag-count", "zigzag-count", 2, 2,
        (identities, "_raw_colored_compositions", _repeated_at(0, 2, 2)),
        count=2, cells={(2, 2)}),
    row("dropped-composition@zigzag-count", "zigzag-count", 3, 1,
        (identities, "_raw_compositions", _changed(_at(3), lambda out: list(out)[:-1])),
        count=1, cells={(3, 1)}, check=lambda w: "generated_shapes" in w),
    row("dropped-zigzag@zigzag-count", "zigzag-count", 2, 1,
        (identities, "_zigzags", _changed(_at(2), lambda out: out[1:])),
        count=1, cells={(2, 1)}, check=lambda w: "generated_shapes" in w),
    row("zigzag-rows-top-down@zigzag-count", "zigzag-count", 3, 1,
        (shapes, "_raw_zigzag", _changed(_always, lambda out: (out[0][::-1], out[1][::-1]))),
        count=2, cells={(3, 1)}),
    row("ribbon-rows-top-down@zigzag-count", "zigzag-count", 3, 1,
        (shapes, "_raw_ribbon_rows", _changed(_always, lambda rows: rows[::-1])),
        count=1, cells={(3, 1)}),
    row("reversed-zigzags@class-tableau", "class-tableau", 3, 1,
        (identities, "colored_zigzag_of", lambda zigzag: lambda ce: zigzag(
            ColoredComposition(ce.parts[::-1], ce.colors[::-1], ce.r)
        )),
        count=2, cells={(3, 1)}),
    row("shifted-oracle-shape@class-tableau", "class-tableau", 1, 1,
        (identities, "rpartite_shape_of", _changed(_always, lambda out: tuple(
            SkewShape(tuple(x + 1 for x in s.outer), tuple(x + 1 for x in s.inner)) for s in out
        ))),
        count=1, cells={(1, 1)}),
    # the cases are the swept shapes, so only the count of each size sees
    # a dropped one
    row("dropped-disconnected-shape@skew-schur-f", "skew-schur-f", 2, None,
        (identities, "enumerate_skew_shapes", _changed(_at(2), lambda out: [
            s for s in out if s.is_connected()
        ])),
        count=1, cells={2},
        check=lambda w: (w["swept_shapes"], w["distinct_shapes"], w["formula"]) == (2, 2, 3)),
    row("skew-shape-count-plus-one@skew-schur-f", "skew-schur-f", 3, None,
        (identities, "_skew_shape_count", lambda count: lambda m: count(m) + (m == 2)),
        count=1, cells={2}, check=lambda w: w["formula"] == 4),
    row("bumped-counted-coefficient@colored-ribbon-schur", "colored-ribbon-schur", 3, 2,
        (identities, "_raw_ribbon_schur_by_counting", _changed(_at((2, 1), (0, 1), 2), _bumped)),
        count=1, cells={(3, 2)}, check=COUNTS_DIFFER),
    row("negated-peel@ribbon-schur", "ribbon-schur", 2, None,
        (identities, "_peel_factors", _changed(_always, lambda e: Expansion(
            e.basis, e.n, e.r, _negated(e.coeffs)
        ))),
        count=3, cells={(1, 1), (2, 1)}, check=_reason("negative coefficient")),
    row("first-factor-only@colored-ribbon-h", "colored-ribbon-h", 2, 2,
        (identities, "_tensor", lambda tensor: lambda factors: tensor(factors[:1])),
        count=1, cells={(2, 2)}, check=H_SUM_DIFFERS),
    row("bumped-filling-count@skew-schur-f", "skew-schur-f", 3, None,
        (symfun, "_ssyt_terms", _changed(_at((2, 1), (0, 0)), _bumped_terms)),
        count=1, cells={3}, check=lambda w: w["shape"] == SkewShape((2, 1), ()).to_json()),
    row("doubled-schur-element@skew-schur-f", "skew-schur-f", 2, None,
        (identities, "_schur_terms", _changed(_at((((2,), (0,)),)), _doubled)),
        count=1, cells={2}, check=lambda w: w["shape"] == SkewShape((2,), ()).to_json()),
    row("dropped-product-term@ribbon-h", "ribbon-h", 2, None,
        (symfun, "mul_terms", _product_without_its_top_term_at(lambda r: r == 1)),
        count=1, cells={(2, 1)}, check=H_SUM_DIFFERS),
    row("dropped-product-term@colored-ribbon-schur", "colored-ribbon-schur", 2, 2,
        (symfun, "mul_terms", _product_without_its_top_term_at(lambda r: r > 1)),
        count=2, cells={(2, 2)}, check=SUM_DIFFERS, passes=(("colored-ribbon-h", 2, 2),)),
    row("dropped-quasi-shuffle@colored-ribbon-schur", "colored-ribbon-schur", 2, 2,
        (_poly_py, "_patterns", lambda patterns: lambda *args: patterns(*args)[:-1]),
        count=2, cells={(2, 2)}, check=SUM_DIFFERS),
    row("doubled-packed-ribbon@colored-ribbon-schur", "colored-ribbon-schur", 2, 2,
        (identities, "_colored_schur_terms", _changed(_always, _doubled)),
        count=11, cells={(1, 1), (1, 2), (2, 1), (2, 2)}, check=SUM_DIFFERS),
    row("swapped-ribbon-components@colored-ribbon-schur", "colored-ribbon-schur", 2, 2,
        (identities, "_ribbon_blocks", _changed(_always, lambda blocks: blocks[::-1])),
        count=6, cells={(1, 2), (2, 2)}),
    row("swapped-ribbon-factors@colored-ribbon-h", "colored-ribbon-h", 3, 2,
        (identities, "_ribbon_factors", _changed(_always, lambda factors: factors[::-1])),
        count=6, cells={(3, 2)}, check=H_SUM_DIFFERS),
    row("multiplicity-one@skew-schur-f", "skew-schur-f", 3, None,
        (identities, "add_terms", lambda add: lambda acc, other, coeff=1: add(
            acc, other, min(coeff, 1)
        )),
        count=1, cells={3}),
    row("unmasked-key-decoding@ribbon-schur", "ribbon-schur", 2, None,
        (identities, "_raw_colored_descent_composition",
         lambda composition: lambda word, colors: composition(tuple(sorted(word)), colors)),
        count=1, cells={(2, 1)}),
    row("doubled-class-counter@ribbon-schur", "ribbon-schur", 2, None,
        (identities, "_conj_inverse_f_counters", _changed(_always, lambda counters: {
            key: Counter({comp: 2 * m for comp, m in counter.items()})
            for key, counter in counters.items()
        })),
        count=3, cells={(1, 1), (2, 1)}),
    row("word-key-for-both@rsk", "rsk", 2, 2,
        (identities, "_group_keys", lambda keys: lambda n, r: (
            (w, key, key) for w, key, _ in keys(n, r)
        )),
        count=3, cells={(2, 2)}),
    row("hook-count-plus-one@rsk", "rsk", 3, 1,
        (identities, "hook_length_count", lambda hooks: lambda shape: hooks(shape) + (
            tuple(shape) == (2, 1)
        )),
        count=1, cells={(3, 1)}, check=lambda w: "square_sum" in w),
    row("dropped-rpartite-partition@rsk", "rsk", 2, 1,
        (identities, "enumerate_rpartite_partitions",
         _changed(_at(2, 1), lambda out: list(out)[1:])),
        count=1, cells={(2, 1)}, check=lambda w: "square_sum" in w),
    row("multinomial-plus-one@rsk", "rsk", 2, 2,
        (identities, "_multinomial", lambda multinomial: lambda n, sizes: (
            multinomial(n, sizes) + (sizes == (1, 1))
        )),
        count=1, cells={(2, 2)}, check=lambda w: "square_sum" in w),
    row("conjugate-standard-test@rsk", "rsk", 2, 1,
        (identities, "_straight_standard_test", lambda test: lambda shape: test(
            tuple(_conjugate(part) for part in shape)
        )),
        count=3, cells={(2, 1)}),
    row("two-rows-not-a-partition@rsk", "rsk", 2, 1,
        (identities, "is_partition", lambda is_partition: lambda parts: len(parts) < 2),
        count=2, cells={(2, 1)}),
    # one P row reversed, with no inverse to undo it
    row("reversed-p-row@rsk", "rsk", 2, 1,
        (identities, "_raw_rsk", lambda rsk: lambda word, colors, r: (
            lambda p, q: (_first_long_row_reversed(p) if _has_a_long_row(p) else p, q)
        )(*rsk(word, colors, r))),
        count=2, cells={(2, 1)}),
    # itemgetter of one index returns the item, not a 1-tuple, so the one
    # product whose pattern reads a single byte, a width-0 key times a
    # width-1 key at r = 1, loses its key
    row("one-index-getter@colored-ribbon-schur", "colored-ribbon-schur", 5, 3,
        (_poly_py, "_getter", _replaced(
            lambda indices: itemgetter(*indices) if indices else itemgetter(slice(0))
        )),
        xfail="no sweep multiplies by the unit: a product of width-0 and width-1 keys "
        "at r = 1 occurs only outside the suites, where test_kernels sees it"),
]


def _planted(monkeypatch, row_):
    """Run ``row_``: its suite's report, and the suites of ``passes`` that
    failed, with every memo cleared before and after."""
    clear_memos()
    try:
        for module, name, fault in row_.patches:
            monkeypatch.setattr(module, name, fault(getattr(module, name)))
        assert row_.given is None or row_.given()
        report = run_identity(row_.suite, row_.max_n, row_.max_r)
        broken = [p for p in row_.passes if not run_identity(*p).passed]
    finally:
        monkeypatch.undo()
        clear_memos()
    return report, broken


@pytest.mark.parametrize("row_", ROWS)
def test_planted_fault(monkeypatch, row_):
    count = row_.count() if callable(row_.count) else row_.count
    report, broken = _planted(monkeypatch, row_)
    assert report.cases_checked == report.expected_cases
    if count is None:
        assert report.failure_count > 0
    else:
        assert report.failure_count == count
    if row_.cells is not None:
        assert {_cell(w) for w in report.failures} == row_.cells
    if row_.check is not None:
        assert all(map(row_.check, report.failures))
    assert broken == []


def test_a_fault_planted_in_a_memo_leaves_with_its_row(monkeypatch):
    [row_] = [p.values[0] for p in ROWS if p.id == "changed-memoized-peel@colored-ribbon-schur"]
    assert not _planted(monkeypatch, row_)[0].passed
    assert run_identity(row_.suite, row_.max_n, row_.max_r).passed


#: What a sweep reads that no row patches, each with the reason.
EXEMPT = {
    "VerificationReport": "the report a row reads",
    "_Builder": "the case counter and witness list a row reads",
    "Value": "the report's base class",
    "ColoredComposition": "validated witness and paper-route oracle input",
    "ColoredPermutation": "validated witness",
    "Permutation": "validated witness",
    "_term_diff": "witness only",
    "_colored_comp_cases": "the a-priori case count, fixed by the golden reports",
    "_ribbon_schur_case": "the check itself, exercised by every ribbon Schur row",
    "_ribbon_h_case": "the check itself, exercised by every ribbon h row",
    "_class_tableau_sweep": "a sweep",
    "_ribbon_schur_sweep": "a sweep",
    "_ribbon_h_sweep": "a sweep",
    "run_identity": "the entry point every row calls",
}


def _reads():
    """What the sweeps read: every callable of the package that
    ``identities`` imports or defines, but the verifiers, every memo of the
    package and the kernels."""
    names = {
        name
        for name, obj in vars(identities).items()
        if callable(obj)
        and getattr(obj, "__module__", "").startswith("coloredsym")
        and not name.startswith("verify_")
    }
    return names | set(MEMOS) | {"mul_terms", "add_terms"}


def test_every_core_a_sweep_reads_has_a_row():
    # so a new fast path adds its rows to the table
    patched = {name for param in ROWS for _, name, _ in param.values[0].patches}
    reads = _reads()
    assert reads - patched - set(EXEMPT) == set()
    # an exemption names a core that is read and has no row
    assert set(EXEMPT) <= reads - patched

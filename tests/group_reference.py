"""The group filter that the descent-class suites replaced by counting, kept
as the reference: the whole group bucketed by a colored statistic.  The
conjugate-inverse counters of the ribbon Schur suites, which now run on raw
(word, colors) pairs, are kept here on validated group elements."""

from collections import Counter

from coloredsym import (
    colored_descent_composition,
    conj_inverse,
    enumerate_colored_permutations,
)

#: (n, r) cells where listed classes are compared with the filter.
CELLS = [(n, r) for n in range(1, 5) for r in (1, 2, 3)] + [(5, 1), (6, 1)]


def descent_class_table(n, r, statistic=colored_descent_composition):
    """statistic value -> the group elements with that value, in
    (word, colors) order."""
    table = {}
    for a in enumerate_colored_permutations(n, r):
        table.setdefault(statistic(a), []).append(a)
    return table


def conj_inverse_f_counters(n, r):
    """For each colored composition, the multiset of colored descent
    compositions over its conjugate-inverse descent class."""
    counters = {}
    for w in enumerate_colored_permutations(n, r):
        key = colored_descent_composition(conj_inverse(w))
        counters.setdefault(key, Counter())[colored_descent_composition(w)] += 1
    return counters

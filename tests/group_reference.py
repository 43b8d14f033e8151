"""The group filter that the descent-class suites replaced by counting, kept
as the reference: the whole group bucketed by a colored statistic."""

from coloredsym import colored_descent_composition, enumerate_colored_permutations

#: (n, r) cells where listed classes are compared with the filter.
CELLS = [(n, r) for n in range(1, 5) for r in (1, 2, 3)] + [(5, 1), (6, 1)]


def descent_class_table(n, r, statistic=colored_descent_composition):
    """statistic value -> the group elements with that value, in
    (word, colors) order."""
    table = {}
    for a in enumerate_colored_permutations(n, r):
        table.setdefault(statistic(a), []).append(a)
    return table

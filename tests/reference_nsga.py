"""Slow reference for the NSGA-II Pareto ranks, in plain Python.

This is the O(n²·d) dominated-count sort of Deb et al. (2002), kept as the
library had it before ``solver.nondominated_sort`` moved to a numpy
dominance matrix.  It imports no numpy; tests compare the fast sort
against it.
"""


def reference_nondominated_sort(points) -> list[int]:
    """Pareto rank (0 = non-dominated front) of each point, minimization.

    x dominates y iff x <= y in every coordinate and x < y in at least one.
    """
    n = len(points)
    if n == 0:
        return []
    dim = len(points[0])
    if any(len(p) != dim for p in points):
        raise ValueError("objective vectors have mismatched dimensions")
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    counts = [0] * n
    for a in range(n):
        pa = points[a]
        for b in range(a + 1, n):
            pb = points[b]
            a_le_b = all(x <= y for x, y in zip(pa, pb))
            b_le_a = all(y <= x for x, y in zip(pa, pb))
            if a_le_b and not b_le_a:
                dominated_by[a].append(b)
                counts[b] += 1
            elif b_le_a and not a_le_b:
                dominated_by[b].append(a)
                counts[a] += 1
    ranks = [0] * n
    front = [i for i in range(n) if counts[i] == 0]
    rank = 0
    while front:
        next_front = []
        for i in front:
            ranks[i] = rank
            for j in dominated_by[i]:
                counts[j] -= 1
                if counts[j] == 0:
                    next_front.append(j)
        front = next_front
        rank += 1
    return ranks

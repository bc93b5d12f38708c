"""Pareto-frontier extraction over minimization objectives.

Sort-based dominance filtering in O(n log n + n·|frontier|): points are
visited in lexicographic order of their objective vectors, where a
dominator always sorts strictly before what it dominates.  Dominance is
transitive, so a point is dominated by some point iff it is dominated
by a frontier point already found, and each point is compared only
against that frontier.  The answer is the same index set the all-pairs
definition gives, in input order.
"""

from __future__ import annotations

from operator import le, ne
from typing import List, Sequence


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and better
    somewhere (all objectives minimized)."""
    if len(a) != len(b):
        raise ValueError(f'objective vectors differ in length: '
                         f'{len(a)} vs {len(b)}')
    no_worse = all(x <= y for x, y in zip(a, b))
    better = any(x < y for x, y in zip(a, b))
    return no_worse and better


def pareto_frontier(objectives: Sequence[Sequence[float]]) -> List[int]:
    """Indices of the non-dominated points, in input order.

    Duplicate objective vectors are all kept (none dominates another),
    so the frontier is stable under reordering of equal points.  A
    vector holding a NaN compares false both ways, so it is kept and
    dominates nothing; it is set aside before the sort, where it would
    break the ordering the filter relies on.
    """
    vecs = [tuple(o) for o in objectives]
    for v in vecs[1:]:
        if len(v) != len(vecs[0]):
            raise ValueError(f'objective vectors differ in length: '
                             f'{len(v)} vs {len(vecs[0])}')
    keep: List[int] = []
    ordered: List[int] = []
    for i, v in enumerate(vecs):
        (keep if any(map(ne, v, v)) else ordered).append(i)
    ordered.sort(key=vecs.__getitem__)
    front: List[tuple] = []
    for i in ordered:
        v = vecs[i]
        for f in front:
            if all(map(le, f, v)) and f != v:
                break
        else:
            front.append(v)
            keep.append(i)
    keep.sort()
    return keep

"""Exact maximum matchings of trees and unicyclic graphs, by one rule.

A rooted tree is matched from its leaves up, each vertex to its parent
when both are unmatched.  That is maximum, and it leaves the root
unmatched exactly when the root is free: when the branch loses nothing
by it.  A cycle edge gains one exactly when both of its roots are free,
so on the cycle consecutive free roots pair up.  ``matching_number``
builds a witness so from ``graph.decompose_unicyclic``; the class walks
of ``enumeration`` count the same number from branch states alone, by
the carry of ``enumeration._steps``.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, decompose_unicyclic


class MatchingResult(NamedTuple):
    size: int
    edges: frozenset[tuple[int, int]]


def matching_number(g: Graph) -> MatchingResult:
    """Maximum matching of a tree or a connected unicyclic graph; any other
    graph raises ValueError.  Each parent array is matched from its end, so
    children go first.  The cycle walk starts at the first matched root, or
    at the last root when none is, and pairs consecutive unmatched roots.
    """
    trees = decompose_unicyclic(g)
    if trees is None:
        raise ValueError("expected a tree or a connected unicyclic graph")
    edges = []
    roots = []  # each cycle root, or None when its branch matches it
    for labels, parents in trees:
        taken = [False] * len(labels)
        for v in range(len(labels) - 1, 0, -1):
            p = parents[v]
            if not (taken[v] or taken[p]):
                taken[v] = taken[p] = True
                u, w = labels[v], labels[p]
                edges.append((u, w) if u < w else (w, u))
        roots.append(None if taken[0] else labels[0])
    k = len(roots)
    start = next((i for i, r in enumerate(roots) if r is None), k - 1)
    pending = None  # an unmatched root waiting for the next one
    for i in range(start, start + k):
        r = roots[i % k]
        if r is None or pending is None:
            pending = r
        else:
            edges.append((pending, r) if pending < r else (r, pending))
            pending = None
    return MatchingResult(len(edges), frozenset(edges))


def has_perfect_matching(g: Graph) -> bool:
    return g.n % 2 == 0 and matching_number(g).size * 2 == g.n

"""Exact maximum matchings for forests and unicyclic graphs.

Forests are solved by greedy leaf matching (match a leaf to its
neighbor, delete both), which is exact on trees.  A unicyclic graph
splits on one cycle edge e = xy: its matching number is
max(m(G - e), 1 + m(G - x - y)), and both subproblems are forests.
The split edge is the first one of the cycle that
``graph.decompose_unicyclic`` walks: the lowest cycle vertex x and the
lower y of its two cycle neighbours.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .graph import Graph, decompose_unicyclic


class MatchingResult(NamedTuple):
    size: int
    edges: frozenset[tuple[int, int]]
    saturated: tuple[bool, ...]


def _forest_matching(adj: dict[int, set[int]]) -> set[tuple[int, int]]:
    """Greedy leaf matching on a forest given as an adjacency dict, which
    it empties.

    Raises ValueError if the input contains a cycle.
    """
    matched: set[tuple[int, int]] = set()
    gone: set[int] = set()
    heap = [v for v, nb in adj.items() if len(nb) == 1]
    heapq.heapify(heap)
    while heap:
        u = heapq.heappop(heap)
        if u in gone or len(adj[u]) != 1:
            continue
        (v,) = adj[u]
        matched.add((u, v) if u < v else (v, u))
        for x in (u, v):
            gone.add(x)
            for y in adj[x]:
                if y not in gone:
                    adj[y].discard(x)
                    if len(adj[y]) == 1:
                        heapq.heappush(heap, y)
            adj[x] = set()
    if any(adj[v] for v in adj):
        raise ValueError("input is not a forest")
    return matched


def _result(g: Graph, edges: set[tuple[int, int]]) -> MatchingResult:
    sat = [False] * g.n
    for u, v in edges:
        sat[u] = True
        sat[v] = True
    return MatchingResult(len(edges), frozenset(edges), tuple(sat))


def matching_number(g: Graph) -> MatchingResult:
    """Maximum matching of a forest or a unicyclic graph."""
    if g.edge_count <= max(g.n - 1, 0):
        return _result(g, _forest_matching(g.adjacency_dict()))
    trees = decompose_unicyclic(g)
    if trees is None:
        raise ValueError("expected a forest or a unicyclic graph")
    x, y = trees[0][0][0], trees[1][0][0]
    without_edge = g.adjacency_dict()
    without_edge[x].discard(y)
    without_edge[y].discard(x)
    m1 = _forest_matching(without_edge)
    rest = {v: {w for w in nb if w not in (x, y)} for v, nb in enumerate(g.adjacency)}
    del rest[x], rest[y]
    m2 = _forest_matching(rest)
    if len(m1) < 1 + len(m2):
        m1 = m2 | {(x, y)}
    return _result(g, m1)


def has_perfect_matching(g: Graph) -> bool:
    return g.n % 2 == 0 and matching_number(g).size * 2 == g.n

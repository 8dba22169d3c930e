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
from enum import Enum
from typing import NamedTuple

from .graph import (
    Graph,
    decompose_unicyclic,
    is_connected,
    is_unicyclic,
    without_vertices,
)


class MatchingResult(NamedTuple):
    size: int
    edges: frozenset[tuple[int, int]]
    saturated: tuple[bool, ...]

    def edge_lines(self) -> list[str]:
        """The witness in the graph file format's edge syntax."""
        return [f"{u} {v}" for u, v in sorted(self.edges)]


class PerfectMatchingClass(Enum):
    """Structure classes of unicyclic graphs with a perfect matching."""

    CYCLE = "cycle"
    PENDANTS_ONLY = "pendants-on-cycle"
    HAS_PENDANT_P2 = "has-pendant-p2"


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


def matching_number_tree(g: Graph) -> MatchingResult:
    """Maximum matching of a tree by greedy leaf matching."""
    if g.edge_count != g.n - 1 or not is_connected(g):
        raise ValueError("expected a tree")
    return _result(g, _forest_matching(g.adjacency_dict()))


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


def _pendant_deletions(g: Graph, m: int):
    """The graph left by deleting each pendant whose deletion keeps the
    matching number m, lowest pendant first."""
    for u in range(g.n):
        if g.degree(u) == 1:
            rest = without_vertices(g, [u])
            if matching_number(rest).size == m:
                yield rest


def reduce_to_g0(g: Graph) -> tuple[Graph, int]:
    """Delete pendants that some maximum matching leaves unsaturated,
    until the order drops to twice the matching number.

    The matching number is preserved at every step, so the result has a
    perfect matching.  Cycles and graphs already of order 2m pass
    through unchanged.  When several pendants qualify the lowest vertex
    id goes first.
    """
    if not is_unicyclic(g):
        raise ValueError("expected a unicyclic graph")
    m = matching_number(g).size
    if g.n == 2 * m or all(g.degree(v) == 2 for v in range(g.n)):
        return g, 0
    g0 = g
    while g0.n > 2 * m:
        g0 = next(_pendant_deletions(g0, m), None)
        if g0 is None:
            raise RuntimeError("no deletable pendant found")
    return g0, g.n - 2 * m


def reduce_orders_diagnostic(g: Graph) -> tuple[Graph, ...]:
    """Explore every deletion order of the reduction and return the
    distinct end graphs (small inputs only; exponential by design)."""
    if not is_unicyclic(g):
        raise ValueError("expected a unicyclic graph")
    m = matching_number(g).size
    if g.n == 2 * m or all(g.degree(v) == 2 for v in range(g.n)):
        return (g,)
    from .enumeration import canonical_code

    results: dict[object, Graph] = {}

    def explore(h: Graph):
        if h.n == 2 * m:
            results[canonical_code(h)] = h
            return
        for rest in _pendant_deletions(h, m):
            explore(rest)

    explore(g)
    return tuple(results[c] for c in sorted(results))


def classify_2m_m(g: Graph) -> PerfectMatchingClass:
    """Classify a unicyclic graph with a perfect matching: the cycle,
    pendants-on-cycle (maximum degree three), or a pendant P2 present."""
    if not is_unicyclic(g):
        raise ValueError("expected a unicyclic graph")
    if not has_perfect_matching(g):
        raise ValueError("expected a graph with a perfect matching")
    degrees = [g.degree(v) for v in range(g.n)]
    if all(d == 2 for d in degrees):
        return PerfectMatchingClass.CYCLE
    for v in range(g.n):
        if degrees[v] == 1 and degrees[g.adjacency[v][0]] == 2:
            return PerfectMatchingClass.HAS_PENDANT_P2
    return PerfectMatchingClass.PENDANTS_ONLY


def unsaturated_pendant_deletion_keeps_size(g: Graph, pendant: int) -> bool:
    """True when deleting the pendant keeps the matching number."""
    if g.degree(pendant) != 1:
        raise ValueError(f"vertex {pendant} is not a pendant")
    before = matching_number(g).size
    after = matching_number(without_vertices(g, [pendant])).size
    return after == before

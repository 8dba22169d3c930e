"""Simple undirected labeled graphs with exact, deterministic operations.

Vertices are 0..n-1; edges are stored as (u, v) pairs with u < v.  All
operations are pure: they take Graph values and return new ones, so
instances can be shared freely.

A connected graph is its 2-core with a rooted branch tree on each core
vertex; the core of a tree is one vertex, that of a unicyclic graph its
cycle.  ``peel`` alone finds that structure, in one leaf-peeling pass
that also sums the branch sizes and the Wiener edge cuts: all that Kf
and W of a tree or a unicyclic graph read.  The vertex sums read its
order, parents and subtree sizes.  ``Peel.trees`` builds the branch
trees for the matrix and, through ``decompose_unicyclic`` in cycle
order, for the canonical codes and ``matching.matching_number``.
A tree or a unicyclic graph never builds ``Graph.adjacency``.
``without_vertices`` is the one delete-and-relabel.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from functools import cached_property
from operator import lt
from typing import Iterable, NamedTuple


class GraphParseError(ValueError):
    """Raised on malformed graph file text."""


class DisconnectedError(ValueError):
    """Raised when an operation requires a connected graph."""


class Graph:
    """n vertices and a frozenset of edges (u, v), 0 <= u < v < n.
    Immutable: equal and hashed as (n, edges)."""

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]):
        if n < 0:
            raise ValueError("negative vertex count")
        for u, v in edges:
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        fields = self.__dict__
        fields["n"] = n
        fields["edges"] = edges

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for a in adj:
            a.sort()
        return tuple(map(tuple, adj))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _natural(token: str) -> int | None:
    """The value of a token of ASCII digits, else None.  ``str.isdigit``
    alone also accepts characters such as '²' that ``int`` rejects, and
    ``int`` also rejects more digits than ``sys.get_int_max_str_digits()``."""
    if not (token.isascii() and token.isdigit()):
        return None
    try:
        return int(token)
    except ValueError:
        return None


# A vertex count line followed by edge lines "u v", each two runs of at
# most 18 ASCII digits (so that int() takes them) and one space: the text
# that write_graph emits, which read_graph parses in bulk.
_PLAIN_GRAPH = re.compile(r"[0-9]{1,18}(?:\n[0-9]{1,18} [0-9]{1,18})*\n?")


def read_graph(text: str) -> Graph:
    """Parse the graph file format.

    Lines starting with '#' are comments.  The first data line is the
    vertex count n; every following data line is "u v" with
    0 <= u < v < n, one edge per line.

    Text of the plain form that ``write_graph`` emits, with every edge
    in range, ordered and new, is read in bulk; any other text takes
    the line by line checks, which report its first error.
    """
    if _PLAIN_GRAPH.fullmatch(text):
        n, *ends = map(int, text.split())
        us, vs = ends[::2], ends[1::2]
        edges = frozenset(zip(us, vs))
        if len(edges) == len(us) and all(map(lt, us, vs)) and max(vs, default=-1) < n:
            return Graph(n, edges)
    return _read_graph_lines(text)


def _read_graph_lines(text: str) -> Graph:
    """``read_graph`` one line at a time, raising on the first bad line."""
    n = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if n is None:
            n = _natural(line)
            if n is None:
                raise GraphParseError(f"line {lineno}: expected vertex count, got {raw!r}")
            continue
        ends = [_natural(p) for p in line.split()]
        if len(ends) != 2 or None in ends:
            raise GraphParseError(f"line {lineno}: expected edge 'u v', got {raw!r}")
        u, v = ends
        if u == v:
            raise GraphParseError(f"line {lineno}: loop at vertex {u}")
        if not u < v:
            raise GraphParseError(f"line {lineno}: edge must satisfy u < v")
        if v >= n:
            raise GraphParseError(f"line {lineno}: endpoint {v} out of range for n={n}")
        if (u, v) in seen:
            raise GraphParseError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    if n is None:
        raise GraphParseError("empty graph file")
    return Graph(n, frozenset(edges))


def write_graph(g: Graph) -> str:
    """Emit the graph file format with edges in lexicographic order."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop counts from source; unreachable vertices are marked -1."""
    if not 0 <= source < g.n:
        raise ValueError(f"vertex {source} out of range")
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return all(d >= 0 for d in bfs_distances(g, 0))


def wiener_index(g: Graph) -> Fraction:
    """Sum of hop distances over unordered vertex pairs."""
    total = 0
    for u in range(g.n):
        dist = bfs_distances(g, u)
        for v in range(u + 1, g.n):
            if dist[v] < 0:
                raise DisconnectedError("Wiener index of a disconnected graph")
            total += dist[v]
    return Fraction(total)


class Peel(NamedTuple):
    """A connected graph as its 2-core, core (a cycle in cycle order), with
    sizes[i] vertices in the branch tree on core[i]; cuts sums sub (n - sub)
    over the branch edges, sub the vertices below the edge.  order lists the
    vertices off the core, children first, and parent gives their parents;
    sub[v] counts the vertices in v's subtree, v included, and is
    sizes[i] at v = core[i]."""

    core: list[int]
    sizes: list[int]
    cuts: int
    order: list[int]
    parent: list[int]
    sub: list[int]

    def trees(self) -> list[tuple[list[int], list[int]]]:
        """The branch tree on each core vertex as (labels, parents): its
        vertices, the core vertex first and each after its parent, and
        their parent positions, the root's -1."""
        trees = [([c], [-1]) for c in self.core]
        branch, pos = [0] * len(self.parent), [0] * len(self.parent)
        for i, c in enumerate(self.core):
            branch[c] = i
        for u in reversed(self.order):
            p = self.parent[u]
            labels, parents = trees[branch[p]]
            branch[u] = branch[p]
            pos[u] = len(labels)
            labels.append(u)
            parents.append(pos[p])
        return trees


def peel(g: Graph) -> Peel:
    """The ``Peel`` of a connected graph.  Raises ``DisconnectedError``.

    A vertex is peeled once at most one neighbour is left, its parent,
    which is the XOR of its neighbours not yet peeled.  So children go
    first: a vertex's subtree size is complete when it is peeled, and goes
    to its parent's, and its edge cut to the sum.  A tree peels completely
    and its last vertex is the root.  A core whose vertices all have two
    neighbours left is a cycle, walked from its lowest vertex toward the
    lower of its two neighbours, each next vertex the XOR of the current
    one without the previous one; any other is ordered depth first from
    its lowest vertex, lowest neighbour first, by ``adjacency``.  A second
    root, or a core the walk does not cover, is a second component.
    """
    n = g.n
    # fewer than n - 1 edges cannot connect n vertices; checking that first
    # keeps a huge vertex count from allocating anything of size n
    if g.edge_count < n - 1:
        raise DisconnectedError("expected a connected graph")
    left = [0] * n  # neighbours not yet peeled: at least 2 on the core
    xor = [0] * n  # the XOR of those neighbours
    for u, v in g.edges:
        left[u] += 1
        left[v] += 1
        xor[u] ^= v
        xor[v] ^= u
    parent = [-1] * n
    sub = [1] * n
    cuts = 0
    order = [v for v in range(n) if left[v] <= 1]
    for u in order:  # order grows while it is scanned
        if left[u]:
            w = parent[u] = xor[u]
            xor[w] ^= u
            left[w] -= 1
            s = sub[u]
            sub[w] += s
            cuts += s * (n - s)
            if left[w] == 1:
                order.append(w)
    if len(order) == n:
        core = [order.pop()] if n else []
    elif max(left) == 2:
        prev = first = left.index(2)
        # first is the lowest core vertex; cur, the first one above it joined to it
        cur = left.index(2, first + 1)
        while (first, cur) not in g.edges:
            cur = left.index(2, cur + 1)
        core = [first]
        while cur != first:
            core.append(cur)
            prev, cur = cur, xor[cur] ^ prev
    else:
        adj = g.adjacency
        core = []
        stack = [next(v for v in range(n) if left[v] >= 2)]
        while stack:
            c = stack.pop()
            if left[c] >= 2:
                left[c] = 0  # walked
                core.append(c)
                stack.extend(w for w in reversed(adj[c]) if left[w] >= 2)
    # a second root, or a core vertex the walk missed, has no parent either
    if parent.count(-1) > len(core):
        raise DisconnectedError("expected a connected graph")
    return Peel(core, [sub[c] for c in core], cuts, order, parent, sub)


def decompose_unicyclic(g: Graph) -> list[tuple[list[int], list[int]]] | None:
    """The ``Peel.trees`` of a tree or a connected unicyclic graph, in cycle
    order (a tree is one branch, k = 1); None for any other graph."""
    if g.n == 0 or g.edge_count not in (g.n - 1, g.n):
        return None
    try:
        return peel(g).trees()
    except DisconnectedError:
        return None


def identify_vertices(g: Graph, u: int, h: Graph, w: int) -> Graph:
    """Glue H onto G by identifying w in H with u in G.

    G keeps its labels; the remaining vertices of H are shifted onto
    |G|, |G|+1, ... in their original order, so the result is
    deterministic.
    """
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range in first graph")
    if not 0 <= w < h.n:
        raise ValueError(f"vertex {w} out of range in second graph")

    def remap(x: int) -> int:
        if x == w:
            return u
        return g.n + (x if x < w else x - 1)

    edges = set(g.edges)
    for a, b in h.edges:
        a2, b2 = remap(a), remap(b)
        edges.add((a2, b2) if a2 < b2 else (b2, a2))
    return Graph(g.n + h.n - 1, frozenset(edges))


def without_vertices(g: Graph, drop: Iterable[int]) -> Graph:
    """Induced subgraph after deleting vertices, relabeled order-preservingly."""
    dropped = set(drop)
    keep = [v for v in range(g.n) if v not in dropped]
    relabel = {v: i for i, v in enumerate(keep)}
    edges = frozenset(
        (relabel[u], relabel[v]) for u, v in g.edges if u not in dropped and v not in dropped
    )
    return Graph(len(keep), edges)

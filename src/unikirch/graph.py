"""Simple undirected labeled graphs with exact, deterministic operations.

Vertices are 0..n-1; edges are stored as (u, v) pairs with u < v.  All
operations are pure: they take Graph values and return new ones, so
instances can be shared freely.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable


class GraphParseError(ValueError):
    """Raised on malformed graph file text."""


class DisconnectedError(ValueError):
    """Raised when an operation requires a connected graph."""


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative vertex count")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def adjacency_dict(self) -> dict[int, set[int]]:
        return {v: set(self.adjacency[v]) for v in range(self.n)}

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph, normalizing edge order and rejecting loops/duplicates."""
    normalized = []
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        normalized.append((u, v) if u < v else (v, u))
    if len(normalized) != len(set(normalized)):
        raise ValueError("duplicate edge")
    return Graph(n, frozenset(normalized))


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


def read_graph(text: str) -> Graph:
    """Parse the graph file format.

    Lines starting with '#' are comments.  The first data line is the
    vertex count n; every following data line is "u v" with
    0 <= u < v < n, one edge per line.
    """
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


def is_unicyclic(g: Graph) -> bool:
    """Connected with |E| = |V|, the definitional characterization."""
    return g.edge_count == g.n and is_connected(g)


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


@dataclass(frozen=True)
class Branch:
    """A branch tree of a unicyclic graph, rooted at a cycle vertex."""

    root: int
    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class UnicyclicDecomposition:
    """The unique cycle plus one rooted branch tree per cycle vertex.

    The branches are vertex-disjoint and partition V(G); cycle edges
    plus branch edges reproduce the original edge set exactly.
    """

    cycle: tuple[int, ...]
    branches: tuple[Branch, ...]

    @property
    def n(self) -> int:
        return sum(len(b.vertices) for b in self.branches)

    @cached_property
    def cycle_edges(self) -> frozenset[tuple[int, int]]:
        k = len(self.cycle)
        pairs = []
        for i in range(k):
            a, b = self.cycle[i], self.cycle[(i + 1) % k]
            pairs.append((a, b) if a < b else (b, a))
        return frozenset(pairs)

    @cached_property
    def branch_adjacency(self) -> tuple[dict[int, list[int]], ...]:
        out = []
        for br in self.branches:
            adj: dict[int, list[int]] = {v: [] for v in br.vertices}
            for u, v in br.edges:
                adj[u].append(v)
                adj[v].append(u)
            out.append(adj)
        return tuple(out)

    @cached_property
    def branch_index(self) -> dict[int, int]:
        """Map each vertex to the cycle position of its branch."""
        idx = {}
        for i, br in enumerate(self.branches):
            for v in br.vertices:
                idx[v] = i
        return idx

    @cached_property
    def depths(self) -> dict[int, int]:
        """Hop distance from each vertex to its branch root."""
        depth = {}
        for i, br in enumerate(self.branches):
            adj = self.branch_adjacency[i]
            depth[br.root] = 0
            queue = deque([br.root])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if w not in depth:
                        depth[w] = depth[u] + 1
                        queue.append(w)
        return depth

    def branch_distance(self, u: int, v: int) -> int:
        """Hop distance between two vertices of the same branch."""
        i = self.branch_index[u]
        if self.branch_index[v] != i:
            raise ValueError("vertices lie in different branches")
        adj = self.branch_adjacency[i]
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if x == v:
                return dist[x]
            for w in adj[x]:
                if w not in dist:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        return dist[v]

    def reassembled_edges(self) -> frozenset[tuple[int, int]]:
        out = set(self.cycle_edges)
        for br in self.branches:
            out |= br.edges
        return frozenset(out)


def _cycle_vertices(g: Graph) -> set[int]:
    """Leaf-prune to a fixpoint; the 2-regular remainder is the cycle."""
    deg = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    queue = deque(v for v in range(g.n) if deg[v] == 1)
    while queue:
        u = queue.popleft()
        if not alive[u]:
            continue
        alive[u] = False
        for w in g.adjacency[u]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)
    return {v for v in range(g.n) if alive[v]}


def decompose_unicyclic(g: Graph) -> UnicyclicDecomposition:
    """Extract the unique cycle and the branch forest of a unicyclic graph.

    The cycle starts at its lowest vertex id and proceeds toward the
    lower-id neighbor, so the orientation is deterministic.
    """
    if g.edge_count != g.n:
        raise ValueError(f"not unicyclic: {g.edge_count} edges on {g.n} vertices")
    if not is_connected(g):
        raise ValueError("not unicyclic: graph is disconnected")
    cyc_set = _cycle_vertices(g)
    start = min(cyc_set)
    first = min(w for w in g.adjacency[start] if w in cyc_set)
    cycle = [start, first]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = next(w for w in g.adjacency[cur] if w in cyc_set and w != prev)
        if nxt == start:
            break
        cycle.append(nxt)
    cycle_edges = set()
    k = len(cycle)
    for i in range(k):
        a, b = cycle[i], cycle[(i + 1) % k]
        cycle_edges.add((a, b) if a < b else (b, a))
    tree_edges = g.edges - cycle_edges
    tree_adj: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for u, v in tree_edges:
        tree_adj[u].append(v)
        tree_adj[v].append(u)
    branches = []
    for root in cycle:
        verts = {root}
        edges = set()
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in tree_adj[u]:
                if w not in verts:
                    verts.add(w)
                    edges.add((u, w) if u < w else (w, u))
                    queue.append(w)
        branches.append(Branch(root, frozenset(verts), frozenset(edges)))
    return UnicyclicDecomposition(tuple(cycle), tuple(branches))


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


@dataclass(frozen=True)
class StripResult:
    graph: Graph
    removed_pairs: tuple[tuple[int, int], ...]


def strip_pendant_p2(g: Graph) -> StripResult:
    """Delete pendant P2's (a degree-1 vertex whose neighbor has degree 2)
    to a fixpoint.

    At each step the lowest-index qualifying pendant goes first; the
    removed (pendant, neighbor) pairs are reported in the input graph's
    labels, and the fixpoint is relabeled to contiguous ids preserving
    order.
    """
    if not is_unicyclic(g):
        raise ValueError("pendant-P2 stripping expects a unicyclic graph")
    adj = g.adjacency_dict()
    removed: list[tuple[int, int]] = []
    while True:
        target = None
        for v in sorted(adj):
            if len(adj[v]) == 1:
                (nb,) = adj[v]
                if len(adj[nb]) == 2:
                    target = (v, nb)
                    break
        if target is None:
            break
        v, nb = target
        for x in (v, nb):
            for y in adj[x]:
                adj[y].discard(x)
            del adj[x]
        removed.append((v, nb))
    keep = sorted(adj)
    relabel = {v: i for i, v in enumerate(keep)}
    edges = set()
    for v in keep:
        for x in adj[v]:
            if v < x:
                edges.add((relabel[v], relabel[x]))
    return StripResult(Graph(len(keep), frozenset(edges)), tuple(removed))


def without_vertices(g: Graph, drop: Iterable[int]) -> Graph:
    """Induced subgraph after deleting vertices, relabeled order-preservingly."""
    dropped = set(drop)
    keep = [v for v in range(g.n) if v not in dropped]
    relabel = {v: i for i, v in enumerate(keep)}
    edges = frozenset(
        (relabel[u], relabel[v]) for u, v in g.edges if u not in dropped and v not in dropped
    )
    return Graph(len(keep), edges)

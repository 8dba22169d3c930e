"""Exact effective resistances and Kirchhoff indices.

Three independent routes give the resistance between two vertices, and
the test suite cross-checks them.  This module holds the one the program
runs; the other two live in ``tests/oracles.py`` as its oracles:

* a grounded-Laplacian linear solve on the whole graph, by a
  fraction-free integer elimination of its own,
* spanning-tree / separating-forest counting via integer determinants.

Every connected graph is peeled once, by ``graph.peel``, into its 2-core
and a branch tree on each core vertex; a resistance across branches is
two depths plus a core resistance (Klein and Randic 1993).  So Kf, W,
the vertex sums and the matrix are the branch terms, the peel's edge
cuts, plus a sum over the core weighted by the branch sizes, and one
record, ``Route``, writes each of them from what its core gives.
``route`` alone picks its constructor.  A core of one vertex or one
cycle takes ``cycle_route``, the closed forms (tree distance into the
cycle, cycle resistance d(k-d)/k, tree distance out): Kf and W read the
sizes and the cuts alone, in O(k) integer sums (``cycle_terms``), the
vertex sums read the peel's order, parents and subtree sizes, and only
the matrix builds the trees.  Any other core takes one fraction-free
elimination (``core_inverse``), cubic in the core and linear in the
branches.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .graph import (
    DisconnectedError,
    Graph,
    Peel,
    bfs_distances,
    is_connected,
    peel,
    without_vertices,
)


def kf_cycle(n: int) -> Fraction:
    """Kirchhoff index of C_n: (n^3 - n)/12."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Fraction(n**3 - n, 12)


class ResistanceMatrix:
    """n rows of n resistances, equal and hashed as (n, rows); values holds
    the distinct Fraction objects that the rows share, each once."""

    def __init__(
        self, n: int, rows: tuple[tuple[Fraction, ...], ...], values: tuple[Fraction, ...]
    ):
        self.n = n
        self.rows = rows
        self.values = values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"ResistanceMatrix(n={self.n!r}, rows={self.rows!r})"

    def r(self, u: int, v: int) -> Fraction:
        return self.rows[u][v]


def format_resistance_matrix(mat: ResistanceMatrix, write: Callable[[str], object]) -> None:
    """Write n, then the row-major upper triangle as p/q tokens, one row per
    line, each row as it is formatted.  Each of the matrix's distinct values
    is formatted once."""
    text = {id(x): str(x) for x in mat.values}.__getitem__
    write(f"{mat.n}\n")
    for u, row in enumerate(mat.rows[:-1]):
        write(" ".join(map(text, map(id, row[u + 1 :]))) + "\n")


def branch_matrix(
    trees: Sequence[tuple[Sequence[int], Sequence[int]]],
    across: Callable[[int], Sequence[list[Fraction]]],
) -> ResistanceMatrix:
    """All-pairs resistances of the graph that carries trees[i], as
    ``graph.peel`` gives it, on vertex i of a core graph.  Inside a branch
    the resistance is the hop distance; across branches it is the two
    depths plus the core resistance (Klein and Randic 1993).  across(i)
    lists, for each j > i in turn, a list [R_core(i, j)], which is
    extended in place to R_core(i, j) + s at index s for every depth sum
    s; pairs with equal core resistances may share one.  Entries share
    their Fractions: one per hop count in a branch, one per list entry,
    and the matrix records each of these once."""
    k = len(trees)
    n = sum(len(labels) for labels, _ in trees)
    zeros = [Fraction(0)]
    rows = [zeros * n for _ in range(n)]
    pools = {id(zeros): zeros}  # every list of shared values, by identity
    depths = []
    for labels, parents in trees:
        s = len(labels)
        # hops[v][x] = hops[parent][x] + 1 for x < v, which lies outside
        # v's subtree; the symmetric entry fills the rows still to come
        hops = [[0] * s for _ in range(s)]
        for v in range(1, s):
            own, up = hops[v], hops[parents[v]]
            for x in range(v):
                own[x] = hops[x][v] = up[x] + 1
        values = [Fraction(h) for h in range(s)]
        pools[id(values)] = values
        for a, u in enumerate(labels):
            row, own = rows[u], hops[a]
            for b in range(a):
                v = labels[b]
                row[v] = rows[v][u] = values[own[b]]
        depths.append(hops[0])  # the root's hops are the depths
    heights = [max(d) for d in depths]
    for i in range(k):
        own, hi = list(zip(trees[i][0], depths[i])), heights[i]
        for values, (labels, _), dj, hj in zip(
            across(i), trees[i + 1 :], depths[i + 1 :], heights[i + 1 :]
        ):
            if len(values) <= hi + hj:
                values.extend(values[0] + s for s in range(len(values), hi + hj + 1))
            pools[id(values)] = values
            for u, du in own:
                row = rows[u]
                for v, dv in zip(labels, dj):
                    row[v] = rows[v][u] = values[du + dv]
    shared = tuple(x for values in pools.values() for x in values)
    for u, row in enumerate(rows):
        rows[u] = tuple(row)  # each list goes as its tuple comes: one table at a time
    return ResistanceMatrix(n, tuple(rows), shared)


def cycle_terms(sizes: Sequence[int]) -> tuple[int, int]:
    """The cycle terms of branches of the given sizes on C_k, with d the
    cycle gap of branches i and j: sum_{i<j} s_i s_j d(k - d), which is k
    times their share of Kf, and sum_{i<j} s_i s_j min(d, k - d), their
    share of W.

    d(k - d) = k d - d^2 expands over running sums of s_i, i s_i and
    i^2 s_i; min(d, k - d) splits at d = k/2 with a sliding window.  O(k),
    in integers.
    """
    k = len(sizes)
    half = k // 2
    cycle = hops = 0
    a = b = c = 0  # sums of s_i, i s_i and i^2 s_i over i < j
    lo = far_a = far_b = 0  # the same two over i < lo, more than k/2 before j
    for j, s in enumerate(sizes):
        while j - lo > half:
            far_a += sizes[lo]
            far_b += lo * sizes[lo]
            lo += 1
        cycle += s * (k * (j * a - b) - (j * j * a - 2 * j * b + c))
        hops += s * (j * (a - far_a) - b + far_b + (k - j) * far_a + far_b)
        a += s
        b += j * s
        c += j * j * s
    return cycle, hops


def cycle_cores(sizes: Sequence[int]) -> list[int]:
    """sum_j s_j d(k - d) for each position i of C_k carrying branches of
    the given sizes, d the gap |i - j|: the core rows of C_k over k, since
    R(i, j) = d(k - d)/k.  O(k).  With running sums a and b of
    s_j and j s_j over j < i, sum_j s_j |i - j| is 2(i a - b) +
    sum_j j s_j - i n."""
    k = len(sizes)
    n = sum(sizes)
    s1 = sum(i * s for i, s in enumerate(sizes))
    s2 = sum(i * i * s for i, s in enumerate(sizes))
    core = []
    a = b = 0
    for i, s in enumerate(sizes):
        gaps = 2 * (i * a - b) + s1 - i * n  # sum_j s_j |i - j|
        squares = i * i * n - 2 * i * s1 + s2  # sum_j s_j (i - j)^2
        core.append(k * gaps - squares)
        a += s
        b += i * s
    return core


class Route(NamedTuple):
    """A connected graph as its ``graph.Peel``, tree i on vertex i of a core
    graph: each answer is the branch terms, the peel's cuts, plus a sum
    over the core weighted by the branch sizes s_i (Klein and Randic 1993).
    The core enters only through d, the common denominator of its
    resistances; pairs(), d sum_{i<j} s_i s_j R_core(i, j); core_rows(),
    d sum_j s_j R_core(i, j) for each i; hops(), sum_{i<j} s_i s_j
    dist_core(i, j); and cross(), the core resistances of
    ``branch_matrix``.  Each runs only when called."""

    peel: Peel
    d: int
    pairs: Callable[[], int]
    core_rows: Callable[[], list[int]]
    hops: Callable[[], int]
    cross: Callable[[], Callable[[int], Sequence[list[Fraction]]]]

    def kirchhoff_index(self) -> Fraction:
        """The branch terms plus sum_{i<j} s_i s_j R_core(i, j)."""
        return Fraction(self.d * self.peel.cuts + self.pairs(), self.d)

    def wiener(self) -> Fraction:
        """The branch terms plus the core's weighted hop sum."""
        return Fraction(self.peel.cuts + self.hops())

    def vertex_numerators(self) -> list[int]:
        """d Kf_G(u) for every vertex u, by label, from the peel's arrays in
        two linear passes.  A core vertex c_i has d D + core_rows()[i], D
        the depth sum of all branches, which is the sum of sub(u) over the
        vertices u off the core; moving from a parent to its child u brings
        the n - sub(u) vertices outside u's subtree one step further and the
        sub(u) inside one step nearer, so u has its parent's value plus
        d (n - 2 sub(u)).  reversed(order) reaches every parent first."""
        p, d = self.peel, self.d
        sub, parent = p.sub, p.parent
        n = len(sub)
        nums = [0] * n
        base = d * sum(map(sub.__getitem__, p.order))
        for c, x in zip(p.core, self.core_rows()):
            nums[c] = base + x
        step, twice = d * n, 2 * d
        for u in reversed(p.order):
            nums[u] = nums[parent[u]] + step - twice * sub[u]
        return nums

    def vertex_sums(self) -> list[Fraction]:
        """Every vertex's resistance row sum, ``vertex_numerators`` over d.
        Equal sums share one Fraction, as the pendants on one vertex do."""
        d, nums = self.d, self.vertex_numerators()
        shared = {x: Fraction(x, d) for x in set(nums)}
        return list(map(shared.__getitem__, nums))

    def matrix(self) -> ResistanceMatrix:
        """All-pairs resistances, ``branch_matrix`` with the core
        resistances of cross()."""
        return branch_matrix(self.peel.trees(), self.cross())


def cycle_route(p: Peel) -> Route:
    """The closed forms on a peel whose core is one vertex or C_k: gap g has
    resistance g(k - g)/k, so d = k, pairs() and hops() are the
    ``cycle_terms`` of the sizes, computed once for both, and the rows
    their ``cycle_cores``.  Pairs of branches with the same gap share their
    resistances in the matrix."""
    k, sizes = len(p.core), p.sizes
    # a list, not functools.cache, whose wrapper, built per route, would
    # slow Kf on small graphs by a fifth or more
    memo: list[tuple[int, int]] = []

    def terms() -> tuple[int, int]:
        if not memo:
            memo.append(cycle_terms(sizes))
        return memo[0]

    def cross() -> Callable[[int], Sequence[list[Fraction]]]:
        gaps = [[Fraction(g * (k - g), k)] for g in range(k)]
        return lambda i: gaps[1 : k - i]

    return Route(
        p,
        k,
        lambda: terms()[0],
        lambda: cycle_cores(sizes),
        lambda: terms()[1],
        cross,
    )


def _grounded_laplacian(g: Graph) -> list[list[int]]:
    """The Laplacian of g with vertex 0's row and column dropped."""
    lap = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    return [row[1:] for row in lap[1:]]


def core_inverse(g: Graph, peeled: Peel) -> Route:
    """One elimination on the 2-core of g, whose ``graph.peel`` is peeled,
    with the branches on their roots: cubic in the core, linear in the branches.

    M = X / d is the inverse of the core's Laplacian L with vertex 0's row
    and column dropped (zeros in X), d its number of spanning trees, and
    R_core(u, v) = M_uu + M_vv - 2 M_uv.  X comes from one fraction-free
    (Bareiss) Gauss-Jordan elimination of [L | I] over the integers: step k
    replaces every row r other than the pivot row by
    (p_k r - r_k row_k) / p_{k-1}, an exact division, so L becomes d I, d
    the last pivot, and I becomes X; the eliminated columns are dropped as
    it goes.  The pivots are the leading principal minors of L, which is
    positive definite on a connected core, so no pivot is 0 and no rows
    swap.  The hop sum takes one BFS from each core vertex.
    """
    # the core by label, the order in which without_vertices keeps it
    by_label = sorted(zip(peeled.core, peeled.sizes))
    peeled = peeled._replace(core=[c for c, _ in by_label], sizes=[s for _, s in by_label])
    core = without_vertices(g, peeled.order)
    if not is_connected(core):
        raise DisconnectedError("resistance of a disconnected graph")
    m = core.n - 1
    x = [row + [int(i == j) for j in range(m)] for i, row in enumerate(_grounded_laplacian(core))]
    d = 1
    for k in range(m):
        p, *top = x[k]
        for r in range(m):
            if r == k:
                x[r] = top
                continue
            f, *row = x[r]
            if f:
                x[r] = [(p * a - f * b) // d for a, b in zip(row, top)]
            else:
                x[r] = [p * a // d for a in row]
        d = p
    full = [[0] * core.n for _ in range(core.n)]
    for u, row in enumerate(x, start=1):
        full[u] = [0] + row
    # d sum_v s_v R(u, v) = n X_uu + sum_v s_v X_vv - 2 (X s)_u, n = sum_v s_v
    sizes = peeled.sizes
    n = sum(sizes)
    diag = [row[u] for u, row in enumerate(full)]
    weighted = sum(map(mul, sizes, diag))
    rows = [n * x_uu + weighted - 2 * sum(map(mul, sizes, row)) for row, x_uu in zip(full, diag)]

    def hops() -> int:
        dist = (bfs_distances(core, v) for v in range(core.n))
        return sum(s * sum(map(mul, sizes, row)) for s, row in zip(sizes, dist)) // 2

    def cross() -> Callable[[int], Sequence[list[Fraction]]]:
        return lambda u: [
            [Fraction(full[u][u] + full[v][v] - 2 * full[u][v], d)] for v in range(u + 1, core.n)
        ]

    return Route(peeled, d, lambda: sum(map(mul, sizes, rows)) // 2, lambda: rows, hops, cross)


def route(g: Graph, p: Peel) -> Route:
    """The route of a connected graph g whose ``graph.peel`` is p: the closed
    forms for a core of one vertex or one cycle, else ``core_inverse``."""
    return cycle_route(p) if p.core and g.edge_count <= g.n else core_inverse(g, p)


def vertex_sums(g: Graph) -> list[Fraction]:
    """Resistance row sum of every vertex of a connected graph."""
    return route(g, peel(g)).vertex_sums()


def resistance_matrix(g: Graph) -> ResistanceMatrix:
    """All-pairs resistances of a connected graph."""
    return route(g, peel(g)).matrix()


def kirchhoff_index(g: Graph) -> Fraction:
    """Sum of effective resistances over unordered vertex pairs of a connected graph."""
    return route(g, peel(g)).kirchhoff_index()


def kirchhoff_vertex_sum(g: Graph, u: int) -> Fraction:
    """Sum of resistances from u to every vertex."""
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range")
    resist = route(g, peel(g))
    return Fraction(resist.vertex_numerators()[u], resist.d)


def kf_identified(
    kf_g: Fraction,
    kf_h: Fraction,
    kf_g_u: Fraction,
    kf_h_w: Fraction,
    size_g: int,
    size_h: int,
) -> Fraction:
    """Kirchhoff index of the vertex-identification of two graphs.

    Kf(GuH) = Kf(G) + Kf(H) + (|H|-1) Kf_G(u) + (|G|-1) Kf_H(w).
    """
    if size_g < 1 or size_h < 1:
        raise ValueError("graph sizes must be at least 1")
    return kf_g + kf_h + (size_h - 1) * kf_g_u + (size_g - 1) * kf_h_w

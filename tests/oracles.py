"""Oracles for the tests, kept independent of the library's own algorithms.

Most are brute force, exhaustive and exponential on purpose: distances
by Floyd-Warshall, matchings by edge-subset search, isomorphism classes
of labeled unicyclic graphs by orbit closure under all vertex
permutations, trees by Prufer decoding.  ``peel_by_adjacency`` peels a
graph by its adjacency lists, where ``graph.peel`` keeps only neighbour
counts and XORs.

The two resistance routes that the program does not run live here: the
grounded-Laplacian solve on the whole graph, by an integer elimination
of its own, with Kf and the vertex sums summed off its matrix, and
spanning-forest counting by determinants.

Five build on library kernels.  ``rooted_tree_code`` encodes a tree of
any labels from any root by the library's BFS encoding, which
``enumeration.free_tree_codes`` runs on its own trees, so that tests can
hold that encoding to the rooted classes of all labeled trees.  The
per-class invariants (``cycle_invariants``) combine a summary of each
branch of the built trees, ``tree_summary`` with ``branch_term``, which
the library sums as edge cuts while it peels and carries up as branch
states in the sweep, with ``matching.cycle_matching`` and
``resistance.cycle_terms``, the cycle kernels that the sweep and the
closed-form route run, so that tests can check them against graphs.
``row_cells_by_class`` takes every class from the library's unfiltered
listing, which other tests check against brute force, reads its matching
number from its codes, and runs it through the library's per-class
check, whose kernels other tests check against graphs.  So it checks
what the fast pass adds to the walk they share: its counts and its
pruning.  ``sweep_minima_by_product`` scores every state tuple of the
sweep's compositions, where the sweep folds them by a transfer over the
cycle positions.  ``recognize_family_by_build`` names a graph's family by
building every candidate and comparing canonical codes, where the
library reads the candidates' codes off their parameters.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterable, NamedTuple, Sequence

from unikirch.enumeration import (
    CanonicalCode,
    RowCell,
    SweepMinima,
    _branch_shape,
    _check_class,
    _minima,
    _offer,
    _term_tables,
    _tree_code,
    canonical_code,
    code_parents,
    enumerate_codes,
    graph_from_code,
    orbit_compositions,
)
from unikirch.families import FamilySpec
from unikirch.graph import DisconnectedError, Graph, decompose_unicyclic, is_connected
from unikirch.matching import cycle_matching
from unikirch.resistance import ResistanceMatrix, cycle_terms


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """A Graph from edges in any orientation, rejecting loops and duplicates."""
    normalized = []
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        normalized.append((u, v) if u < v else (v, u))
    if len(normalized) != len(set(normalized)):
        raise ValueError("duplicate edge")
    return Graph(n, frozenset(normalized))


def floyd_warshall(n: int, edges) -> list[list[float]]:
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def peel_by_adjacency(g: Graph) -> list[tuple[list[int], list[int]]]:
    """``graph.peel`` by the sorted adjacency lists: each peeled vertex
    scans its neighbours for the one still there, and the core is walked
    depth first with a stack, lowest neighbour first."""
    n = g.n
    if g.edge_count < n - 1:
        raise DisconnectedError("expected a connected graph")
    adj = g.adjacency
    left = [len(a) for a in adj]  # neighbours not yet peeled
    parent = [-1] * n
    alive = [True] * n
    order = [v for v in range(n) if left[v] <= 1]
    for u in order:  # order grows while it is scanned
        alive[u] = False
        for w in adj[u]:
            if alive[w]:
                parent[u] = w
                left[w] -= 1
                if left[w] == 1:
                    order.append(w)
                break
    if len(order) == n:
        core = [order.pop()] if n else []
    else:
        core = []
        stack = [alive.index(True)]
        while stack:
            c = stack.pop()
            if alive[c]:
                alive[c] = False
                core.append(c)
                stack.extend(w for w in reversed(adj[c]) if alive[w])
    # a second root, or a core vertex the walk missed, has no parent either
    if parent.count(-1) > len(core):
        raise DisconnectedError("expected a connected graph")
    trees = [([c], [-1]) for c in core]
    branch = [0] * n
    pos = [0] * n
    for i, c in enumerate(core):
        branch[c] = i
    for u in reversed(order):
        p = parent[u]
        labels, parents = trees[branch[p]]
        branch[u] = branch[p]
        pos[u] = len(labels)
        labels.append(u)
        parents.append(pos[p])
    return trees


def brute_force_matching_size(edges) -> int:
    """Maximum number of pairwise disjoint edges, by branching."""
    edges = list(edges)

    def best(idx: int, used: frozenset) -> int:
        if idx == len(edges):
            return 0
        remaining = len(edges) - idx
        u, v = edges[idx]
        skip = best(idx + 1, used)
        if skip >= remaining:
            return skip
        if u in used or v in used:
            return skip
        return max(skip, 1 + best(idx + 1, used | {u, v}))

    return best(0, frozenset())


def _connected_subset(n: int, edge_list) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged = 0
    for u, v in edge_list:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            merged += 1
    return merged == n - 1


def labeled_unicyclic_classes(n: int) -> list[tuple[tuple[int, int], ...]]:
    """One labeled representative per isomorphism class of connected
    graphs with n vertices and n edges, by permutation orbit closure."""
    pairs = list(combinations(range(n), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    perms = list(permutations(range(n)))
    perm_edge_maps = []
    for perm in perms:
        table = []
        for u, v in pairs:
            a, b = perm[u], perm[v]
            table.append(pair_index[(a, b) if a < b else (b, a)])
        perm_edge_maps.append(table)
    seen: set[int] = set()
    reps = []
    for subset in combinations(range(len(pairs)), n):
        mask = 0
        for i in subset:
            mask |= 1 << i
        if mask in seen:
            continue
        edge_list = [pairs[i] for i in subset]
        if not _connected_subset(n, edge_list):
            continue
        reps.append(tuple(edge_list))
        for table in perm_edge_maps:
            pm = 0
            for i in subset:
                pm |= 1 << table[i]
            seen.add(pm)
    return reps


def prufer_decode(seq: tuple[int, ...]) -> list[tuple[int, int]]:
    n = len(seq) + 2
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x) if leaf < x else (x, leaf))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = leaves
    edges.append((u, v) if u < v else (v, u))
    return edges


def all_labeled_trees(n: int):
    """Every labeled tree on n vertices via Prufer sequences."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    from itertools import product

    for seq in product(range(n), repeat=n - 2):
        yield prufer_decode(seq)


def rooted_tree_code(g: Graph, root: int) -> str:
    """Canonical code of a tree rooted at the given vertex: the library's
    code of the BFS parent positions from the root, taken on a tree that
    may carry any labels, after checking that g is one."""
    if g.edge_count != g.n - 1 or not is_connected(g):
        raise ValueError("expected a tree")
    return _tree_code(g.adjacency, root)


def rooted_tree_classes_bruteforce(n: int) -> int:
    """Number of rooted trees on n vertices up to rooted isomorphism,
    by canonical form under all permutations fixing the root."""
    perms = [p for p in permutations(range(n)) if p[0] == 0]
    classes = set()
    for edges in all_labeled_trees(n):
        for root in range(n):
            swap = {root: 0, 0: root}
            relabeled = []
            for u, v in edges:
                a, b = swap.get(u, u), swap.get(v, v)
                relabeled.append((a, b) if a < b else (b, a))
            best = None
            for p in perms:
                cand = tuple(
                    sorted((p[u], p[v]) if p[u] < p[v] else (p[v], p[u]) for u, v in relabeled)
                )
                if best is None or cand < best:
                    best = cand
            classes.add(best)
    return len(classes)


def argmin_by_cell(records) -> dict:
    """{cell: (minimum, items attaining it in input order)} over a list of
    (cell, value, item) records, keyed in ascending cell order: the
    minimum of each cell first, then a filter over every record."""
    values: dict = {}
    for cell, value, _ in records:
        values.setdefault(cell, []).append(value)
    out = {}
    for cell in sorted(values):
        best = min(values[cell])
        out[cell] = (best, [item for c, v, item in records if c == cell and v == best])
    return out


def cycle_terms_pairwise(sizes) -> tuple[int, int]:
    """k Kf and W cycle terms of branches of the given sizes on C_k, pair by
    pair: sum_{i<j} s_i s_j d(k - d) and sum_{i<j} s_i s_j min(d, k - d)."""
    k = len(sizes)
    cycle = hops = 0
    for i in range(k - 1):
        for d in range(1, k - i):
            pair = sizes[i] * sizes[i + d]
            cycle += pair * d * (k - d)
            hops += pair * min(d, k - d)
    return cycle, hops


def unicyclic_codes_bruteforce(n: int, rooted_codes) -> list[tuple[int, tuple[str, ...]]]:
    """(k, branch codes) of every unicyclic class on n vertices in
    ascending order: every product of the rooted-tree pools of every
    composition, kept when it equals the least of its 2k rotations and
    reflections.  ``rooted_codes(size)`` lists the rooted-tree codes."""
    out = []
    for k in range(3, n + 1):
        for bars in combinations(range(n - 1), k - 1):
            sizes = [b - a for a, b in zip((-1,) + bars, bars + (n - 1,))]
            for seq in product(*(rooted_codes(s) for s in sizes)):
                turns = [seq[r:] + seq[:r] for r in range(k)]
                turns += [t[::-1] for t in turns]
                if min(turns) == seq:
                    out.append((k, seq))
    return sorted(out)


def orbit_compositions_bruteforce(n: int, k: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """{least composition: its stabiliser} over the dihedral orbits of the
    compositions of n into k >= 3 parts, from the 2k permutations of the
    positions written out: every composition by cut points, kept when it
    equals the least of its images, with the permutations other than the
    identity whose image equals it, in ascending order."""
    perms = [tuple((i + r) % k for i in range(k)) for r in range(k)]
    perms += [tuple((r - i) % k for i in range(k)) for r in range(k)]
    out = {}
    for bars in combinations(range(1, n), k - 1):
        sizes = tuple(b - a for a, b in zip((0,) + bars, bars + (n,)))
        images = [tuple(sizes[i] for i in perm) for perm in perms]
        if min(images) == sizes:
            out[sizes] = sorted(p for p, image in zip(perms[1:], images[1:]) if image == sizes)
    return out


def sweep_minima_by_product(n: int) -> SweepMinima:
    """``enumeration.sweep_minima`` by the product walk: every tuple of
    least-term branch states on every orbit's least composition offers its
    own Kf and W to its cells, its matching number by ``cycle_matching``.
    It shares ``_term_tables`` and ``orbit_compositions`` with the code it
    checks, and the offer and the expansion into classes (``_offer``,
    ``_minima``), so it checks the sweep's transfer and its choice of the
    state tuples that attain each minimum.  Other tests check the tables
    and the orbits against brute force."""
    tables = _term_tables(n)
    kf: dict = {}
    wiener: dict = {}
    girth: dict = {}
    for k in range(3, n + 1):
        for sizes, fixing in orbit_compositions(n, k):
            cycle, hops = cycle_terms(sizes)
            for group in product(*[tables[size] for size in sizes]):
                m = cycle_matching(group)
                trees = sum(state.term for state in group)
                item = (sizes, fixing, group)
                _offer(kf, m, k * trees + cycle, k, item)
                _offer(wiener, m, trees + hops, 1, item)
                _offer(girth, k, k * trees + cycle, k, item)
    return SweepMinima(n, _minima(kf), _minima(wiener), _minima(girth))


def placement_canon_by_marks(k: int, positions) -> tuple[int, ...]:
    """Dihedral-canonical form of a subset of the positions of C_k: mark
    the positions 0 and the rest 1, take the least of the marks' 2k
    rotations and reflections, and read back the positions of its 0s."""
    marks = tuple(0 if i in positions else 1 for i in range(k))
    turns = [marks[r:] + marks[:r] for r in range(k)]
    least = min(turns + [turn[::-1] for turn in turns])
    return tuple(i for i, mark in enumerate(least) if mark == 0)


def row_cells_by_class(n: int) -> list[RowCell]:
    """``enumeration.row_cells`` by one ``_check_class`` for every class
    on n vertices with m >= 3, counting each class and pendant vertex."""
    cells: dict[int, RowCell] = {}
    for code in enumerate_codes(n):
        m = cycle_matching([tree_summary(code_parents(c)) for c in code.branch_codes])
        if m < 3:
            continue
        cell = cells.setdefault(m, RowCell(n, m))
        cell.graphs += 1
        for c in code.branch_codes:
            cell.pendants += _branch_shape(c)[1].count(1)  # a root has degree 2 or more
        _check_class(code.branch_codes, cell)
    return [cells[m] for m in sorted(cells)]


# ---------------------------------------------------------------------------
# closed forms on cycles


def r_cycle(k: int, d: int) -> Fraction:
    """Resistance between vertices d apart on C_k: d(k - d)/k."""
    return Fraction(d * (k - d), k)


def kfv_cycle(k: int) -> Fraction:
    """Resistance row sum at any vertex of C_k: (k^2 - 1)/6."""
    return Fraction(k * k - 1, 6)


def arc_pair_resistance_sum(k: int, t: int) -> Fraction:
    """Sum of pairwise cycle resistances over t consecutive vertices of
    C_k: t(t - 1)(t + 1)(2k - t) / (12k)."""
    return Fraction(t * (t - 1) * (t + 1) * (2 * k - t), 12 * k)


# ---------------------------------------------------------------------------
# the two resistance routes the program does not run


def laplacian(g: Graph) -> list[list[int]]:
    lap = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    return lap


def _det_int(m: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _minor(m: list[list[int]], drop: set[int]) -> list[list[int]]:
    keep = [i for i in range(len(m)) if i not in drop]
    return [[m[i][j] for j in keep] for i in keep]


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees (0 when disconnected)."""
    if g.n == 0:
        return 0
    return _det_int(_minor(laplacian(g), {0}))


def separating_forest_count(g: Graph, u: int, v: int) -> int:
    """Spanning 2-forests with u and v in different components."""
    return _det_int(_minor(laplacian(g), {u, v}))


def resistance_forest(g: Graph, u: int, v: int) -> Fraction:
    """Effective resistance as separating forests over spanning trees."""
    if u == v:
        return Fraction(0)
    trees = spanning_tree_count(g)
    if trees == 0:
        raise DisconnectedError("resistance of a disconnected graph")
    return Fraction(separating_forest_count(g, u, v), trees)


def _gauss_jordan(a: list[list[int]], b: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(d, X) with A X = d B over the integers, by fraction-free Gauss-Jordan
    elimination of [A | B] that keeps every column: each step k brings every
    other row to (p_k row - row[k] pivot row) / p_{k-1}, an exact division,
    so A ends as d I with d the last pivot.  A singular A is a disconnected
    graph's grounded Laplacian."""
    m = len(a)
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    prev = 1
    for k in range(m):
        pivot = next((r for r in range(k, m) if aug[r][k]), None)
        if pivot is None:
            raise DisconnectedError("singular grounded Laplacian")
        aug[k], aug[pivot] = aug[pivot], aug[k]
        p = aug[k][k]
        for r in range(m):
            if r != k:
                f = aug[r][k]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(aug[r], aug[k])]
        prev = p
    return prev, [row[m:] for row in aug]


def _grounded(g: Graph, ground: int) -> tuple[list[int], list[list[int]]]:
    """(the other vertices, g's Laplacian with ground's row and column dropped)."""
    keep = [w for w in range(g.n) if w != ground]
    lap = laplacian(g)
    return keep, [[lap[r][c] for c in keep] for r in keep]


def resistance_laplacian(g: Graph, u: int, v: int, ground: int = 0) -> Fraction:
    """Effective resistance by one solve of the grounded Laplacian: a unit
    current enters at u and leaves at v, and the resistance is the
    potential difference.  Any vertex can be the ground."""
    if u == v:
        return Fraction(0)
    keep, a = _grounded(g, ground)
    current = [[(w == u) - (w == v)] for w in keep]
    d, x = _gauss_jordan(a, current)
    potential = dict(zip(keep, (row[0] for row in x)))
    return Fraction(potential.get(u, 0) - potential.get(v, 0), d)


def resistance_matrix_dense(g: Graph, ground: int = 0) -> ResistanceMatrix:
    """All-pairs resistances R(u, v) = (X_uu + X_vv - 2 X_uv) / d, where X / d
    inverts g's Laplacian with ground's row and column dropped, and X has
    zeros in them."""
    keep, a = _grounded(g, ground)
    d, inverse = _gauss_jordan(a, [[int(i == j) for j in keep] for i in keep])
    x = [[0] * g.n for _ in range(g.n)]
    for u, row in zip(keep, inverse):
        for v, value in zip(keep, row):
            x[u][v] = value
    rows = tuple(
        tuple(Fraction(x[u][u] + x[v][v] - 2 * x[u][v], d) for v in range(g.n))
        for u in range(g.n)
    )
    return ResistanceMatrix(g.n, rows, tuple(r for row in rows for r in row))


def triangle_sum(mat: ResistanceMatrix) -> Fraction:
    """Kf read off a resistance matrix: its upper triangle, summed."""
    return sum((r for u, row in enumerate(mat.rows) for r in row[u + 1 :]), Fraction(0))


def row_sums(mat: ResistanceMatrix) -> list[Fraction]:
    """The vertex sums read off a resistance matrix."""
    return [sum(row, Fraction(0)) for row in mat.rows]


def kirchhoff_index_dense(g: Graph, ground: int = 0) -> Fraction:
    """Kf by the whole-graph Laplacian route."""
    return triangle_sum(resistance_matrix_dense(g, ground))


# ---------------------------------------------------------------------------
# the per-class invariants, from a summary of each branch and the library's
# cycle kernels


class BranchSummary(NamedTuple):
    """What the invariant kernel needs of one branch tree, rooted at its
    cycle vertex."""

    size: int
    depth_sum: int  # hop distances to the root, summed
    wiener: int  # hop distances over unordered vertex pairs, summed
    matching: int  # maximum matching of the branch tree
    root_free: int  # maximum matching that leaves the root unmatched


_ONE_VERTEX = BranchSummary(1, 0, 0, 0, 0)


def tree_summary(parents: Sequence[int]) -> BranchSummary:
    """Summary of a rooted tree given as parent positions, every vertex
    after its parent and the root's parent -1, in one pass from the leaves
    up.

    Every non-root vertex v adds its subtree size to the depth sum and
    sub(v)(s - sub(v)) to the Wiener number, the pairs its parent edge
    separates.  The matching comes from the leaf-up recurrence
    best(v) = free(v) + [some child c has best(c) = free(c)], where
    free(v), the best with v unmatched, is the sum of best(c).
    """
    s = len(parents)
    if s == 1:
        return _ONE_VERTEX
    sub = [1] * s
    free = [0] * s
    spare = [0] * s  # best(v) - free(v)
    depth_sum = wiener = 0
    for v in range(s - 1, 0, -1):  # v's subtree is complete when v is reached
        p, x = parents[v], sub[v]
        sub[p] += x
        depth_sum += x
        wiener += x * (s - x)
        free[p] += free[v] + spare[v]
        if not spare[v]:
            spare[p] = 1
    return BranchSummary(s, depth_sum, wiener, free[0] + spare[0], free[0])


def branch_term(b: BranchSummary, n: int) -> int:
    """What branch b adds to Kf and to W, besides the cycle terms, in an
    n-vertex graph: its own pairs, W_b, and the depth of each of its
    vertices once per vertex outside it, D_b (n - s_b)."""
    return b.wiener + b.depth_sum * (n - b.size)


class Invariants(NamedTuple):
    cycle_length: int
    matching: int
    kf: Fraction
    wiener: Fraction


def cycle_invariants(branches: Sequence[BranchSummary]) -> Invariants:
    """Exact (k, m, Kf, W) of the cycle C_k carrying branch i on its i-th
    vertex; a single branch (k = 1) is a tree.

    With branch sizes s_i, depth sums D_i, Wiener numbers W_i and n
    vertices, the resistance of two vertices in branches i and j is their
    depths plus d(k - d)/k for the cycle gap d (Klein and Randic,
    "Resistance distance", J. Math. Chem. 12, 1993), so

        Kf = sum W_i + sum D_i (n - s_i) + (1/k) sum_{i<j} s_i s_j d(k - d),

    and W is the same sum with min(d, k - d) as the cycle term.
    """
    k = len(branches)
    n = sum(b.size for b in branches)
    trees = sum(branch_term(b, n) for b in branches)
    cycle, hops = cycle_terms([b.size for b in branches])
    return Invariants(
        k, cycle_matching(branches), Fraction(k * trees + cycle, k), Fraction(trees + hops)
    )


def cycle_matching_gain_by_runs(free_roots: list[bool]) -> int:
    """What the cycle edges add to the branch matchings of a cycle whose
    roots are free (unmatched at no loss in their branch) as listed: k // 2
    on a fully free cycle, else half of each free run, rounded down, the
    runs read round the cycle from the first root that is not free."""
    k = len(free_roots)
    if all(free_roots):
        return k // 2
    start = free_roots.index(False)
    gain = run = 0
    for i in range(start + 1, start + k + 1):
        if free_roots[i % k]:
            run += 1
        else:
            gain += run // 2
            run = 0
    return gain


def graph_invariants(g: Graph) -> Invariants:
    """``cycle_invariants`` of a tree or a connected unicyclic graph."""
    return cycle_invariants([tree_summary(parents) for _, parents in decompose_unicyclic(g)])


def invariants_from_code(code: CanonicalCode) -> Invariants:
    """``cycle_invariants`` of a class, read off its branch codes."""
    return cycle_invariants([tree_summary(code_parents(c)) for c in code.branch_codes])


# ---------------------------------------------------------------------------
# family recognition by building every candidate


def recognize_family_by_build(g: Graph) -> FamilySpec | None:
    """``families.recognize_family`` by graphs: a path or a cycle by its
    degrees, else the first U(k,t,i,j) with the graph's cycle length and
    leaf count, in ascending t with t = 0 last, whose built graph has the
    graph's canonical code."""
    n = g.n
    degs = [g.degree(v) for v in range(n)]
    if g.edge_count == n - 1:
        if n == 1 or (sorted(degs)[:2] == [1, 1] and all(d <= 2 for d in degs)):
            return FamilySpec("P", (n,))
        return None
    if g.edge_count != n:
        return None
    if all(d == 2 for d in degs):
        return FamilySpec("C", (n,))
    code = canonical_code(g)
    k = code.cycle_length
    j = n - k - degs.count(1)
    for t in (*range(1, min(k, n - k) + 1), 0):
        i = n - k - t - 2 * j
        cand = FamilySpec("U", (k, t, i, j))
        if i >= 0 and canonical_code(cand.build()) == code:
            return cand
    return None


def family_label_by_build(code: CanonicalCode) -> str:
    """``families.family_label`` by ``recognize_family_by_build`` on the
    class's built graph."""
    fam = recognize_family_by_build(graph_from_code(code))
    return fam.text() if fam is not None else str(code)

"""Brute-force oracles, kept independent of the library's own algorithms.

Everything here is exhaustive and exponential on purpose: distances by
Floyd-Warshall, matchings by edge-subset search, isomorphism classes of
labeled unicyclic graphs by orbit closure under all vertex permutations,
trees by Prufer decoding.  The one exception, ``row_cells_by_class``,
takes every class from the library's unfiltered listing, which other
tests check against brute force, reads its matching number from its
codes, and runs it through the library's per-class check, whose kernels
other tests check against graphs.  So it checks what the fast pass adds
to the walk they share: its counts and its pruning.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from unikirch.enumeration import (
    RowCell,
    _branch_shape,
    _check_class,
    enumerate_codes,
    invariants_from_code,
)


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
        m = invariants_from_code(code).matching
        if m < 3:
            continue
        cell = cells.setdefault(m, RowCell(n, m))
        cell.graphs += 1
        for c in code.branch_codes:
            cell.pendants += _branch_shape(c)[1].count(1)  # a root has degree 2 or more
        _check_class(code.branch_codes, cell)
    return [cells[m] for m in sorted(cells)]

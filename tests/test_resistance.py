import os
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import matrix_text, random_connected_graph, random_tree_edges, relabelled
from oracles import (
    BranchSummary,
    branch_term,
    cycle_invariants,
    cycle_terms_pairwise,
    graph_invariants,
    kfv_cycle,
    kirchhoff_index_dense,
    r_cycle,
    resistance_forest,
    resistance_laplacian,
    resistance_matrix_dense,
    row_sums,
    separating_forest_count,
    spanning_tree_count,
    tree_summary,
    triangle_sum,
)
from unikirch.enumeration import enumerate_with_codes
from unikirch.families import (
    FamilySpec,
    central_vertex,
    make_cycle,
    make_path,
    make_ukt,
    ukt_central_vertex_sum,
    ukt_kf_closed_form,
)
from unikirch.graph import (
    DisconnectedError,
    Graph,
    Peel,
    bfs_distances,
    decompose_unicyclic,
    identify_vertices,
    peel,
    wiener_index,
)
from unikirch.matching import matching_number
from unikirch.resistance import (
    core_inverse,
    cycle_route,
    kf_cycle,
    kf_identified,
    kirchhoff_index,
    kirchhoff_vertex_sum,
    resistance_matrix,
    route,
    vertex_sums,
)

EXTENDED = bool(os.environ.get("UNIKIRCH_EXTENDED"))


def test_cycle_closed_forms():
    assert r_cycle(10, 2) == Fraction(8, 5)
    assert r_cycle(4, 2) == 1
    assert r_cycle(7, 0) == 0
    assert kfv_cycle(5) == 4
    assert kf_cycle(8) == 42
    assert kf_cycle(6) == Fraction(35, 2)
    with pytest.raises(ValueError):
        kf_cycle(2)


def test_triangle_adjacent_pair():
    g = make_cycle(3)
    assert spanning_tree_count(g) == 3
    assert separating_forest_count(g, 0, 1) == 2
    assert resistance_forest(g, 0, 1) == Fraction(2, 3)
    assert resistance_laplacian(g, 0, 1) == Fraction(2, 3)
    assert cycle_route(peel(g)).matrix().r(0, 1) == Fraction(2, 3)


def test_path_resistance_is_hop_distance():
    g = make_path(6)
    for u in range(6):
        for v in range(6):
            expected = Fraction(abs(u - v))
            assert resistance_laplacian(g, u, v) == expected
            if u != v:
                assert resistance_forest(g, u, v) == expected


def test_c4_antipodal():
    assert resistance_laplacian(make_cycle(4), 0, 2) == 1


def test_self_resistance_is_zero():
    g = make_cycle(5)
    assert resistance_laplacian(g, 2, 2) == 0
    assert cycle_route(peel(g)).matrix().r(2, 2) == 0


def test_ground_independence():
    rng = random.Random(11)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(0, 3))
        u, v = rng.sample(range(g.n), 2)
        values = {resistance_laplacian(g, u, v, ground=w) for w in range(g.n)}
        assert len(values) == 1


def test_three_way_agreement(unicyclic_corpus):
    for n, pairs in unicyclic_corpus.items():
        for _, g in pairs:
            mat = cycle_route(peel(g)).matrix()
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    r1 = resistance_laplacian(g, u, v)
                    r2 = resistance_forest(g, u, v)
                    r3 = mat.r(u, v)
                    assert r1 == r2 == r3


def test_tree_matrix_matches_laplacian_route():
    rng = random.Random(5)
    for n in [1, 2] + [rng.randrange(3, 13) for _ in range(30)]:
        g = Graph(n, frozenset(random_tree_edges(rng, n)))
        assert resistance_matrix(g) == resistance_matrix_dense(g)
        for u in range(n):
            assert list(resistance_matrix(g).rows[u]) == bfs_distances(g, u)


def test_matrix_shares_fractions_across_branches():
    # U(60,60,0,0): 120 vertices, a pendant on each cycle vertex.  Its
    # cross-branch entries take O(k) values, one per (gap, depth sum), so
    # the matrix holds O(k) Fraction objects; one per pair would be 5,549.
    k = 60
    mat = resistance_matrix(make_ukt(k, k, 0, 0))
    assert mat == resistance_matrix_dense(make_ukt(k, k, 0, 0))
    assert len({id(x) for row in mat.rows for x in row}) <= 8 * k
    # the matrix records those shared objects, each once, for its text
    assert {id(x) for row in mat.rows for x in row} <= {id(x) for x in mat.values}
    assert len(mat.values) <= 8 * k


def test_equal_vertex_sums_share_one_fraction():
    # Unm(60, 10): the pendants on one vertex have one sum, and so one object
    g = FamilySpec("Unm", (60, 10)).build()
    sums = vertex_sums(g)
    assert sums == row_sums(resistance_matrix_dense(g))
    assert len({id(s) for s in sums}) == len(set(sums)) < 10


def test_resistance_is_a_metric(unicyclic_corpus):
    for _, g in unicyclic_corpus[6]:
        mat = resistance_matrix(g)
        for u in range(g.n):
            assert mat.r(u, u) == 0
            for v in range(g.n):
                assert mat.r(u, v) == mat.r(v, u)
                if u != v:
                    assert mat.r(u, v) > 0
                for w in range(g.n):
                    assert mat.r(u, w) <= mat.r(u, v) + mat.r(v, w)


def test_resistance_below_distance_equality_iff_unique_path(unicyclic_corpus):
    for n, pairs in unicyclic_corpus.items():
        for _, g in pairs:
            trees = decompose_unicyclic(g)
            branch = {u: i for i, (labels, _) in enumerate(trees) for u in labels}
            mat = resistance_matrix(g)
            for u in range(g.n):
                dist = bfs_distances(g, u)
                for v in range(u + 1, g.n):
                    r = mat.r(u, v)
                    assert r <= dist[v]
                    unique_path = branch[u] == branch[v]
                    assert (r == dist[v]) == unique_path


def test_kirchhoff_examples():
    assert kirchhoff_index(make_cycle(6)) == Fraction(35, 2)
    assert kirchhoff_index(make_ukt(3, 1, 0, 0)) == Fraction(19, 3)
    assert kirchhoff_index(make_path(2)) == 1
    with pytest.raises(DisconnectedError):
        kirchhoff_index(Graph(3, frozenset({(0, 1)})))


def test_kirchhoff_index_halved_vertex_sum_identity(unicyclic_corpus):
    for _, g in unicyclic_corpus[7]:
        sums = vertex_sums(g)
        assert kirchhoff_index(g) == sum(sums, Fraction(0)) / 2
        assert kirchhoff_vertex_sum(g, 3) == sums[3]


def test_cycle_closed_forms_match_computation():
    for n in range(3, 13):
        g = make_cycle(n)
        assert kirchhoff_index(g) == kf_cycle(n)
        assert kirchhoff_vertex_sum(g, 0) == kfv_cycle(n)


def test_dense_matches_fast_path(unicyclic_corpus):
    for _, g in unicyclic_corpus[6]:
        assert kirchhoff_index(g) == kirchhoff_index_dense(g)


def test_kf_identified_examples():
    assert kf_identified(Fraction(1), Fraction(1), Fraction(1), Fraction(1), 2, 2) == 4
    got = kf_identified(Fraction(2), Fraction(1), Fraction(4, 3), Fraction(1), 3, 2)
    assert got == Fraction(19, 3)


def test_kf_identified_random_instances():
    rng = random.Random(20240811)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(2, 9), rng.randrange(0, 3))
        h = random_connected_graph(rng, rng.randrange(2, 9), rng.randrange(0, 3))
        u = rng.randrange(g.n)
        w = rng.randrange(h.n)
        merged = identify_vertices(g, u, h, w)
        closed = kf_identified(
            kirchhoff_index_dense(g),
            kirchhoff_index_dense(h),
            kirchhoff_vertex_sum(g, u),
            kirchhoff_vertex_sum(h, w),
            g.n,
            h.n,
        )
        assert kirchhoff_index_dense(merged) == closed


def test_matrix_holds_its_table_once():
    # the rows are built as lists and each becomes a tuple in place, so
    # the peak stays near the result's own size, not twice it
    for g in (make_cycle(300), make_ukt(150, 150, 0, 0)):
        tracemalloc.start()
        try:
            mat = resistance_matrix(g)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mat.n == g.n
        assert peak < 1.3 * held


def test_matrix_serialization():
    text = matrix_text(resistance_matrix_dense(make_path(3)))
    assert text == "3\n1 2\n1\n"
    text = matrix_text(resistance_matrix(make_cycle(3)))
    assert text == "3\n2/3 2/3\n2/3\n"


def _entrywise_text(mat):
    """format_resistance_matrix formatting every entry on its own."""
    lines = [str(mat.n)]
    for u in range(mat.n - 1):
        lines.append(" ".join(str(mat.rows[u][v]) for v in range(u + 1, mat.n)))
    return "\n".join(lines) + "\n"


def test_matrix_text_formats_each_entry():
    rng = random.Random(5)
    tree = Graph(50, frozenset(random_tree_edges(rng, 50)))
    path = [(v, v + 1) for v in range(59)] + [(0, 9), (5, 20)]
    bicyclic = Graph(60, frozenset(path))
    for mat in (
        resistance_matrix(tree),
        resistance_matrix(make_ukt(60, 60, 0, 0)),
        core_inverse(bicyclic, peel(bicyclic)).matrix(),
    ):
        assert matrix_text(mat) == _entrywise_text(mat)


@given(st.integers(0, 10**6), st.integers(2, 12), st.integers(0, 6))
def test_laplacian_routes_match_forest_counts(seed, n, chords):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, chords)
    forest = [[resistance_forest(g, u, v) for v in range(n)] for u in range(n)]
    dense = resistance_matrix_dense(g, ground=rng.randrange(n))
    for u in range(n):
        for v in range(n):
            assert resistance_laplacian(g, u, v, ground=rng.randrange(n)) == forest[u][v]
            assert dense.r(u, v) == forest[u][v]
    assert kirchhoff_index(g) == sum(sum(row, Fraction(0)) for row in forest) / 2
    assert kirchhoff_index_dense(g, ground=rng.randrange(n)) == kirchhoff_index(g)
    assert vertex_sums(g) == [sum(row, Fraction(0)) for row in forest]


def test_complete_graph_closed_forms():
    # every pair of K_n is at resistance 2/n
    for n in range(1, 31):
        g = Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))
        assert kirchhoff_index(g) == n - 1
        assert kirchhoff_index_dense(g) == n - 1
        assert vertex_sums(g) == [Fraction(2 * (n - 1), n)] * n


def test_dense_kf_of_a_bicyclic_path():
    n = 80
    edges = [(v, v + 1) for v in range(n - 1)] + [(0, 9), (5, 20)]
    g = Graph(n, frozenset(edges))
    assert kirchhoff_index(g) == Fraction(1799555, 24)
    assert sum(vertex_sums(g)) == Fraction(1799555, 12)


def test_disconnected_errors():
    g = Graph(4, frozenset({(0, 1), (2, 3)}))
    with pytest.raises(DisconnectedError):
        resistance_laplacian(g, 0, 2)
    with pytest.raises(DisconnectedError):
        resistance_forest(g, 0, 2)
    with pytest.raises(DisconnectedError):
        resistance_matrix_dense(g)
    with pytest.raises(DisconnectedError):
        kirchhoff_index_dense(g)
    diamond = {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}
    k4 = diamond | {(0, 3)}
    for g in (
        Graph(7, frozenset(diamond | {(4, 5), (5, 6)})),  # a core and a disjoint tree
        Graph(5, frozenset(diamond)),  # a core and an isolated vertex
        Graph(7, frozenset(make_cycle(3).edges | {(3, 4), (4, 5), (5, 6), (3, 6)})),
        Graph(7, frozenset(k4 | {(4, 5), (5, 6), (4, 6)})),
    ):
        for answer in (kirchhoff_index, vertex_sums, resistance_matrix):
            with pytest.raises(DisconnectedError):
                answer(g)


def _graph_with_a_core(rng: random.Random, shape: str, chords: int) -> Graph:
    """A randomly labelled connected graph of at most 24 vertices: a core
    of cyclomatic number 2 or more with random pendant trees.  The core is
    a random connected graph with the given number of chords, two cycles
    joined by a path (a bridge), or two cycles sharing a vertex."""
    a, b = rng.randint(3, 7), rng.randint(3, 7)
    if shape == "chords":
        core = random_connected_graph(rng, rng.randint(5, 12), chords)
        c, edges = core.n, set(core.edges)
    else:
        # the second cycle meets the first at vertex 0, or at the end of a
        # path from it
        path = [0] + list(range(a, a + (rng.randint(1, 3) if shape == "bridge" else 0)))
        ring = path[-1:] + list(range(a + len(path) - 1, a + len(path) + b - 2))
        edges = {(i, (i + 1) % a) for i in range(a)} | set(zip(path, path[1:]))
        edges |= set(zip(ring, ring[1:] + ring[:1]))
        c = ring[-1] + 1
    n = rng.randint(c, 24)
    edges |= {(rng.randrange(v), v) for v in range(c, n)}
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


@given(
    st.integers(0, 10**6),
    st.sampled_from(("chords", "bridge", "cut vertex")),
    st.integers(2, 6),
)
def test_core_route_matches_laplacian_route(seed, shape, chords):
    rng = random.Random(seed)
    g = _graph_with_a_core(rng, shape, chords)
    assert g.edge_count - g.n + 1 == (chords if shape == "chords" else 2)
    peeled = peel(g)
    trees = peeled.trees()
    # the roots are the 2-core: what deleting vertices of degree <= 1 leaves
    core = set(range(g.n))
    while leaves := {v for v in core if len(core.intersection(g.adjacency[v])) <= 1}:
        core -= leaves
    assert {labels[0] for labels, _ in trees} == core
    assert sorted(u for labels, _ in trees for u in labels) == list(range(g.n))
    dense = resistance_matrix_dense(g, ground=rng.randrange(g.n))
    assert kirchhoff_index(g) == triangle_sum(dense)
    assert vertex_sums(g) == row_sums(dense)
    assert resistance_matrix(g) == dense
    assert core_inverse(g, peeled).wiener() == wiener_index(g)


@given(st.integers(0, 10**6), st.integers(2, 40), st.booleans())
def test_kernel_matches_dense_on_labelled_graphs(seed, n, tree):
    rng = random.Random(seed)
    if tree:
        g = Graph(n, frozenset(random_tree_edges(rng, n)))
    else:
        g = random_connected_graph(rng, max(n, 3), 1)
    dense = resistance_matrix_dense(g)
    assert kirchhoff_index(g) == triangle_sum(dense)
    assert vertex_sums(g) == row_sums(dense)
    fast = route(g, peel(g))
    assert fast.wiener() == wiener_index(g)
    assert fast.matrix() == dense
    inv = graph_invariants(g)
    assert inv.wiener == wiener_index(g)
    assert inv.matching == matching_number(g).size


def test_kernel_on_a_deep_branch():
    # C3 with a path of s vertices glued at one end: the merge identity
    # gives Kf = Kf(C3) + Kf(P_s) + (s - 1) Kf_C3(u) + 2 Kf_P(end)
    s = 10_000
    g = identify_vertices(make_cycle(3), 0, make_path(s), 0)
    expected = 2 + Fraction(s**3 - s, 6) + (s - 1) * Fraction(4, 3) + s * (s - 1)
    assert kirchhoff_index(g) == expected
    assert sum(vertex_sums(g)) == 2 * expected
    assert kirchhoff_vertex_sum(g, g.n - 1) == Fraction(s * (s - 1), 2) + 2 * (s - 1) + Fraction(4, 3)
    assert kirchhoff_index(make_path(s)) == Fraction(s**3 - s, 6)


def test_graph_invariants_rejects_other_graphs():
    triangle = {(0, 1), (1, 2), (0, 2)}
    disconnected = [
        Graph(4, frozenset({(0, 1), (2, 3)})),
        Graph(6, frozenset(triangle | {(3, 4), (4, 5), (3, 5)})),  # two triangles
        Graph(5, frozenset(triangle | {(3, 4)})),  # a triangle and an edge
        Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})),  # C4 and a vertex
        # a diamond and a vertex, labelled so that a walk round its core
        # meets every core vertex
        Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)})),
        Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)})),  # the same, relabelled
    ]
    bicyclic = Graph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)}))
    for g in disconnected + [bicyclic, Graph(0, frozenset())]:
        assert decompose_unicyclic(g) is None
    for g in disconnected:
        with pytest.raises(DisconnectedError):
            kirchhoff_index(g)
        with pytest.raises(DisconnectedError):
            vertex_sums(g)
    assert graph_invariants(Graph(1, frozenset())) == (1, 0, 0, 0)
    assert graph_invariants(Graph(2, frozenset({(0, 1)}))) == (1, 1, 1, 1)


def test_cycle_terms_match_pairwise_formula():
    rng = random.Random(7)
    for _ in range(300):
        sizes = [rng.randint(1, 9) for _ in range(rng.randint(2, 60))]
        cycle, hops = cycle_terms_pairwise(sizes)
        inv = cycle_invariants([BranchSummary(s, 0, 0, 0, 0) for s in sizes])
        assert inv.kf == Fraction(cycle, len(sizes)) and inv.wiener == hops, sizes
    for _ in range(8):
        # a star of random size on each cycle vertex; the unicyclic matrix
        # route sums every pair's resistance
        k = rng.randint(3, 60)
        edges = set(make_cycle(k).edges)
        n = k
        for i in range(k):
            for _ in range(rng.randint(0, 3)):
                edges.add((i, n))
                n += 1
        g = Graph(n, frozenset(edges))
        mat = cycle_route(peel(g)).matrix()
        assert vertex_sums(g) == row_sums(mat)


def test_long_cycles_match_closed_forms():
    k = 3000
    for t in (0, 1, 2, 7):
        g = make_ukt(k, t, 0, 0)
        assert kirchhoff_index(g) == ukt_kf_closed_form(k, t)
        if t:
            assert vertex_sums(g)[central_vertex(k, t)] == ukt_central_vertex_sum(k, t)


def test_tree_and_cycle_routes_build_no_adjacency():
    # peel finds a tree's and a cycle's structure from neighbour counts
    # and XORs alone; only a core with a chord needs the adjacency lists
    rng = random.Random(11)
    graphs = [Graph(n, frozenset(random_tree_edges(rng, n))) for n in (1, 2, 5, 40)]
    graphs += [random_connected_graph(rng, n, 1) for n in (3, 8, 40)]
    graphs += [make_cycle(9), make_ukt(12, 3, 2, 1)]
    for g in graphs:
        kirchhoff_index(g)
        assert "adjacency" not in vars(g), g
    g = random_connected_graph(rng, 12, 2)  # a core with a chord: the check can fail
    kirchhoff_index(g)
    assert "adjacency" in vars(g)


def test_only_the_matrix_builds_branch_trees(monkeypatch):
    g = make_ukt(7, 3, 2, 1)
    tree = Graph(40, frozenset(random_tree_edges(random.Random(2), 40)))
    bicyclic = random_connected_graph(random.Random(3), 30, 1)
    expected = {}
    for h in (g, tree, bicyclic):
        dense = resistance_matrix_dense(h)
        expected[h] = triangle_sum(dense), wiener_index(h), row_sums(dense)

    def no_trees(self):
        raise AssertionError("Kf, W or the vertex sums built the branch trees")

    monkeypatch.setattr(Peel, "trees", no_trees)
    for h, (kf, w, sums) in expected.items():
        assert kirchhoff_index(h) == kf
        assert route(h, peel(h)).wiener() == w
        assert vertex_sums(h) == sums
    with pytest.raises(AssertionError):
        route(g, peel(g)).matrix()


def assert_peel_terms_match_oracles(graphs):
    # the peel sums the branch sizes and the edge cuts as it goes, and Kf and
    # W read them alone; the oracle sums the same terms over the built trees.
    # The vertex sums read the peel's subtree sizes, and the dense Laplacian
    # route sums its matrix's rows
    for g in graphs:
        peeled = peel(g)
        trees = peeled.trees()
        assert peeled.sizes == [len(labels) for labels, _ in trees], g
        expected = sum(branch_term(tree_summary(parents), g.n) for _, parents in trees)
        assert peeled.cuts == expected, g
        inv = graph_invariants(g)
        assert kirchhoff_index(g) == inv.kf, g
        assert route(g, peeled).wiener() == inv.wiener, g
        assert vertex_sums(g) == row_sums(resistance_matrix_dense(g)), g


def test_branch_terms_are_edge_cuts():
    rng = random.Random(13)
    graphs = [g for n in range(3, 11) for _, g in enumerate_with_codes(n)]
    graphs += [relabelled(rng, g) for g in graphs]
    graphs += [Graph(n, frozenset(random_tree_edges(rng, n))) for n in range(1, 61)]
    graphs += [random_connected_graph(rng, n, 1) for n in range(3, 61)]
    assert_peel_terms_match_oracles(graphs)


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_branch_terms_are_edge_cuts_extended():
    rng = random.Random(14)
    graphs = [g for n in (11, 12) for _, g in enumerate_with_codes(n)]
    assert_peel_terms_match_oracles(graphs + [relabelled(rng, g) for g in graphs])

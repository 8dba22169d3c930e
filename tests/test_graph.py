import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_connected_graph, relabelled
from oracles import (
    branch_term,
    floyd_warshall,
    kirchhoff_index_dense,
    make_graph,
    peel_by_adjacency,
    tree_summary,
)
from unikirch import graph
from unikirch.cli import main
from unikirch.enumeration import enumerate_with_codes
from unikirch.families import make_cycle, make_path, make_ukt, make_unm
from unikirch.graph import (
    DisconnectedError,
    Graph,
    GraphParseError,
    bfs_distances,
    decompose_unicyclic,
    identify_vertices,
    is_connected,
    peel,
    read_graph,
    wiener_index,
    without_vertices,
    write_graph,
)


def test_read_triangle():
    g = read_graph("3\n0 1\n1 2\n0 2\n")
    assert g == make_cycle(3)


def test_write_c4_exact():
    assert write_graph(make_cycle(4)) == "4\n0 1\n0 3\n1 2\n2 3\n"


def test_round_trip_with_comments():
    text = "# a comment\n4\n0 1\n# another\n2 3\n1 2\n0 3\n"
    g = read_graph(text)
    assert read_graph(write_graph(g)) == g
    assert g == make_cycle(4)


@pytest.mark.parametrize(
    "bad",
    [
        "2\n0 0\n",           # loop
        "2\n1 0\n",           # u >= v
        "3\n0 1\n0 1\n",      # duplicate
        "2\n0 5\n",           # out of range
        "3\n0 1 2\n",         # malformed line
        "x\n0 1\n",           # bad count
        "",                   # empty
        "²\n",                # a digit to str.isdigit, not to int()
        "3\n0 1\n1 ²\n",
        "4\n0 \u0663\n",         # an Arabic-Indic digit, which int() reads as 3
        "1" * 5000 + "\n",    # more digits than int() converts
    ],
)
def test_read_rejects(bad):
    with pytest.raises(GraphParseError):
        read_graph(bad)


_GOOD_LINES = "".join(f"{v} {v + 1}\n" for v in range(100))


@pytest.mark.parametrize(
    "text, message",
    [
        ("2\n0 0\n", "line 2: loop at vertex 0"),
        ("2\n1 0\n", "line 2: edge must satisfy u < v"),
        ("3\n0 1\n0 1\n", "line 3: duplicate edge (0, 1)"),
        ("2\n0 5\n", "line 2: endpoint 5 out of range for n=2"),
        ("3\n0 1 2\n", "line 2: expected edge 'u v', got '0 1 2'"),
        ("x\n0 1\n", "line 1: expected vertex count, got 'x'"),
        ("", "empty graph file"),
        ("²\n", "line 1: expected vertex count, got '²'"),
        ("3\n0 1\n1 ²\n", "line 3: expected edge 'u v', got '1 ²'"),
        ("4\n0 \u0663\n", "line 2: expected edge 'u v', got '0 \u0663'"),
        ("1" * 5000 + "\n", f"line 1: expected vertex count, got {'1' * 5000!r}"),
        # the first error in file order wins
        ("4\n0 1\n1 2\n0 1\n2 x\n", "line 4: duplicate edge (0, 1)"),
        ("101\n" + _GOOD_LINES + "0 101\n", "line 102: endpoint 101 out of range for n=101"),
        ("3\n0 1\n1 " + "1" * 5000, f"line 3: expected edge 'u v', got {'1 ' + '1' * 5000!r}"),
        ("2\n0 " + "1" * 19, f"line 2: endpoint {'1' * 19} out of range for n=2"),
    ],
)
def test_read_graph_error_messages(tmp_path, capsys, text, message):
    # recorded before edge lines had a fast path; compute prints the same
    # message and exits 2
    with pytest.raises(GraphParseError) as exc:
        read_graph(text)
    assert str(exc.value) == message
    path = tmp_path / "bad.graph"
    path.write_bytes(text.encode())
    assert main(["compute", "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


_LINE = st.one_of(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).map(lambda e: f"{e[0]} {e[1]}"),
    st.text(alphabet="0123456789 #\t\u00b2\u0663x+-", max_size=6),
)
_GRAPH_TEXT = st.one_of(
    st.text(),
    st.builds(
        lambda head, lines: "\n".join([head, *lines]) + "\n",
        st.one_of(st.integers(0, 9).map(str), _LINE),
        st.lists(_LINE, max_size=10),
    ),
)


@given(_GRAPH_TEXT)
def test_read_graph_parses_or_rejects(text):
    # any text either raises GraphParseError or round-trips
    try:
        g = read_graph(text)
    except GraphParseError:
        return
    assert read_graph(write_graph(g)) == g


@given(_GRAPH_TEXT)
def test_read_graph_in_bulk_as_line_by_line(text):
    # the bulk read of plain text gives what the line checks give
    try:
        expected = graph._read_graph_lines(text)
    except GraphParseError as exc:
        with pytest.raises(GraphParseError) as got:
            read_graph(text)
        assert str(got.value) == str(exc)
        return
    assert read_graph(text) == expected


def test_make_graph_rejects():
    with pytest.raises(ValueError):
        make_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        make_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 5)}))


def test_distances_examples():
    assert bfs_distances(make_path(3), 0) == [0, 1, 2]
    assert bfs_distances(make_cycle(6), 0)[3] == 3
    assert not is_connected(Graph(2, frozenset()))
    assert is_connected(Graph(1, frozenset()))


def test_distances_against_floyd_warshall():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(2, 9)
        g = random_connected_graph(rng, n, rng.randrange(0, 3))
        ref = floyd_warshall(g.n, g.edges)
        for u in range(g.n):
            assert bfs_distances(g, u) == [int(x) for x in ref[u]]


def test_decompose_forced_structure():
    trees = decompose_unicyclic(make_ukt(3, 1, 0, 0))
    assert [labels[0] for labels, _ in trees] == [0, 1, 2]
    assert sorted(len(labels) for labels, _ in trees) == [1, 1, 2]


def test_decompose_cycle_trivial_branches():
    trees = decompose_unicyclic(make_cycle(8))
    assert trees == [([c], [-1]) for c in range(8)]


def test_decompose_hub_family():
    # one branch holds the root plus the 11 off-cycle vertices
    trees = decompose_unicyclic(make_ukt(5, 1, 0, 5))
    assert len(trees) == 5
    assert sorted(len(labels) for labels, _ in trees) == [1, 1, 1, 1, 12]


def test_decompose_rejects():
    # a tree is one branch; a disconnected or bicyclic graph has no branches
    ((labels, parents),) = decompose_unicyclic(make_path(4))
    assert sorted(labels) == [0, 1, 2, 3] and parents[0] == -1
    assert decompose_unicyclic(Graph(6, make_cycle(3).edges | {(3, 4), (4, 5), (3, 5)})) is None
    assert decompose_unicyclic(Graph(4, make_cycle(4).edges | {(0, 2)})) is None
    assert decompose_unicyclic(Graph(0, frozenset())) is None


def test_decompose_reassembly(unicyclic_corpus):
    for n, pairs in unicyclic_corpus.items():
        for _, g in pairs:
            trees = decompose_unicyclic(g)
            k = len(trees)
            roots = [labels[0] for labels, _ in trees]
            edges = {tuple(sorted((roots[i], roots[(i + 1) % k]))) for i in range(k)}
            for labels, parents in trees:
                for v in range(1, len(labels)):
                    assert parents[v] < v
                    edges.add(tuple(sorted((labels[parents[v]], labels[v]))))
            assert edges == g.edges
            assert sorted(u for labels, _ in trees for u in labels) == list(range(g.n))


def _disconnected(rng: random.Random) -> Graph:
    """Two or three random connected components and perhaps an isolated
    vertex, with enough chords for n - 1 edges or more, so that only the
    peel itself can tell that the graph is not connected."""
    parts = rng.randint(2, 3)
    isolated = rng.randint(0, 1)
    extras = [rng.randint(0, 2) for _ in range(parts)]
    extras[0] += max(0, parts - 1 + isolated - sum(extras))
    edges, n = set(), 0
    for extra in extras:
        part = random_connected_graph(rng, rng.randint(4, 8), extra)
        edges |= {(u + n, v + n) for u, v in part.edges}
        n += part.n
    return Graph(n + isolated, frozenset(edges))


def _same_peel(g: Graph) -> None:
    """``peel`` gives the trees of ``peel_by_adjacency``, their sizes and
    their edge cuts, or both raise."""
    try:
        expected = peel_by_adjacency(Graph(g.n, g.edges))
    except DisconnectedError:
        with pytest.raises(DisconnectedError):
            peel(g)
    else:
        peeled = peel(g)
        assert peeled.trees() == expected, g
        assert peeled.sizes == [len(labels) for labels, _ in expected], g
        cuts = sum(branch_term(tree_summary(parents), g.n) for _, parents in expected)
        assert peeled.cuts == cuts, g


@given(
    st.integers(0, 10**6),
    st.sampled_from(("tree", "unicyclic", "chords", "disconnected")),
)
def test_peel_matches_the_adjacency_peel(seed, shape):
    rng = random.Random(seed)
    n = rng.randint(1 if shape == "tree" else 3, 30)
    if shape == "disconnected":
        g = _disconnected(rng)
        assert g.edge_count >= g.n - 1
    elif shape == "chords":  # a cycle and one to three chords
        g = random_connected_graph(rng, n, rng.randint(2, 4))
    else:
        g = random_connected_graph(rng, n, 0 if shape == "tree" else 1)
    _same_peel(relabelled(rng, g))


def test_peel_matches_the_adjacency_peel_on_small_classes():
    rng = random.Random(9)
    for n in range(3, 10):
        for _, g in enumerate_with_codes(n):
            _same_peel(g)
            _same_peel(relabelled(rng, g))
    # two disjoint cycles and a vertex: as many edges as a connected graph
    _same_peel(Graph(7, frozenset({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)})))


def test_identify_paths():
    merged = identify_vertices(make_path(2), 1, make_path(2), 0)
    assert merged == make_path(3)


def test_identify_triangle_pendant():
    merged = identify_vertices(make_cycle(3), 0, make_path(2), 0)
    assert merged == make_ukt(3, 1, 0, 0)


def test_identify_builds_hub_family():
    # C5 glued at a star with one pendant, i pendants and j legs gives Unm
    n, m = 12, 4
    i, j = n - 2 * m, m - 3
    hub = 0
    edges = []
    nxt = 1
    for _ in range(1 + i):
        edges.append((hub, nxt))
        nxt += 1
    for _ in range(j):
        edges.append((hub, nxt))
        edges.append((nxt, nxt + 1))
        nxt += 2
    star = make_graph(nxt, edges)
    merged = identify_vertices(make_cycle(5), 0, star, 0)
    from unikirch.enumeration import canonical_code

    assert canonical_code(merged) == canonical_code(make_unm(n, m))


@given(st.integers(0, 10**6), st.integers(2, 8), st.integers(1, 6))
def test_identify_size_identities(seed, ng, nh):
    rng = random.Random(seed)
    g = random_connected_graph(rng, ng, rng.randrange(0, 2))
    h = random_connected_graph(rng, nh, 0)
    u = rng.randrange(ng)
    w = rng.randrange(nh)
    merged = identify_vertices(g, u, h, w)
    assert merged.n == g.n + h.n - 1
    assert merged.edge_count == g.edge_count + h.edge_count


def test_wiener_examples():
    assert wiener_index(make_path(3)) == 4
    assert wiener_index(make_cycle(5)) == 15
    with pytest.raises(DisconnectedError):
        wiener_index(Graph(2, frozenset()))


def test_wiener_matches_kirchhoff_on_trees():
    from unikirch.enumeration import free_trees

    for n in range(1, 7):
        for t in free_trees(n):
            assert wiener_index(t) == kirchhoff_index_dense(t)


def test_without_vertices():
    g = make_ukt(3, 1, 0, 0)
    assert without_vertices(g, [3]) == make_cycle(3)

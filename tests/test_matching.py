import random

import pytest

from conftest import random_tree_edges
from oracles import brute_force_matching_size
from unikirch.enumeration import canonical_code, enumerate_with_codes
from unikirch.families import make_cycle, make_path, make_ukt
from unikirch.graph import Graph, make_graph, without_vertices
from unikirch.matching import (
    PerfectMatchingClass,
    classify_2m_m,
    has_perfect_matching,
    matching_number,
    matching_number_tree,
    reduce_orders_diagnostic,
    reduce_to_g0,
    unsaturated_pendant_deletion_keeps_size,
)


def star(leaves: int) -> Graph:
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def check_result(g, res):
    assert len(res.edges) == res.size
    used = set()
    for u, v in res.edges:
        assert (u, v) in g.edges
        assert u not in used and v not in used
        used.update((u, v))
    assert res.saturated == tuple(v in used for v in range(g.n))


def test_tree_examples():
    assert matching_number_tree(make_path(4)).size == 2
    assert matching_number_tree(star(5)).size == 1
    assert matching_number_tree(make_path(4)).edge_lines() == ["0 1", "2 3"]
    with pytest.raises(ValueError):
        matching_number_tree(make_cycle(4))


def test_trees_against_oracle():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(1, 11)
        g = make_graph(n, random_tree_edges(rng, n))
        res = matching_number_tree(g) if n > 1 else matching_number(g)
        check_result(g, res)
        assert res.size == brute_force_matching_size(g.edges)


def test_unicyclic_examples():
    assert matching_number(make_cycle(6)).size == 3
    assert matching_number(make_cycle(7)).size == 3
    assert matching_number(make_ukt(3, 1, 0, 0)).size == 2
    assert matching_number(make_ukt(5, 1, 0, 5)).size == 8


def test_unicyclic_witnesses_are_pinned():
    # the split edge is the lowest cycle vertex and its lower cycle
    # neighbour, and each forest side is matched leaf by leaf, lowest first
    assert matching_number(make_ukt(5, 1, 0, 5)).edge_lines() == [
        "0 5", "1 2", "3 4", "6 7", "8 9", "10 11", "12 13", "14 15",
    ]
    assert matching_number(make_cycle(7)).edge_lines() == ["0 6", "1 2", "3 4"]
    assert matching_number(make_ukt(8, 2, 0, 0)).edge_lines() == [
        "0 8", "1 9", "2 3", "4 5", "6 7",
    ]


def test_forest_input():
    g = make_graph(5, [(0, 1), (2, 3)])
    assert matching_number(g).size == 2
    with pytest.raises(ValueError):
        matching_number(make_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]))


def test_unicyclic_against_oracle(unicyclic_corpus):
    for n, pairs in unicyclic_corpus.items():
        for _, g in pairs:
            res = matching_number(g)
            check_result(g, res)
            assert res.size == brute_force_matching_size(g.edges)


def test_perfect_matching_examples():
    assert has_perfect_matching(make_cycle(8))
    assert not has_perfect_matching(make_cycle(7))
    assert has_perfect_matching(make_ukt(8, 2, 0, 0))


def test_reduce_passthrough():
    c9 = make_cycle(9)
    assert reduce_to_g0(c9) == (c9, 0)
    u82 = make_ukt(8, 2, 0, 0)
    assert reduce_to_g0(u82) == (u82, 0)


def test_reduce_single_pendant():
    g0, removed = reduce_to_g0(make_ukt(3, 1, 1, 0))
    assert removed == 1
    assert canonical_code(g0) == canonical_code(make_ukt(3, 1, 0, 0))


def test_reduce_hub_family():
    g = make_ukt(5, 1, 3, 2)  # 13 vertices, matching number 5
    assert matching_number(g).size == 5
    g0, removed = reduce_to_g0(g)
    assert removed == 3
    assert g0.n == 10
    assert has_perfect_matching(g0)
    assert canonical_code(g0) == canonical_code(make_ukt(5, 1, 0, 2))


def test_reduce_postcondition(unicyclic_corpus):
    for n, pairs in unicyclic_corpus.items():
        for _, g in pairs:
            m = matching_number(g).size
            g0, removed = reduce_to_g0(g)
            assert removed == (0 if all(g.degree(v) == 2 for v in range(g.n)) else n - 2 * m)
            if removed:
                assert g0.n == 2 * m
                assert matching_number(g0).size == m
                assert has_perfect_matching(g0)


def _relabel(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _reference_g0(g: Graph) -> tuple[Graph, int]:
    """Delete the lowest pendant whose deletion keeps the brute-force
    matching number until the order is twice that number; a cycle has no
    pendant and stays."""
    m = brute_force_matching_size(g.edges)
    h = g
    while h.n > 2 * m and any(h.degree(u) == 1 for u in range(h.n)):
        for u in range(h.n):
            if h.degree(u) == 1:
                rest = without_vertices(h, [u])
                if brute_force_matching_size(rest.edges) == m:
                    h = rest
                    break
        else:
            raise AssertionError("no deletable pendant")
    return h, g.n - h.n


def test_reduce_matches_reference_on_relabelled_classes():
    rng = random.Random(11)
    for n in range(3, 10):
        for _, g in enumerate_with_codes(n):
            h = _relabel(rng, g)
            assert reduce_to_g0(h) == _reference_g0(h)


def test_reduce_all_orders_diagnostic():
    for g in (make_ukt(3, 1, 1, 0), make_ukt(5, 1, 2, 1), make_ukt(4, 2, 3, 0)):
        m = matching_number(g).size
        for g0 in reduce_orders_diagnostic(g):
            assert g0.n == 2 * m
            assert has_perfect_matching(g0)


def test_pendant_deletion_keeps_matching(unicyclic_corpus):
    for n, pairs in unicyclic_corpus.items():
        for _, g in pairs:
            m = matching_number(g).size
            for v in range(g.n):
                if g.degree(v) == 1:
                    after = matching_number(without_vertices(g, [v])).size
                    assert after in (m - 1, m)
            if n > 2 * m and not all(g.degree(v) == 2 for v in range(g.n)):
                pendants = [v for v in range(g.n) if g.degree(v) == 1]
                assert any(
                    unsaturated_pendant_deletion_keeps_size(g, v) for v in pendants
                )


def test_classify_examples():
    assert classify_2m_m(make_cycle(8)) is PerfectMatchingClass.CYCLE
    assert classify_2m_m(make_ukt(8, 2, 0, 0)) is PerfectMatchingClass.PENDANTS_ONLY
    assert classify_2m_m(make_ukt(5, 1, 0, 1)) is PerfectMatchingClass.HAS_PENDANT_P2
    with pytest.raises(ValueError):
        classify_2m_m(make_cycle(7))


def test_classify_partitions_perfect_matching_classes():
    from unikirch.enumeration import enumerate_with_codes

    for m in (2, 3, 4):
        counts = {c: 0 for c in PerfectMatchingClass}
        for _, g in enumerate_with_codes(2 * m, m):
            cls = classify_2m_m(g)
            counts[cls] += 1
            if cls is PerfectMatchingClass.PENDANTS_ONLY:
                degs = [g.degree(v) for v in range(g.n)]
                assert max(degs) == 3
                for v in range(g.n):
                    if degs[v] == 1:
                        assert degs[g.adjacency[v][0]] == 3
        assert counts[PerfectMatchingClass.CYCLE] == 1

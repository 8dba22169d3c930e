import os
import random
from itertools import product

import pytest

from conftest import random_tree_edges, relabelled
from oracles import (
    BranchSummary,
    brute_force_matching_size,
    cycle_matching,
    cycle_matching_gain_by_runs,
    graph_invariants,
    make_graph,
)
from unikirch.enumeration import canonical_code, enumerate_with_codes
from unikirch.families import make_cycle, make_path, make_ukt
from unikirch.graph import Graph, without_vertices
from unikirch.matching import has_perfect_matching, matching_number

EXTENDED = bool(os.environ.get("UNIKIRCH_EXTENDED"))


def star(leaves: int) -> Graph:
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def check_result(g, res):
    assert len(res.edges) == res.size
    used = set()
    for u, v in res.edges:
        assert (u, v) in g.edges
        assert u not in used and v not in used
        used.update((u, v))


def edge_lines(g: Graph) -> list[str]:
    """The matching witness of g in the graph file format's edge syntax."""
    return [f"{u} {v}" for u, v in sorted(matching_number(g).edges)]


def test_tree_examples():
    assert matching_number(make_path(4)).size == 2
    assert matching_number(star(5)).size == 1
    assert edge_lines(make_path(4)) == ["0 1", "2 3"]


def test_trees_against_oracle():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(1, 11)
        g = make_graph(n, random_tree_edges(rng, n))
        res = matching_number(g)
        check_result(g, res)
        assert res.size == brute_force_matching_size(g.edges)


def test_unicyclic_examples():
    assert matching_number(make_cycle(6)).size == 3
    assert matching_number(make_cycle(7)).size == 3
    assert matching_number(make_ukt(3, 1, 0, 0)).size == 2
    assert matching_number(make_ukt(5, 1, 0, 5)).size == 8


def test_unicyclic_witnesses_are_pinned():
    # each branch is matched from its leaves up; the cycle walk, in the
    # order of decompose_unicyclic from the lowest cycle vertex toward its
    # lower neighbour, starts at the first root its branch matched (0 in
    # both U graphs) or, on a bare cycle, at the last root, 6, which pairs
    # with 0, and pairs each two consecutive unmatched roots
    assert edge_lines(make_ukt(5, 1, 0, 5)) == [
        "0 5", "1 2", "3 4", "6 7", "8 9", "10 11", "12 13", "14 15",
    ]
    assert edge_lines(make_cycle(7)) == ["0 6", "1 2", "3 4"]
    assert edge_lines(make_ukt(8, 2, 0, 0)) == [
        "0 8", "1 9", "2 3", "4 5", "6 7",
    ]


def test_forest_input():
    # only a tree or a connected unicyclic graph has a peel to match
    with pytest.raises(ValueError):
        matching_number(make_graph(5, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        matching_number(make_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]))


def _check_classes(orders) -> None:
    """The witness of every class of each order, as built and relabelled at
    random, is a matching of the brute force's size and of the size that
    ``cycle_matching`` counts from the branch summaries of its peel."""
    rng = random.Random(29)
    for n in orders:
        for _, g in enumerate_with_codes(n):
            for h in (g, relabelled(rng, g)):
                res = matching_number(h)
                check_result(h, res)
                assert res.size == brute_force_matching_size(h.edges), h
                assert res.size == graph_invariants(h).matching, h


def test_unicyclic_against_oracle():
    _check_classes(range(3, 12))


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_unicyclic_against_oracle_extended():
    _check_classes(range(12, 14))


def test_cycle_matching_matches_the_gain_by_runs():
    # a free root's branch loses nothing by leaving it unmatched
    free, tied = BranchSummary(1, 0, 0, 0, 0), BranchSummary(2, 1, 1, 1, 0)
    for k in range(1, 13):
        for pattern in product((False, True), repeat=k):
            branches = [free if f else tied for f in pattern]
            expected = pattern.count(False) + cycle_matching_gain_by_runs(list(pattern))
            assert cycle_matching(branches) == expected, pattern


def test_perfect_matching_examples():
    assert has_perfect_matching(make_cycle(8))
    assert not has_perfect_matching(make_cycle(7))
    assert has_perfect_matching(make_ukt(8, 2, 0, 0))


def _brute_force_size(g: Graph) -> int:
    return brute_force_matching_size(g.edges)


def _reference_g0(g: Graph, size=_brute_force_size) -> tuple[Graph, int]:
    """Delete the lowest pendant whose deletion keeps the matching number
    ``size`` until the order is twice that number; a cycle has no pendant
    and stays."""
    m = size(g)
    h = g
    while h.n > 2 * m and any(h.degree(u) == 1 for u in range(h.n)):
        for u in range(h.n):
            if h.degree(u) == 1:
                rest = without_vertices(h, [u])
                if size(rest) == m:
                    h = rest
                    break
        else:
            raise AssertionError("no deletable pendant")
    return h, g.n - h.n


def _library_size(g: Graph) -> int:
    return matching_number(g).size


def test_reduce_passthrough():
    c9 = make_cycle(9)
    assert _reference_g0(c9) == (c9, 0)
    u82 = make_ukt(8, 2, 0, 0)
    assert _reference_g0(u82) == (u82, 0)


def test_reduce_single_pendant():
    g0, removed = _reference_g0(make_ukt(3, 1, 1, 0))
    assert removed == 1
    assert canonical_code(g0) == canonical_code(make_ukt(3, 1, 0, 0))


def test_reduce_hub_family():
    g = make_ukt(5, 1, 3, 2)  # 13 vertices, matching number 5
    assert matching_number(g).size == 5
    g0, removed = _reference_g0(g)
    assert removed == 3
    assert g0.n == 10
    assert has_perfect_matching(g0)
    assert canonical_code(g0) == canonical_code(make_ukt(5, 1, 0, 2))


def _check_reduction(orders, size) -> None:
    """The paper's reduction lemma on every class of each order, relabelled
    at random: while n > 2m some pendant's deletion keeps m (else
    ``_reference_g0`` raises), so every class but the cycle reaches a
    unicyclic G0 of order 2m with a perfect matching; a cycle has no
    pendant and stays as it is."""
    rng = random.Random(11)
    for n in orders:
        for _, g in enumerate_with_codes(n):
            h = relabelled(rng, g)
            m = size(h)
            g0, removed = _reference_g0(h, size)
            if all(h.degree(v) == 2 for v in range(n)):
                assert (g0, removed) == (h, 0)
            else:
                assert removed == n - 2 * m
                assert g0.n == g0.edge_count == 2 * m
                assert size(g0) == m


def test_reduce_postcondition(unicyclic_corpus):
    # the reduction driven by the library matching number
    for n, pairs in unicyclic_corpus.items():
        for _, g in pairs:
            m = matching_number(g).size
            g0, removed = _reference_g0(g, _library_size)
            assert removed == (0 if all(g.degree(v) == 2 for v in range(g.n)) else n - 2 * m)
            if removed:
                assert g0.n == 2 * m
                assert matching_number(g0).size == m
                assert has_perfect_matching(g0)


def test_reduce_matches_reference_on_relabelled_classes():
    # the library matching number picks the same pendants as the brute force
    rng = random.Random(11)
    for n in range(3, 10):
        for _, g in enumerate_with_codes(n):
            h = relabelled(rng, g)
            assert _reference_g0(h, _library_size) == _reference_g0(h)


def test_reduction_lemma():
    _check_reduction(range(3, 10), _brute_force_size)


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_reduction_lemma_extended():
    # past the brute force's reach the library matching number, itself
    # checked against the brute force on every class of the corpus, decides m
    _check_reduction(range(10, 14), _library_size)


def test_pendant_deletion_keeps_matching(unicyclic_corpus):
    # deleting a pendant lowers the matching number by at most one
    for n, pairs in unicyclic_corpus.items():
        for _, g in pairs:
            m = matching_number(g).size
            for v in range(g.n):
                if g.degree(v) == 1:
                    after = matching_number(without_vertices(g, [v])).size
                    assert after in (m - 1, m)


def _g0_class(g: Graph) -> str:
    """The paper's classification of G0: a unicyclic graph on 2m vertices
    with matching number m is C_2m ("cycle"), or has a pendant P2, a pendant
    on a degree-2 vertex ("pendant_p2"), or has pendants only on vertices of
    degree 3 or more ("pendants_only")."""
    if not has_perfect_matching(g):
        raise ValueError("G0 has a perfect matching")
    degrees = [g.degree(v) for v in range(g.n)]
    hosts = {degrees[g.adjacency[v][0]] for v in range(g.n) if degrees[v] == 1}
    if not hosts:
        return "cycle"
    return "pendant_p2" if 2 in hosts else "pendants_only"


def test_classify_examples():
    assert _g0_class(make_cycle(8)) == "cycle"
    assert _g0_class(make_ukt(8, 2, 0, 0)) == "pendants_only"
    assert _g0_class(make_ukt(5, 1, 0, 1)) == "pendant_p2"
    with pytest.raises(ValueError):
        _g0_class(make_cycle(7))


def test_classify_partitions_perfect_matching_classes():
    # every class on 2m vertices with matching number m: the cycle is the
    # only class without a pendant, and a class with pendants only on
    # vertices of degree 3 or more has maximum degree 3
    for m in range(2, 7):
        cycles = 0
        for _, g in enumerate_with_codes(2 * m, m):
            cls = _g0_class(g)
            degrees = [g.degree(v) for v in range(g.n)]
            if cls == "cycle":
                assert set(degrees) == {2}
                cycles += 1
            elif cls == "pendants_only":
                assert max(degrees) == 3
                assert all(degrees[g.adjacency[v][0]] == 3 for v in range(g.n) if degrees[v] == 1)
        assert cycles == 1

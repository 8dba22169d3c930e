import os
import random
from fractions import Fraction
from itertools import product
from math import factorial
from operator import add, mul

import pytest

from oracles import (
    all_labeled_trees,
    argmin_by_cell,
    branch_row,
    branch_term,
    cycle_matching,
    graph_invariants,
    invariants_from_code,
    kirchhoff_index_dense,
    automorphism_count,
    labeled_unicyclic_classes,
    labeled_unicyclic_orbits,
    make_graph,
    orbit_compositions_bruteforce,
    rooted_tree_classes_bruteforce,
    rooted_tree_code,
    row_sums,
    sweep_minima_by_product,
    tree_summary,
    unicyclic_codes_bruteforce,
)
from unikirch import enumeration
from unikirch.enumeration import (
    CanonicalCode,
    _classes,
    _code_peel,
    _code_states,
    _itself,
    _State,
    _steps,
    _term_tables,
    _transfer,
    _walk,
    _walk_pools,
    canonical_code,
    code_parents,
    counts_by_matching,
    enumerate_codes,
    enumerate_with_codes,
    extremal_search,
    free_tree_codes,
    free_trees,
    graph_from_code,
    orbit_compositions,
    rooted_tree_codes,
    sweep_minima,
    tree_from_code,
)
from unikirch.families import make_cycle, make_path, make_ukt, recognize_family
from unikirch.graph import (
    Graph,
    identify_vertices,
    peel,
    wiener_index,
)
from unikirch.matching import matching_number
from unikirch.resistance import cycle_route, vertex_sums

EXTENDED = bool(os.environ.get("UNIKIRCH_EXTENDED"))


def relabel(g: Graph, perm: list[int]) -> Graph:
    edges = frozenset(
        (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
        for u, v in g.edges
    )
    return Graph(g.n, edges)


def test_rooted_code_examples():
    single = Graph(1, frozenset())
    assert rooted_tree_code(single, 0) == "()"
    p3 = make_graph(3, [(0, 1), (1, 2)])
    assert rooted_tree_code(p3, 0) == "((()))"
    assert rooted_tree_code(p3, 1) == "(()())"
    assert rooted_tree_code(p3, 0) != rooted_tree_code(p3, 1)


def test_rooted_tree_table_counts():
    # rooted trees by size: 1, 1, 2, 4, 9, 20, 48, 115
    expected = [1, 1, 2, 4, 9, 20, 48, 115]
    for size, count in enumerate(expected, start=1):
        codes = rooted_tree_codes(size)
        assert len(codes) == count
        assert len(set(codes)) == count
        assert list(codes) == sorted(codes)


def test_rooted_tree_codes_match_bruteforce_classes():
    for n in range(1, 6):
        assert len(rooted_tree_codes(n)) == rooted_tree_classes_bruteforce(n)


def test_tree_from_code_round_trip():
    for n in range(1, 8):
        for code in rooted_tree_codes(n):
            t = tree_from_code(code)
            assert t.n == n
            assert rooted_tree_code(t, 0) == code


def test_rooted_code_complete_invariant():
    # equal codes iff rooted-isomorphic, checked against all labeled
    # trees: the number of (class) codes matches and every labeled tree
    # maps onto an enumerated code
    for n in range(1, 7):
        produced = set()
        for edges in all_labeled_trees(n):
            g = make_graph(n, edges)
            for root in range(n):
                produced.add(rooted_tree_code(g, root))
        assert produced == set(rooted_tree_codes(n))


def test_canonical_code_examples():
    assert canonical_code(make_cycle(5)) == CanonicalCode(5, ("()",) * 5)
    code = canonical_code(make_ukt(3, 1, 0, 0))
    assert code.cycle_length == 3
    assert sorted(code.branch_codes) == ["(())", "()", "()"]
    for not_unicyclic in (make_path(4), Graph(4, make_cycle(4).edges | {(0, 2)})):
        with pytest.raises(ValueError):
            canonical_code(not_unicyclic)


def test_canonical_code_invariant_under_relabeling(unicyclic_corpus):
    rng = random.Random(99)
    for n, pairs in unicyclic_corpus.items():
        for code, g in pairs:
            for _ in range(100 if n <= 6 else 25):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_code(relabel(g, perm)) == code


def test_graph_from_code_round_trip(unicyclic_corpus):
    for n, pairs in unicyclic_corpus.items():
        for code, g in pairs:
            assert canonical_code(g) == code
            assert graph_from_code(code) == g


def test_code_peel_matches_graph_peel():
    # the peel walked off a class's codes against graph.peel of its built
    # graph, which finds the cycle and the branches by peeling leaves: the
    # same core, sizes, cuts, parents and subtree sizes, an order that puts
    # every vertex before its parent, and the same vertex sums by label
    for n in range(3, 11):
        for code, g in enumerate_with_codes(n):
            walked, peeled = _code_peel(code.branch_codes), peel(g)
            for field in ("core", "sizes", "cuts", "parent", "sub"):
                assert getattr(walked, field) == getattr(peeled, field), (code, field)
            assert sorted(walked.order) == sorted(peeled.order), code
            place = {v: i for i, v in enumerate(walked.order)}
            k = code.cycle_length
            assert all(walked.parent[v] < k or place[walked.parent[v]] > place[v] for v in place)
            nums = cycle_route(walked).vertex_numerators()
            assert nums == cycle_route(peeled).vertex_numerators(), code


def test_enumerate_smallest():
    assert [g for _, g in enumerate_with_codes(3)] == [make_cycle(3)]
    assert sum(1 for _ in enumerate_with_codes(4)) == 2


def test_enumerate_counts_match_labeled_oracle():
    for n in range(3, 7):
        assert sum(1 for _ in enumerate_with_codes(n)) == len(labeled_unicyclic_classes(n))


def a057500(n: int) -> int:
    """Labeled connected unicyclic graphs on n vertices, OEIS A057500:
    (n-1)!/2 sum_{j=0}^{n-3} n^j/j!."""
    total = Fraction(factorial(n - 1), 2) * sum(Fraction(n**j, factorial(j)) for j in range(n - 2))
    assert total.denominator == 1
    return total.numerator


def assert_class_count_certificate(n: int) -> None:
    # each class stands for n!/|Aut| labeled graphs, so a missing class
    # lowers the sum and a duplicate raises it
    labeled = sum(factorial(n) // automorphism_count(code) for code in enumerate_codes(n))
    assert labeled == a057500(n), n


def test_class_count_certificate():
    assert [a057500(n) for n in range(3, 8)] == [1, 15, 222, 3660, 68295]
    for n in range(3, 15):
        assert_class_count_certificate(n)


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_class_count_certificate_extended():
    for n in (15, 16):
        assert_class_count_certificate(n)


def test_automorphism_count_matches_labeled_orbits():
    # n!/|Aut| is the orbit of each class under the vertex permutations
    for n in range(3, 8):
        orbits = {
            canonical_code(make_graph(n, edges)): size for edges, size in labeled_unicyclic_orbits(n)
        }
        assert sorted(orbits) == list(enumerate_codes(n))
        for code, size in orbits.items():
            assert factorial(n) // automorphism_count(code) == size, code
            assert factorial(n) % automorphism_count(code) == 0, code


def test_enumerate_matching_filter_matches_labeled_oracle():
    from oracles import brute_force_matching_size

    n = 6
    by_m = {}
    for edges in labeled_unicyclic_classes(n):
        m = brute_force_matching_size(edges)
        by_m[m] = by_m.get(m, 0) + 1
    assert counts_by_matching(n) == dict(sorted(by_m.items()))
    assert sum(1 for _ in enumerate_with_codes(6, m=3)) == by_m[3]


def test_enumerate_no_duplicates_and_sorted():
    for n in range(3, 9):
        codes = [code for code, _ in enumerate_with_codes(n)]
        assert len(codes) == len(set(codes))
        assert codes == sorted(codes)


def test_class_counts_a001429():
    # connected unicyclic graphs, OEIS A001429; the labelled oracle stops at n = 8
    for n, count in zip(range(10, 15), (657, 1806, 5026, 13999, 39260)):
        assert sum(1 for _ in enumerate_codes(n)) == count


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_counts_by_matching_a001429_extended():
    # the per-class check of the counts is in assert_sweep_matches_bruteforce
    a001429 = (1, 2, 5, 13, 33, 89, 240, 657, 1806, 5026, 13999, 39260, 110381, 311465)
    for n, count in zip(range(3, 17), a001429):
        assert sum(counts_by_matching(n).values()) == count, n


def test_listing_matches_bruteforce():
    # every product of the branch pools of every composition, kept when
    # dihedral-minimal, for n <= 12
    for n in range(3, 13):
        codes = [(c.cycle_length, c.branch_codes) for c in enumerate_codes(n)]
        assert codes == unicyclic_codes_bruteforce(n, rooted_tree_codes), n


def assert_listing_filters_match(n):
    # the listing by matching number, which drops whole state tuples,
    # against the unfiltered listing filtered by each class's own matching
    # number, read from its codes: the two walk the same state pools, so
    # this checks the walk's matching numbers, and the brute-force tests
    # of the listing and of the pools check the pools
    records = [(code, invariants_from_code(code).matching) for code in enumerate_codes(n)]
    for m in range(n // 2 + 2):
        expected = [code for code, matching in records if matching == m]
        assert list(enumerate_codes(n, m)) == expected, (n, m)


def test_listing_filters_match_invariants():
    for n in range(3, 12):
        assert_listing_filters_match(n)


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_listing_filters_match_invariants_extended():
    for n in range(12, 15):
        assert_listing_filters_match(n)


def test_listing_builds_no_table_of_every_rooted_tree(monkeypatch):
    # the unfiltered listing walks the state pools that the counts and the
    # filtered listing walk, and builds no second table of the same trees
    monkeypatch.setattr(enumeration, "rooted_tree_codes", lambda *_: pytest.fail("second table"))
    assert sum(1 for _ in enumerate_codes(9)) == 240


def test_invariants_from_code_match_graph_routes():
    # every class for n <= 11 (2846 classes) against the independent routes
    for n in range(3, 12):
        for code, g in enumerate_with_codes(n):
            inv = invariants_from_code(code)
            assert inv.cycle_length == code.cycle_length
            assert inv.kf == kirchhoff_index_dense(g), code
            assert inv.wiener == wiener_index(g), code
            assert inv.matching == matching_number(g).size, code
            mat = cycle_route(peel(g)).matrix()
            assert vertex_sums(g) == row_sums(mat), code


def test_invariants_from_code_deep_branch():
    # C3 with a path of s vertices hanging from one cycle vertex; Kf from
    # the vertex-identification identity, W and m by hand
    s = 10_000
    path = "(" * s + ")" * s
    inv = invariants_from_code(CanonicalCode(3, (path, "()", "()")))
    kf_path, w_path = Fraction(s**3 - s, 6), s * (s - 1) * (s + 1) // 6
    assert inv.kf == 2 + kf_path + (s - 1) * Fraction(4, 3) + s * (s - 1)
    assert inv.wiener == 3 + w_path + (s - 1) * 2 + s * (s - 1)
    assert inv.matching == (s + 2) // 2
    assert code_parents([path]) == [-1] + list(range(s - 1))


def test_codes_of_a_deep_branch():
    # a branch deeper than the interpreter's recursion limit
    s = 2000
    g = identify_vertices(make_cycle(3), 0, make_path(s), 0)
    path = "(" * s + ")" * s
    code = canonical_code(g)
    assert code == CanonicalCode(3, (path, "()", "()"))
    assert invariants_from_code(code) == graph_invariants(g)
    assert recognize_family(g) is None
    assert rooted_tree_code(make_path(s), 0) == path


def assert_sweep_matches_bruteforce(n):
    # every class's invariants, and each cell's minimum and argmin in
    # enumeration order, against the sweep's state tuples
    records = [(code, invariants_from_code(code)) for code in enumerate_codes(n)]
    sweep = sweep_minima(n)
    assert sweep.n == n
    by_m = sorted(inv.matching for _, inv in records)
    counts = counts_by_matching(n)
    assert counts == {m: by_m.count(m) for m in sorted(set(by_m))}
    assert list(counts) == sorted(counts)
    cells = (
        (sweep.kf, lambda inv: (inv.matching, inv.kf)),
        (sweep.wiener, lambda inv: (inv.matching, inv.wiener)),
        (sweep.kf_by_cycle, lambda inv: (inv.cycle_length, inv.kf)),
    )
    for table, cell in cells:
        got = {key: (best.value, list(best.codes)) for key, best in table.items()}
        expected = argmin_by_cell([(*cell(inv), code) for code, inv in records])
        assert list(got.items()) == list(expected.items()), n


def parsed_states(size):
    # every rooted tree on `size` vertices grouped by the (matching number,
    # matching with the root unmatched) read from its parsed code, the
    # states in the order of their least codes
    states: dict = {}
    for code in rooted_tree_codes(size):
        b = tree_summary(code_parents([code]))
        states.setdefault((b.matching, b.root_free), []).append((b, code))
    return states


def assert_state_tables_match_bruteforce(ns):
    """Per state, the least branch term and every code attaining it, and
    the least depth sum and least entry of the codes' branch rows; returns
    how many states have tied least-term codes."""
    ties = 0
    for n in ns:
        tables = _term_tables(n)
        assert len(tables) == n - 1
        for size in range(1, n - 1):
            expected = {}
            for state, trees in parsed_states(size).items():
                least = min(branch_term(b, n) for b, _ in trees)
                rows = [branch_row(code_parents([c]), n) for _, c in trees]
                expected[state] = (
                    least,
                    tuple(c for b, c in trees if branch_term(b, n) == least),
                    min(row[0] for row in rows),
                    min(min(row) for row in rows),
                )
            got = {
                (s.matching, s.root_free): (s.term, s.codes, s.depth, s.vertex)
                for s in tables[size]
            }
            assert len(got) == len(tables[size])
            assert got == expected, (n, size)
            ties += sum(len(codes) > 1 for _, codes, _, _ in got.values())
    return ties


def test_state_tables_match_bruteforce():
    # ties first occur at n = 8 (two trees on 6 vertices); no cell minimum
    # up to n = 16 uses one, so the sweep oracles alone would not see them
    assert assert_state_tables_match_bruteforce(range(4, 13)) > 0


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_state_tables_match_bruteforce_extended():
    # the row suites' ceiling: every rooted tree of up to 14 vertices
    assert_state_tables_match_bruteforce(range(13, 17))


def assert_pools_match_bruteforce(sizes):
    for size in sizes:
        got = [((s.matching, s.root_free, s.term), s.codes) for s in _code_states(size)]
        expected = [
            ((*state, 0), tuple(code for _, code in trees))
            for state, trees in parsed_states(size).items()
        ]
        assert got == expected, size


def test_pools_match_bruteforce():
    assert_pools_match_bruteforce(range(1, 13))


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_pools_match_bruteforce_extended():
    assert_pools_match_bruteforce(range(13, 15))


def assert_orbits_match_bruteforce(n):
    # each orbit once, in ascending order, with its stabiliser read off
    # where each getter sends the positions 0..k-1
    for k in range(3, n + 1):
        got = [
            (sizes, sorted(image(tuple(range(k))) for image in fixing))
            for sizes, fixing in orbit_compositions(n, k)
        ]
        assert got == sorted(orbit_compositions_bruteforce(n, k).items()), (n, k)


def test_orbit_compositions_match_bruteforce():
    for n in range(3, 13):
        assert_orbits_match_bruteforce(n)


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_orbit_compositions_match_bruteforce_extended():
    for n in range(13, 17):
        assert_orbits_match_bruteforce(n)


def test_classes_merge_dihedral_images():
    # the path and the star on 3 vertices differ in state; on C4 with sizes
    # (1, 3, 1, 3) the tuples (1, path, 1, star) and (1, star, 1, path) are
    # rotations of each other, so both expand to the same single class
    (one,) = _code_states(1)
    path, star = _code_states(3)
    assert (path.codes, star.codes) == (("((()))",), ("(()())",))
    sizes = (1, 3, 1, 3)
    fixing = dict(orbit_compositions(8, 4))[sizes]
    groups = [(one, path, one, star), (one, star, one, path)]
    walked = _walk(sizes, _walk_pools(8))
    assert [item for item in walked if item[1] in groups] == [(3, group) for group in groups]
    classes = _classes((sizes, fixing, group) for group in groups)
    assert list(classes) == [CanonicalCode(4, ("((()))", "()", "(()())", "()"))]


def test_sweep_minima_matches_bruteforce_argmin():
    for n in range(3, 14):
        assert_sweep_matches_bruteforce(n)


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_sweep_minima_matches_bruteforce_argmin_extended():
    for n in range(14, 17):
        assert_sweep_matches_bruteforce(n)


def test_sweep_minima_matches_product_walk():
    # values and argmin codes of every cell against every state tuple
    for n in range(3, 15):
        assert sweep_minima(n) == sweep_minima_by_product(n), n


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_sweep_minima_matches_product_walk_extended():
    # the sweep's ceiling, verification.SWEEP_MAX_N
    for n in range(15, 21):
        assert sweep_minima(n) == sweep_minima_by_product(n), n


def test_transfer_matching_matches_cycle_matching():
    # one state per root, free or not, with branch matchings mixed round
    # the cycle: the (+, *) transfer with unit weights puts each pattern's
    # one tuple on the matching number that the oracle cycle_matching
    # counts, and the walker gives that tuple with that number, and with
    # a target m gives it exactly when m is that number
    states = [(_State(1 + i % 3, i % 3, ()), _State(i % 3, i % 3, ())) for i in range(12)]
    steps = [[_steps((state,), lambda _: 1) for state in pair] for pair in states]
    walks = [[_steps((state,), _itself) for state in pair] for pair in states]
    for k in range(1, 13):
        for pattern in product((0, 1), repeat=k):
            group = tuple(states[i][free] for i, free in enumerate(pattern))
            m = cycle_matching(group)
            cycle = [steps[i][free] for i, free in enumerate(pattern)]
            assert _transfer(range(k), cycle, 1, mul, add) == {m: 1}, pattern
            walk = [walks[i][free] for i, free in enumerate(pattern)]
            assert _walk(range(k), walk) == [(m, group)], pattern
            assert _walk(range(k), walk, m) == [(m, group)], pattern
            assert _walk(range(k), walk, m - 1) == _walk(range(k), walk, m + 1) == [], pattern


def assert_walk_matches_filtered_product(n):
    # every orbit's state tuples in the order of their product, each with
    # the matching number the oracle cycle_matching counts, and with a
    # target m exactly that m's tuples
    steps = _walk_pools(n)
    pools = [()] + [_code_states(size) for size in range(1, n - 1)]
    for k in range(3, n + 1):
        for sizes, _ in orbit_compositions(n, k):
            walked = [(cycle_matching(g), g) for g in product(*[pools[s] for s in sizes])]
            assert _walk(sizes, steps) == walked, sizes
            for m in range(n // 2 + 2):
                assert _walk(sizes, steps, m) == [item for item in walked if item[0] == m], m


def test_walk_matches_filtered_product():
    for n in range(3, 11):
        assert_walk_matches_filtered_product(n)


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_walk_matches_filtered_product_extended():
    for n in range(11, 15):
        assert_walk_matches_filtered_product(n)


def test_sweep_and_pools_parse_no_code(monkeypatch):
    # the sweep's tables and the pools carry each tree's state and term
    # from its children's, so neither lists nor parses a code to find them
    monkeypatch.setattr(enumeration, "_pools", {})
    for name in ("rooted_tree_codes", "code_parents"):
        monkeypatch.setattr(enumeration, name, lambda *args, name=name: pytest.fail(name))
    sweep_minima.__wrapped__(14)
    assert not enumeration._pools
    for size in range(1, 13):
        _code_states(size)


def test_enumerate_partition_over_matching():
    for n in range(3, 10):
        total = sum(1 for _ in enumerate_with_codes(n))
        assert sum(counts_by_matching(n).values()) == total


def test_enumerate_rejects():
    with pytest.raises(ValueError):
        list(enumerate_with_codes(2))


def test_enumerated_graphs_are_unicyclic(unicyclic_corpus):
    for n, pairs in unicyclic_corpus.items():
        for _, g in pairs:
            assert g.n == n
            assert g.edge_count == n


def test_extremal_search_examples():
    codes, value = extremal_search(8, 4)
    assert value == 42
    assert codes == (canonical_code(make_cycle(8)),)
    codes, value = extremal_search(10, 5)
    assert value == Fraction(655, 8)
    assert codes == (canonical_code(make_ukt(8, 2, 0, 0)),)


def test_extremal_search_wiener():
    from unikirch.graph import wiener_index

    codes, value = extremal_search(6, 3, invariant="wiener")
    assert value == min(wiener_index(g) for _, g in enumerate_with_codes(6, m=3))
    with pytest.raises(ValueError):
        extremal_search(6, 3, invariant="girth")
    with pytest.raises(ValueError):
        extremal_search(4, 1)


def test_free_trees_counts():
    # free trees by size: 1, 1, 1, 2, 3, 6, 11, 23
    expected = [1, 1, 1, 2, 3, 6, 11, 23]
    for n, count in enumerate(expected, start=1):
        assert len(free_tree_codes(n)) == count


def test_free_trees_match_prufer_oracle():
    for n in range(1, 8):
        classes = set()
        for edges in all_labeled_trees(n):
            g = make_graph(n, edges)
            classes.add(min(rooted_tree_code(g, r) for r in range(n)))
        assert classes == set(free_tree_codes(n))
        assert len(free_trees(n)) == len(classes)


def test_stable_hash_is_stable():
    code = canonical_code(make_cycle(5))
    assert code.stable_hash() == CanonicalCode(5, ("()",) * 5).stable_hash()
    assert len(code.stable_hash()) == 16

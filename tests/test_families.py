import os
import random
from fractions import Fraction

import pytest

from conftest import relabelled
from oracles import (
    arc_pair_resistance_sum,
    family_label_by_build,
    make_graph,
    recognize_family_by_build,
)
from unikirch.enumeration import canonical_code, enumerate_codes, enumerate_with_codes
from unikirch.families import (
    FamilySpec,
    central_vertex,
    family_label,
    girth_min_kf,
    make_cycle,
    make_path,
    make_ukt,
    make_unm,
    parse_family_spec,
    predicted_min,
    predicted_min_perfect,
    recognize_family,
    ukt_central_vertex_sum,
    ukt_kf_closed_form,
    unm_kf_closed_form,
)
from unikirch.matching import matching_number
from unikirch.graph import Graph
from unikirch.resistance import kirchhoff_index, kirchhoff_vertex_sum, vertex_sums

EXTENDED = bool(os.environ.get("UNIKIRCH_EXTENDED"))


def test_basic_constructors():
    assert make_cycle(3).edge_count == 3
    assert make_path(2).edge_count == 1
    for n in range(3, 9):
        assert make_cycle(n).edge_count == n
    with pytest.raises(ValueError):
        make_cycle(2)
    with pytest.raises(ValueError):
        make_path(0)


def test_ukt_vertex_counts():
    assert make_ukt(3, 1, 0, 3).n == 10
    assert make_ukt(3, 2, 2, 1).n == 9
    assert make_ukt(3, 3, 1, 1).n == 9
    for k in range(3, 8):
        for t in range(0, k + 1):
            for i in range(0, 3):
                for j in range(0, 3):
                    g = make_ukt(k, t, i, j)
                    assert g.n == k + t + i + 2 * j
                    assert g.edge_count == g.n


def test_ukt_rejects():
    with pytest.raises(ValueError):
        make_ukt(2, 0, 0, 0)
    with pytest.raises(ValueError):
        make_ukt(4, 5, 0, 0)
    with pytest.raises(ValueError):
        make_ukt(4, 1, -1, 0)


def test_ukt_structure_examples():
    assert kirchhoff_index(make_ukt(8, 2, 0, 0)) == Fraction(655, 8)
    assert matching_number(make_ukt(5, 1, 0, 0)).size == 3
    g = make_ukt(4, 0, 2, 1)  # attachment defaults to cycle vertex 0
    assert g.degree(0) == 5


def test_central_vertex_convention():
    assert central_vertex(9, 1) == 0
    assert central_vertex(9, 2) == 0
    assert central_vertex(9, 3) == 1
    assert central_vertex(9, 0) == 0
    # even arcs have two symmetric central candidates; both attachment
    # choices give isomorphic graphs
    k, t, i, j = 6, 2, 2, 1
    alt_edges = set(make_cycle(k).edges)
    for c in range(t):
        alt_edges.add((c, k + c))
    hub = 1  # the other candidate
    nxt = k + t
    for _ in range(i):
        alt_edges.add((hub, nxt))
        nxt += 1
    for _ in range(j):
        alt_edges.add((hub, nxt))
        alt_edges.add((nxt, nxt + 1))
        nxt += 2
    from unikirch.graph import Graph

    alt = Graph(k + t + i + 2 * j, frozenset(alt_edges))
    assert canonical_code(alt) == canonical_code(make_ukt(k, t, i, j))


def test_unm_delegates():
    assert make_unm(16, 8) == make_ukt(5, 1, 0, 5)
    assert matching_number(make_unm(14, 4)).size == 4
    with pytest.raises(ValueError):
        make_unm(5, 3)
    with pytest.raises(ValueError):
        make_unm(10, 2)


def test_unm_closed_form_matches_direct():
    for m in range(3, 8):
        for n in range(2 * m, 17):
            assert unm_kf_closed_form(n, m) == kirchhoff_index(make_unm(n, m))
    assert unm_kf_closed_form(16, 8) == 284
    assert unm_kf_closed_form(14, 4) == 174
    for m in range(3, 9):
        assert unm_kf_closed_form(2 * m, m) == 6 * m * m - 13 * m + 4


def test_arc_pair_resistance_sum():
    assert arc_pair_resistance_sum(10, 4) == 8
    assert arc_pair_resistance_sum(11, 5) == Fraction(170, 11)
    assert arc_pair_resistance_sum(12, 4) == Fraction(25, 3)
    assert arc_pair_resistance_sum(9, 1) == 0
    assert arc_pair_resistance_sum(9, 0) == 0


def test_arc_sum_matches_direct_resistances():
    from unikirch.resistance import resistance_matrix

    for k in range(3, 10):
        for t in range(2, k + 1):
            g = make_ukt(k, t, 0, 0)
            mat = resistance_matrix(g)
            sigma = Fraction(0)
            for a in range(t):
                for b in range(a + 1, t):
                    sigma += mat.r(a, b)
            assert sigma == arc_pair_resistance_sum(k, t)


def test_central_vertex_sum_closed_form():
    assert ukt_central_vertex_sum(5, 1) == 5
    assert ukt_central_vertex_sum(3, 1) == Fraction(7, 3)
    for k in range(3, 10):
        for t in range(1, k + 1):
            g = make_ukt(k, t, 0, 0)
            hub = central_vertex(k, t)
            assert kirchhoff_vertex_sum(g, hub) == ukt_central_vertex_sum(k, t)
            if t % 2 == 0:
                other = t // 2
                assert kirchhoff_vertex_sum(g, other) == ukt_central_vertex_sum(k, t)


def test_central_vertex_sum_is_minimum():
    for k, t in ((5, 2), (6, 3), (7, 4), (8, 5)):
        g = make_ukt(k, t, 0, 0)
        sums = [kirchhoff_vertex_sum(g, v) for v in range(g.n)]
        assert min(sums) == ukt_central_vertex_sum(k, t)


def test_ukt_kf_closed_form_tight():
    assert ukt_kf_closed_form(8, 2) == Fraction(655, 8)
    assert ukt_kf_closed_form(7, 7) == 203
    for k in range(3, 13):
        for t in range(0, k + 1):
            assert ukt_kf_closed_form(k, t) == kirchhoff_index(make_ukt(k, t, 0, 0))


def test_girth_min_kf():
    assert girth_min_kf(5, 4) == Fraction(23, 2)
    assert girth_min_kf(5, 3) == Fraction(38, 3)
    for n in range(4, 11):
        for k in range(3, n):
            assert girth_min_kf(n, k) == kirchhoff_index(make_ukt(k, 1, n - k - 1, 0))
    with pytest.raises(ValueError):
        girth_min_kf(5, 5)


def test_predicted_min_perfect():
    p = predicted_min_perfect(5)
    assert p.texts() == ("U(8,2,0,0)",)
    assert p.value == Fraction(655, 8)
    p = predicted_min_perfect(3)
    assert p.texts() == ("C6",)
    assert p.value == Fraction(35, 2)
    p = predicted_min_perfect(9)
    assert p.texts() == ("Unm(18,9)",)
    assert p.value == 373
    assert p.value == kirchhoff_index(make_unm(18, 9))
    with pytest.raises(ValueError):
        predicted_min_perfect(1)


def test_predicted_min_examples():
    p = predicted_min(12, 2)
    assert p.texts() == ("U(3,1,8,0)", "U(4,1,7,0)")
    assert p.value == 113
    p = predicted_min(14, 5)
    assert p.texts() == ("U(6,2,4,1)", "U(7,3,4,0)", "Unm(14,5)")
    assert p.value == 185
    p = predicted_min(20, 8)
    assert p.texts() == ("Unm(20,8)",)
    assert p.value == 440
    assert p.value == kirchhoff_index(make_unm(20, 8))
    p = predicted_min(9, 4)
    assert p.texts() == ("C9", "U(7,1,1,0)")
    assert p.value == 60


def test_predicted_min_consistent_with_perfect_case():
    for m in range(2, 10):
        a = predicted_min_perfect(m)
        b = predicted_min(2 * m, m)
        assert a.texts() == b.texts()
        assert a.value == b.value


def test_prediction_self_consistency():
    for n in range(4, 17):
        for m in range(2, n // 2 + 1):
            p = predicted_min(n, m)
            for spec in p.minimizers:
                assert kirchhoff_index(spec.build()) == p.value
    for n in (33, 50, 100):
        for m in (2, 3, 7, 8, 12):
            p = predicted_min(n, m)
            for spec in p.minimizers:
                assert kirchhoff_index(spec.build()) == p.value


def test_attach_pendants():
    # the paper grows G0 = Unm(2m, m) back to Unm(n, m) by hanging the n - 2m
    # deleted pendants on its one vertex of least resistance row sum
    g0 = make_unm(8, 4)
    sums = vertex_sums(g0)
    least = min(sums)
    assert sums.count(least) == 1
    hub = sums.index(least)
    grown = Graph(11, g0.edges | {(hub, v) for v in range(8, 11)})
    assert canonical_code(grown) == canonical_code(make_unm(11, 4))


def test_unm_meets_both_deletion_bounds_with_equality():
    # the induction step of the minimum: deleting a pendant lowers Kf by at
    # least 2n + m - 6, and deleting a pendant path x-y, y of degree 2, by at
    # least 5n + 2m - 19; from Unm(n, m) to Unm(n - 1, m) and to
    # Unm(n - 2, m - 1) the closed form loses exactly that, at every n and not
    # only in the enumerated cells
    f = unm_kf_closed_form
    for n in range(8, 61):
        for m in range(4, n // 2 + 1):
            if n - 1 >= 2 * m:
                assert f(n, m) - f(n - 1, m) == 2 * n + m - 6
            assert f(n, m) - f(n - 2, m - 1) == 5 * n + 2 * m - 19


def test_family_spec_round_trip():
    for text in ("C5", "P7", "U(3,2,2,1)", "Unm(14,4)"):
        spec = parse_family_spec(text)
        assert spec.text() == text
        assert spec.order() == spec.build().n >= 1
    assert parse_family_spec("U( 3 , 2 , 2 , 1 )") == FamilySpec("U", (3, 2, 2, 1))
    with pytest.raises(ValueError):
        parse_family_spec("Q7")
    with pytest.raises(ValueError):
        parse_family_spec("U(3,2)")


def test_recognize_family():
    assert recognize_family(make_cycle(7)).text() == "C7"
    assert recognize_family(make_path(4)).text() == "P4"
    got = recognize_family(make_ukt(6, 2, 3, 0))
    assert got is not None and got.build().n == 11
    assert canonical_code(got.build()) == canonical_code(make_ukt(6, 2, 3, 0))
    # a double star is no named family
    assert recognize_family(make_graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])) is None
    # nor is a disconnected graph: two triangles (2-regular), a P2 and a
    # triangle (the degrees of P5), and a triangle with a pendant beside a
    # triangle (n edges, no canonical code)
    triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    assert recognize_family(make_graph(6, triangles)) is None
    assert recognize_family(make_graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)])) is None
    assert recognize_family(make_graph(7, [*triangles, (0, 6)])) is None


def test_code_is_the_canonical_code_of_the_built_graph():
    specs = [
        FamilySpec("U", (k, t, i, j))
        for k in range(3, 13)
        for t in range(k + 1)
        for i in range(7)
        for j in range(5)
    ]
    specs += [FamilySpec("Unm", (n, m)) for n in range(6, 31) for m in range(3, n // 2 + 1)]
    specs += [FamilySpec("C", (n,)) for n in range(3, 31)]
    for spec in specs:
        assert spec.code() == canonical_code(spec.build()), spec
    # the parameters build() refuses, code() refuses too; a path has no code
    bad = [("C", (2,)), ("U", (2, 0, 0, 0)), ("U", (4, 5, 0, 0)), ("U", (4, 1, -1, 0))]
    bad += [("U", (4, 1, 0, -1)), ("Unm", (5, 3)), ("Unm", (8, 2))]
    for kind, params in bad:
        for method in (FamilySpec.build, FamilySpec.code):
            with pytest.raises(ValueError):
                method(FamilySpec(kind, params))
    with pytest.raises(ValueError):
        FamilySpec("P", (5,)).code()


def _labels_match_the_build_oracle(sizes) -> None:
    for n in sizes:
        for code in enumerate_codes(n):
            assert family_label(code) == family_label_by_build(code), code


def test_family_label_matches_the_build_oracle():
    # every class with n <= 11, 2,846 of them; the oracle builds each
    # candidate, the library reads its code off the parameters
    _labels_match_the_build_oracle(range(3, 12))
    rng = random.Random(3)
    for n in range(3, 10):
        for _, g in enumerate_with_codes(n):
            h = relabelled(rng, g)
            assert recognize_family(h) == recognize_family_by_build(h), h


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_family_label_matches_the_build_oracle_extended():
    # the 19,549 classes with n = 12 and 13
    _labels_match_the_build_oracle((12, 13))

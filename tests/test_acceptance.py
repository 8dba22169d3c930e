"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with -v through the test
name, and with -s through the print) and enforces the stated runtime
budget.  Exact rational equality everywhere; no tolerances.

The extended enumeration windows (every cell up to 16 vertices, and the
perfect-matching classes up to m = 8) are opt-in via UNIKIRCH_EXTENDED=1;
they take about 2 s on top of the default run.
"""

import os
import time
from fractions import Fraction

import pytest

from oracles import (
    brute_force_matching_size,
    kfv_cycle,
    kirchhoff_index_dense,
    labeled_unicyclic_classes,
    resistance_forest,
    resistance_laplacian,
)
from unikirch.enumeration import enumerate_with_codes, free_trees
from unikirch.families import make_cycle
from unikirch.graph import peel, wiener_index
from unikirch.matching import matching_number
from unikirch.resistance import cycle_route, kf_cycle, kirchhoff_vertex_sum
from unikirch.verification import (
    suite_cycle_placements,
    suite_deletion_bounds,
    suite_extremal,
    suite_extremal_perfect,
    suite_girth_minima,
    suite_merge_identity,
    suite_tables,
    suite_tables_nm,
    suite_vertex_sum_bound,
)

EXTENDED = bool(os.environ.get("UNIKIRCH_EXTENDED"))


def finish(name: str, t0: float, budget_s: float, detail: str = ""):
    elapsed = time.time() - t0
    assert elapsed < budget_s, f"{name}: {elapsed:.1f}s exceeded budget {budget_s}s"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion] {name}: PASS in {elapsed:.1f}s{suffix}")


def assert_green(report):
    fails = [(c.id, c.expected, c.computed) for c in report.cases if c.status == "fail"]
    assert not fails, fails[:5]


def test_criterion_01_table_reproduction():
    t0 = time.time()
    report = suite_tables()
    assert_green(report)
    value_cases = [c for c in report.cases if not c.id.endswith("coverage")]
    # the six source tables hold 6+11+17+24+32+41 = 131 rows, all checked
    assert len(value_cases) == 131
    by_case = {c.id: c.computed for c in value_cases}
    assert by_case["table1:(6,0;0)"] == "35/2"
    assert by_case["table3:(8,2;0)"] == "655/8"
    assert by_case["table5:(7,7;0)"] == "203"
    assert by_case["table6:(5,1;5)"] == "284"
    # two printed cells are detected misprints, surfaced in the notes
    assert len(report.notes) == 2
    finish("1 table reproduction (131 rows, 2 misprints flagged)", t0, 10)


def test_criterion_02_growth_tables():
    t0 = time.time()
    report = suite_tables_nm()
    assert_green(report)
    assert report.passed == 264
    finish("2 fixed-m growth tables", t0, 5)


def test_criterion_03_perfect_matching_extremal():
    t0 = time.time()
    report = suite_extremal_perfect(m_max=6)
    assert_green(report)
    computed = {c.id: c.computed for c in report.cases}
    assert computed["perfect:m=2"].startswith("{C4}")
    assert computed["perfect:m=3"] == "{C6} = 35/2"
    assert computed["perfect:m=4"] == "{C8} = 42"
    assert computed["perfect:m=5"] == "{U(8,2,0,0)} = 655/8"
    assert computed["perfect:m=6"] == "{U(8,4,0,0)} = 271/2"
    finish("3 perfect-matching minima m<=6", t0, 120)


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_criterion_03_perfect_matching_extremal_extended():
    t0 = time.time()
    report = suite_extremal_perfect(m_max=8)
    assert_green(report)
    computed = {c.id: c.computed for c in report.cases}
    assert computed["perfect:m=7"] == "{U(7,7,0,0)} = 203"
    # U(5,1,0,5) is the hub graph Unm(16,8)
    assert computed["perfect:m=8"] == "{U(5,1,0,5)} = 284"
    finish("3x perfect-matching minima m=7,8 (extended)", t0, 3600)


def test_criterion_04_all_cells_extremal():
    t0 = time.time()
    report = suite_extremal(n_max=12)
    assert_green(report)
    computed = {c.id: c.computed for c in report.cases}
    assert computed["cell:n=12,m=2"] == "{U(3,1,8,0), U(4,1,7,0)} = 113"
    assert computed["cell:n=9,m=4"] == "{C9, U(7,1,1,0)} = 60"
    assert computed["cell:n=11,m=4"] == "{U(6,2,3,0), U(7,1,3,0)} = 100"
    # n = 13 and 14 checked cell by cell, every larger n proved
    identities = [c.id for c in report.cases if c.id.startswith("identity:")]
    assert identities == [f"identity:n={n},m={m}" for n in (13, 14) for m in range(2, n // 2 + 1)]
    proofs = [c.id for c in report.cases if c.id.startswith("closed-form:")]
    assert proofs == ["closed-form:n>=13,m=2", "closed-form:n>=2m>=6", "closed-form:n=2m>=16"]
    assert report.notes
    finish("4 every (n,m) cell, n<=12", t0, 600)


def test_criterion_05_vertex_sum_bound():
    t0 = time.time()
    report = suite_vertex_sum_bound(n_max=10)
    assert_green(report)
    # spot anchors for the equality characterization
    from unikirch.families import make_unm

    assert kirchhoff_vertex_sum(make_unm(10, 4), 0) == 10
    assert kfv_cycle(9) == Fraction(40, 3) and Fraction(40, 3) > 9
    finish("5 vertex-sum lower bound sweep n<=10", t0, 300)


def test_criterion_06_deletion_bounds():
    t0 = time.time()
    report = suite_deletion_bounds(n_max=10)
    assert_green(report)
    finish("6 pendant-deletion bounds sweep n<=10", t0, 300)


def test_criterion_07_girth_minima():
    t0 = time.time()
    report = suite_girth_minima(n_max=9)
    assert_green(report)
    cells = [c.id for c in report.cases if c.id.startswith("cell:")]
    assert len(cells) == sum(n - 3 for n in range(4, 10))
    # the closed form itself is proved for every n > k >= 3
    assert [c.id for c in report.cases] == cells + ["closed-form:n>k>=3"]
    finish("7 per-girth minima n<=9", t0, 120)


def test_criterion_08_cycle_placements():
    t0 = time.time()
    report = suite_cycle_placements()
    assert_green(report)
    sigma = {c.id: c.computed for c in report.cases if c.id.startswith("sigma:")}
    assert len(sigma) == 17
    assert sigma["sigma:C10@{1,2,5,8}"] == "12"
    counts = [c.computed for c in report.cases if c.id.endswith(":count")]
    assert counts == ["4", "5", "8"]
    finish("8 pendant placements on C10/C11/C12", t0, 5)


def test_criterion_09_cross_method_resistance():
    t0 = time.time()
    checked = 0
    for n in range(3, 9):
        for _, g in enumerate_with_codes(n):
            mat = cycle_route(peel(g)).matrix()
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    r1 = resistance_laplacian(g, u, v)
                    r2 = resistance_forest(g, u, v)
                    r3 = mat.r(u, v)
                    assert r1 == r2 == r3
                    checked += 1
    for n in range(3, 51):
        g = make_cycle(n)
        mat = cycle_route(peel(g)).matrix()
        kf = sum((mat.r(u, v) for u in range(n) for v in range(u + 1, n)), Fraction(0))
        assert kf == kf_cycle(n) == Fraction(n**3 - n, 12)
        row = sum((mat.r(0, v) for v in range(n)), Fraction(0))
        assert row == kfv_cycle(n) == Fraction(n * n - 1, 6)
    finish("9 three-method agreement + cycle closed forms", t0, 120, f"{checked} pairs")


def test_criterion_10_merge_identity():
    t0 = time.time()
    report = suite_merge_identity(trials=200, seed=0)
    assert_green(report)
    assert sum(1 for c in report.cases if c.id.startswith("trial:")) == 200
    finish("10 merge identity, 200 seeded trials", t0, 30)


def test_criterion_11_oracle_equivalence():
    t0 = time.time()
    for n in range(3, 9):
        mine = sum(1 for _ in enumerate_with_codes(n))
        oracle = len(labeled_unicyclic_classes(n))
        assert mine == oracle, f"n={n}: {mine} classes vs oracle {oracle}"
    for n in range(3, 11):
        for _, g in enumerate_with_codes(n):
            assert matching_number(g).size == brute_force_matching_size(g.edges)
    for n in range(1, 9):
        for t in free_trees(n):
            assert kirchhoff_index_dense(t) == wiener_index(t)
    finish("11 oracle equivalence (enumeration, matching, tree Kf=W)", t0, 600)


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_extended_window_extremal():
    t0 = time.time()
    report = suite_extremal(n_max=16)
    assert_green(report)
    computed = {c.id: c.computed for c in report.cases}
    # U(5,1,4,2) and U(5,1,2,3) are the hub graphs Unm(14,5) and Unm(14,6)
    assert computed["cell:n=14,m=5"] == "{U(5,1,4,2), U(6,2,4,1), U(7,3,4,0)} = 185"
    assert computed["cell:n=14,m=6"] == "{U(5,1,2,3), U(6,2,2,2), U(7,3,2,1)} = 196"
    assert computed["cell:n=14,m=7"] == "{U(7,7,0,0)} = 203"
    # at n = 16 every cell with m >= 3 has the hub graph Unm(16,m) alone
    assert computed["cell:n=16,m=2"] == "{U(3,1,12,0)} = 643/3"
    for m, value in zip(range(3, 9), (219, 232, 245, 258, 271, 284)):
        hub = f"U(5,1,{16 - 2 * m},{m - 3})"
        assert computed[f"cell:n=16,m={m}"] == f"{{{hub}}} = {value}"
    # every cell to n = 16 is enumerated, none checked cell by cell, and
    # every larger n proved
    assert not any(c.id.startswith("identity:") for c in report.cases)
    proofs = [c.id for c in report.cases if c.id.startswith("closed-form:")]
    assert proofs == ["closed-form:n>=13,m=2", "closed-form:n>=2m>=6", "closed-form:n=2m>=16"]
    finish("4x every (n,m) cell, n<=16 (extended)", t0, 3600)

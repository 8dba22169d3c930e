import json
import os
import time
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import placement_canon_by_marks, row_cells_by_class
from unikirch import enumeration, verification
from unikirch.enumeration import (
    _branch_shape,
    _pendant_differences,
    code_parents,
    dihedral_min,
    enumerate_with_codes,
    orbit_compositions,
    row_cells,
    sweep_minima,
)
from unikirch.graph import without_vertices
from unikirch.resistance import cycle_row_numerators, kirchhoff_index, vertex_sums
from unikirch.verification import (
    _PLACEMENT_CLASS_COUNTS,
    WINDOWS,
    VerificationReport,
    _gap_positions,
    _placement_canon,
    candidate_rows,
    load_nm_tables,
    load_table_rows,
    run_suite,
    suite_cycle_placements,
    suite_deletion_bounds,
    suite_extremal,
    suite_extremal_perfect,
    suite_girth_minima,
    suite_merge_identity,
    suite_tables,
    suite_tables_nm,
    suite_vertex_sum_bound,
    suite_wiener_divergence,
)


EXTENDED = bool(os.environ.get("UNIKIRCH_EXTENDED"))


def assert_green(report):
    fails = [c for c in report.cases if c.status == "fail"]
    assert not fails, fails[:3]


def test_table_data_shape():
    rows = load_table_rows()
    per_table = {}
    for r in rows:
        per_table[r["table"]] = per_table.get(r["table"], 0) + 1
    assert per_table == {1: 6, 2: 11, 3: 17, 4: 24, 5: 32, 6: 41}
    errata = [r for r in rows if r["printed_value"] is not None]
    assert {(r["table"], r["row"]) for r in errata} == {
        (5, "(11,3;0)"),
        (6, "(3,3;5)"),
    }
    assert len(candidate_rows(3)) == 6
    assert len(candidate_rows(8)) == 41
    assert len(load_nm_tables()) == 4


def test_suite_tables_small():
    report = suite_tables(m_values=(3, 4))
    assert_green(report)
    assert report.passed == 6 + 11 + 2


def test_suite_tables_nm():
    report = suite_tables_nm()
    assert_green(report)
    # 36 + 56 + 37 + 5 cells, doubled by the closed-form checks, minus
    # the cycle cells which have no polynomial column
    assert report.passed == 2 * (35 + 55 + 36 + 4) + 4


def test_suite_extremal_perfect_small(monkeypatch):
    monkeypatch.setattr(verification, "IDENTITY_M", (8, 9))
    report = suite_extremal_perfect(m_max=4)
    assert_green(report)
    assert any(c.id == "perfect:m=4" for c in report.cases)
    assert any(c.id.startswith("identity:") for c in report.cases)
    assert report.notes


def test_suite_extremal_small(monkeypatch):
    monkeypatch.setattr(verification, "IDENTITY_N", (15,))
    report = suite_extremal(n_max=8)
    assert_green(report)
    ids = {c.id for c in report.cases}
    assert "cell:n=8,m=4" in ids
    assert "identity:n=15,m=2" in ids


def test_suite_vertex_sum_bound_small():
    report = suite_vertex_sum_bound(n_max=8)
    assert_green(report)
    assert {c.parameters["m"] for c in report.cases} == {3, 4}


def test_suite_deletion_bounds_small():
    report = suite_deletion_bounds(n_max=8)
    assert_green(report)


def test_suite_girth_minima_small():
    report = suite_girth_minima(n_max=7)
    assert_green(report)
    assert any(c.id == "cell:n=5,k=3" for c in report.cases)


def test_suite_cycle_placements():
    report = suite_cycle_placements()
    assert_green(report)
    sigma_cases = [c for c in report.cases if c.id.startswith("sigma:")]
    assert len(sigma_cases) == 17
    count_cases = {c.id: c.computed for c in report.cases if c.id.endswith(":count")}
    assert count_cases == {
        "classes:k=10,t=4:count": "4",
        "classes:k=11,t=5:count": "5",
        "classes:k=12,t=4:count": "8",
    }


def test_placement_canon_matches_marks():
    for k in range(3, 13):
        for t in range(1, k + 1):
            for subset in combinations(range(k), t):
                assert _placement_canon(k, subset) == placement_canon_by_marks(k, subset)


def test_placement_classes_are_orbit_compositions():
    # the classes the suite walks are exactly the canonical placements
    for k, t in _PLACEMENT_CLASS_COUNTS:
        canons = {placement_canon_by_marks(k, subset) for subset in combinations(range(k), t)}
        listed = [_gap_positions(gaps) for gaps, _ in orbit_compositions(k, t)]
        assert sorted(listed) == sorted(canons), (k, t)


def test_suite_merge_identity_deterministic():
    a = suite_merge_identity(trials=25, seed=7)
    b = suite_merge_identity(trials=25, seed=7)
    assert_green(a)
    assert [c.computed for c in a.cases] == [c.computed for c in b.cases]
    assert a.seed == 7


def test_suite_wiener_divergence_small():
    report = suite_wiener_divergence(n_max=9)
    assert_green(report)
    assert report.cases[-1].id == "divergence-observed"


def test_report_json_schema(tmp_path):
    report = suite_tables(m_values=(3,))
    payload = report.to_json_dict()
    text = json.dumps(payload)
    loaded = json.loads(text)
    assert loaded["suite"] == "tables"
    assert set(loaded["summary"]) == {"pass", "fail", "skipped"}
    for case in loaded["cases"]:
        # in this order: it is the byte layout of --json
        assert list(case) == ["id", "parameters", "expected", "computed", "status", "runtime_ms"]
        assert case["status"] in ("pass", "fail", "skipped")


def test_report_add_times_each_case_since_the_previous():
    # the first case is timed from the report's creation
    report = VerificationReport("demo", 0)
    time.sleep(0.02)
    report.add("a", {}, Fraction(1, 2), Fraction(1, 2))
    report.add("b", {"n": 4}, 1, 2)
    report.add("c", {}, "x", "y", True)
    a, b, c = report.cases
    assert (a.expected, a.computed, a.status) == ("1/2", "1/2", "pass")
    assert (b.parameters, b.expected, b.computed, b.status) == ({"n": 4}, "1", "2", "fail")
    assert c.status == "pass"
    assert a.runtime_ms >= 20 and b.runtime_ms < 20


def test_report_failure_accounting():
    report = VerificationReport("demo", 0)
    from unikirch.verification import CaseResult

    report.cases.append(CaseResult("a", {}, "1", "1", "pass", 0.1))
    report.cases.append(CaseResult("b", {}, "1", "2", "fail", 0.1))
    assert report.passed == 1 and report.failed == 1
    assert not report.ok
    assert "FAIL" in report.render_text()
    # a window that checks nothing does not pass
    assert not VerificationReport("empty", 0).ok
    (report,) = run_suite("girth-minima", max_n=3)
    assert report.cases == [] and not report.ok
    # 0 is a window, not the default one
    (report,) = run_suite("extremal", max_n=0)
    assert not any(c.id.startswith("cell:") for c in report.cases)


def test_identity_cases_lie_above_the_enumerated_window(monkeypatch):
    # an identity case inside the window would repeat an enumerated cell
    monkeypatch.setattr(verification, "IDENTITY_M", (4, 8))
    monkeypatch.setattr(verification, "IDENTITY_N", (8, 15))
    report = suite_extremal_perfect(m_max=4)
    assert_green(report)
    ids = {c.id for c in report.cases}
    assert {"perfect:m=4", "identity:m=8"} <= ids and "identity:m=4" not in ids
    report = suite_extremal(n_max=8)
    assert_green(report)
    ids = {c.id for c in report.cases}
    assert {"cell:n=8,m=4", "identity:n=15,m=2"} <= ids
    assert not any(i.startswith("identity:n=8,") for i in ids)


def test_run_suite_reads_windows_from_the_table(monkeypatch):
    # the default n and, under --extended, the ceiling come from WINDOWS;
    # extremal-perfect takes m up to half the window's n; max_n wins
    calls = []
    for name in WINDOWS:

        def record(name=name, **window):
            calls.append((name, window))
            return VerificationReport(name, 0)

        monkeypatch.setattr(verification, "suite_" + name.replace("-", "_"), record)
    for name, window in WINDOWS.items():
        half = name == "extremal-perfect"
        run_suite(name)
        run_suite(name, extended=True)
        run_suite(name, max_n=7, extended=True)
        assert calls[-3:] == [
            (name, {"m_max": n // 2} if half else {"n_max": n})
            for n in (window.default, window.ceiling, 7)
        ], name


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_sweep_suites_reach_their_ceiling_extended():
    # --extended runs the sweep-backed windows to n = 20: every (n, m) cell
    # is enumerated, and the identity checks lie above the window
    report = suite_extremal(n_max=20)
    assert_green(report)
    cells = [f"cell:n={n},m={m}" for n in range(4, 21) for m in range(2, n // 2 + 1)]
    assert [c.id for c in report.cases if c.id.startswith("cell:")] == cells
    assert len(cells) == 81
    identities = [c.id for c in report.cases if c.id.startswith("identity:")]
    assert len(identities) == 88  # m = 2..n // 2 for n = 33, 50 and 100
    assert not any(i.startswith(("identity:n=17,", "identity:n=20,")) for i in identities)
    report = suite_extremal_perfect(m_max=10)
    assert_green(report)
    ids = [c.id for c in report.cases]
    assert {"perfect:m=9", "perfect:m=10"} <= set(ids)
    identities = [i for i in ids if i.startswith("identity:")]
    assert identities == [f"identity:m={m}" for m in (12, 25, 50)]
    # the girth and Wiener suites read the same sweeps
    assert_green(suite_girth_minima(n_max=20))
    assert_green(suite_wiener_divergence(n_max=20))


def test_window_floors_are_the_least_n_with_a_cell():
    def enumerated(report):
        return [c for c in report.cases if c.id.startswith(("cell:", "perfect:"))]

    for name, window in WINDOWS.items():
        assert window.floor <= window.default <= window.ceiling, name
        (below,) = run_suite(name, max_n=window.floor - 1)
        (at,) = run_suite(name, max_n=window.floor)
        assert not enumerated(below) and enumerated(at), name


def test_run_suite_dispatch():
    (report,) = run_suite("girth-minima", max_n=6)
    assert report.suite == "girth-minima"
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_run_all_contains_every_suite():
    # tiny windows keep this cheap; every registered suite must appear
    reports = run_suite("all", max_n=6, trials=3)
    names = [r.suite for r in reports]
    assert names == [
        "tables",
        "tables-nm",
        "extremal-perfect",
        "extremal",
        "vertex-sum-bound",
        "deletion-bounds",
        "girth-minima",
        "cycle-placements",
        "merge-identity",
        "wiener-divergence",
    ]


def test_pendant_differences_match_deletions():
    # every pendant vertex and every pendant path of every class, n <= 10;
    # by the series rule the differences are Kf_G(y) + n - 2 and
    # 2 Kf_G(z) + 3n - 11, z the other neighbour of y, which is why
    # row_cells' vertex bound decides both deletion bounds
    for n in range(3, 11):
        for code, g in enumerate_with_codes(n):
            kf = kirchhoff_index(g)
            sums = vertex_sums(g)
            k = code.cycle_length
            shapes = [_branch_shape(c) for c in code.branch_codes]
            rows = cycle_row_numerators([parents for parents, _ in shapes])
            found = []
            for x, y, y_degree, single, pair in _pendant_differences(shapes, rows):
                found.append(x)
                assert g.adjacency[x] == (y,) and y_degree == g.degree(y), code
                assert Fraction(single, k) == kf - kirchhoff_index(without_vertices(g, [x])), code
                assert single == k * (sums[y] + n - 2), code
                if g.degree(y) == 2:
                    deleted = kirchhoff_index(without_vertices(g, [x, y]))
                    assert Fraction(pair, k) == kf - deleted, code
                    (z,) = set(g.adjacency[y]) - {x}
                    assert pair == k * (2 * sums[z] + 3 * n - 11), code
                else:
                    assert pair is None
            assert found == [v for v in range(n) if g.degree(v) == 1]


def _in_label_order(per_branch):
    """Per-branch lists as ``graph_from_code`` labels them: the roots,
    then every branch's other vertices."""
    return [b[0] for b in per_branch] + [x for b in per_branch for x in b[1:]]


def test_code_rows_and_degrees_match_graphs():
    # every class for n <= 11: the integer rows over k are the vertex sums
    # of the class's graph, and the degrees read from the codes its degrees
    for n in range(3, 12):
        for code, g in enumerate_with_codes(n):
            shapes = [_branch_shape(c) for c in code.branch_codes]
            rows = cycle_row_numerators([parents for parents, _ in shapes])
            sums = [Fraction(x, code.cycle_length) for x in _in_label_order(rows)]
            assert sums == vertex_sums(g), code
            degrees = _in_label_order([d for _, d in shapes])
            assert degrees == [g.degree(v) for v in range(n)], code


def test_each_n_is_swept_once():
    sweep_minima.cache_clear()
    row_cells.cache_clear()
    reports = run_suite("all", max_n=9, trials=3)
    assert all(r.ok for r in reports)
    # four suites read sweep_minima and two read row_cells, but each n is
    # computed once: the first suite to ask for it misses, the rest hit
    assert sweep_minima.cache_info().misses == len(range(4, 10))
    assert row_cells.cache_info().misses == len(range(6, 10))


def test_row_cells_match_class_walk():
    # counts, violations and every equality record, against every class
    for n in range(6, 13):
        assert row_cells(n) == row_cells_by_class(n), n


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_row_cells_match_class_walk_extended():
    for n in range(13, 15):
        assert row_cells(n) == row_cells_by_class(n), n


def test_row_pass_parses_only_the_classes_it_checks(monkeypatch):
    # the sweeps parse no code, and the row pass takes its per-state minima
    # from the sweep's knapsack, so it parses only the branch codes of the
    # classes it checks one by one, each once
    monkeypatch.setattr(enumeration, "_pools", {})
    parsed, checked = [], []

    def parse(code):
        parsed.append(code)
        return code_parents(code)

    def check(seq, *args):
        checked.append(seq)
        return check_class(seq, *args)

    check_class = enumeration._check_class
    monkeypatch.setattr(enumeration, "code_parents", parse)
    monkeypatch.setattr(enumeration, "_check_class", check)
    for n in range(3, 15):
        sweep_minima.__wrapped__(n)
    assert parsed == []
    row_cells.__wrapped__(12)
    assert len(checked) == 77
    assert sorted(parsed) == sorted(code for seq in checked for code in seq)


def expanded_classes(monkeypatch, n):
    """The cells of row_cells(n), and how many classes it checks one by
    one, each once."""
    checked = []
    monkeypatch.setattr(enumeration, "_check_class", lambda seq, *_: checked.append(seq))
    cells = row_cells.__wrapped__(n)
    assert len(checked) == len({dihedral_min(seq) for seq in checked}), n
    return cells, len(checked)


def test_row_cells_expand_only_groups_near_a_bound(monkeypatch):
    # the state bound expands exactly these classes: one more would be
    # wasted work, one fewer could hide a violation or an equality.  Of
    # the 5,015 classes with m >= 3 at n = 12 it leaves 77
    for n, count in {6: 1, 7: 1, 8: 3, 9: 5, 10: 14, 11: 29, 12: 77}.items():
        cells, checked = expanded_classes(monkeypatch, n)
        assert checked == count, n
    assert sum(cell.graphs for cell in cells) == 5015


@pytest.mark.skipif(not EXTENDED, reason="extended window; set UNIKIRCH_EXTENDED=1")
def test_row_cells_expand_only_groups_near_a_bound_extended(monkeypatch):
    for n, count in {13: 179, 14: 472}.items():
        assert expanded_classes(monkeypatch, n)[1] == count, n

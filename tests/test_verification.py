import json
import os
import time
import types
from fractions import Fraction
from itertools import combinations, product
from math import prod
from pathlib import Path

import pytest

from oracles import (
    branch_shape,
    cycle_row_numerators,
    pendant_differences,
    placement_canon_by_marks,
    row_cells_by_class,
)
from unikirch import enumeration, families, verification
from unikirch.enumeration import (
    RowCell,
    _check_class,
    _class_rows,
    code_parents,
    dihedral_min,
    enumerate_with_codes,
    orbit_compositions,
    row_cells,
    sweep_minima,
)
from unikirch.families import (
    LAST_SPECIAL_N,
    FamilySpec,
    predicted_min,
    predicted_min_perfect,
)
from unikirch.graph import without_vertices
from unikirch.matching import matching_number
from unikirch.resistance import kirchhoff_index, vertex_sums
from unikirch.verification import (
    _PLACEMENT_CLASS_COUNTS,
    CLOSED_FORMS,
    IDENTITY_NOTE,
    PROOF_NOTE,
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


def test_suite_extremal_perfect_small():
    # m = 2..4 enumerated, m = 5..7 checked one by one, m >= 8 proved
    report = suite_extremal_perfect(m_max=4)
    assert_green(report)
    assert [c.id for c in report.cases] == [
        "perfect:m=2",
        "perfect:m=3",
        "perfect:m=4",
        "identity:m=5",
        "identity:m=6",
        "identity:m=7",
        "closed-form:n=2m>=16",
    ]
    assert report.notes == [IDENTITY_NOTE, PROOF_NOTE]


def test_suite_extremal_small():
    report = suite_extremal(n_max=8)
    assert_green(report)
    ids = [c.id for c in report.cases]
    assert "cell:n=8,m=4" in ids
    identities = [i for i in ids if i.startswith("identity:")]
    cells = [f"n={n},m={m}" for n in range(9, 15) for m in range(2, n // 2 + 1)]
    assert identities == ["identity:" + cell for cell in cells]
    assert ids[-3:] == ["closed-form:n>=13,m=2", "closed-form:n>=2m>=6", "closed-form:n=2m>=16"]
    assert report.notes == [IDENTITY_NOTE, PROOF_NOTE]


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
    assert report.cases[-1].id == "closed-form:n>k>=3"
    assert report.notes == [PROOF_NOTE]


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


def test_identity_cases_lie_above_the_enumerated_window():
    # whatever the window, its cells and the identity cells are every cell
    # up to n = 14 once, in order, and the closed forms follow them
    def split(report, enumerated):
        ids = [c.id for c in report.cases]
        assert_green(report)
        cells = [i.partition(":")[2] for i in ids if i.startswith((enumerated, "identity:"))]
        proofs = [i for i in ids if i.startswith("closed-form:")]
        return cells, [i for i in ids if i.startswith("identity:")], proofs

    for n_max in (4, 8, 13, 14, 15):
        cells, identities, proofs = split(suite_extremal(n_max=n_max), "cell:")
        top = max(n_max, LAST_SPECIAL_N)
        assert cells == [f"n={n},m={m}" for n in range(4, top + 1) for m in range(2, n // 2 + 1)]
        assert all(int(i[len("identity:n=") :].partition(",")[0]) > n_max for i in identities)
        assert proofs == [form.case for form in CLOSED_FORMS["extremal"]]
    for m_max in (2, 4, 7, 8):
        cells, identities, proofs = split(suite_extremal_perfect(m_max=m_max), "perfect:")
        assert cells == [f"m={m}" for m in range(2, max(m_max, LAST_SPECIAL_N // 2) + 1)]
        assert identities == [f"identity:m={m}" for m in range(m_max + 1, 8)]
        assert proofs == ["closed-form:n=2m>=16"]


def test_an_identity_case_fails_on_a_wrong_prediction(monkeypatch):
    def predict(m):
        pred = predicted_min_perfect(m)
        return pred._replace(value=pred.value + 1) if m == 7 else pred

    monkeypatch.setattr(verification, "predicted_min_perfect", predict)
    report = suite_extremal_perfect(m_max=4)
    assert [c.id for c in report.cases if c.status == "fail"] == ["identity:m=7"]


def test_a_closed_form_fails_where_the_prediction_names_another_member():
    # a point proves the branch only where the family's member is the
    # whole prediction, even when the member's Kf is the predicted value
    m2 = CLOSED_FORMS["extremal"][0]

    def predict(n):
        pred = m2.predict(n)
        return pred._replace(minimizers=pred.minimizers + (FamilySpec("C", (n,)),))

    report = VerificationReport("closed-forms", 0)
    verification._prove(report, m2._replace(predict=predict))
    assert [c.status for c in report.cases] == ["fail"]
    assert report.cases[0].computed.startswith("at n = 13: Kf(U(3,1,9,0)) = ")


# The closed forms of families.py whose coefficients the mutation test
# changes, one at a time, and the case that each must then fail.
UNM = "n * n + n * m - 5 * n - 3 * m + 4"
M2 = "3 * n * n - 8 * n + 3, 3"
PERFECT = "6 * m * m - 13 * m + 4"
GIRTH = "-(k**3) + 2 * n * k * k - (12 * n - 13) * k + 12 * n * n - 14 * n"
MUTATIONS = [
    (UNM, "n * n +", "2 * n * n +", "closed-form:n>=2m>=6"),
    (UNM, "+ n * m", "+ 2 * n * m", "closed-form:n>=2m>=6"),
    (UNM, "- 5 * n", "- 4 * n", "closed-form:n>=2m>=6"),
    (UNM, "- 3 * m", "- 2 * m", "closed-form:n>=2m>=6"),
    (UNM, "+ 4", "+ 5", "closed-form:n>=2m>=6"),
    (M2, "3 * n * n", "4 * n * n", "closed-form:n>=13,m=2"),
    (M2, "- 8 * n", "- 7 * n", "closed-form:n>=13,m=2"),
    (M2, "+ 3,", "+ 4,", "closed-form:n>=13,m=2"),
    (PERFECT, "6 * m * m", "7 * m * m", "closed-form:n=2m>=16"),
    (PERFECT, "- 13 * m", "- 12 * m", "closed-form:n=2m>=16"),
    (PERFECT, "+ 4", "+ 5", "closed-form:n=2m>=16"),
    (GIRTH, "-(k**3)", "-(2 * k**3)", "closed-form:n>k>=3"),
    (GIRTH, "+ 2 * n * k * k", "+ 3 * n * k * k", "closed-form:n>k>=3"),
    (GIRTH, "(12 * n -", "(11 * n -", "closed-form:n>k>=3"),
    (GIRTH, "- 13)", "- 12)", "closed-form:n>k>=3"),
    (GIRTH, "+ 12 * n * n", "+ 11 * n * n", "closed-form:n>k>=3"),
    (GIRTH, "- 14 * n", "- 13 * n", "closed-form:n>k>=3"),
]


def use_mutated_families(monkeypatch, form: str, mutated: str) -> None:
    """Point the closed forms at the functions of a copy of families.py in
    which the expression form reads mutated."""
    source = Path(families.__file__).read_text()
    assert source.count(form) == 1, form
    module = types.ModuleType(families.__name__)
    module.__package__ = families.__package__
    exec(compile(source.replace(form, mutated), families.__file__, "exec"), vars(module))
    for name in ("predicted_min", "predicted_min_perfect", "unm_kf_closed_form", "girth_min_kf"):
        monkeypatch.setattr(families, name, getattr(module, name))


def failed_closed_forms() -> set[str]:
    report = VerificationReport("closed-forms", 0)
    for form in dict.fromkeys(f for forms in CLOSED_FORMS.values() for f in forms):
        verification._prove(report, form)
    assert [c.id for c in report.cases] == [
        "closed-form:n=2m>=16",
        "closed-form:n>=13,m=2",
        "closed-form:n>=2m>=6",
        "closed-form:n>k>=3",
    ]
    return {c.id for c in report.cases if c.status == "fail"}


def test_closed_forms_pass_on_an_unchanged_copy(monkeypatch):
    use_mutated_families(monkeypatch, UNM, UNM)
    assert failed_closed_forms() == set()


@pytest.mark.parametrize("form, coefficient, changed, case", MUTATIONS)
def test_a_changed_coefficient_fails_its_closed_form(monkeypatch, form, coefficient, changed, case):
    assert form.count(coefficient) == 1
    use_mutated_families(monkeypatch, form, form.replace(coefficient, changed))
    assert failed_closed_forms() == {case}


def test_closed_form_lattices_are_unisolvent():
    # the monomials of degree <= d take linearly independent values on the
    # lattice, one point per monomial, so a polynomial of degree <= d is
    # fixed by its values there; the guard lies off the lattice
    for form in dict.fromkeys(f for forms in CLOSED_FORMS.values() for f in forms):
        *lattice, guard = form.points()
        steps = product(range(form.degree + 1), repeat=len(form.origin))
        exponents = [a for a in steps if sum(a) <= form.degree]
        rows = [[Fraction(prod(map(pow, p, a))) for a in exponents] for p in lattice]
        assert len(rows) == len(exponents) and rank(rows) == len(exponents), form.case
        assert guard not in lattice


def rank(rows: list[list[Fraction]]) -> int:
    """The rank of a matrix, by Gaussian elimination over the rationals."""
    rows = [row[:] for row in rows]
    found = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(found, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        for r in range(found + 1, len(rows)):
            factor = rows[r][col] / rows[found][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[found])]
        found += 1
    return found


def test_the_prediction_above_n_14_is_the_closed_forms():
    # the branch structure that makes the closed-form cases proofs: above
    # LAST_SPECIAL_N every cell's prediction is the member and value of
    # one closed form, and the values along the one-parameter branches
    # have degree 2; at n = 14 some cell is still special
    m2, unm, perfect = CLOSED_FORMS["extremal"]

    def on_branch(n, m):
        if n == 2 * m:
            form, p = perfect, (m,)
        else:
            form, p = (m2, (n,)) if m == 2 else (unm, (n - 2 * m, m - 3))
        pred = predicted_min(n, m)
        return pred == form.predict(*p) and pred.minimizers == (form.family(*p),)

    cells = [(n, m) for n in range(LAST_SPECIAL_N, 101) for m in range(2, n // 2 + 1)]
    assert all(on_branch(n, m) for n, m in cells if n > LAST_SPECIAL_N)
    assert not all(on_branch(n, m) for n, m in cells if n == LAST_SPECIAL_N)
    for values in (
        [predicted_min(n, 2).value for n in range(13, 101)],
        [predicted_min_perfect(m).value for m in range(8, 51)],
    ):
        quads = zip(values, values[1:], values[2:], values[3:])
        assert {a - 3 * b + 3 * c - d for a, b, c, d in quads} == {0}


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
    # is enumerated, so no cell is checked one by one, and the closed forms
    # are proved past the window
    report = suite_extremal(n_max=20)
    assert_green(report)
    cells = [f"cell:n={n},m={m}" for n in range(4, 21) for m in range(2, n // 2 + 1)]
    proofs = [form.case for form in CLOSED_FORMS["extremal"]]
    assert [c.id for c in report.cases] == cells + proofs
    assert len(cells) == 81
    assert report.notes == [PROOF_NOTE]
    report = suite_extremal_perfect(m_max=10)
    assert_green(report)
    perfect = [f"perfect:m={m}" for m in range(2, 11)]
    assert [c.id for c in report.cases] == perfect + ["closed-form:n=2m>=16"]
    # the girth and Wiener suites read the same sweeps
    report = suite_girth_minima(n_max=20)
    assert_green(report)
    assert report.cases[-1].id == "closed-form:n>k>=3"
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


def cell_by_deletions(code, g, m: int) -> RowCell:
    """``enumeration._check_class`` of one class on its graph: the vertex
    sums of its route, its degrees, and each deletion difference as Kf(G)
    less Kf of the graph with the pendant vertex or path deleted."""
    n = g.n
    cell = RowCell(n, m)
    kf, sums = kirchhoff_index(g), vertex_sums(g)
    degrees = [g.degree(v) for v in range(n)]
    max_deg = max(degrees)
    unique_max = degrees.count(max_deg) == 1
    for deg, x in zip(degrees, sums):
        if x < n + m - 4:
            cell.violations += 1
        elif x == n + m - 4:
            cell.equalities.append((code, deg == max_deg and unique_max))
    for x in range(n):
        if degrees[x] > 1:
            continue
        (y,) = g.adjacency[x]
        single = kf - kirchhoff_index(without_vertices(g, [x]))
        if single < 2 * n + m - 6:
            cell.deletion_violations += 1
        elif single == 2 * n + m - 6:
            cell.eq_single.append((code, degrees[y] == max_deg))
        if degrees[y] == 2:
            pair = kf - kirchhoff_index(without_vertices(g, [x, y]))
            if pair < 5 * n + 2 * m - 19:
                cell.deletion_violations += 1
            elif pair == 5 * n + 2 * m - 19:
                cell.eq_pair.append(code)
    for entries in (cell.equalities, cell.eq_single, cell.eq_pair):
        entries.sort()
    return cell


def test_pendant_differences_match_deletions():
    # every pendant vertex and every pendant path of every class, n <= 10;
    # by the series rule the differences are Kf_G(y) + n - 2 and
    # 2 Kf_G(z) + 3n - 11, z the other neighbour of y, which is why
    # row_cells' vertex bound decides both deletion bounds.  The oracle
    # reads them branch by branch, the row pass off the class's peel, and
    # the row pass's check of the class equals the check on its graph
    for n in range(3, 11):
        for code, g in enumerate_with_codes(n):
            kf = kirchhoff_index(g)
            sums = vertex_sums(g)
            k = code.cycle_length
            shapes = [branch_shape(c) for c in code.branch_codes]
            rows = cycle_row_numerators([parents for parents, _ in shapes])
            peeled, nums, degrees = _class_rows(code.branch_codes)
            found = []
            for x, y, y_degree, single, pair in pendant_differences(shapes, rows):
                found.append(x)
                assert g.adjacency[x] == (y,) and y_degree == g.degree(y), code
                assert peeled.parent[x] == y and degrees[y] == y_degree, code
                assert Fraction(single, k) == kf - kirchhoff_index(without_vertices(g, [x])), code
                assert single == nums[x] == k * (sums[y] + n - 2), code
                if g.degree(y) == 2:
                    deleted = kirchhoff_index(without_vertices(g, [x, y]))
                    assert Fraction(pair, k) == kf - deleted, code
                    (z,) = set(g.adjacency[y]) - {x}
                    assert pair == k * (2 * sums[z] + 3 * n - 11), code
                else:
                    assert pair is None
            assert found == [v for v in range(n) if g.degree(v) == 1]
            assert sorted(x for x in peeled.order if degrees[x] == 1) == found, code
            # at the class's own m no bound fails up to n = 10; two more
            # makes some fail, so both kinds of entry are compared
            for m in (matching_number(g).size, matching_number(g).size + 2):
                cell = RowCell(n, m)
                _check_class(code.branch_codes, cell)
                assert cell == cell_by_deletions(code, g, m), (code, m)


def _in_label_order(per_branch):
    """Per-branch lists as ``graph_from_code`` labels them: the roots,
    then every branch's other vertices."""
    return [b[0] for b in per_branch] + [x for b in per_branch for x in b[1:]]


def test_code_rows_and_degrees_match_graphs():
    # every class for n <= 11: the integer rows read off the class's peel
    # are k times the vertex sums of its graph and the oracle's rows, read
    # branch by branch, and its degrees are the graph's and the oracle's
    for n in range(3, 12):
        for code, g in enumerate_with_codes(n):
            _, nums, degrees = _class_rows(code.branch_codes)
            shapes = [branch_shape(c) for c in code.branch_codes]
            rows = cycle_row_numerators([parents for parents, _ in shapes])
            assert nums == _in_label_order(rows), code
            assert [Fraction(x, code.cycle_length) for x in nums] == vertex_sums(g), code
            assert degrees == _in_label_order([d for _, d in shapes]), code
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
    # from the sweep's knapsack, so it walks only the branch codes of the
    # classes it checks one by one, each class's once
    monkeypatch.setattr(enumeration, "_pools", {})
    parsed, checked = [], []

    def parse(codes):
        parsed.append(tuple(codes))
        return code_parents(codes)

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
    assert parsed == checked


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

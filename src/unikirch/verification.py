"""Verification suites: every tabulated value, closed form, inequality
and extremal claim is confronted with an independent exact computation
and reported case by case.

The suites that enumerate classes sweep the vertex counts of their
window in ``WINDOWS``: from its least n with a cell to its default n,
or to its ceiling under ``--extended``.  Claims whose parameter ranges
exceed the enumerated window are covered by closed-form identity checks
(predicted value vs. direct computation on the constructed minimizer,
up to n = 100); reports state that these are identity checks, not
minimality searches.
"""

from __future__ import annotations

import csv
import json
import random
import time
from fractions import Fraction
from functools import cache
from importlib import resources
from itertools import accumulate
from typing import NamedTuple

from .enumeration import (
    Minimum,
    dihedral_min,
    enumerate_with_codes,
    free_trees,
    orbit_compositions,
    row_cells,
    sweep_minima,
)
from .families import (
    FamilySpec,
    family_label,
    girth_min_kf,
    make_cycle,
    make_ukt,
    make_unm,
    predicted_min,
    predicted_min_perfect,
)
from .graph import Graph, identify_vertices, peel
from .matching import has_perfect_matching
from .rational import format_rational, parse_rational
from .resistance import (
    kf_identified,
    kirchhoff_index,
    kirchhoff_vertex_sum,
    resistance_matrix,
    route,
)

IDENTITY_NOTE = (
    "Cases marked identity:* compare a closed-form prediction against direct "
    "computation on the constructed graph; they certify the formula, not "
    "minimality over the class, which is only enumerated inside the window."
)


class CaseResult(NamedTuple):
    id: str
    parameters: dict
    expected: str
    computed: str
    status: str
    runtime_ms: float


class VerificationReport:
    """A suite's cases and notes; equal when suite, seed, cases and notes are."""

    def __init__(self, suite: str, seed: int):
        self.suite = suite
        self.seed = seed
        self.cases: list[CaseResult] = []
        self.notes: list[str] = []
        self._t0 = time.perf_counter()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.suite, self.seed, self.cases, self.notes) == (
            other.suite,
            other.seed,
            other.cases,
            other.notes,
        )

    def __repr__(self):
        return (
            f"VerificationReport(suite={self.suite!r}, seed={self.seed!r}, "
            f"cases={self.cases!r}, notes={self.notes!r})"
        )

    def add(self, cid: str, parameters: dict, expected, computed, ok: bool | None = None):
        """Record a case, timed since the previous case or since the report
        was created; it passes when ok, or, if ok is None, when expected ==
        computed."""
        if ok is None:
            ok = expected == computed
        ms = round((time.perf_counter() - self._t0) * 1000.0, 3)
        status = "pass" if ok else "fail"
        self.cases.append(CaseResult(cid, parameters, _fmt(expected), _fmt(computed), status, ms))
        self._t0 = time.perf_counter()

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if c.status == "fail")

    @property
    def skipped(self) -> int:
        return sum(1 for c in self.cases if c.status == "skipped")

    @property
    def ok(self) -> bool:
        """No case failed, and there was a case: a window that checks
        nothing does not pass."""
        return self.failed == 0 and bool(self.cases)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "notes": list(self.notes),
            "cases": [c._asdict() for c in self.cases],
            "summary": {"pass": self.passed, "fail": self.failed, "skipped": self.skipped},
        }

    def render_text(self) -> str:
        lines = [f"suite {self.suite} (seed={self.seed})"]
        for c in self.cases:
            mark = {"pass": "ok", "fail": "FAIL", "skipped": "skip"}[c.status]
            line = f"  [{mark:4}] {c.id}"
            if c.status == "fail":
                line += f"  expected {c.expected}  computed {c.computed}"
            lines.append(line)
        lines.append(
            f"  summary: {self.passed} passed, {self.failed} failed, {self.skipped} skipped"
        )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, (set, frozenset, tuple, list)):
        return "{" + ", ".join(sorted(_fmt(e) for e in x)) + "}"
    return str(x)


def _pretty_codes(codes) -> str:
    return "{" + ", ".join(sorted(family_label(c) for c in codes)) + "}"


def _argmin_cell(best: Minimum, specs: tuple[FamilySpec, ...], value) -> tuple[str, bool]:
    """A sweep cell's minimum as a case reports it, and whether it is value,
    attained at exactly the classes of specs."""
    codes = frozenset(best.codes)
    computed = f"{_pretty_codes(codes)} = {format_rational(best.value)}"
    expected = frozenset(s.code() for s in specs)
    return computed, codes == expected and best.value == value


# ---------------------------------------------------------------------------
# reference data


def load_table_rows() -> list[dict]:
    """Transcribed reference rows for the perfect-matching candidate tables."""
    text = resources.files("unikirch.data").joinpath("kf_tables_2mm.csv").read_text()
    rows = []
    for rec in csv.reader(line for line in text.splitlines() if not line.startswith("#")):
        if not rec:
            continue
        table, row, k, t, j, value = rec[:6]
        rows.append(
            {
                "table": int(table),
                "row": row,
                "k": int(k),
                "t": int(t),
                "j": int(j),
                "value": parse_rational(value),
                "printed_value": parse_rational(rec[6]) if len(rec) > 6 else None,
            }
        )
    return rows


def load_nm_tables() -> list[dict]:
    text = resources.files("unikirch.data").joinpath("kf_tables_nm.json").read_text()
    return json.loads(text)["tables"]


def candidate_rows(m: int) -> set[tuple[int, int, int]]:
    """All (k, t, j) with k+t+2j = 2m, 0 <= t <= k, matching parity; these
    are exactly the perfect-matching candidates tabulated per m."""
    out = set()
    for k in range(3, 2 * m + 1):
        for t in range(0, min(k, 2 * m - k) + 1):
            if (k + t) % 2 == 0:
                out.add((k, t, (2 * m - k - t) // 2))
    return out


# ---------------------------------------------------------------------------
# suites


class Window(NamedTuple):
    """The vertex counts a suite enumerates: from floor, its least n with a
    cell, to default, or to ceiling under ``--extended``."""

    floor: int
    default: int
    ceiling: int


# The sweep reads no rooted tree and lists only the state tuples that
# attain a minimum: sweep_minima(n) takes 0.16, 0.19, 0.36 and 0.73 s for
# n = 17..20 (best of 3), in 17 MB (x86_64, 2 CPUs, Python 3.11.7).
SWEEP_MAX_N = 20
# The classes roughly triple with each vertex: at n = 16 (311,465) the
# listing takes 2.4 s in 32 MB.  It, the counts (which extremal_scan.py
# reads too) and the row suites walk all 53,272 rooted trees of up to 14
# vertices, of which the row pass parses only the branches it expands.
LISTING_MAX_N = 16

# The vertex-sum and deletion bounds are claimed for m >= 3, so their
# windows have no cell below n = 6.  extremal-perfect sweeps the even n
# of its window, m up to n // 2.
WINDOWS = {
    "extremal-perfect": Window(4, 12, SWEEP_MAX_N),
    "extremal": Window(4, 12, SWEEP_MAX_N),
    "vertex-sum-bound": Window(6, 10, LISTING_MAX_N),
    "deletion-bounds": Window(6, 10, LISTING_MAX_N),
    "girth-minima": Window(4, 9, SWEEP_MAX_N),
    "wiener-divergence": Window(4, 12, SWEEP_MAX_N),
}
CEILINGS = {
    "unikirch enumerate": LISTING_MAX_N,
    "unikirch extremal": SWEEP_MAX_N,
    "extremal_scan.py": LISTING_MAX_N,
}


def refusal(name: str, flag: str, n: int | None) -> str | None:
    """The error that refuses `flag n` for a command of ``CEILINGS``, or
    for ``verify --suite name`` outside the limits of every suite or of a
    suite that would run; None when n is unset or within them."""
    if n is None:
        return None
    error = f"error: {flag} {n}: "
    most = CEILINGS.get(name, max(w.ceiling for w in WINDOWS.values()))
    if n > most:
        return error + f"enumeration is limited to {most} vertices"
    least = min(w.floor for w in WINDOWS.values())
    if name not in CEILINGS and n < least:
        return error + f"no suite has a cell below n = {least}"
    for suite, window in WINDOWS.items():
        if name in ("all", suite) and n < window.floor:
            return error + f"suite {suite} has no cell below n = {window.floor}"
        if name in ("all", suite) and n > window.ceiling:
            limited = f"suite {suite} is" if name == "all" else "enumeration is"
            return error + f"{limited} limited to {window.ceiling} vertices"
    return None


def suite_tables(m_values: tuple[int, ...] = (3, 4, 5, 6, 7, 8)) -> VerificationReport:
    """Recompute every tabulated Kf(U(k,t,0,j)) on the perfect-matching
    candidate tables and check the transcription covers every candidate."""
    report = VerificationReport("tables", 0)
    rows = [r for r in load_table_rows() if r["table"] + 2 in m_values]
    for r in rows:
        g = make_ukt(r["k"], r["t"], 0, r["j"])
        computed = kirchhoff_index(g)
        report.add(
            f"table{r['table']}:{r['row']}",
            {"k": r["k"], "t": r["t"], "j": r["j"]},
            r["value"],
            computed,
        )
        if r["printed_value"] is not None:
            report.notes.append(
                f"table{r['table']} {r['row']}: printed value "
                f"{format_rational(r['printed_value'])} is a detected misprint; "
                f"expected corrected to {format_rational(r['value'])} via the "
                "source's own closed forms (see data file comments)."
            )
    for m in m_values:
        table = m - 2
        listed = {(r["k"], r["t"], r["j"]) for r in rows if r["table"] == table}
        report.add(
            f"table{table}:coverage",
            {"m": m},
            sorted(candidate_rows(m)),
            sorted(listed),
        )
    return report


def suite_tables_nm() -> VerificationReport:
    """Check the fixed-m candidate tables: every numeric cell against a
    direct computation and every closed-form column against its cells."""
    report = VerificationReport("tables-nm", 0)
    for table in load_nm_tables():
        tno, m = table["table"], table["m"]
        for row in table["rows"]:
            fam = row["family"]
            c2, c1, c0 = (parse_rational(c) for c in row["poly"])
            for n_str, val_str in row["cells"].items():
                n = int(n_str)
                expected = parse_rational(val_str)
                if fam == "Unm":
                    g = make_unm(n, m)
                    label = f"Unm(n,{m})"
                else:
                    k, t, j = fam
                    g = make_ukt(k, t, n - k - t - 2 * j, j)
                    label = f"U({k},{t},n-{k + t + 2 * j},{j})"
                report.add(
                    f"table{tno}:{label}@n={n}",
                    {"n": n, "m": m},
                    expected,
                    kirchhoff_index(g),
                )
                report.add(
                    f"table{tno}:{label}@n={n}:poly",
                    {"n": n, "m": m},
                    expected,
                    c2 * n * n + c1 * n + c0,
                )
        for cell in table["cycle_cells"]:
            n = cell["n"]
            report.add(
                f"table{tno}:C{n}",
                {"n": n, "m": m},
                parse_rational(cell["value"]),
                kirchhoff_index(make_cycle(n)),
            )
    return report


# the matching numbers and vertex counts of the closed-form identity
# checks of extremal-perfect and extremal
IDENTITY_M = (8, 9, 10, 12, 25, 50)
IDENTITY_N = (15, 16, 17, 20, 33, 50, 100)


def suite_extremal_perfect(m_max: int) -> VerificationReport:
    """Enumerated minimum of Kf over the perfect-matching classes versus
    the predicted minimizer, which must also be unique; closed-form
    identity checks for the m of ``IDENTITY_M`` above m_max."""
    report = VerificationReport("extremal-perfect", 0)
    for sweep in map(sweep_minima, range(WINDOWS["extremal-perfect"].floor, 2 * m_max + 1, 2)):
        m = sweep.n // 2
        pred = predicted_min_perfect(m)
        report.add(
            f"perfect:m={m}",
            {"n": 2 * m, "m": m},
            f"{pred.describe()} (unique)",
            *_argmin_cell(sweep.kf[m], pred.minimizers, pred.value),
        )
    for m in (m for m in IDENTITY_M if m > m_max):  # the others are enumerated above
        pred = predicted_min_perfect(m)
        direct = kirchhoff_index(pred.minimizers[0].build())
        report.add(f"identity:m={m}", {"n": 2 * m, "m": m}, pred.value, direct)
    report.notes.append(IDENTITY_NOTE)
    return report


def suite_extremal(n_max: int) -> VerificationReport:
    """Enumerated minimum of Kf over every (n, m) cell in the window
    versus the predicted minimizer set, compared as isomorphism classes;
    closed-form identity checks for the n of ``IDENTITY_N`` above it."""
    report = VerificationReport("extremal", 0)
    for sweep in map(sweep_minima, range(WINDOWS["extremal"].floor, n_max + 1)):
        n = sweep.n
        for m, best in sweep.kf.items():
            if m < 2:
                continue
            pred = predicted_min(n, m)
            report.add(
                f"cell:n={n},m={m}",
                {"n": n, "m": m},
                pred.describe(),
                *_argmin_cell(best, pred.minimizers, pred.value),
            )
    for n in (n for n in IDENTITY_N if n > n_max):  # the others are enumerated above
        for m in range(2, n // 2 + 1):
            pred = predicted_min(n, m)
            ok = all(kirchhoff_index(s.build()) == pred.value for s in pred.minimizers)
            report.add(
                f"identity:n={n},m={m}",
                {"n": n, "m": m},
                pred.value,
                pred.value if ok else "mismatch",
                ok,
            )
    report.notes.append(IDENTITY_NOTE)
    return report


def suite_vertex_sum_bound(n_max: int) -> VerificationReport:
    """Sweep Kf_G(u) >= n + m - 4 over every enumerated graph and vertex;
    equality must occur exactly at the maximum-degree vertex of Unm(n,m)."""
    report = VerificationReport("vertex-sum-bound", 0)
    for cells in map(row_cells, range(WINDOWS["vertex-sum-bound"].floor, n_max + 1)):
        for cell in cells:
            n, m = cell.n, cell.m
            unm_code = FamilySpec("Unm", (n, m)).code()
            ok = cell.violations == 0 and cell.equalities == [(unm_code, True)]
            flag = " (boundary cell)" if (n, m) == (6, 3) else ""
            report.add(
                f"cell:n={n},m={m}{flag}",
                {"n": n, "m": m, "graphs": cell.graphs},
                "0 violations; equality only at max-degree vertex of "
                f"Unm({n},{m})",
                f"{cell.violations} violations; "
                f"{len(cell.equalities)} equality instance(s)",
                ok,
            )
    report.notes.append(
        "The (n, m) = (6, 3) cell sits at the parameter boundary of the "
        "vertex-sum bound; it is included and flagged."
    )
    return report


def suite_deletion_bounds(n_max: int) -> VerificationReport:
    """Sweep the pendant-deletion inequalities Kf(G) - Kf(G-x) >= 2n+m-6
    and (for a degree-2 neighbor y) Kf(G) - Kf(G-x-y) >= 5n+2m-19, and
    check the equality instances are exactly the ones on Unm(n,m)."""
    report = VerificationReport("deletion-bounds", 0)
    for cells in map(row_cells, range(WINDOWS["deletion-bounds"].floor, n_max + 1)):
        for cell in cells:
            n, m = cell.n, cell.m
            unm_code = FamilySpec("Unm", (n, m)).code()
            ok = (
                cell.deletion_violations == 0
                and cell.eq_single == [(unm_code, True)] * (n - 2 * m + 1)
                and cell.eq_pair == [unm_code] * (m - 3)
            )
            report.add(
                f"cell:n={n},m={m}",
                {"n": n, "m": m, "pendants_checked": cell.pendants},
                f"0 violations; {n - 2 * m + 1} single / {m - 3} pair equalities, "
                f"all on Unm({n},{m})",
                f"{cell.deletion_violations} violations; {len(cell.eq_single)} single / "
                f"{len(cell.eq_pair)} pair equalities",
                ok,
            )
    return report


def suite_girth_minima(n_max: int) -> VerificationReport:
    """Per (n, k): the minimum Kf over n-vertex unicyclic graphs with
    cycle length k must be the closed-form bound, attained uniquely at
    U(k,1,n-k-1,0)."""
    report = VerificationReport("girth-minima", 0)
    for sweep in map(sweep_minima, range(WINDOWS["girth-minima"].floor, n_max + 1)):
        n = sweep.n
        for k, best in sweep.kf_by_cycle.items():
            if k == n:  # the claim is for k < n; k = n is C_n alone
                continue
            spec, value = FamilySpec("U", (k, 1, n - k - 1, 0)), girth_min_kf(n, k)
            report.add(
                f"cell:n={n},k={k}",
                {"n": n, "k": k},
                f"{spec.text()} = {format_rational(value)} (unique)",
                *_argmin_cell(best, (spec,), value),
            )
    return report


# the tabulated resistance sums for pendant placements on C10, C11, C12
# (positions are 1-based); the consecutive placements are rows of the
# table too, not values of a closed form
PLACEMENT_CASES: tuple[tuple[int, tuple[int, ...], str], ...] = (
    (10, (1, 2, 3, 4), "8"),
    (10, (1, 2, 3, 6), "52/5"),
    (10, (1, 2, 5, 6), "56/5"),
    (10, (1, 2, 5, 8), "12"),
    (11, (1, 2, 3, 4, 5), "170/11"),
    (11, (1, 2, 3, 4, 7), "202/11"),
    (11, (1, 2, 3, 6, 7), "218/11"),
    (11, (1, 2, 3, 6, 9), "226/11"),
    (11, (1, 2, 5, 8, 9), "234/11"),
    (12, (1, 2, 3, 4), "25/3"),
    (12, (1, 2, 3, 6), "34/3"),
    (12, (1, 2, 3, 8), "37/3"),
    (12, (1, 2, 5, 6), "37/3"),
    (12, (1, 2, 7, 8), "41/3"),
    (12, (1, 2, 5, 8), "14"),
    (12, (1, 2, 5, 10), "41/3"),
    (12, (1, 4, 7, 10), "15"),
)

_PLACEMENT_CLASS_COUNTS = {(10, 4): 4, (11, 5): 5, (12, 4): 8}


def _pendant_placement_graph(k: int, positions: tuple[int, ...]) -> Graph:
    edges = [(v, v + 1) for v in range(k - 1)] + [(0, k - 1)]
    edges += [(pos, k + idx) for idx, pos in enumerate(sorted(positions))]
    return Graph(k + len(positions), frozenset(edges))


def _gap_positions(gaps: tuple[int, ...]) -> tuple[int, ...]:
    """The cycle positions, from 0, that are the given gaps apart."""
    return tuple(accumulate(gaps[:-1], initial=0))


def _placement_canon(k: int, positions: tuple[int, ...]) -> tuple[int, ...]:
    """Dihedral-canonical form of a nonempty subset of cycle positions: the
    least of its sorted images.  A subset of t positions on C_k is a
    cyclic composition of k into the t gaps between them, and the least
    sorted image starts at 0 with the least image of the gaps."""
    ring = sorted(positions)
    gaps = tuple(b - a for a, b in zip(ring, ring[1:] + [ring[0] + k]))
    return _gap_positions(dihedral_min(gaps))


def suite_cycle_placements() -> VerificationReport:
    """Recompute the tabulated pairwise-resistance sums for the degree-3
    placements on C10/C11/C12 and verify the case lists are complete:
    exactly the dihedral classes whose pendant graph has a perfect
    matching."""
    report = VerificationReport("cycle-placements", 0)
    by_kt: dict[tuple[int, int], set[tuple[int, ...]]] = {}
    for k, pos1, expected_text in PLACEMENT_CASES:
        positions = tuple(p - 1 for p in pos1)
        g = _pendant_placement_graph(k, positions)
        mat = resistance_matrix(g)
        sigma = Fraction(0)
        for a in range(len(positions)):
            for b in range(a + 1, len(positions)):
                sigma += mat.r(positions[a], positions[b])
        report.add(
            f"sigma:C{k}@{{{','.join(str(p) for p in pos1)}}}",
            {"k": k, "positions": list(pos1)},
            parse_rational(expected_text),
            sigma,
        )
        by_kt.setdefault((k, len(positions)), set()).add(_placement_canon(k, positions))
    for (k, t), expected_count in _PLACEMENT_CLASS_COUNTS.items():
        feasible = []
        for gaps, _ in orbit_compositions(k, t):
            canon = _gap_positions(gaps)
            if has_perfect_matching(_pendant_placement_graph(k, canon)):
                feasible.append(canon)
        report.add(
            f"classes:k={k},t={t}:count",
            {"k": k, "t": t},
            expected_count,
            len(feasible),
        )
        report.add(
            f"classes:k={k},t={t}:set",
            {"k": k, "t": t},
            sorted(by_kt[(k, t)]),
            sorted(feasible),
        )
    return report


def suite_merge_identity(trials: int = 200, seed: int = 0) -> VerificationReport:
    """The vertex-identification closed form must equal direct
    computation on seeded random (G, u, H, w) instances with G unicyclic
    (n <= 8) and H a tree (n <= 6)."""
    report = VerificationReport("merge-identity", seed)
    anchors = [
        (make_cycle(3), 0, FamilySpec("P", (2,)).build(), 0, Fraction(19, 3)),
        (FamilySpec("P", (2,)).build(), 0, FamilySpec("P", (2,)).build(), 0, Fraction(4)),
    ]
    for i, (g, u, h, w, expected) in enumerate(anchors):
        merged = identify_vertices(g, u, h, w)
        direct = kirchhoff_index(merged)
        closed = kf_identified(
            kirchhoff_index(g),
            kirchhoff_index(h),
            kirchhoff_vertex_sum(g, u),
            kirchhoff_vertex_sum(h, w),
            g.n,
            h.n,
        )
        report.add(
            f"anchor:{i}",
            {"g_n": g.n, "h_n": h.n},
            expected,
            direct if direct == closed else f"direct {direct} != closed {closed}",
            direct == closed == expected,
        )
    rng = random.Random(seed)
    unicyclic_pool = [g for n in range(3, 9) for _, g in enumerate_with_codes(n)]
    tree_pool = [t for n in range(1, 7) for t in free_trees(n)]

    @cache
    def kf_and_sums(g: Graph) -> tuple[Fraction, list[int], int]:
        """Kf of a pool graph and its vertex sums as integers over d, from
        one route, once per graph."""
        resist = route(g, peel(g))
        return resist.kirchhoff_index(), resist.vertex_numerators(), resist.d

    for i in range(trials):
        g = rng.choice(unicyclic_pool)
        h = rng.choice(tree_pool)
        u = rng.randrange(g.n)
        w = rng.randrange(h.n)
        merged = identify_vertices(g, u, h, w)
        direct = kirchhoff_index(merged)
        (kf_g, sums_g, d_g), (kf_h, sums_h, d_h) = kf_and_sums(g), kf_and_sums(h)
        closed = kf_identified(
            kf_g, kf_h, Fraction(sums_g[u], d_g), Fraction(sums_h[w], d_h), g.n, h.n
        )
        report.add(
            f"trial:{i}",
            {"g_n": g.n, "h_n": h.n, "u": u, "w": w},
            closed,
            direct,
        )
    return report


def suite_wiener_divergence(n_max: int) -> VerificationReport:
    """Compare the Kirchhoff and Wiener argmin sets cell by cell; the
    sweep must contain at least one cell where they differ."""
    report = VerificationReport("wiener-divergence", 0)
    any_differ = False
    for sweep in map(sweep_minima, range(WINDOWS["wiener-divergence"].floor, n_max + 1)):
        for m, best in sweep.kf.items():
            if m < 2:
                continue
            kf_codes = frozenset(best.codes)
            w_codes = frozenset(sweep.wiener[m].codes)
            differ = kf_codes != w_codes
            any_differ = any_differ or differ
            report.add(
                f"cell:n={sweep.n},m={m}",
                {"n": sweep.n, "m": m},
                "recorded",
                f"kirchhoff {_pretty_codes(kf_codes)} vs wiener "
                f"{_pretty_codes(w_codes)}: {'differ' if differ else 'same'}",
                True,
            )
    report.add(
        "divergence-observed",
        {"n_max": n_max},
        "at least one cell with differing minimizers",
        "observed" if any_differ else "none found",
        any_differ,
    )
    return report


SUITE_NAMES = (
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
)


def run_suite(
    name: str, max_n: int | None = None, extended: bool = False, seed: int = 0, trials: int = 200
) -> list[VerificationReport]:
    """Run one suite (or 'all'); an enumerating suite with max_n unset
    sweeps its window of ``WINDOWS`` to the default n, or to the ceiling
    when extended."""
    if name == "all":
        return [r for s in SUITE_NAMES for r in run_suite(s, max_n, extended, seed, trials)]
    if name in WINDOWS and max_n is None:
        max_n = WINDOWS[name].ceiling if extended else WINDOWS[name].default
    run = {
        "tables": lambda: suite_tables(),
        "tables-nm": lambda: suite_tables_nm(),
        "extremal-perfect": lambda: suite_extremal_perfect(m_max=max_n // 2),
        "extremal": lambda: suite_extremal(n_max=max_n),
        "vertex-sum-bound": lambda: suite_vertex_sum_bound(n_max=max_n),
        "deletion-bounds": lambda: suite_deletion_bounds(n_max=max_n),
        "girth-minima": lambda: suite_girth_minima(n_max=max_n),
        "cycle-placements": lambda: suite_cycle_placements(),
        "merge-identity": lambda: suite_merge_identity(trials=trials, seed=seed),
        "wiener-divergence": lambda: suite_wiener_divergence(n_max=max_n),
    }
    if name not in run:
        raise ValueError(f"unknown suite {name!r}")
    return [run[name]()]

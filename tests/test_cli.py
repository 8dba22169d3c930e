import contextlib
import hashlib
import importlib.util
import io
import json
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fractions import Fraction

from conftest import matrix_text
from oracles import kirchhoff_index_dense, resistance_matrix_dense, row_sums, triangle_sum
from unikirch import cli, graph, resistance
from unikirch.cli import CONSTRUCT_MAX_N, DENSE_MAX_N, MATRIX_MAX_N, TRIALS_MAX, main
from unikirch.enumeration import canonical_code
from unikirch.families import (
    family_label,
    make_cycle,
    make_ukt,
    make_unm,
    predicted_min,
    unm_kf_closed_form,
)
from unikirch.graph import Graph, read_graph, wiener_index, write_graph
from unikirch.rational import format_rational
from unikirch.verification import CEILINGS, WINDOWS

SCRIPTS = Path(__file__).parent.parent / "scripts"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_cycle(tmp_path, capsys):
    path = tmp_path / "c6.graph"
    path.write_text(write_graph(make_cycle(6)))
    code, out, _ = run_cli(capsys, "compute", "--input", str(path))
    assert code == 0
    assert out == "Kf = 35/2\n"


def test_compute_wiener_and_sums(tmp_path, capsys):
    path = tmp_path / "p3.graph"
    path.write_text("3\n0 1\n1 2\n")
    code, out, _ = run_cli(
        capsys, "compute", "--input", str(path), "--wiener", "--vertex-sums"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Kf = 4"
    assert lines[1] == "W = 4"
    assert lines[2:] == ["Kf[0] = 3", "Kf[1] = 2", "Kf[2] = 3"]


def test_compute_resistance_matrix(tmp_path, capsys):
    path = tmp_path / "c3.graph"
    path.write_text(write_graph(make_cycle(3)))
    code, out, _ = run_cli(capsys, "compute", "--input", str(path), "--resistance-matrix")
    assert code == 0
    assert out == "Kf = 2\n3\n2/3 2/3\n2/3\n"


def test_compute_writes_a_long_matrix_whole(tmp_path, capsys):
    # the matrix text goes out a row at a time; a text of many rows arrives whole
    g = make_cycle(150)
    path = tmp_path / "c150.graph"
    path.write_text(write_graph(g))
    code, out, _ = run_cli(capsys, "compute", "--input", str(path), "--resistance-matrix")
    text = matrix_text(resistance.resistance_matrix(g))
    assert code == 0 and len(text) > 1 << 16
    assert out == f"Kf = {resistance.kf_cycle(150)}\n" + text


def test_compute_decimal(tmp_path, capsys):
    path = tmp_path / "u82.graph"
    path.write_text(write_graph(make_ukt(8, 2, 0, 0)))
    code, out, _ = run_cli(capsys, "compute", "--input", str(path), "--decimal")
    assert code == 0
    assert out == "Kf = 655/8 (~ 81.875000)\n"


def test_compute_errors(tmp_path, capsys):
    missing = tmp_path / "nope.graph"
    code, _, err = run_cli(capsys, "compute", "--input", str(missing))
    assert code == 2 and err
    bad = tmp_path / "bad.graph"
    bad.write_text("2\n0 0\n")
    code, _, err = run_cli(capsys, "compute", "--input", str(bad))
    assert code == 2 and err
    disconnected = tmp_path / "disc.graph"
    disconnected.write_text("2\n")
    code, _, err = run_cli(capsys, "compute", "--input", str(disconnected))
    assert code == 1 and err


def test_compute_huge_vertex_count_without_edges(tmp_path, capsys):
    # too few edges to connect: refused before anything of size n exists
    path = tmp_path / "huge.graph"
    path.write_text("10000000\n")
    tracemalloc.start()
    try:
        code = main(["compute", "--input", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 1_000_000
    assert "disconnected" in capsys.readouterr().err


def _write_edges(path, n, edges):
    path.write_text("\n".join([str(n)] + [f"{u} {v}" for u, v in sorted(edges)]) + "\n")
    return str(path)


def test_compute_refuses_large_dense_input(tmp_path, capsys):
    # C_101 and a chord: the 2-core is the whole graph
    n = DENSE_MAX_N + 1
    edges = set(make_cycle(n).edges) | {(0, n // 2)}
    path = _write_edges(tmp_path / "bicyclic.graph", n, edges)
    code, out, err = run_cli(capsys, "compute", "--input", path)
    assert code == 2 and out == ""
    assert str(DENSE_MAX_N) in err and f"{n} in the 2-core" in err


def test_compute_limits_the_core_not_the_graph(tmp_path, capsys):
    # a path with two chords: 21 vertices in the 2-core, the rest pendant
    for n in (DENSE_MAX_N + 1, 10 * DENSE_MAX_N):
        edges = [(v, v + 1) for v in range(n - 1)] + [(0, 9), (5, 20)]
        path = _write_edges(tmp_path / "bicyclic.graph", n, edges)
        code, out, _ = run_cli(capsys, "compute", "--input", path)
        assert code == 0
        if n == DENSE_MAX_N + 1:
            assert out == f"Kf = {kirchhoff_index_dense(Graph(n, frozenset(edges)))}\n"


def test_compute_refuses_large_resistance_matrix(tmp_path, capsys):
    n = MATRIX_MAX_N + 1
    path = tmp_path / "cycle.graph"
    path.write_text(write_graph(make_cycle(n)))
    code, out, err = run_cli(capsys, "compute", "--input", str(path), "--resistance-matrix")
    assert code == 2 and out == ""
    assert str(MATRIX_MAX_N) in err
    code, out, _ = run_cli(capsys, "compute", "--input", str(path))
    assert code == 0 and out == f"Kf = {(n**3 - n) // 12}\n"


def test_compute_wiener_reads_the_kernel(tmp_path, capsys, monkeypatch):
    rng = random.Random(400)
    n, k = 400, 30
    cycle = {(c, c + 1) for c in range(k - 1)} | {(0, k - 1)}
    pendant = {(rng.randrange(v), v) for v in range(k, n)}
    # unicyclic, then with three chords on the cycle
    graphs = [Graph(n, frozenset(cycle | pendant))]
    graphs.append(Graph(n, graphs[0].edges | {(0, 10), (3, 17), (12, 25)}))
    expected = [wiener_index(g) for g in graphs]

    def no_bfs(_):
        raise AssertionError("compute --wiener ran the BFS route")

    monkeypatch.setattr(graph, "wiener_index", no_bfs)
    monkeypatch.setattr(cli, "wiener_index", no_bfs, raising=False)
    for g, w in zip(graphs, expected):
        path = tmp_path / "graph.graph"
        path.write_text(write_graph(g))
        code, out, _ = run_cli(capsys, "compute", "--input", str(path), "--wiener")
        assert code == 0
        assert out.splitlines()[1] == f"W = {w}"


def test_compute_tree_matrix_is_the_closed_form(tmp_path, capsys, monkeypatch):
    rng = random.Random(200)
    n = 200
    g = Graph(n, frozenset((rng.randrange(v), v) for v in range(1, n)))
    path = tmp_path / "tree.graph"
    path.write_text(write_graph(g))
    expected = [str(n)]
    for u in range(n - 1):
        expected.append(" ".join(map(str, graph.bfs_distances(g, u)[u + 1 :])))

    def no_elimination(*_):
        raise AssertionError("compute --resistance-matrix ran the Laplacian route")

    monkeypatch.setattr(resistance, "core_inverse", no_elimination)
    code, out, _ = run_cli(capsys, "compute", "--input", str(path), "--resistance-matrix")
    assert code == 0
    assert out.splitlines()[1:] == expected


def _bicyclic_path() -> Graph:
    """The path on 80 vertices with the chords (0, 9) and (5, 20)."""
    edges = [(v, v + 1) for v in range(79)] + [(0, 9), (5, 20)]
    return Graph(80, frozenset(edges))


def test_compute_eliminates_the_dense_laplacian_once(tmp_path, capsys, monkeypatch):
    # vertices 0..20 form the 2-core, so one elimination of 20 rows, the
    # core's Laplacian with one vertex grounded, serves Kf, the vertex sums
    # and the matrix
    n = 80
    path = tmp_path / "bicyclic.graph"
    path.write_text(write_graph(_bicyclic_path()))
    grounded = resistance._grounded_laplacian
    calls = []

    def counting_laplacian(core):
        rows = grounded(core)
        calls.append(len(rows))
        return rows

    monkeypatch.setattr(resistance, "_grounded_laplacian", counting_laplacian)
    code, out, _ = run_cli(capsys, "compute", "--input", str(path), "--vertex-sums")
    assert code == 0 and calls == [20]
    lines = out.splitlines()
    assert lines[0] == "Kf = 1799555/24"
    assert sum(Fraction(line.split(" = ")[1]) for line in lines[1:]) == Fraction(1799555, 12)
    calls.clear()
    code, out, _ = run_cli(
        capsys, "compute", "--input", str(path), "--vertex-sums", "--resistance-matrix"
    )
    assert code == 0 and calls == [20]
    assert out.splitlines()[n + 1] == str(n)


@pytest.mark.parametrize(
    "build, closed_forms",
    [
        (lambda: Graph(30, frozenset((v // 2, v) for v in range(1, 30))), True),
        (lambda: make_ukt(6, 3, 2, 1), True),
        (_bicyclic_path, False),
    ],
    ids=["tree", "unicyclic", "bicyclic"],
)
def test_compute_peels_a_unicyclic_input_once(tmp_path, capsys, monkeypatch, build, closed_forms):
    # Kf, W, the vertex sums and the matrix all read the one route that
    # ``resistance.route`` picks for the peel the cli holds; the closed
    # forms compute the cycle rows once and the elimination never
    g = build()
    path = tmp_path / "input.graph"
    path.write_text(write_graph(g))
    calls = []

    def counting(name, fn):
        def counted(arg):
            calls.append(name)
            return fn(arg)

        return counted

    counting_peel = counting("peel", graph.peel)
    for module in (graph, cli, resistance):
        monkeypatch.setattr(module, "peel", counting_peel)
    monkeypatch.setattr(resistance, "cycle_cores", counting("cycle_cores", resistance.cycle_cores))
    flags = ("--wiener", "--vertex-sums", "--resistance-matrix")
    code, out, _ = run_cli(capsys, "compute", "--input", str(path), *flags)
    assert code == 0
    assert calls == (["peel", "cycle_cores"] if closed_forms else ["peel"])
    lines = out.splitlines()
    mat = resistance_matrix_dense(g)
    assert lines[:2] == [f"Kf = {triangle_sum(mat)}", f"W = {wiener_index(g)}"]
    assert lines[2 : g.n + 2] == [f"Kf[{v}] = {x}" for v, x in enumerate(row_sums(mat))]
    assert "\n".join(lines[g.n + 2 :]) + "\n" == matrix_text(mat)


def _compute_all(g: Graph) -> tuple[list[str], list[str], dict[tuple[int, int], str]]:
    """The Kf and W lines, the vertex sums by vertex and the matrix entries
    by (u, v), u < v, that `compute --wiener --vertex-sums
    --resistance-matrix` prints for g."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.graph"
        path.write_text(write_graph(g))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            flags = ("--wiener", "--vertex-sums", "--resistance-matrix")
            code = main(["compute", "--input", str(path), *flags])
    assert code == 0
    lines = out.getvalue().splitlines()
    head, sums, matrix = lines[:2], lines[2 : g.n + 2], lines[g.n + 3 :]
    assert [line.split(" = ")[0] for line in sums] == [f"Kf[{v}]" for v in range(g.n)]
    entries = {
        (u, v): x for u, row in enumerate(matrix) for v, x in enumerate(row.split(), start=u + 1)
    }
    assert len(entries) == g.n * (g.n - 1) // 2
    return head, [line.split(" = ")[1] for line in sums], entries


@given(
    st.integers(0, 10**6),
    st.sampled_from(("unicyclic", "tree", "bicyclic")),
    st.integers(1, 60),
)
def test_compute_output_moves_with_a_relabelling(seed, kind, n):
    # the same graph under two labellings: every value stays, and every
    # vertex sum and matrix entry moves with the labels
    rng = random.Random(seed)
    if kind == "bicyclic":
        g = _bicyclic_path()
    else:
        k = 1 if kind == "tree" else rng.randint(3, max(n, 3))
        n = max(n, k)
        edges = [(c, (c + 1) % k) for c in range(k)] if k > 1 else []
        edges += [(rng.randrange(v), v) for v in range(k, n)]
        g = Graph(n, frozenset(tuple(sorted(e)) for e in edges))
    perm = list(range(g.n))
    rng.shuffle(perm)
    copy = Graph(g.n, frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))
    head, sums, entries = _compute_all(g)
    copy_head, copy_sums, copy_entries = _compute_all(copy)
    assert copy_head == head
    assert [copy_sums[perm[v]] for v in range(g.n)] == sums
    moved = {(u, v): copy_entries[tuple(sorted((perm[u], perm[v])))] for u, v in entries}
    assert moved == entries


def test_compute_rejects_unreadable_text(tmp_path, capsys):
    # '²' passes str.isdigit but not int(); 0xff is not UTF-8
    for name, data in (("digits", "3\n0 1\n1 ²\n".encode()), ("bytes", b"3\n0 1\n\xff\n")):
        path = tmp_path / f"{name}.graph"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "compute", "--input", str(path))
        assert code == 2 and out == "" and err.startswith("error:"), name


def test_enumeration_ceiling(capsys):
    # each command refuses one past its ceiling in the limits table
    listing, sweep = CEILINGS["unikirch enumerate"], CEILINGS["unikirch extremal"]
    suite = WINDOWS["extremal"].ceiling
    for argv, ceiling in (
        (["enumerate", "--n", "1000000"], listing),
        (["enumerate", "--count-only", "--n", str(listing + 1)], listing),
        (["extremal", "--m", "3", "--n", str(sweep + 1)], sweep),
        (["verify", "--suite", "extremal", "--max-n", str(suite + 1)], suite),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"limited to {ceiling} vertices" in err
    # windows that would check nothing, or silently fall back to the default
    for argv in (
        ["verify", "--suite", "extremal", "--max-n", "0"],
        ["verify", "--suite", "extremal", "--max-n", "3"],
        ["verify", "--suite", "extremal", "--max-n", "-4"],
        ["verify", "--suite", "girth-minima", "--max-n", "2"],
        ["verify", "--suite", "merge-identity", "--trials", "-3"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: --"), argv


def test_verify_refuses_trials_above_the_ceiling(capsys, monkeypatch):
    # refused before any suite runs, for one suite and for all of them
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    for suite in ("merge-identity", "all"):
        argv = ["verify", "--suite", suite, "--trials", str(TRIALS_MAX + 1)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", suite
        assert err.startswith(f"error: --trials {TRIALS_MAX + 1}: ") and str(TRIALS_MAX) in err


def test_verify_refuses_a_window_below_a_suite_floor(capsys):
    # the vertex-sum and deletion suites have no cell below n = 6, so a
    # window that would leave them empty is refused, not reported as failed
    for argv, suite in (
        (["--suite", "all", "--max-n", "4"], "vertex-sum-bound"),
        (["--suite", "all", "--max-n", "5"], "vertex-sum-bound"),
        (["--suite", "vertex-sum-bound", "--max-n", "5"], "vertex-sum-bound"),
        (["--suite", "deletion-bounds", "--max-n", "4"], "deletion-bounds"),
    ):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == "", argv
        assert err == f"error: --max-n {argv[-1]}: suite {suite} has no cell below n = 6\n"
    code, out, _ = run_cli(capsys, "verify", "--suite", "extremal", "--max-n", "4")
    assert code == 0 and "cell:n=4,m=2" in out
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "6", "--trials", "3")
    assert code == 0 and "summary: 0 passed" not in out


def test_verify_floors_and_extended_help_come_from_the_window_table(capsys, monkeypatch):
    # the help names each window's ceiling, which --extended runs to
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert (
        "--extended run extremal-perfect to n = 20, extremal to n = 20, vertex-sum-bound to "
        "n = 16, deletion-bounds to n = 16, girth-minima to n = 20, wiener-divergence to n = 20 "
        "--json"
    ) in text
    # a raised floor is refused with the table's number
    monkeypatch.setitem(WINDOWS, "girth-minima", WINDOWS["girth-minima"]._replace(floor=7))
    code, out, err = run_cli(capsys, "verify", "--suite", "girth-minima", "--max-n", "6")
    assert (code, out) == (2, "")
    assert err == "error: --max-n 6: suite girth-minima has no cell below n = 7\n"


def _scan(monkeypatch, capsys, *argv):
    """Exit code, stdout and stderr of scripts/extremal_scan.py, run in
    this process so that it reads the patched table."""
    spec = importlib.util.spec_from_file_location("extremal_scan", SCRIPTS / "extremal_scan.py")
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    monkeypatch.setattr(sys, "argv", ["extremal_scan.py", *argv])
    code = scan.main()
    out = capsys.readouterr()
    return code, out.out, out.err


def test_every_ceiling_is_read_from_the_limits_table(capsys, monkeypatch):
    # a lowered ceiling is accepted at its value and refused one above it
    monkeypatch.setitem(CEILINGS, "unikirch enumerate", 5)
    monkeypatch.setitem(CEILINGS, "unikirch extremal", 6)
    monkeypatch.setitem(CEILINGS, "extremal_scan.py", 7)
    monkeypatch.setitem(WINDOWS, "extremal", WINDOWS["extremal"]._replace(ceiling=8))
    for argv, ceiling in ((["enumerate", "--count-only"], 5), (["extremal", "--m", "3"], 6)):
        assert run_cli(capsys, *argv, "--n", str(ceiling))[0] == 0, argv
        refused = f"error: --n {ceiling + 1}: enumeration is limited to {ceiling} vertices\n"
        assert run_cli(capsys, *argv, "--n", str(ceiling + 1)) == (2, "", refused), argv
    assert _scan(monkeypatch, capsys, "--max-n", "7")[0] == 0
    refused = "error: --max-n 8: enumeration is limited to 7 vertices\n"
    assert _scan(monkeypatch, capsys, "--max-n", "8") == (2, "", refused)
    assert run_cli(capsys, "verify", "--suite", "extremal", "--max-n", "8")[0] == 0
    refused = "error: --max-n 9: enumeration is limited to 8 vertices\n"
    assert run_cli(capsys, "verify", "--suite", "extremal", "--max-n", "9") == (2, "", refused)
    # --suite all names the suite whose ceiling it passes
    refused = "error: --max-n 9: suite extremal is limited to 8 vertices\n"
    assert run_cli(capsys, "verify", "--suite", "all", "--max-n", "9") == (2, "", refused)


def test_ceilings_at_their_boundaries(capsys):
    # extremal reads only the sweep, so it runs past the listing ceiling
    pred = predicted_min(17, 5)
    names = sorted(family_label(canonical_code(s.build())) for s in pred.minimizers)
    expected = "".join(f"{name}  {format_rational(pred.value)}\n" for name in names)
    assert run_cli(capsys, "extremal", "--n", "17", "--m", "5") == (0, expected, "")
    for argv, refused in (
        (["extremal", "--n", "21", "--m", "3"], "--n 21: enumeration is limited to 20"),
        (["enumerate", "--n", "17"], "--n 17: enumeration is limited to 16"),
        (
            ["verify", "--suite", "all", "--max-n", "17"],
            "--max-n 17: suite vertex-sum-bound is limited to 16",
        ),
    ):
        assert run_cli(capsys, *argv) == (2, "", f"error: {refused} vertices\n"), argv


def test_compute_small_bicyclic(tmp_path, capsys):
    # K4 minus an edge: Laplacian spectrum 0, 2, 4, 4, so Kf = 4 (1/2 + 1/4 + 1/4)
    path = tmp_path / "diamond.graph"
    path.write_text("4\n0 1\n0 2\n1 2\n1 3\n2 3\n")
    code, out, _ = run_cli(capsys, "compute", "--input", str(path))
    assert code == 0
    assert out == "Kf = 4\n"


def test_compute_large_unicyclic(tmp_path, capsys):
    path = tmp_path / "unm.graph"
    path.write_text(write_graph(make_unm(10_000, 10)))
    code, out, _ = run_cli(capsys, "compute", "--input", str(path))
    assert code == 0
    assert out == f"Kf = {unm_kf_closed_form(10_000, 10)}\n"


def test_construct_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "C5")
    assert code == 0
    assert out == "5\n0 1\n0 4\n1 2\n2 3\n3 4\n"


def test_construct_examples(tmp_path, capsys):
    path = tmp_path / "g.graph"
    code, _, _ = run_cli(capsys, "construct", "--family", "U(3,2,2,1)", "--out", str(path))
    assert code == 0
    g = read_graph(path.read_text())
    assert g.n == 9
    assert g == make_ukt(3, 2, 2, 1)

    code, _, _ = run_cli(capsys, "construct", "--family", "Unm(14,4)", "--out", str(path))
    assert code == 0
    from unikirch.resistance import kirchhoff_index

    assert kirchhoff_index(read_graph(path.read_text())) == 174


def test_construct_rejects(tmp_path, capsys):
    code, _, err = run_cli(capsys, "construct", "--family", "U(2,0,0,0)")
    assert code == 2 and err
    code, _, err = run_cli(capsys, "construct", "--family", "what")
    assert code == 2 and err
    code, _, err = run_cli(capsys, "construct", "--family", "C6", "--out", str(tmp_path))
    assert code == 2 and err.startswith(f"error: cannot write {tmp_path}")


def test_construct_refuses_beyond_ceiling(tmp_path, capsys):
    # one vertex over the ceiling, refused from the spec before anything is built
    assert CONSTRUCT_MAX_N == 1_000_000
    path = tmp_path / "g.graph"
    for family in ("C1000001", "U(999999,1,1,0)"):
        for out_args in ((), ("--out", str(path))):
            code, out, err = run_cli(capsys, "construct", "--family", family, *out_args)
            assert code == 2 and out == ""
            assert err == (
                f"error: {family} has 1000001 vertices: construct is limited to 1000000\n"
            )
            assert not path.exists()


def test_enumerate_count_only(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--count-only")
    assert code == 0
    assert "4,*,2" in out.splitlines()
    for n in range(3, 10):
        code, out, _ = run_cli(capsys, "enumerate", "--n", str(n), "--count-only")
        assert code == 0
        table = {line.split(",")[1]: line for line in out.splitlines()}
        assert str(n // 2 + 1) not in table  # one m with no class
        for m in range(n // 2 + 2):
            code, out, _ = run_cli(
                capsys, "enumerate", "--n", str(n), "--m", str(m), "--count-only"
            )
            assert code == 0
            assert out == table.get(str(m), f"{n},{m},0") + "\n", (n, m)
    code, out, err = run_cli(capsys, "enumerate", "--n", "2", "--m", "1", "--count-only")
    assert code == 2 and out == "" and err.startswith("error:")


def test_enumerate_emit(tmp_path, capsys):
    out_dir = tmp_path / "classes"
    code, _, _ = run_cli(capsys, "enumerate", "--n", "5", "--emit", str(out_dir))
    assert code == 0
    files = sorted(out_dir.iterdir())
    assert len(files) == 5
    codes = {canonical_code(read_graph(p.read_text())) for p in files}
    assert len(codes) == 5
    for p in files:
        g = read_graph(p.read_text())
        assert p.name == f"{canonical_code(g).stable_hash()}.graph"
    # an existing file where the directory should go
    code, out, err = run_cli(capsys, "enumerate", "--n", "4", "--emit", str(files[0]))
    assert code == 2 and out == "" and err.startswith(f"error: cannot write {files[0]}")


def test_enumerate_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "enumerate", "--n", "6")
    assert code == 0
    code, out2, _ = run_cli(capsys, "enumerate", "--n", "6")
    assert out1 == out2


def test_extremal_output(capsys):
    code, out, _ = run_cli(capsys, "extremal", "--n", "10", "--m", "5")
    assert code == 0
    assert out == "U(8,2,0,0)  655/8\n"
    code, out, _ = run_cli(capsys, "extremal", "--n", "9", "--m", "4")
    assert code == 0
    assert sorted(out.splitlines()) == ["C9  60", "U(7,1,1,0)  60"]


def test_extremal_wiener(capsys):
    code, out, _ = run_cli(
        capsys, "extremal", "--n", "8", "--m", "4", "--invariant", "wiener"
    )
    assert code == 0
    assert out.endswith("\n") and out


def test_verify_exit_codes_and_json(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "tables", "--json", str(report_path)
    )
    assert code == 0
    assert "summary: 137 passed, 0 failed" in out
    payload = json.loads(report_path.read_text())
    assert payload["suite"] == "tables"
    assert payload["summary"] == {"pass": 137, "fail": 0, "skipped": 0}
    assert len(payload["notes"]) == 2
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "verify", "--suite", "tables", "--json", str(missing))
    assert code == 2 and "summary: 137 passed, 0 failed" in out
    assert err.startswith(f"error: cannot write {missing}")


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--nope"])
    assert exc.value.code == 2


def test_threads_only_on_verify(capsys):
    for argv in (["enumerate", "--n", "5"], ["extremal", "--n", "8", "--m", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", "2"])
        assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    path = tmp_path / "c4.graph"
    path.write_text(write_graph(make_cycle(4)))
    proc = subprocess.run(
        [sys.executable, "-m", "unikirch", "compute", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "Kf = 5\n"


def test_closed_pipe_exits_quietly():
    # the reader takes one line and closes the pipe, as `| head -1` does;
    # the 5,026 classes at n = 12 overflow the pipe, so the writer is
    # still printing when it closes
    proc = subprocess.Popen(
        [sys.executable, "-m", "unikirch", "enumerate", "--n", "12"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"3:(((((((((())))))))))()()\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_extremal_scan_closed_pipe_exits_quietly():
    # as above, for scripts/extremal_scan.py: unbuffered, it writes its
    # header at once, and its rows for n = 13 come long after the reader
    # has closed the pipe
    script = Path(__file__).parent.parent / "scripts" / "extremal_scan.py"
    proc = subprocess.Popen(
        [sys.executable, "-u", str(script), "--max-n", "13"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"n,m,classes,minimum,minimizers\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_extremal_scan_refuses_beyond_ceiling():
    # refused before the header, as the CLI refuses --n; the timeout stops
    # a scan that starts instead
    ceiling = CEILINGS["extremal_scan.py"]
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "extremal_scan.py"), "--max-n", str(ceiling + 1)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    refused = f"error: --max-n {ceiling + 1}: enumeration is limited to {ceiling} vertices\n"
    assert proc.stderr == refused


def _pinned_unicyclic() -> Graph:
    """A cycle of 9 with 51 vertices each hung on a random earlier one,
    its labels shuffled."""
    rng = random.Random(21)
    n, k = 60, 9
    edges = [(c, (c + 1) % k) for c in range(k)] + [(rng.randrange(v), v) for v in range(k, n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, frozenset(tuple(sorted((perm[a], perm[b]))) for a, b in edges))


def _pinned_tree() -> Graph:
    rng = random.Random(22)
    return Graph(40, frozenset((rng.randrange(v), v) for v in range(1, 40)))


# the graph files that the compute commands of PINNED_OUTPUTS read
PINNED_GRAPHS = {
    "unicyclic.graph": _pinned_unicyclic,
    "tree.graph": _pinned_tree,
    "bicyclic.graph": _bicyclic_path,
}

# sha256 of the stdout of each command and, for verify, of its --json
# report with every runtime_ms removed: the outputs that a change of
# design must leave byte for byte.  verify accepts --threads only to
# ignore it, so the three runs of the suite all pin the same outputs.
VERIFY_ALL = (
    "ecf7791c06df0dbabf1778e2c1490d226c92c7f367ea81867cf613864e0e9f09",
    "80f9ab9e6a3127726df9cde80553f36fad0884125e9c903755a5ff9851c8ff15",
)
PINNED_OUTPUTS = {
    "verify --suite all --threads 1": VERIFY_ALL,
    "verify --suite all --threads 2": VERIFY_ALL,
    "verify --suite all": VERIFY_ALL,
    "verify --suite vertex-sum-bound --max-n 12": (
        "55210af92f7eb5ad1ccc86651d2f11678c06d6a3fbd18f3cf190182187735256",
        "741dd1f8234223d29f141b861b2554c81e76d7e2bbe770d600e4fcb06895ab10",
    ),
    "verify --suite deletion-bounds --max-n 12": (
        "f17d03b279f3db54d30e72defa53217336762621c021be428eea4b6e7a424391",
        "e8afa41ba78572008ec4e0ae8c99e95c50d50db99e9199249d5168fcbd656091",
    ),
    "enumerate --count-only --n 12": (
        "7e4b09344b6cb33a365ff089413ddc6a57767fbcc97c15c176a602b1b0bf10a0",
    ),
    "enumerate --n 9": ("f3bad480f377414cb2efa0c1213969bbe152488d53a0f17143f9d7f19f2dd9e1",),
    "extremal --n 14 --m 5": (
        "ef5b125cab8cd8568960476e827d606add587c163620d3d1b0a04cabd4a58106",
    ),
    "extremal_scan.py --max-n 10": (
        "0120046b45e7b0379d5483c7cbad29ab23acbb645a22ef873dc70dbf0c6087c0",
    ),
    "compute --input unicyclic.graph --wiener --vertex-sums --resistance-matrix --decimal": (
        "e3ba210807fa7b74b73758e24691f92469bdf4a35fc640c2a22f457e12c8ff9b",
    ),
    "compute --input tree.graph --resistance-matrix": (
        "92c016e91f5b15660862bb909d480f6c895436685a19956322976be16efc9860",
    ),
    "compute --input bicyclic.graph --vertex-sums --resistance-matrix": (
        "f1b8f202b3e90ac94f301784d34a7ef7143ff90bb2eedfda39a93f1c14cfc6bc",
    ),
}


def _pinned_outputs(capsys, monkeypatch, tmp_path, command):
    """The sha256 of the outputs of a command of PINNED_OUTPUTS, run in
    this process with an empty stderr."""
    name, *argv = command.split()
    report = tmp_path / "report.json"
    if name == "extremal_scan.py":
        code, out, err = _scan(monkeypatch, capsys, *argv)
    elif name == "verify":
        code, out, err = run_cli(capsys, name, *argv, "--json", str(report))
    elif name == "compute":
        flag, graph_file, *flags = argv
        path = tmp_path / graph_file
        path.write_text(write_graph(PINNED_GRAPHS[graph_file]()))
        code, out, err = run_cli(capsys, name, flag, str(path), *flags)
    else:
        code, out, err = run_cli(capsys, name, *argv)
    assert (code, err) == (0, ""), command
    outputs = [out]
    if name == "verify":
        payload = json.loads(report.read_text())
        for suite in payload.get("suites", [payload]):
            for case in suite["cases"]:
                del case["runtime_ms"]
        outputs.append(json.dumps(payload, indent=2) + "\n")
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in outputs)


def test_outputs_are_pinned(capsys, monkeypatch, tmp_path):
    for command, digests in PINNED_OUTPUTS.items():
        assert _pinned_outputs(capsys, monkeypatch, tmp_path, command) == digests, command


def test_cli_import_loads_no_process_pool():
    # every command pays for these at start-up: a process pool, or the
    # exec-generated methods of dataclasses and the inspect module they load
    unwanted = "{'concurrent.futures', 'multiprocessing', 'dataclasses', 'inspect'}"
    probe = f"import sys, unikirch.cli; print(sorted({unwanted} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

"""Workload inputs, generated from a seed, and the checks on their outputs.

``build`` runs in the benchmark's parent process and uses no part of
``unikirch``: it writes the graph files and returns the argv of every
operation.  The checks run in the pass process after the timed region
and may call the program's own closed forms, which are the references
the paper's claims rest on.

Every workload is a closed loop with one client: an operation is one
``cli.main`` call, made only after the previous one returned.
"""

from __future__ import annotations

import json
import random
from collections import deque
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Connected unicyclic graphs on n vertices, OEIS A001429.
CLASS_COUNTS = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657, 11: 1806, 12: 5026}

# The largest n whose unicyclic classes each suite sweeps at the default
# windows of ``verify --suite all``; the suites not named sweep none.
SWEEPS = {
    "extremal-perfect": 12,
    "extremal": 12,
    "vertex-sum-bound": 10,
    "deletion-bounds": 10,
    "girth-minima": 9,
    "merge-identity": 8,
    "wiener-divergence": 12,
}

# compute-large: the bicyclic request has a fixed shape, a path on 80
# vertices closed by the chords (0, 9) and (5, 20); only its labels vary.
BICYCLIC_N = 80
BICYCLIC_CHORDS = ((0, 9), (5, 20))
# compute-large: the generator of its two random unicyclic trees.
TREES_SEED = 1


def _reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


# ---------------------------------------------------------------------------
# graph generation


def _ukt_edges(k: int, t: int, i: int, j: int) -> list[tuple[int, int]]:
    """U(k,t,i,j) with the program's documented labels: cycle 0..k-1, the
    pendant of cycle vertex c < t is k+c, and the i pendants and j
    two-vertex paths hang on the central vertex (t-1)//2 (0 when t = 0)."""
    edges = [(c, (c + 1) % k) for c in range(k)]
    edges += [(c, k + c) for c in range(t)]
    hub = (t - 1) // 2 if t >= 1 else 0
    nxt = k + t
    for _ in range(i):
        edges.append((hub, nxt))
        nxt += 1
    for _ in range(j):
        edges += [(hub, nxt), (nxt, nxt + 1)]
        nxt += 2
    return edges


def _random_unicyclic(rng: random.Random, n: int, k: int) -> list[tuple[int, int]]:
    """A cycle on k vertices with every further vertex attached to a
    uniformly chosen earlier one."""
    edges = [(c, (c + 1) % k) for c in range(k)]
    edges += [(rng.randrange(v), v) for v in range(k, n)]
    return edges


def _relabel(rng: random.Random, n: int, edges) -> tuple[list[int], list[tuple[int, int]]]:
    perm = list(range(n))
    rng.shuffle(perm)
    out = sorted((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges)
    return perm, out


def _write(path: Path, n: int, edges) -> str:
    path.write_text("\n".join([str(n)] + [f"{u} {v}" for u, v in edges]) + "\n")
    return str(path)


def _wiener(n: int, edges) -> int:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    total = 0
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        total += sum(dist)
    return total // 2


# ---------------------------------------------------------------------------
# inputs


def build(name: str, seed: int, workdir: Path) -> list[dict]:
    """The operations of one workload: argv plus what its check needs."""
    if name == "verify-all":
        argv = ["verify", "--suite", "all", "--threads", "1", "--seed", str(seed)]
        return [{"argv": argv, "kind": "verify", "suites": 10, "max_n": 12}]
    if name == "compute-large":
        return _build_compute(random.Random(f"{name}:{seed}"), workdir)
    raise ValueError(f"unknown workload {name!r}")


def _build_compute(rng: random.Random, workdir: Path) -> list[dict]:
    ops = []
    # The shapes are the same for every seed, so that the work is: the
    # two random trees come from a fixed generator, and the seed only
    # relabels the vertices of every graph.
    shapes = random.Random(TREES_SEED)

    def add(tag: str, n: int, edges, flags: list[str], **expect) -> tuple[list[int], list]:
        perm, labelled = _relabel(rng, n, edges)
        path = _write(workdir / f"{tag}.graph", n, labelled)
        ops.append({"argv": ["compute", "--input", path] + flags, "kind": tag, "n": n, **expect})
        return perm, labelled

    n = 800
    _, labelled = add("random-sums", n, _random_unicyclic(shapes, n, 50), ["--vertex-sums", "--wiener"])
    ops[-1]["wiener"] = _wiener(n, labelled)
    add("unm", 1000, _ukt_edges(5, 1, 1000 - 2 * 10, 10 - 3), [], m=10)
    add("ukt", 1000, _ukt_edges(800, 200, 0, 0), [], k=800, t=200)
    add("matrix", 250, _random_unicyclic(shapes, 250, 20), ["--resistance-matrix"])
    path = [(v, v + 1) for v in range(BICYCLIC_N - 1)] + list(BICYCLIC_CHORDS)
    add("bicyclic", BICYCLIC_N, path, [])
    perm, _ = add("ukt-sums", 600, _ukt_edges(450, 150, 0, 0), ["--vertex-sums"], k=450, t=150)
    ops[-1]["central"] = perm[(150 - 1) // 2]
    return ops


# ---------------------------------------------------------------------------
# checks


def check_classes(listed: dict[int, tuple[object, str]]) -> list[tuple[int, str]]:
    """``enumerate --n N`` must list A001429(N) distinct classes; ``listed``
    maps N to the call's exit code and output.  Returns (N, problem) pairs."""
    problems = []
    for n, (rc, out) in sorted(listed.items()):
        codes = out.splitlines()
        if rc != 0:
            problems.append((n, f"enumerate --n {n} exited with {rc}"))
        elif len(set(codes)) != len(codes) or len(codes) != CLASS_COUNTS[n]:
            problems.append(
                (n, f"enumerate --n {n}: {len(set(codes))} distinct of {len(codes)} classes, "
                    f"expected {CLASS_COUNTS[n]}")
            )
    return problems


def check_suite(name: str, reports, max_n: int) -> list[str]:
    """A suite passes when every case passes; the extremal sweep must also
    report every (n, m) cell of its window."""
    problems = []
    if not reports or len(reports) != 1:
        return [f"{name}: no report"]
    report = reports[0]
    if not report.cases:
        problems.append(f"{name}: no cases")
    for case in report.cases:
        if case.status != "pass":
            problems.append(f"{name}: case {case.id} is {case.status}")
    if name == "extremal":
        cells = sum(1 for c in report.cases if c.id.startswith("cell:"))
        want = sum(n // 2 - 1 for n in range(4, max_n + 1))
        if cells != want:
            problems.append(f"extremal: {cells} cells, expected {want}")
    return problems


def _parse_value(line: str, key: str) -> Fraction:
    head, _, value = line.partition(" = ")
    if head != key:
        raise ValueError(f"expected {key!r}, got {line!r}")
    return Fraction(value)


def check_compute(op: dict, out: str) -> list[str]:
    """Check the printed output of a ``compute`` call."""
    from unikirch.families import ukt_central_vertex_sum, ukt_kf_closed_form, unm_kf_closed_form

    kind, n = op["kind"], op["n"]
    lines = out.splitlines()
    try:
        kf = _parse_value(lines[0], "Kf")
        rest = lines[1:]
        if kind == "random-sums":
            if _parse_value(rest[0], "W") != op["wiener"]:
                return [f"{kind}: W differs from {op['wiener']}"]
            rest = rest[1:]
        if kind in ("random-sums", "ukt-sums"):
            if len(rest) != n:
                return [f"{kind}: {len(rest)} vertex sums for {n} vertices"]
            sums = [_parse_value(line, f"Kf[{v}]") for v, line in enumerate(rest)]
            if sum(sums) != 2 * kf:
                return [f"{kind}: vertex sums add to {sum(sums)}, not 2 Kf = {2 * kf}"]
            if kind == "ukt-sums":
                if kf != ukt_kf_closed_form(op["k"], op["t"]):
                    return [f"{kind}: Kf {kf} differs from the U(k,t) closed form"]
                if sums[op["central"]] != ukt_central_vertex_sum(op["k"], op["t"]):
                    return [f"{kind}: central vertex sum differs from its closed form"]
        elif kind == "matrix":
            if rest[0] != str(n) or len(rest) != n:
                return [f"{kind}: matrix header or row count wrong"]
            total = Fraction(0)
            for u, row in enumerate(rest[1:]):
                entries = [Fraction(tok) for tok in row.split()]
                if len(entries) != n - 1 - u or min(entries) <= 0:
                    return [f"{kind}: row {u} malformed"]
                total += sum(entries)
            if total != kf:
                return [f"{kind}: matrix entries add to {total}, not Kf = {kf}"]
        elif kind == "unm":
            if kf != unm_kf_closed_form(n, op["m"]):
                return [f"{kind}: Kf {kf} differs from the Unm closed form"]
        elif kind == "ukt":
            if kf != ukt_kf_closed_form(op["k"], op["t"]):
                return [f"{kind}: Kf {kf} differs from the U(k,t) closed form"]
        elif kind == "bicyclic":
            if kf != Fraction(_reference()["bicyclic_kf"]):
                return [f"{kind}: Kf {kf} differs from the recorded value"]
        if kind not in ("random-sums", "ukt-sums", "matrix") and rest:
            return [f"{kind}: unexpected output after Kf"]
    except (IndexError, ValueError, ZeroDivisionError) as exc:
        return [f"{kind}: unreadable output: {exc}"]
    return []

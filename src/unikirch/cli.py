"""Command-line interface: compute, construct, enumerate, extremal, verify."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable

from .enumeration import counts_by_matching, enumerate_codes, extremal_search, graph_from_code
from .families import family_label, parse_family_spec
from .graph import DisconnectedError, GraphParseError, peel, read_graph, write_graph
from .rational import format_rational
from .resistance import format_resistance_matrix, route
from .verification import SUITE_NAMES, WINDOWS, refusal, run_suite

# Graphs that are neither trees nor unicyclic take a fraction-free integer
# elimination on their 2-core, cubic in its size c with integers that grow
# with its spanning-tree count, and linear in n: a path with two chords
# (c = 21) 0.004 s at n = 100 and 0.008 s at n = 1000, K_100 1.5 s.
DENSE_MAX_N = 100
# --resistance-matrix holds and prints n^2 entries, 5 MB of output at n = 1000: a
# whole process takes 0.34 s and 24 MB for U(500,500,0,0), 0.48 s and 24 MB for C_1000
# (scripts/bench_scaling.py, 2-vCPU VM, Python 3.11.7); all but 16 MB grows as n^2.
MATRIX_MAX_N = 1000
# construct holds the edge set, its sorted copy and the output text, all
# linear in n: C1000000 takes 3.6 s and 274 MB (x86_64 with 2 CPUs,
# Python 3.11.7), so C10000000000 would run until memory ran out.
CONSTRUCT_MAX_N = 1_000_000
# verify's merge-identity suite keeps one case per trial: --trials 20000
# takes 1.9 s and 30 MB as a whole process, 100000 takes 9.0 s and 78 MB
# (x86_64 with 2 CPUs, Python 3.11.7), and memory grows with the count.
TRIALS_MAX = 100_000


def _shown(x, decimal: bool) -> str:
    """x as p/q, followed by its decimal approximation when asked."""
    return f"{format_rational(x)} (~ {float(x):.6f})" if decimal else format_rational(x)


def _cmd_compute(args) -> int:
    try:
        text = Path(args.input).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    try:
        g = read_graph(text)
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        peeled = peel(g)
    except DisconnectedError:
        print("error: input graph is disconnected", file=sys.stderr)
        return 1
    if g.edge_count > g.n and len(peeled.core) > DENSE_MAX_N:
        print(
            f"error: {g.n} vertices and {g.edge_count} edges, {len(peeled.core)} in the 2-core: "
            f"graphs that are neither trees nor unicyclic are limited to {DENSE_MAX_N} there",
            file=sys.stderr,
        )
        return 2
    if args.resistance_matrix and g.n > MATRIX_MAX_N:
        print(
            f"error: {g.n} vertices: --resistance-matrix is limited to "
            f"{MATRIX_MAX_N} vertices",
            file=sys.stderr,
        )
        return 2
    resist = route(g, peeled)  # Kf, W, the sums and the matrix all read it
    print(f"Kf = {_shown(resist.kirchhoff_index(), args.decimal)}")
    if args.wiener:
        print(f"W = {_shown(resist.wiener(), args.decimal)}")
    if args.vertex_sums:
        sums = enumerate(resist.vertex_sums())
        sys.stdout.write("".join(f"Kf[{v}] = {_shown(s, args.decimal)}\n" for v, s in sums))
    if args.resistance_matrix:
        format_resistance_matrix(resist.matrix(), sys.stdout.write)
    return 0


def _cmd_construct(args) -> int:
    try:
        spec = parse_family_spec(args.family)
        if spec.order() > CONSTRUCT_MAX_N:
            raise ValueError(
                f"{spec.text()} has {spec.order()} vertices: "
                f"construct is limited to {CONSTRUCT_MAX_N}"
            )
        g = spec.build()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = write_graph(g)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def _cmd_enumerate(args) -> int:
    if refused := refusal("unikirch enumerate", "--n", args.n):
        print(refused, file=sys.stderr)
        return 2
    try:
        if args.count_only and not args.emit:
            if args.m is not None:
                print(f"{args.n},{args.m},{counts_by_matching(args.n).get(args.m, 0)}")
            else:
                by_m = counts_by_matching(args.n)
                for m, c in by_m.items():
                    print(f"{args.n},{m},{c}")
                print(f"{args.n},*,{sum(by_m.values())}")
            return 0
        total = 0
        for code in enumerate_codes(args.n, args.m):
            total += 1
            if args.emit:
                out = Path(args.emit)
                try:
                    out.mkdir(parents=True, exist_ok=True)
                    (out / f"{code.stable_hash()}.graph").write_text(
                        write_graph(graph_from_code(code))
                    )
                except OSError as exc:
                    print(f"error: cannot write {out}: {exc}", file=sys.stderr)
                    return 2
            else:
                print(code)
        if args.count_only:
            print(f"{args.n},{args.m if args.m is not None else '*'},{total}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_extremal(args) -> int:
    if refused := refusal("unikirch extremal", "--n", args.n):
        print(refused, file=sys.stderr)
        return 2
    try:
        codes, value = extremal_search(args.n, args.m, args.invariant)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for code in codes:
        print(f"{family_label(code)}  {_shown(value, args.decimal)}")
    return 0


def _cmd_verify(args) -> int:
    if refused := refusal(args.suite, "--max-n", args.max_n):
        print(refused, file=sys.stderr)
        return 2
    if not 0 <= args.trials <= TRIALS_MAX:
        print(f"error: --trials {args.trials}: must be 0 to {TRIALS_MAX}", file=sys.stderr)
        return 2
    try:
        reports = run_suite(
            args.suite,
            max_n=args.max_n,
            extended=args.extended,
            seed=args.seed,
            trials=args.trials,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        print(report.render_text())
    if args.json:
        if len(reports) == 1:
            payload = reports[0].to_json_dict()
        else:
            payload = {
                "suites": [r.to_json_dict() for r in reports],
                "summary": {
                    "pass": sum(r.passed for r in reports),
                    "fail": sum(r.failed for r in reports),
                    "skipped": sum(r.skipped for r in reports),
                },
            }
        try:
            Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 2
    return 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unikirch",
        description=(
            "Exact resistance distances, Kirchhoff indices and matching "
            "numbers of unicyclic graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="exact invariants of a graph file")
    p.add_argument("--input", required=True, help="graph file to read")
    p.add_argument("--resistance-matrix", action="store_true")
    p.add_argument("--vertex-sums", action="store_true")
    p.add_argument("--wiener", action="store_true")
    p.add_argument("--decimal", action="store_true", help="append decimal approximations")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("construct", help="build a named family graph")
    p.add_argument("--family", required=True, help='e.g. "C6", "U(8,2,0,0)", "Unm(14,4)"')
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("enumerate", help="enumerate unicyclic graphs up to isomorphism")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, help="filter by matching number")
    p.add_argument("--count-only", action="store_true", help="print CSV rows n,m,count")
    p.add_argument("--emit", help="write one graph file per class into this directory")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("extremal", help="exact argmin over an (n, m) class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--invariant", choices=("kirchhoff", "wiener"), default="kirchhoff")
    p.add_argument("--decimal", action="store_true")
    p.set_defaults(fn=_cmd_extremal)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    p.add_argument("--max-n", type=int, dest="max_n")
    ceilings = ", ".join(f"{name} to n = {w.ceiling}" for name, w in WINDOWS.items())
    p.add_argument("--extended", action="store_true", help=f"run {ceilings}")
    p.add_argument("--json", help="write the structured report to this file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--threads", type=int, help="ignored: verify runs in one process")
    p.set_defaults(fn=_cmd_verify)

    return parser


def exit_quietly_on_closed_pipe(run: Callable[[], int]) -> int:
    """run()'s exit code, or 141 without a traceback, as SIGPIPE would
    give, when the reader of stdout stops early (`| head`)."""
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # point stdout at /dev/null so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return exit_quietly_on_closed_pipe(lambda: args.fn(args))

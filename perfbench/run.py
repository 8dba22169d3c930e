"""Benchmark of unikirch: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it needs nothing installed.
The workloads and metrics are listed in BENCHMARK.json, and
perfbench/README.md says why each was chosen and what each layer metric
should move.

A run generates its inputs from the seed, times set-up in several fresh
interpreters, then runs passes of the workload, each in a fresh
interpreter (perfbench/worker.py), until the next pass would end after
``--seconds``; at least one pass always runs.  Times are reference
times, corrected for the shared CPU's changing speed (speed.py).  With
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics come from the traced ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import build

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# set-up probes before the first pass and after every pass, so that
# setup_s samples the whole run rather than its first second
SETUP_PROBES = 4
# A run must end within three minutes whatever the machine does.
RUN_LIMIT_S = 170


class PassFailed(Exception):
    """A pass process crashed or ran out of time."""


def _run_worker(spec: str, out: Path, extra: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return what it wrote."""
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(time.monotonic_ns()), spec, str(out)] + extra,
        cwd=ROOT,
        # a fixed hash seed keeps set and dict orders, and so the work
        # done, the same in every pass
        env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        err = b"pass ran out of time"
    if proc.returncode != 0:
        # pool workers share the pass's process group; none may outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise PassFailed(err.decode(errors="replace").strip()[-2000:])
    return json.loads(out.read_text())


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def run_workload(name: str, seed: int, seconds: int, trace: bool, bench: dict) -> dict:
    """One run of one workload; returns the contract's result object."""
    hard_deadline = time.monotonic() + RUN_LIMIT_S
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        ops = build(name, seed, work)
        spec = work / "spec.json"
        spec.write_text(json.dumps({"workload": name, "ops": ops}))
        per_pass = sum(op.get("suites", 1) for op in ops)
        begin = time.monotonic()
        setups: list[float] = []
        passes: dict[bool, list[dict]] = {False: [], True: []}
        attempted = failed = 0
        error = None

        def probe() -> None:
            for _ in range(SETUP_PROBES):
                out = work / f"setup{len(setups)}.json"
                setups.append(_run_worker("-", out, [], hard_deadline)["setup_s"])

        try:
            # the first interpreter also compiles the package's bytecode
            _run_worker("-", work / "warm.json", [], hard_deadline)
            probe()
            modes = (False, True) if trace else (False,)
            longest = 0.0
            while not passes[False] or time.monotonic() + longest <= begin + seconds:
                cycle_start = time.monotonic()
                for traced in modes:
                    out = work / f"pass{len(passes[False]) + len(passes[True])}.json"
                    try:
                        res = _run_worker(str(spec), out, ["trace"] if traced else [], hard_deadline)
                    except PassFailed:
                        attempted += per_pass
                        failed += per_pass
                        raise
                    attempted += len(res["samples"])
                    failed += sum(1 for s in res["samples"] if s["problems"])
                    passes[traced].append(res)
                probe()
                longest = max(longest, time.monotonic() - cycle_start)
        except PassFailed as exc:
            error = str(exc)
    for res in passes[False] + passes[True]:
        for s in res["samples"]:
            for problem in s["problems"]:
                print(f"FAIL {name} {s['label']}: {problem}")
    if error is not None:
        print(f"FAIL {name}: {error}")
    untraced = passes[False]
    measured = untraced and (passes[True] or not trace)
    print(
        f"workload {name}  seed {seed}  {len(untraced)} untraced / {len(passes[True])} traced "
        f"passes  failed_ratio {failed}/{attempted}"
    )
    if not measured:
        units, values = [], {}
    elif trace:
        layers = [p["layers"] for p in passes[True]]
        values = {m["name"]: _median([l[m["name"]] for l in layers]) for m in bench["per_layer"]
                  if m["name"] != "trace.overhead"}
        values["trace.overhead"] = _median([p["wall_s"] for p in passes[True]]) / _median(
            [p["wall_s"] for p in untraced]
        )
        units = bench["per_layer"]
    else:
        # op_p50_ms: each operation's median latency over the passes, then
        # the median over the operations.  Taking each pass's median first
        # would pick it from whichever two operations rank in the middle in
        # that pass, and a run has only a few passes.
        latencies: dict[str, list[float]] = {}
        for p in untraced:
            for s in p["samples"]:
                if s["seconds"] is not None:
                    latencies.setdefault(s["label"], []).append(s["seconds"])
        samples = sum(len(lat) for lat in latencies.values())
        values = {
            "setup_s": _median(setups + [p["setup_s"] for p in untraced]),
            "wall_s": _median([p["wall_s"] for p in untraced]),
            "op_p50_ms": 1000 * _median([_median(lat) for lat in latencies.values()]),
            "peak_rss_mb": _median([p["rss_mb"] for p in untraced]),
        }
        units = bench["end_to_end"]
        print(f"  op_p50_ms is from {samples} operation latencies; "
              f"setup_s the median of {len(setups) + len(untraced)} fresh interpreters")
        print("  wall_s of each pass: " + " ".join(f"{p['wall_s']:.3f}" for p in untraced))
        print("  raw wall time of each pass, s: "
              + " ".join(f"{p['raw_wall_s']:.3f}" for p in untraced))
    metrics = {}
    if measured:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in units}
    for key, metric in metrics.items():
        print(f"  {key:48} {metric['value']:>16.6f} {metric['unit']}")
    return {
        "correct": error is None and failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "unikirch" / "__init__.py").is_file():
        print(f"error: no unikirch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    for name in chosen:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), bench)
        if len(chosen) > 1:
            print(json.dumps(results[name]))
    if len(chosen) == 1:
        print(json.dumps(results[chosen[0]]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {
                        f"{name}/{key}": metric
                        for name, r in results.items()
                        for key, metric in r["metrics"].items()
                    },
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

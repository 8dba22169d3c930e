"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py T0_NS SPEC_JSON OUT_JSON [trace]
    python3 perfbench/worker.py T0_NS - OUT_JSON        # set-up probe only

T0_NS is the parent's ``time.monotonic_ns()`` taken just before it
started this process, so ``setup_s`` runs from interpreter start until
``import unikirch`` returns.  Nothing else is imported before that.
Every time the process reports is a reference time (speed.py): the
set-up time is corrected by the CPU's speed measured right after it,
and the pass's times by the speed sampled while it runs.

After set-up the pass installs the instrumentation, starts sampling the
CPU's speed, runs every operation of the spec through
``unikirch.cli.main`` with its output captured, and stops the clock.  Peak memory is read next; the instrumentation is then
removed and the outputs are checked, all outside the timed region.  A
``verify`` pass also asks ``unikirch enumerate`` for the classes of each
n its sweeps cover and checks their number.
"""

import os
import sys
import time

T0_NS = int(sys.argv[1])
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import unikirch  # noqa: E402

SETUP_S = (time.monotonic_ns() - T0_NS) / 1e9

from speed import Sampler, speed_now  # noqa: E402

SETUP_S *= speed_now()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from instrument import Instrument  # noqa: E402
from workloads import SWEEPS, check_classes, check_compute, check_suite  # noqa: E402


def _call(argv: list[str]) -> tuple[object, str]:
    """One ``cli.main`` call with its output captured: exit code, stdout."""
    from unikirch import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "exception: " + traceback.format_exc()
    return rc, out.getvalue()


def _run_ops(ops: list[dict]) -> tuple[float, float, list[dict]]:
    """Run the operations back to back; return the clock at start and end
    and, per operation, its exit code, captured output, start and end."""
    done = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        rc, out = _call(op["argv"])
        done.append({"rc": rc, "out": out, "span": (t0, time.perf_counter())})
    return start, time.perf_counter(), done


def _class_counts(max_n: int) -> dict[int, tuple[object, str]]:
    """``enumerate --n N`` for every n a sweep covers, outside the clock."""
    return {n: _call(["enumerate", "--n", str(n)]) for n in range(4, max_n + 1)}


def _samples(ops, done, inst, seconds) -> list[dict]:
    """Latency samples with the problems found in each: one per suite for
    ``verify``, one per call otherwise.  ``seconds(start, end)`` turns a
    span of the clock into reference seconds."""
    samples = []
    for op, res in zip(ops, done):
        problems = [] if res["rc"] == 0 else [f"{op['argv'][0]} exited with {res['rc']}"]
        if op["kind"] == "verify":
            # One suite's failure must not fail the others, although the
            # exit code speaks for the whole call.
            per_suite = [check_suite(name, reports, op["max_n"]) for name, _, _, reports in inst.suites]
            summaries = [line for line in res["out"].splitlines() if "  summary: " in line]
            for found, line in zip(per_suite, summaries):
                if ", 0 failed," not in line:
                    found.append(f"printed {line.strip()!r}")
            if any(per_suite):
                problems = []
            if len(summaries) != op["suites"]:
                problems.append(f"{len(summaries)} summaries printed, expected {op['suites']}")
            if len(inst.suites) != op["suites"]:
                problems.append(f"{len(inst.suites)} suites ran, expected {op['suites']}")
            # a wrong class count fails the suites whose sweep covers that n
            counts = check_classes(_class_counts(op["max_n"]))
            for (name, start, end, _), found in zip(inst.suites, per_suite):
                found += [msg for n, msg in counts if n <= SWEEPS.get(name, 0)]
                samples.append(
                    {"label": name, "seconds": seconds(start, end), "problems": problems + found}
                )
            missing = {"label": "missing", "seconds": None, "problems": problems or ["missing"]}
            samples += [missing] * max(0, op["suites"] - len(inst.suites))
            continue
        problems += check_compute(op, res["out"])
        samples.append({"label": op["kind"], "seconds": seconds(*res["span"]), "problems": problems})
    return samples


def main() -> int:
    out_path = sys.argv[3]
    if sys.argv[2] == "-":
        result = {"setup_s": SETUP_S}
    else:
        with open(sys.argv[2]) as fh:
            spec = json.load(fh)
        trace = len(sys.argv) > 4 and sys.argv[4] == "trace"
        inst = Instrument(trace)
        inst.install()
        sampler = Sampler()
        sampler.start()
        start, end, done = _run_ops(spec["ops"])
        sampler.stop()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        inst.uninstall()
        wall_s = sampler.reference_seconds(start, end)
        result = {
            "setup_s": SETUP_S,
            "wall_s": wall_s,
            "raw_wall_s": end - start,
            "rss_mb": rss_mb,
            "samples": _samples(spec["ops"], done, inst, sampler.reference_seconds),
        }
        if trace:
            result["layers"] = inst.layer_metrics(wall_s / (end - start))
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

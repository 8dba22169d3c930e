#!/usr/bin/env python3
"""Run every verification suite and write one JSON report per suite.

Usage:
    python scripts/run_verification.py [--out-dir reports] [--extended] [--seed S]
"""

import argparse
import json
import sys
import time
from pathlib import Path

from unikirch.cli import exit_quietly_on_closed_pipe
from unikirch.verification import SUITE_NAMES, run_suite


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="reports")
    ap.add_argument("--extended", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_ok = True
    for name in SUITE_NAMES:
        t0 = time.perf_counter()
        (report,) = run_suite(name, extended=args.extended, seed=args.seed)
        (out / f"{name}.json").write_text(
            json.dumps(report.to_json_dict(), indent=2) + "\n"
        )
        status = "ok" if report.ok else "FAIL"
        print(
            f"{name:18} {status:4} {report.passed:5} passed "
            f"{report.failed:3} failed  {(time.perf_counter() - t0) * 1000:8.1f} ms"
        )
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(exit_quietly_on_closed_pipe(main))

#!/usr/bin/env python3
"""Scan the exact Kirchhoff minima over every (n, m) cell and print CSV.

Each row lists the cell, the class size, the minimum, and the minimizer
set (named via family recognition where possible).  A --max-n beyond the
script's ceiling in ``unikirch.verification.CEILINGS`` is refused with
exit status 2, before any output.

Usage:
    python scripts/extremal_scan.py [--max-n 12] [--invariant kirchhoff]
"""

import argparse
import sys

from unikirch.cli import exit_quietly_on_closed_pipe
from unikirch.enumeration import counts_by_matching, sweep_minima
from unikirch.families import family_label
from unikirch.rational import format_rational
from unikirch.verification import refusal


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=12)
    ap.add_argument("--invariant", choices=("kirchhoff", "wiener"), default="kirchhoff")
    args = ap.parse_args()
    if refused := refusal("extremal_scan.py", "--max-n", args.max_n):
        print(refused, file=sys.stderr)
        return 2
    kirchhoff = args.invariant == "kirchhoff"

    print("n,m,classes,minimum,minimizers")
    for n in range(3, args.max_n + 1):
        sweep = sweep_minima(n)
        for m, count in counts_by_matching(n).items():
            best = (sweep.kf if kirchhoff else sweep.wiener)[m]
            names = "|".join(sorted(family_label(code) for code in best.codes))
            print(f"{n},{m},{count},{format_rational(best.value)},{names}")
    return 0


if __name__ == "__main__":
    sys.exit(exit_quietly_on_closed_pipe(main))

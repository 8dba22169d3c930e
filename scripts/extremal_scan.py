#!/usr/bin/env python3
"""Scan the exact Kirchhoff minima over every (n, m) cell and print CSV.

Each row lists the cell, the class size, the minimum, and the minimizer
set (named via family recognition where possible).

Usage:
    python scripts/extremal_scan.py [--max-n 12] [--invariant kirchhoff]
"""

import argparse
import sys

from unikirch.enumeration import enumerate_codes, graph_from_code, invariants_from_code
from unikirch.families import recognize_family
from unikirch.rational import format_rational


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=12)
    ap.add_argument("--invariant", choices=("kirchhoff", "wiener"), default="kirchhoff")
    args = ap.parse_args()
    kirchhoff = args.invariant == "kirchhoff"

    print("n,m,classes,minimum,minimizers")
    for n in range(3, args.max_n + 1):
        cells: dict[int, dict] = {}
        for code in enumerate_codes(n):
            inv = invariants_from_code(code)
            cell = cells.setdefault(inv.matching, {"count": 0, "best": None, "argmin": []})
            cell["count"] += 1
            val = inv.kf if kirchhoff else inv.wiener
            if cell["best"] is None or val < cell["best"]:
                cell["best"], cell["argmin"] = val, [code]
            elif val == cell["best"]:
                cell["argmin"].append(code)
        for m in sorted(cells):
            cell = cells[m]
            names = []
            for code in cell["argmin"]:
                fam = recognize_family(graph_from_code(code))
                names.append(fam.text() if fam is not None else str(code))
            print(
                f"{n},{m},{cell['count']},{format_rational(cell['best'])},"
                f"{'|'.join(sorted(names))}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time the start-up of a command and the commands that approach the
ceilings of verification.CEILINGS and verification.WINDOWS, and append
one entry per source tree to BENCH_scaling.json.

Each command runs as a fresh `python -m unikirch` subprocess on the
source of each tree, RUNS times.  Every run starts in one empty
temporary directory, so that the working directory, which leads the
module search path, is the same for every tree, and each tree first
runs WARM_UP once, untimed, so that no timed run compiles bytecode.
The graph files that the compute commands read are written there first,
by `unikirch construct --out` of the tree around this script.
The trees take turns run by run, each command's runs of the trees back
to back and in alternating order, so that drift of the machine falls
on every tree alike.  An entry holds
each command's median wall time and median peak RSS (from `os.wait4`),
or `refused` for a command that the tree refuses with exit status 2,
with the tree's git revision (`-dirty` when it has uncommitted
changes), the Python version and the machine.

Usage:
    python scripts/bench_scaling.py [OTHER_TREE ...]

With no argument it times the tree around this script.  Each OTHER_TREE
(say, a clone of the parent commit) is timed alongside, and its entry
is appended first.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5
WARM_UP = "enumerate --count-only --n 3"
COMMANDS = (
    "construct --family C6",  # almost all start-up: the import and the parser
    "extremal --n 16 --m 6",
    "extremal --n 18 --m 6",
    "extremal --n 20 --m 6",
    "enumerate --count-only --n 16",
    "enumerate --n 16 --m 8",
    "enumerate --n 16",
    "verify --suite extremal --max-n 16",
    "verify --suite extremal --max-n 20",
    "verify --suite vertex-sum-bound --max-n 16",
    "verify --suite deletion-bounds --max-n 16",
    "verify --suite all --extended",
    "compute --input U500.graph --resistance-matrix",
    "compute --input C1000.graph --resistance-matrix",
    "compute --input Unm10000.graph --vertex-sums --wiener",
)
# the input files of the compute commands, by family
INPUTS = {
    "U500.graph": "U(500,500,0,0)",
    "C1000.graph": "C1000",
    "Unm10000.graph": "Unm(10000,10)",
}


def run_once(tree: Path, command: str, cwd: str) -> tuple[float, float] | None:
    """Wall seconds and peak RSS in MB of one run in the directory cwd, or
    None when the tree refuses the command (exit status 2); any other
    failing run raises."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "unikirch", *command.split()],
        stdout=subprocess.DEVNULL,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(tree / "src")),
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    # reaped here, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == 2:
        return None
    if proc.returncode:
        raise SystemExit(f"{tree}: {command}: exit status {proc.returncode}")
    return wall, usage.ru_maxrss / 1024  # kilobytes on Linux


def summary(command: str, runs: list) -> dict:
    row = {"command": f"unikirch {command}"}
    if None in runs:
        return {**row, "refused": True}
    return {
        **row,
        "wall_s": round(statistics.median(w for w, _ in runs), 3),
        "peak_rss_mb": round(statistics.median(r for _, r in runs), 1),
    }


def main() -> int:
    trees = [*(Path(arg).resolve() for arg in sys.argv[1:]), ROOT]
    samples = {(tree, command): [] for tree in trees for command in COMMANDS}
    with tempfile.TemporaryDirectory() as cwd:
        for name, family in INPUTS.items():
            command = f"construct --family {family} --out {name}"
            if run_once(ROOT, command, cwd) is None:
                raise SystemExit(f"{ROOT}: {command}: exit status 2")
        for tree in trees:
            run_once(tree, WARM_UP, cwd)
        for run in range(RUNS):
            for command in COMMANDS:
                for tree in trees if run % 2 == 0 else trees[::-1]:
                    samples[tree, command].append(run_once(tree, command, cwd))
    out = ROOT / "BENCH_scaling.json"
    entries = json.loads(out.read_text()) if out.exists() else []
    for tree in trees:
        revision = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=tree, capture_output=True, text=True
        ).stdout.strip()
        entry = {
            "revision": revision or "unknown",
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
            "runs": RUNS,
            "commands": [summary(command, samples[tree, command]) for command in COMMANDS],
        }
        entries.append(entry)
        print(entry["revision"])
        for row in entry["commands"]:
            if row.get("refused"):
                print(f"  {row['command']:48} refused")
            else:
                print(f"  {row['command']:48} {row['wall_s']:7.3f} s {row['peak_rss_mb']:7.1f} MB")
    out.write_text(json.dumps(entries, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time the commands that approach the enumeration ceiling and append one
entry to BENCH_scaling.json.

Each command runs as a fresh `python -m unikirch` subprocess on the source
next to this script, RUNS times, the commands taking turns; the entry
holds each command's median wall time and median peak RSS (from
`os.wait4`), with the git revision (`-dirty` when the checkout has
uncommitted changes), the Python version and the machine.

Usage:
    python scripts/bench_scaling.py
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5
COMMANDS = (
    "extremal --n 16 --m 6",
    "enumerate --count-only --n 16",
    "enumerate --n 16 --m 8",
    "enumerate --n 16",
    "verify --suite extremal --max-n 16",
    "verify --suite deletion-bounds --max-n 16",
    "verify --suite all --extended",
)


def run_once(command: str, env: dict) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one run; a failing run raises."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "unikirch", *command.split()],
        stdout=subprocess.DEVNULL,
        env=env,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    # reaped here, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{command}: exit status {proc.returncode}")
    return wall, usage.ru_maxrss / 1024  # kilobytes on Linux


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples: dict[str, list[tuple[float, float]]] = {command: [] for command in COMMANDS}
    for _ in range(RUNS):
        for command in COMMANDS:
            samples[command].append(run_once(command, env))
    revision = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    entry = {
        "revision": revision or "unknown",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "runs": RUNS,
        "commands": [
            {
                "command": f"unikirch {command}",
                "wall_s": round(statistics.median(w for w, _ in runs), 3),
                "peak_rss_mb": round(statistics.median(r for _, r in runs), 1),
            }
            for command, runs in samples.items()
        ],
    }
    out = ROOT / "BENCH_scaling.json"
    entries = json.loads(out.read_text()) if out.exists() else []
    entries.append(entry)
    out.write_text(json.dumps(entries, indent=2) + "\n")
    for row in entry["commands"]:
        print(f"{row['command']:48} {row['wall_s']:7.3f} s {row['peak_rss_mb']:7.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())

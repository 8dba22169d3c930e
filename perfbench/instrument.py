"""Counters and layer spans, applied to ``unikirch`` from outside.

The program is never edited: each measured public function is replaced,
in every ``unikirch`` module that bound it and in module-level dicts such
as ``enumeration._INVARIANTS``, by a wrapper that counts its calls and,
when tracing, records a span.  A layer's self time is its span's
duration minus the time covered by wrapped calls made inside it.

Untraced passes install only what the end-to-end metrics and the output
checks need: the per-suite timer on ``verification.run_suite``, which
also keeps the reports for the checks.

Every workload runs its sweeps in-process (``--threads 1``): pool
workers forked by ``verification.parallel_map`` would inherit the
wrappers, but nothing they record would reach the pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

SUITES = (
    "tables",
    "tables-nm",
    "extremal-perfect",
    "extremal",
    "vertex-sum-bound",
    "deletion-bounds",
    "girth-minima",
    "cycle-placements",
    "merge-identity",
    "wiener-divergence",
)

# (module, function) pairs timed in a traced pass; the metric prefix is
# "<module>.<function>".
TRACED = (
    ("enumeration", "graph_from_code"),
    ("enumeration", "canonical_code"),
    ("matching", "matching_number"),
    ("resistance", "kirchhoff_index"),
    ("resistance", "resistance_matrix"),
    ("resistance", "vertex_sums"),
    ("resistance", "kirchhoff_vertex_sum"),
    ("resistance", "format_resistance_matrix"),
    ("rational", "format_rational"),
    ("graph", "wiener_index"),
    ("graph", "decompose_unicyclic"),
    ("graph", "without_vertices"),
    ("graph", "read_graph"),
    ("families", "predicted_min"),
    ("families", "recognize_family"),
    ("cli", "main"),
)


class Instrument:
    """Wrappers for one pass; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, trace: bool):
        self.trace = trace
        # span name -> [calls, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
        # graph_from_code calls, and matrix entries computed (sum of n^2)
        self.built = [0]
        self.entries = [0]
        # classes yielded by enumerate_with_codes, and graphs built meanwhile
        self.yielded = [0, 0]
        # (suite name, perf_counter at start and end, returned reports),
        # one per suite run
        self.suites: list[tuple[str, float, float, list]] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[dict, str, object]] = []

    # -- patching ---------------------------------------------------------

    def _patch(self, module: str, name: str, make) -> None:
        orig = getattr(importlib.import_module(f"unikirch.{module}"), name)
        wrapper = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "unikirch" or mod_name.startswith("unikirch.")):
                continue
            space = vars(mod)
            targets = [space] + [v for v in space.values() if type(v) is dict]
            for table in targets:
                for key, value in list(table.items()):
                    if value is orig:
                        self._patches.append((table, key, orig))
                        table[key] = wrapper

    def install(self) -> None:
        # ``unikirch`` does not import its cli.  Loaded after patching, the
        # cli would bind the wrappers where ``uninstall`` cannot see them.
        importlib.import_module("unikirch.cli")
        self._patch("verification", "run_suite", self._wrap_run_suite)
        if self.trace:
            self._patch("enumeration", "enumerate_with_codes", self._wrap_enumerate)
            for module, name in TRACED:
                self._patch(module, name, functools.partial(self._wrap_span, f"{module}.{name}"))

    def uninstall(self) -> None:
        for table, key, orig in reversed(self._patches):
            table[key] = orig
        self._patches.clear()

    # -- spans ------------------------------------------------------------
    #
    # A frame holds the time covered by its wrapped children; a span adds
    # its duration to its parent's frame and its duration minus its own
    # frame to its self time.  The hot wrappers inline this.

    def _open(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list[float], dur: float) -> None:
        self._stack.pop()
        stats = self.stats[name]
        stats[0] += 1
        stats[1] += dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur

    def _wrap_span(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        stats = self.stats[name]
        built, entries = self.built, self.entries
        is_build = name == "enumeration.graph_from_code"
        is_matrix = name == "resistance.resistance_matrix"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_build:
                built[0] += 1
            elif is_matrix:
                entries[0] += args[0].n ** 2
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur

        return wrapper

    def _wrap_enumerate(self, fn):
        clock = time.perf_counter
        stack = self._stack
        stats = self.stats["enumeration.enumerate_with_codes"]
        counter = self.built
        totals = self.yielded

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                before = counter[0]
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    break
                finally:
                    totals[1] += counter[0] - before
                    dur = clock() - start
                    stack.pop()
                    stats[0] += 1
                    stats[1] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
                totals[0] += 1
                yield item

        return wrapper

    def _wrap_run_suite(self, fn):
        clock = time.perf_counter
        trace = self.trace

        @functools.wraps(fn)
        def wrapper(name, *args, **kwargs):
            if name == "all":
                return fn(name, *args, **kwargs)
            if trace:
                frame = self._open()
            start = clock()
            reports = None
            try:
                reports = fn(name, *args, **kwargs)
                return reports
            finally:
                end = clock()
                if trace:
                    self._close("verification.reduce", frame, end - start)
                self.suites.append((name, start, end, reports))

        return wrapper

    # -- results ----------------------------------------------------------

    def layer_metrics(self, speed: float) -> dict[str, float]:
        """Per-layer values of one traced pass, keyed by metric name.
        Times are multiplied by ``speed``, the pass's mean speed relative to
        the reference (see speed.py), so that they are reference times."""
        out: dict[str, float] = {}
        enum = "enumeration.enumerate_with_codes"
        yielded, built = self.yielded
        out[f"{enum}.classes"] = yielded
        out[f"{enum}.self_s"] = self.stats[enum][1] * speed
        out["enumeration.filter_yield"] = yielded / built if built else 0.0
        for module, name in TRACED:
            key = f"{module}.{name}"
            calls, self_s = self.stats[key]
            out[f"{key}.calls"], out[f"{key}.self_s"] = calls, self_s * speed
        out["resistance.resistance_matrix.entries"] = self.entries[0]
        for suite in SUITES:
            out[f"verification.suite.{suite}.wall_s"] = speed * sum(
                end - start for name, start, end, _ in self.suites if name == suite
            )
        out["verification.reduce.self_s"] = self.stats["verification.reduce"][1] * speed
        return out

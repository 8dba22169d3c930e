"""Machine-speed correction for the times a pass reports.

The benchmark runs on shared virtual CPUs whose speed changes by up to
2x within a second, and independently on each CPU, so raw wall times of
identical passes differ by tens of percent.  A pass therefore samples
the speed of its own CPU while it runs: a ``SIGALRM`` every ``PERIOD_S``
runs ``kernel`` (a fixed, short piece of interpreter work of the same
kind as the program's) and records how long it took.  Python runs the
handler between bytecodes, so samples are taken inside long operations
too.

Where a sample shows the kernel took ``d`` seconds, the CPU ran at
``REF_S / d`` of the reference speed, at which the kernel takes
``REF_S``.  An interval's *reference time* is its wall time, less the
handler's own time, times the mean of ``REF_S / d`` over the samples
taken in it: the time the same work would take on a CPU that always ran
at the reference speed.  This is what the benchmark reports as ``s`` and
``ms``.  The kernel never changes with the program, so a program that
does less work reports less reference time.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array
from fractions import Fraction

# Kernel time at the reference speed, about the fastest this kernel runs
# on the 2-vCPU machine the benchmark was written on.
REF_S = 1.0e-4
PERIOD_S = 0.02
# An interval with fewer samples inside borrows its neighbours'.
MIN_SAMPLES = 20
# Kernels timed by speed_now, about 20 ms.
BURST = 200
# Samples kept per pass: 320 s at PERIOD_S, longer than a run may last.
CAPACITY = 16384


def kernel() -> str:
    """Exact rationals, a BFS and formatting: the program's kind of work."""
    total = Fraction(0)
    for i in range(1, 25):
        total += Fraction(1, i)
    adj = [[(v + 1) % 40, (v + 7) % 40] for v in range(40)]
    dist = [-1] * 40
    dist[0] = 0
    queue = [0]
    for x in queue:
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return str(total) + ",".join(map(str, dist))


def speed_now() -> float:
    """The CPU's speed relative to the reference, from a burst of kernels."""
    for _ in range(10):
        kernel()
    clock = time.perf_counter
    total = 0.0
    for _ in range(BURST):
        start = clock()
        kernel()
        total += REF_S / (clock() - start)
    return total / BURST


class Sampler:
    """Samples the CPU's speed on a timer between ``start`` and ``stop``."""

    def __init__(self) -> None:
        # Preallocated, so that no sample leaves an object on the program's
        # heap, where it could keep memory in use and move peak_rss_mb.
        self.starts = array("d", bytes(8 * CAPACITY))
        self.durations = array("d", bytes(8 * CAPACITY))
        self.count = 0

    def _sample(self, *_) -> None:
        if self.count == CAPACITY:
            return
        start = time.perf_counter()
        kernel()
        self.durations[self.count] = time.perf_counter() - start
        self.starts[self.count] = start
        self.count += 1

    def start(self) -> None:
        kernel()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, begin: float, end: float) -> float:
        """Reference time of the work done between two ``perf_counter``
        readings taken while sampling."""
        count = self.count
        lo = bisect.bisect_left(self.starts, begin, 0, count)
        hi = bisect.bisect_left(self.starts, end, 0, count)
        busy = end - begin - sum(self.durations[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < count):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, count)
        window = self.durations[lo:hi]
        return busy * sum(REF_S / d for d in window) / len(window)

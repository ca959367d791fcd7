"""The benchmark's clock, and the probe that measures the machine's speed.

A shared machine changes the speed of its cores by up to ~1.5x from one
few seconds to the next (another tenant on the same physical core), and a
whole run can fall in a slow spell. Each time the benchmark gates on is
therefore taken with a fixed reference probe run between calls into the
program, at least every ``PROBE_PERIOD_S``, and is scaled to the probe's
reference speed: ``seconds * REFERENCE_PROBE_S / mean(probe seconds)``.
The probe does the kind of work the program does (small NumPy ops from a
Python loop) and uses nothing of the program, so a slower program still
reads slower; only the machine's changing speed cancels. The clock stops
while the probe runs, so no measured time contains it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_PERIOD_S = 0.1
# the probe's time on a quiet core: the 10th percentile of a probe every
# 20 ms for two minutes on a 2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11,
# NumPy 2.4, one BLAS thread
REFERENCE_PROBE_S = 1.85e-3

_M = np.random.default_rng(0).standard_normal((48, 48)) / 8.0


def probe() -> int:
    """Fixed work: matrix products, elementwise ops and Python arithmetic."""
    x, acc = _M, 0
    for _ in range(120):
        x = np.tanh(x @ _M)
        acc += int(x[0, 0] > 0) + sum(range(60))
    return acc


class Clock:
    """Program time (``perf_counter`` minus the time spent probing) and the
    probe times. ``probing=False`` never runs the probe, for traced units
    and their twins."""

    def __init__(self, probing: bool = True):
        self.probing = probing
        self.paused = 0.0
        self.probes: list = []          # seconds of each probe
        self._last_probe = -float("inf")

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def measure(self) -> None:
        """Run the probe now, off the program clock."""
        if not self.probing:
            return
        t = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.probes.append(end - t)
        self.paused += end - t
        self._last_probe = end

    def probing_after(self, fn):
        """``fn``, followed by the probe when ``PROBE_PERIOD_S`` has passed
        since the last one."""
        def probed(*args, **kwargs):
            out = fn(*args, **kwargs)
            if time.perf_counter() - self._last_probe >= PROBE_PERIOD_S:
                self.measure()
            return out
        return probed

    def slowdown(self) -> float:
        """How much slower than the reference the machine ran, on average,
        while this clock probed it."""
        return statistics.fmean(self.probes) / REFERENCE_PROBE_S


def timed(fn, *args, **kwargs) -> tuple:
    """(fn's result, its seconds, its seconds at the reference speed), with
    the probe run just before and just after it."""
    clock = Clock()
    clock.measure()
    t = clock.now()
    out = fn(*args, **kwargs)
    seconds = clock.now() - t
    clock.measure()
    return out, seconds, seconds / clock.slowdown()

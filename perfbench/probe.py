"""Machine-speed probe: converts measured seconds to seconds at a fixed speed.

The shared sandboxes this benchmark runs on change speed by up to 2x within
seconds (a fixed numpy kernel timed over one minute on 2 vCPUs read between
1.40 and 3.21 ms, as medians per second), so raw times of identical runs
spread by 20-40 %.  While the workload runs, a SIGALRM timer interrupts it
every INTERVAL_S and runs a small fixed kernel made of the numpy calls the
program spends its time in (element-wise ufuncs and reductions on small
arrays, Kronecker products of short vectors) twice, timing the second run:
the first refills the caches the workload evicted, so the timed run
measures the machine and not the workload's memory footprint.  A measured
interval is reported as its own time minus the probes inside it, scaled by
NOMINAL_PROBE_S over the mean probe time around it: the seconds it would
have taken at the speed where one probe takes NOMINAL_PROBE_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# About the timed kernel's median on an idle 2-vCPU x86-64 sandbox (Python
# 3.11, numpy 2.4); both runs together cost about 1 % of the run.
NOMINAL_PROBE_S = 130e-6
# Fewest probes averaged for one interval; short intervals borrow their
# neighbours' probes.
MIN_PROBES = 8


class SpeedProbe:
    """Context manager sampling probe times while the workload runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.costs: list[float] = []
        self.durations: list[float] = []
        self._array = np.linspace(0.1, 1.0, 16).reshape(4, 4)
        self._pair = np.array([0.3, 0.7])
        self._row = np.zeros(16)
        self._previous = None

    def _kernel(self) -> None:
        acc = 0.0
        for i in range(2):
            acc += float(np.log2(self._array * (i + 1) + 1.0).sum())
        vec = np.ones(1)
        for _ in range(4):
            vec = np.kron(vec, self._pair)
        self._row += acc * vec

    def _sample(self) -> float:
        """Time one run of the kernel, after a run that warms it."""
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        duration = self._sample()
        self.costs.append(time.perf_counter() - start)
        self.starts.append(start)
        self.durations.append(duration)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(5):  # first calls pay numpy's one-time set-up
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, start: float, end: float) -> float:
        """Seconds at nominal speed for the interval [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        work = (end - start) - sum(self.costs[lo:hi])
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        if lo == hi:
            return work
        return work * NOMINAL_PROBE_S / statistics.fmean(self.durations[lo:hi])

    def slowdown(self) -> float:
        """Median probe time over the nominal one (1.0 at nominal speed)."""
        return statistics.median(self.durations) / NOMINAL_PROBE_S \
            if self.durations else 1.0

"""Speed probe: how fast this core runs a fixed kernel, sampled while the
workload runs.

On a 2-vCPU Intel Xeon virtual machine identical work ran up to 1.3x
slower for seconds at a time, with no correlation between the two vCPUs,
so the slowdown of a run's own core has to be measured during the run.  Every
PROBE_INTERVAL_S a SIGALRM handler on the main thread runs a small kernel
of small-array numpy calls and small LAPACK solves (what xbar's hot paths
are made of) and records its CPU time.  Thread CPU time leaves out any wait
for the interpreter lock, so samples taken while worker threads run stay
valid.  The probe also feels the load a workload's own second thread puts
on the shared core, so a two-thread run is scaled by that as well.  A
run's time scales with the mean slowdown over it, so the mean of
the samples is the estimate.  Measured on that machine, dividing the time of
2.6 s of parametric solves by it cut their quartile spread from 23 % to
6 %.  The probe costs under 1 % of the run.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.05

# the kernel's typical CPU time when sampled during a run on the reference
# machine (Intel Xeon, 2 vCPUs); times are quoted in seconds of that machine
PROBE_REFERENCE_S = 5.0e-4


class SpeedProbe:
    """Context manager sampling the kernel time while it is active."""

    def __init__(self, interval=PROBE_INTERVAL_S):
        self.interval = interval
        self.samples = []
        rng = np.random.default_rng(0)
        self._matrix = rng.random((16, 16)) + 16.0 * np.eye(16)
        self._rhs = np.ones(16)
        self._grid = np.linspace(0.0, 1.0, 41)
        self._query = rng.random(64)
        self._previous = None

    def _sample(self, signum, frame):
        grid, q = self._grid, self._query
        start = time.thread_time()
        for _ in range(10):
            idx = np.clip(np.searchsorted(grid, q, side="right") - 1, 0, grid.size - 2)
            w = (q - grid[idx]) / (grid[idx + 1] - grid[idx])
            np.minimum((1.0 - w) * w, q)
            np.linalg.solve(self._matrix, self._rhs)
        self.samples.append(time.thread_time() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, first=0, last=None):
        """Mean kernel time over samples [first, last) relative to the
        reference machine."""
        if not self.samples:  # shorter than one interval: sample now
            self._sample(None, None)
        window = self.samples[first:last] or self.samples
        return statistics.fmean(window) / PROBE_REFERENCE_S

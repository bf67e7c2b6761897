"""Machine-speed calibration interleaved with a timed round.

The shared 2-core machine this benchmark was built on changes speed by tens
of percent from one second to the next: identical rounds of a workload vary
by 12-25 % (interquartile range over their median), and a fixed kernel timed
back to back drifts the same way.  A :class:`Calibrator` runs a fixed
kernel of about 0.12 ms from a ``SIGALRM`` handler every 5 ms, on
the benchmark's own thread, so its samples see the machine at the same
moments as the round.  The round's time net of the kernel's own time,
divided by the mean kernel time during the round, is steady: over ten 30-s
runs per workload its median varied by 1.2-1.8 % where the raw median varied
by 5-11 %.  The kernel calls nothing of fkhomog, so a change to the program
cannot move it.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD = 0.005
TWO_PI = 2.0 * math.pi


def kernel():
    """Small-array NumPy arithmetic under a Python loop: the per-call
    overhead the workloads spend most of their time in."""
    u = np.zeros(2)
    xi = np.zeros(2)
    for _ in range(12):
        f = np.sin(TWO_PI * u) + 1.0
        u, xi = 0.5 * u + 0.5 * xi, 0.5 * xi + 0.5 * u + 0.05 * f
    return u


class Calibrator:
    """Context manager that samples :func:`kernel` every ``PERIOD`` seconds."""

    def __init__(self):
        self.samples = []
        self.total = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        #: kernel time spent inside the block, to subtract from its wall time
        self.total = sum(self.samples)
        if not self.samples:
            self._tick(signal.SIGALRM, None)
        return False

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

"""A fixed kernel timed next to the program, to cancel the machine's drift.

The yardstick is a mix of interpreter loops, a small ``eigh``, a matmul and
array passes that runs no discq code, so no change to the program can move
it, while it slows down and speeds up with the machine.  A reading is the
median of ``TIMINGS`` timings of that kernel (about 10 ms each), so one
preemption during a reading does not count.  Only numpy is imported here:
the benchmark parent times the yardstick around its set-up probes before
it imports discq.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

TIMINGS = 3


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0x7A4D)
        g = rng.standard_normal((64, 64))
        self.sym = g @ g.T
        self.rows = rng.standard_normal((256, 1024))
        self.cols = rng.standard_normal((1024, 32))
        self.seconds()  # the first reading runs cold; it is thrown away

    def _part(self) -> float:
        start = time.perf_counter()
        for _ in range(10):
            np.linalg.eigh(self.sym)
        for _ in range(4):
            np.cumsum(self.rows @ self.cols, axis=0)
            np.maximum(self.rows, 0.5).sum()
        acc = 0
        for i in range(20000):
            acc += i
        return time.perf_counter() - start

    def seconds(self) -> float:
        """One reading: the median of ``TIMINGS`` timings of the kernel."""
        return statistics.median(self._part() for _ in range(TIMINGS))

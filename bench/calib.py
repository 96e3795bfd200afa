"""Machine-speed calibration.

On a shared host this process can run 30% faster or slower from one minute
to the next, which would swamp any change to laytrop itself.  So every run
times a fixed pure-Python kernel -- Fraction arithmetic, tuples and a dict,
the kind of work laytrop does, but no laytrop code -- at least every
INTERVAL_S, and expresses each measured time at the speed where the kernel
takes REF_MS.  A time measured between two kernel samples is scaled by
REF_MS over their mean.  The run prints the raw figures as well.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REF_MS = 5.0
INTERVAL_S = 0.25


def kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1000):
        x = Fraction(i % 97, 7 + i % 5)
        y = x * Fraction(3, 2) + acc
        acc = y if y > acc else acc - x
        table[i % 64, i % 3] = (x, y)
    return acc


class Calibration:
    """Kernel samples taken at least every ``interval`` seconds.

    ``kernel`` and ``ref_ms`` default to the in-process kernel above; a
    workload whose ops run in other processes passes a kernel that does too.
    """

    def __init__(self, kernel=kernel, ref_ms=REF_MS, interval=INTERVAL_S):
        self.kernel = kernel
        self.ref_ms = ref_ms
        self.interval = interval
        self.ms = []  # kernel times; window k lies between samples k and k + 1
        self._last = 0.0
        self.sample()

    def sample(self):
        gc.disable()  # a collection of someone else's garbage is no speed sample
        try:
            t0 = time.perf_counter()
            self.kernel()
            self.ms.append((time.perf_counter() - t0) * 1e3)
        finally:
            gc.enable()
        self._last = time.perf_counter()

    def tick(self):
        """Sample if the last sample is older than the interval; returns the
        current window."""
        if time.perf_counter() - self._last >= self.interval:
            self.sample()
        return len(self.ms) - 1

    def scale(self, window):
        """Factor that turns a time measured in ``window`` into reference time;
        the window must have been closed by a later sample."""
        return 2 * self.ref_ms / (self.ms[window] + self.ms[window + 1])

    def run_scale(self):
        return self.ref_ms / statistics.median(self.ms)

"""Machine-speed calibration.

On a shared 2-vCPU virtual machine, speed was seen to change by up to 1.6x
from one minute to the next, uniformly across kinds of Python work, so raw
times from two runs were not comparable. Every time the benchmark reports
is therefore scaled to a reference speed: it is multiplied by
REFERENCE_S / k, where k is the median time of a fixed calibration kernel
measured in the same process, close in time to the measured work. The kernel uses no ``vone`` code, so a
change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from fractions import Fraction

# the kernel's time on the reference machine; reported times are "as if the
# kernel took this long"
REFERENCE_S = 0.003
INTERVAL_S = 0.1  # at most one kernel per interval of measured work
WINDOW = 5  # kernel samples behind each scale factor


def kernel() -> int:
    """Big-integer, Fraction, dict and tuple work, like the library's."""
    x, acc = 3**900, Fraction(0)
    table: dict = {}
    for i in range(1000):
        x = (x * 7 + i) % (10**300 + 7)
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i
        if i % 8 == 0:
            acc += Fraction(i, 7)
    return x % 1000 + len(table) + acc.numerator % 10


def time_kernel(repeats: int = 1) -> float:
    """Median seconds of `repeats` kernel calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Calibration:
    """Kernel samples taken between operations, at most every INTERVAL_S."""

    def __init__(self):
        self.recent: deque = deque(maxlen=WINDOW)
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the kernel
        self._last = float("-inf")

    def tick(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self._last < INTERVAL_S:
            return
        took = time_kernel()
        self.recent.append(took)
        self.samples.append(took)
        self.spent += took
        self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor that turns a time measured now into reference time."""
        return REFERENCE_S / statistics.median(self.recent)

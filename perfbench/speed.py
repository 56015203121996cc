"""Machine-speed calibration for timings taken on a shared, noisy host.

On the 2-core Intel Xeon virtual machine of the baseline, the same pure-Python
work takes from 1x to 1.8x as long depending on the moment, in phases that
last seconds, so raw wall times of two 15-second runs of identical work can
differ by a quarter. A short fixed kernel of rational arithmetic (the kind
of work njkit does) is timed before, after and at intervals during each
measured piece of work; dividing by it and multiplying by ``REFERENCE_S``
turns wall seconds into seconds at one fixed reference speed. The kernel is benchmark
code that no change to njkit touches, so the ratio still moves one for one
with njkit's own cost.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Kernel time that defines the reference speed: a round figure near its
# typical time on the 2-core Intel Xeon virtual machine (Python 3.11) of the
# baseline. Changing it rescales every timed metric.
REFERENCE_S = 0.0006
REPEATS = 5


def kernel() -> Fraction:
    acc = Fraction(0)
    table = {}
    for i in range(1, 200):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        table[(i % 13, i % 7)] = acc
    return acc


def kernel_seconds() -> float:
    """Median time of a few kernel runs: the current machine speed."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    """``seconds`` of wall time measured while the kernel took ``kernel_s``."""
    return seconds * REFERENCE_S / kernel_s


class Meter:
    """Wall time of a block, and the same time at the reference speed.

    The speed is sampled on entry, on exit and, when ``interval`` is given,
    every ``interval`` seconds in between from a ``SIGALRM`` handler, so a
    long block is scaled piece by piece. Sampling time is left out of both
    totals. Use only in the main thread.
    """

    def __init__(self, interval: float | None = 0.25) -> None:
        self.interval = interval
        self.wall = 0.0
        self.scaled = 0.0

    def _mark(self) -> None:
        now = time.perf_counter()
        kernel_s = kernel_seconds()
        segment = now - self._since
        self.wall += segment
        self.scaled += at_reference_speed(segment, (self._kernel_s + kernel_s) / 2)
        self._kernel_s = kernel_s
        self._since = time.perf_counter()

    def __enter__(self) -> "Meter":
        self._kernel_s = kernel_seconds()
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._mark())
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._since = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._mark()

"""Correction for the speed of a shared machine.

On a machine shared with other tenants the same Python work runs up to 30%
faster or slower from one tenth of a second to the next, and from one minute
to the next.  While a workload runs, a timer signal interrupts it every
``TICK_S`` and times a short fixed reference loop; the loop's time says how
fast the machine runs at that moment.  A query's time, minus the ticks inside
it, is scaled by the mean ``REFERENCE_S / loop time`` over the ticks inside
the query and the nearest tick on either side, which turns it into seconds on
a machine where the loop takes exactly ``REFERENCE_S``.  (Averaging over a
wider window corrects worse: the speed changes faster than that.)  The loop
touches no rectaspec code, so a change to the program moves the query times
and never the scale.  Raw times are kept in the result files next to the
scaled ones.  The ticks run in the measured process itself: no thread and no
second process adds load.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

REFERENCE_S = 0.001  # the loop's time on the nominal machine
TICK_S = 0.05


def _reference_loop() -> int:
    """Interpreter-bound work with a little NumPy, like rectaspec's own mix."""
    acc = 0
    table: dict[int, int] = {}
    small = np.arange(64, dtype=np.int64).reshape(8, 8)
    for i in range(5_000):
        acc += (i * i) % 7 ^ (i >> 3)
        table[i & 255] = acc
        if i % 250 == 0:
            acc += int((small @ small).sum() % 3)
    return acc


def burst() -> float:
    """Machine speed from five reference loops run back to back, for a
    process that waits while the measured work runs elsewhere."""
    times = []
    for _ in range(5):
        start = perf_counter()
        _reference_loop()
        times.append(perf_counter() - start)
    return REFERENCE_S / sorted(times)[2]


class Speedometer:
    """Context manager that samples machine speed every ``TICK_S``."""

    def __init__(self):
        self.mid: list[float] = []  # tick midpoints
        self.speed: list[float] = []  # REFERENCE_S / loop time
        self.busy: list[float] = []  # cumulative seconds spent in ticks
        self._previous = None

    def _tick(self, _signum, _frame):
        start = perf_counter()
        _reference_loop()
        end = perf_counter()
        self.mid.append((start + end) / 2)
        self.speed.append(REFERENCE_S / (end - start))
        self.busy.append((self.busy[-1] if self.busy else 0.0) + end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)
        return False

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(raw, scaled) seconds of work between two clock readings."""
        lo = bisect.bisect_left(self.mid, start)
        hi = bisect.bisect_right(self.mid, end)
        spent = (self.busy[hi - 1] if hi else 0.0) - (self.busy[lo - 1] if lo else 0.0)
        raw = end - start - spent
        window = self.speed[max(lo - 1, 0):hi + 1]
        return raw, raw * sum(window) / len(window)

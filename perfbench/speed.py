"""Timing that corrects for the machine's own speed changes.

On a CPU shared with other tenants, the same pure-Python work can take 1.5x
longer from one minute to the next. ``SpeedProbe`` times each library call
and, every ``INTERVAL_S`` while the call runs, interrupts it (SIGALRM, on
the main thread) to time a fixed reference computation: an exact
elimination of a fixed 11x11 integer matrix with ``fractions.Fraction``,
which is the same kind of work lsakit does. Each stretch of the call is then
rescaled by how long the reference took at the start of that stretch,
relative to ``NOMINAL_S``:

    scaled = sum(stretch_s * NOMINAL_S / reference_s)

The reference runs in the interrupts only, and its own time is excluded
from both the raw and the scaled time.  A change to lsakit moves the scaled
time as it moves the raw time; a change in machine speed moves only the raw
time.
"""

from __future__ import annotations

import signal
import time

import oracle

INTERVAL_S = 0.25
NOMINAL_S = 0.0057  # the reference's typical time inside a workload on 2 shared vCPUs
_ROWS = [[((i * 7 + j * 13 + i * j) % 11) - 5 for j in range(11)] for i in range(11)]


def reference_s() -> float:
    """The fastest of three runs of the reference: the first one after an
    interrupt also pays for caches the interrupted work left cold."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        oracle.rref(_ROWS, 11)
        best = min(best, time.perf_counter() - t0)
    return best


class PlainClock:
    """Raw timing for traced runs, whose per-layer times are not rescaled."""

    def start(self):
        self._t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        elapsed = time.perf_counter() - self._t0
        return elapsed, elapsed


class SpeedProbe:
    def __init__(self):
        self._last = reference_s()

    def start(self):
        self._raw = self._scaled = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _close_stretch(self, now: float):
        stretch = now - self._mark
        self._raw += stretch
        self._scaled += stretch * NOMINAL_S / self._last

    def _tick(self, signum, frame):
        self._close_stretch(time.perf_counter())
        self._last = reference_s()
        self._mark = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """(raw, scaled) seconds of the call since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._close_stretch(time.perf_counter())
        signal.signal(signal.SIGALRM, self._previous)
        return self._raw, self._scaled

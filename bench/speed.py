"""Machine-speed sampling, so that throughput and set-up time can be reported
at a fixed reference speed on a shared machine whose speed drifts.

While a ``SpeedSampler`` is active, a SIGALRM every ``PERIOD_S`` of wall time
runs a small fixed kernel in the main thread, between two bytecodes of the
measured program, and times it.  Each stretch of program time between
two samples is scaled by ``KERNEL_NOMINAL_S / k``, where ``k`` is the median of
the last ``WINDOW`` kernel times; a lone preempted sample does not move that
median.  ``scaled_s`` is then the time the program would have taken had the
kernel run at its nominal speed all along.  The kernel's own time is left out
of both ``work_s`` and ``scaled_s``.

The kernel touches no library state and shares no code with it, so a change to
the library moves ``scaled_s`` exactly as it moves the wall time, while the
machine's speed, which moves both the program and the kernel, cancels.

A busy host slows interpreter-bound code more than numpy loops: scaling by a
pure-Python kernel over-corrected ``mc-crossing`` and a numpy sort alone
under-corrected ``mc-tree``.  The kernel mixes the two, about four parts
Python to one part numpy, which left the scaled round times of both nearly
uncorrelated with the machine's speed.
"""
from __future__ import annotations

import signal
import statistics
import time
from collections import deque

import numpy as np

PERIOD_S = 0.02
WINDOW = 5
# The kernel's typical time between program steps on the 2.0 GHz Xeon the
# benchmark was written on (caches cold), so that scaled rates read like that
# machine's usual wall-clock rates.  It sets the scale only, never the spread.
KERNEL_NOMINAL_S = 3.5e-4

_UNSORTED = np.random.default_rng(0).random(1500)


def kernel() -> None:
    """Fixed work: dict updates with integer arithmetic, then numpy sorts."""
    d: dict[int, int] = {}
    for i in range(1200):
        d[i & 63] = d.get(i & 63, 0) + i
    for _ in range(5):
        np.sort(_UNSORTED)


class SpeedSampler:
    """Context manager; read ``work_s``, ``scaled_s`` and ``scale`` after it
    exits, or at any time while it is active."""

    def __init__(self) -> None:
        self.work_s = 0.0
        self.scaled_s = 0.0
        self.kernel_s: list[float] = []
        self._recent: deque[float] = deque(maxlen=WINDOW)
        self._last = time.perf_counter()
        self._previous = None

    @property
    def scale(self) -> float:
        """Scaled over program time: below 1 when the machine ran slow."""
        return self.scaled_s / self.work_s if self.work_s > 0 else 1.0

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self._recent.append(t1 - t0)
        self.kernel_s.append(t1 - t0)
        dt = t0 - self._last
        self.work_s += dt
        self.scaled_s += dt * KERNEL_NOMINAL_S / statistics.median(self._recent)
        self._last = time.perf_counter()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # attributes the last stretch

"""The machine's speed, measured with a small fixed piece of work around and during each operation.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent within seconds and between minutes, CPU time along with wall time.
A run therefore times a fixed calibration pass (plain Python, tiny numpy
calls and a sort of a small array, as the quadrature and scan code mix them)
a few times right before and right after each operation, and every
``INTERVAL_S`` while it runs, from a timer signal.  It scales the
operation's times by ``REFERENCE_PASS_S`` over the median of those pass
times: they read as seconds on a machine where one pass takes
``REFERENCE_PASS_S``.  A change to ``lecam`` moves the operation's time and
not the passes', so it moves the scaled figure by the same share; a slowdown
of the whole machine moves both and cancels.  The passes that interrupt an
operation are subtracted from its times.

Imports nothing from ``lecam``.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# About the median pass time on the machine the reference figures in
# README.md were taken on; a constant, so that figures of different runs compare.
REFERENCE_PASS_S = 0.0003
# Passes timed between two operations.
PASSES_BETWEEN = 5
# Interval of the passes that interrupt a running operation: at 0.2 to 0.5 ms
# a pass and two passes a tick, they take 2 to 3% of it.
INTERVAL_S = 0.025


class Calibration:
    def __init__(self):
        self._tiny = np.arange(8.0)
        self._small = np.random.default_rng(0).standard_normal(5_000)
        self.inside: list[float] = []  # passes timed inside the running operation
        self.spent = 0.0  # their total time
        self._pass()

    def _pass(self) -> float:
        t0 = perf_counter()
        s = 0
        for i in range(1_500):
            s += (i * i) % 7
        tiny = self._tiny
        for _ in range(40):
            np.dot(tiny, tiny)
            tiny.sum()
        np.sort(self._small)
        np.exp(self._small)
        return perf_counter() - t0

    def between(self) -> list[float]:
        """Pass times taken now, between two operations."""
        return [self._pass() for _ in range(PASSES_BETWEEN)]

    def _on_timer(self, signum, frame) -> None:
        # The operation has just evicted the pass's code and data from the
        # caches; the first pass warms them and only the second is kept.
        t0 = perf_counter()
        self._pass()
        self.inside.append(self._pass())
        self.spent += perf_counter() - t0

    def start(self) -> None:
        """Time a pass, after a warming one, every ``INTERVAL_S`` until ``stop``."""
        self.inside, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scale(pass_times: list[float]) -> float:
    """Factor that turns seconds measured at these pass times into reference seconds."""
    return REFERENCE_PASS_S / statistics.median(pass_times)

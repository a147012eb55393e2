"""A fixed reference loop that clocks the machine's speed while a run measures.

On a shared host the speed a process gets changes by tens of percent from
one second to the next: the host moves between a slow and a fast state, a
few seconds apart, and two runs of the same code spend different shares of
their time in each.  Their wall times then differ by more than the bound
the benchmark may set.  So while a run measures, a SpeedSampler runs a short
reference loop every PERIOD_S seconds of wall time, from a SIGALRM handler,
inside whatever the run is doing.  The loop never changes and calls nothing
of tikgrad.  A block timed by the run (a set-up, a solve) is then given:

- its net time: its wall time minus the reference loops that ran inside it;
- its scaled time: the net time times NOMINAL_S of the loop, divided by the
  mean time of the loops that ran within WINDOW_S of the block.

The scaled time is what the block would have taken at the speed the machine
had when NOMINAL_S was measured.  A change to the program moves it as it
moves the net time.

"small" is interpreter-bound like small_n and verify: steps of projected
gradient with backtracking on a 2-d problem, made of Python calls and tiny
numpy operations as tikgrad's drivers are.  "large" is one pass of vector
operations on 10**6 entries, like large_n.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.2
WINDOW_S = 0.3
# time of one reference loop in seconds: about its median on a 2.1 GHz Xeon
# vCPU (Python 3.11.7, numpy 2.4.6) in the host's slow state, rounded
NOMINAL_S = {"small": 0.002, "large": 0.005}


def _small() -> float:
    """80 steps of projected gradient with Armijo backtracking on a 2-d box."""
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = np.array([1.0, -1.0])
    lo, hi = -np.ones(2), np.ones(2)

    def value(x):
        return 0.5 * float(x @ (a @ x)) - float(b @ x) + 5e-4 * float(x @ x)

    def grad(x):
        return a @ x - b + 1e-3 * x

    def project(x):
        return np.minimum(np.maximum(x, lo), hi)

    x = np.array([1.0, 0.0])
    trials = 0
    for k in range(80):
        d = project(x - 0.5 * grad(x)) - x
        q, fx, step = float(d @ d), value(x), 1.0
        for m in range(30):
            x_new = x + step * d
            if value(x_new) <= fx - 1e-4 * step * q:
                break
            step *= 0.5
        trials += m + 1
        # restart every third step, so that the loop never reaches the optimum
        x = x_new if k % 3 else np.array([1.0, 0.0])
    return float(trials)


class _Large:
    """One pass of scale, add, clip and dot on 10**6 entries, into fixed buffers."""

    def __init__(self):
        self.x = np.linspace(-1.0, 1.0, 10**6)
        self.y = np.empty_like(self.x)

    def __call__(self) -> float:
        x, y = self.x, self.y
        np.multiply(x, 0.5, out=y)
        y += x
        np.clip(y, -1.0, 1.0, out=y)
        return float(y @ x)


LOOPS = {"small": lambda: _small, "large": _Large}


class SpeedSampler:
    """Reference loop times taken every PERIOD_S while running() is active."""

    def __init__(self, kind: str):
        self.nominal_s = NOMINAL_S[kind]
        self._loop = LOOPS[kind]()
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self._loop()
        self.seconds.append(time.perf_counter() - t0)
        self.starts.append(t0)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        try:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """Net and scaled time of the block timed from start to end.

        A loop runs whole between two bytecodes of the block, so it lies
        entirely inside the block or entirely outside it.
        """
        lo, hi = (bisect.bisect_left(self.starts, t) for t in (start, end))
        net = end - start - sum(self.seconds[lo:hi])
        near = slice(bisect.bisect_left(self.starts, start - WINDOW_S),
                     bisect.bisect_left(self.starts, end + WINDOW_S))
        return net, net * self.nominal_s / statistics.fmean(self.seconds[near])

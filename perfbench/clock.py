"""Speed-normalized wall time for a shared host whose speed drifts.

On the 2-core shared host this benchmark was defined on, the speed of one
process drifts by 30-80%, and by up to a factor of two, in phases lasting
from a second to minutes (other tenants share the physical cores; there is
no steal time, and CPU time slows exactly as much as wall time, so neither is
a remedy).  Phases change within one job as well as between runs, so raw
wall times of identical runs differ by up to a third.

While the jobs run, an interval timer interrupts the process every
CADENCE_S of wall time, and the signal handler times a fixed reference
kernel: a small grid of the divisor-weighted recurrence written out in this
file.  It calls none of the program's code, so no program change moves it.
The time spent in the handler is taken out of the job that it interrupted.
A job's time is then scaled by REF_SECONDS over the median kernel time of
the samples taken within WINDOW_S of the job, raised to SENSITIVITY, giving
seconds at the reference speed.  Samples inside long jobs let the scale follow the host's phases
through them.  A change to the program moves these numbers as it moves wall
time at a steady host speed; a change of host speed moves them much less.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from math import gcd, isqrt

# About the kernel's median time on the defining host (2 shared cores, Python 3.11).
REF_SECONDS = 0.0025
CADENCE_S = 0.05  # the sampling timer's period, in wall seconds
WINDOW_S = 0.1  # a job is scaled by the samples this close to it
MIN_SAMPLES = 5  # or by the nearest this many, where the window holds fewer
KERNEL_X = 16
# Host contention slows the kernel's tight loops more than the program's
# jobs: over runs at different host speeds, job time moved as about the 0.75
# power of kernel time (0.7-0.8 on each of the four workloads, 40 runs on the
# defining host), so the scale is the ratio of kernel times to this power.
SENSITIVITY = 0.75


def _sigma(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def _grid(X: int) -> int:
    # The divisor-weighted recurrence for Q(sqrt 2) up to column X, written
    # out here so that changes to the program never move the reference.
    fd = [isqrt(x * x // 2) for x in range(X + 1)]
    cols: list[list[int]] = [[1]]
    sig0: list[list[int]] = [[]]
    sig1: list[list[int]] = [[]]
    for x in range(1, X + 1):
        w = fd[x]
        s0, s1 = [], []
        for v in range(-w, w + 1):
            c = gcd(x, v)
            sc = _sigma(c)
            s0.append((x // c) * sc)
            s1.append((v // c) * sc)
        sig0.append(s0)
        sig1.append(s1)
        col = []
        for y in range(-w, w + 1):
            S0 = S1 = 0
            for u in range(1, x):
                g = x - u
                lo, hi = max(y - fd[g], -fd[u]), min(y + fd[g], fd[u])
                a0, a1, prev = sig0[u], sig1[u], cols[g]
                i, j = lo + fd[u], (y - lo) + fd[g]
                for _ in range(lo, hi + 1):
                    P = prev[j]
                    S0 += a0[i] * P
                    S1 += a1[i] * P
                    i += 1
                    j -= 1
            S0 += s0[y + w]
            S1 += s1[y + w]
            col.append(S1 // y if y else S0 // x)
        cols.append(col)
    return cols[X][fd[X]]


def reference_time() -> float:
    """One timing of the reference kernel, in seconds.

    The garbage collector is paused so that garbage left by the last job
    cannot be charged to the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _grid(KERNEL_X)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Kernel timings taken on a timer while jobs run.

    Use as a context manager around the timed loop; scale() afterwards.
    """

    def __init__(self) -> None:
        self._at: list[float] = []  # when each sample ended
        self._ref: list[float] = []  # the kernel time it measured
        self._spent: list[float] = []  # the time the whole sample took

    def sample(self) -> None:
        t0 = time.perf_counter()
        ref = reference_time()
        t1 = time.perf_counter()
        self._at.append(t1)
        self._ref.append(ref)
        self._spent.append(t1 - t0)

    def bracket(self) -> None:
        """Samples enough to scale the first or the last job of a run."""
        for _ in range(MIN_SAMPLES):
            self.sample()

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedLog":
        self.bracket()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, CADENCE_S, CADENCE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.bracket()

    def factor(self, t0: float, t1: float) -> float:
        """REF_SECONDS over the median kernel time near [t0, t1], to the SENSITIVITY."""
        lo = bisect.bisect_left(self._at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self._at, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            # Too few samples in the window: take the nearest ones instead.
            mid = (t0 + t1) / 2
            nearest = sorted(range(len(self._at)), key=lambda k: abs(self._at[k] - mid))
            window = [self._ref[k] for k in nearest[:MIN_SAMPLES]]
        else:
            window = self._ref[lo:hi]
        return (REF_SECONDS / statistics.median(window)) ** SENSITIVITY

    def own_time(self, t0: float, t1: float) -> float:
        """Wall time in [t0, t1] less the samples taken inside it."""
        lo = bisect.bisect_left(self._at, t0)
        hi = bisect.bisect_right(self._at, t1)
        return t1 - t0 - sum(self._spent[lo:hi])

    def scale(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Each interval's own time at the reference speed."""
        return [self.own_time(t0, t1) * self.factor(t0, t1) for t0, t1 in intervals]

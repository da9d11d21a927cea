"""Machine-speed samples taken while a child runs, to cancel host CPU drift.

On a shared host the CPU speed a process gets drifts by a quarter or
more within a minute, and by as much again between minutes, so raw
timings of the same code spread wider than any useful bound.  A Sampler
interrupts the child every PERIOD_S of wall time (SIGALRM; no thread, no
second process) and times one fixed reference kernel of pure-Python
work.  Each benchmark timing then has the handler time taken out and is
divided by the machine's speed factor over the same interval: the mean
kernel time of the samples in it, less the slowest tenth, over
NOMINAL_S.  The result is the time the work would take on a machine
where the kernel takes NOMINAL_S, a unit that stays put while the host's
speed moves.  Since the kernel is part of the benchmark and no program
code runs in it, a change to the program moves the scaled time as it
moves the raw one.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right

PERIOD_S = 0.02
# Kernel time that counts as speed factor 1; it only sets the scale.
NOMINAL_S = 0.001
KERNEL_STEPS = 1800
# Samples this far either side of a timed interval count toward its factor.
MARGIN_S = 0.25


def kernel(steps: int = KERNEL_STEPS) -> int:
    """Fixed work of the kind the library does: small tuples, dict and
    list traffic, calls and integer arithmetic."""
    seen: dict[tuple, int] = {}
    row: list[int] = []
    acc = 0
    for i in range(steps):
        cell = (i & 15, i >> 4)
        seen[cell] = seen.get(cell, 0) + i
        row.append(cell[0] * 3 + cell[1])
        if len(row) > 8:
            acc += max(row) - min(row)
            row.clear()
    return acc + len(seen)


class Sampler:
    """Times the kernel every PERIOD_S while running and keeps the samples."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        # Wall time spent inside the handler, to take out of every timing.
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        begin = time.perf_counter()
        kernel()
        took = time.perf_counter() - begin
        self.starts.append(begin)
        self.kernel_s.append(took)
        self.spent_s += time.perf_counter() - begin

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample_until(self, deadline: float) -> None:
        """Take samples back to back until deadline, when the sampler is stopped."""
        while time.perf_counter() < deadline:
            self._tick(signal.SIGALRM, None)

    def factor(self, t0: float, t1: float) -> float:
        """Mean kernel time over NOMINAL_S, from the samples within MARGIN_S
        of [t0, t1] less the slowest tenth; >1 means the machine ran slower
        than nominal.  Those slowest samples (up to 2.5x the median) follow
        the program's time worse than the rest: dropping them took the
        spread of scaled sweep7 body times across children from 5% to 2.5%."""
        if not self.kernel_s:  # shorter than one period: sample now
            self._tick(signal.SIGALRM, None)
        lo = bisect_left(self.starts, t0 - MARGIN_S)
        hi = bisect_right(self.starts, t1 + MARGIN_S)
        window = sorted(self.kernel_s[lo:hi] or self.kernel_s)
        window = window[:max(1, len(window) * 9 // 10)]
        return sum(window) / len(window) / NOMINAL_S

    def scaled(self, t0: float, t1: float, spent_s: float) -> float:
        """The time from t0 to t1, less spent_s of handler time, at nominal speed."""
        return (t1 - t0 - spent_s) / self.factor(t0, t1)

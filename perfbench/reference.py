"""A fixed reference task that gauges the machine's speed during a run.

The machine the benchmark runs on is shared: the same pure-Python work can
take 1.5x as long from one minute to the next, and a slow stretch can last
many runs.  Every untraced run therefore times this task every 0.5 s, also
in the middle of an operation (its time is taken off that operation), and
reports its time metrics at a fixed reference speed:

    reported = measured * REFERENCE_S / (median time of this task nearby)

where "nearby" is within ``NEAR_S`` of the timed run.  The task does the
kind of work the library does (a bitmask depth-first search with
reachability pruning over a small digraph), so a slow stretch slows both
by nearly the same factor.  It imports nothing from ``twoblock`` and is
part of the benchmark, so a change to the library leaves it as it is.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

# About the task's median time on a 2.1 GHz Xeon vCPU with Python 3.11 in a
# quiet stretch; time metrics are reported as if every run had that speed.
REFERENCE_S = 0.05
# An operation's run is gauged by the samples started within this many
# seconds of it, so that a run is scaled by the speed of its own stretch.
NEAR_S = 2.0

N = 13
ANSWER = 29_967  # simple paths from vertex 0 that can return to it


def _digraph(n: int, p: float, seed: int) -> tuple[int, ...]:
    rng = random.Random(seed)
    out = [0] * n
    for t in range(n):
        for h in range(n):
            if t != h and rng.random() < p:
                out[t] |= 1 << h
    return tuple(out)


OUT = _digraph(N, 0.35, 7)


def _reach(out: tuple[int, ...], s: int, allowed: int) -> int:
    seen = front = 1 << s
    while front:
        nxt = 0
        m = front
        while m:
            low = m & -m
            m ^= low
            nxt |= out[low.bit_length() - 1]
        front = nxt & allowed & ~seen
        seen |= front
    return seen


def _paths(w: int, used: int, full: int) -> int:
    count = 0
    m = OUT[w] & ~used
    while m:
        low = m & -m
        m ^= low
        x = low.bit_length() - 1
        new_used = used | low
        if _reach(OUT, x, (full & ~new_used) | 1) & 1:
            count += 1 + _paths(x, new_used, full)
    return count


def reference_task() -> int:
    """The number of simple paths from vertex 0 whose end can still reach 0
    outside the path.  It allocates no object the garbage collector tracks,
    so it does not move the collector's pauses among the operations."""
    return _paths(0, 1, (1 << N) - 1)


class Gauge:
    """Runs and times the reference task every ``every`` seconds of wall time
    while started, from a ``SIGALRM`` handler, so its samples are spread
    evenly over the run, through long operations too."""

    def __init__(self, every: float = 0.5) -> None:
        self.every = every
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.wrong = 0  # runs of the task that did not give ANSWER
        self._busy = False

    def sample(self, *_signal: object) -> None:
        if self._busy:  # a tick that came during a slow sample is dropped
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            answer = reference_task()
            self.samples.append((t0, time.perf_counter() - t0))
            self.wrong += answer != ANSWER
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """Time spent in samples that started in ``[t0, t1)``."""
        total = 0.0
        for start, took in reversed(self.samples):
            if start < t0:
                break
            if start < t1:
                total += took
        return total


def speed_scale(
    samples: list[tuple[float, float]],
    t0: float = float("-inf"),
    t1: float = float("inf"),
) -> float:
    """``REFERENCE_S`` over the median time of the samples (``(start,
    duration)``, by start) started within ``NEAR_S`` of ``[t0, t1]``, or of
    all samples when none did: the factor that takes a time measured then to
    the reference speed."""
    starts = [start for start, _took in samples]
    lo = bisect.bisect_left(starts, t0 - NEAR_S)
    hi = bisect.bisect_right(starts, t1 + NEAR_S)
    near = samples[lo:hi] or samples
    return REFERENCE_S / statistics.median(took for _start, took in near)

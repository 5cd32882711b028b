"""Machine-speed calibration: times scaled to a fixed reference speed.

On a virtual machine shared with other tenants the speed of the CPU itself
moves by 30% or more for minutes at a time; CPU time moves with wall time
and no steal time is counted.  Every time this benchmark reports is
therefore a wall time scaled by the speed the machine had while it was
taken, as measured by a fixed pure-Python kernel (products of integer
coefficient lists and of integers with thousands of digits) that shares
no code with covercalc:

    reported = wall * CAL_NOMINAL_S / (the kernel's time around it)

The kernel runs between operations, never inside one.  A change to
covercalc moves the wall time and not the kernel, so it moves the reported
time by the same share; a slower machine moves both, and cancels.  On an
idle reference machine (2-vCPU VM, Python 3.11) the kernel takes about
CAL_NOMINAL_S, so there the reported times read as wall times.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

CAL_A = tuple((i * 7919) % 1000 - 500 for i in range(40))
CAL_B = tuple((i * 104729) % 1000 - 500 for i in range(40))
CAL_ROUNDS = 5
CAL_P, CAL_Q, CAL_M = 3**4000, 7**3000, 11**3500
CAL_PRODUCTS = 3
CAL_NOMINAL_S = 0.001
CAL_INTERVAL_S = 0.05  # one sample per this much time, taken between operations
CAL_WINDOW_S = 0.1  # an operation is scaled by the samples this close to it
CAL_RECENT = 10  # samples that give the speed while a run is under way
WALL_CAP = 2  # a run stops after this many times its seconds of wall time


def _kernel():
    # the two kinds of work covercalc does, in code of its own: products of
    # integer coefficient lists whose entries grow to several machine words
    # (interpreter-bound), and, for about a quarter of the time, products
    # of integers with thousands of digits (bound by C big-integer code).
    # Under contention the first alone slows more than covercalc's large
    # operations (a genus-4 determinant slowed as its 0.8th power), the
    # second alone less; mixed, the powers for small and large operations
    # came out between 0.87 and 1.04.
    a = CAL_A
    for _ in range(CAL_ROUNDS):
        out = [0] * (len(a) + len(CAL_B) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(CAL_B):
                out[i + j] += x * y
        a = out[: len(CAL_B)]
    big = 0
    for _ in range(CAL_PRODUCTS):
        big += CAL_P * CAL_Q % CAL_M
    return out, big


class Clock:
    """Samples the kernel between operations; ``samples`` holds one
    [midpoint, seconds] pair per run of the kernel, in time order."""

    def __init__(self):
        self.samples = []
        self._last = perf_counter()

    def sample(self):
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        self.samples.append([(t0 + t1) / 2, t1 - t0])
        self._last = t1

    def tick(self):
        """Sample once for every CAL_INTERVAL_S since the last sample, so
        that the kernel's share of the time stays the same whether the
        operations are short or long."""
        for _ in range(int((perf_counter() - self._last) / CAL_INTERVAL_S)):
            self.sample()

    def recent_factor(self):
        return factor(self.samples[-CAL_RECENT:])


class Budget:
    """The time a run measures: ``seconds`` of scaled time inside
    operations, so that a run asks for the same number of operations
    however fast the machine is; but never more than ``wall_s`` seconds of
    wall time (WALL_CAP times ``seconds`` by default)."""

    def __init__(self, seconds, wall_s=None):
        self.left = seconds
        self.wall_end = perf_counter() + (WALL_CAP * seconds if wall_s is None else wall_s)

    def spend(self, seconds, clock):
        """Count an operation of ``seconds`` wall time, scaled by the speed
        of clock's latest samples."""
        self.left -= seconds * clock.recent_factor()

    def done(self):
        return self.left <= 0 or perf_counter() >= self.wall_end


def factor(samples):
    """CAL_NOMINAL_S over the median kernel time of samples."""
    return CAL_NOMINAL_S / statistics.median(s for _, s in samples)


def scale(spans, samples):
    """Scaled seconds of each [start, seconds] span: its wall time times the
    factor of the samples within CAL_WINDOW_S of it, or of the nearest
    sample before it when there is none."""
    times = [t for t, _ in samples]
    out = []
    for start, seconds in spans:
        lo = bisect_left(times, start - CAL_WINDOW_S)
        hi = bisect_right(times, start + seconds + CAL_WINDOW_S)
        if lo == hi:
            lo = max(bisect_right(times, start) - 1, 0)
            hi = lo + 1
        out.append(seconds * factor(samples[lo:hi]))
    return out

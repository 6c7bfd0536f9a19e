"""Timing corrected for the machine's current speed.

On a shared machine the speed of a core changes with its neighbours'
load: on the 2-core machine the benchmark was written on, one fixed loop
ran up to 2x slower from one second to the next, and medians over whole
minutes differed by 20 %, so raw wall times from runs minutes apart do
not agree.  The benchmark therefore times a fixed reference computation
(stdlib Fraction arithmetic and dict updates, like the package's hot
path, but no weyl1 code) between ops, and scales each measured interval
by REFERENCE_S / (reference time measured around it).  A reported time
reads as the wall time on a machine where the reference takes
REFERENCE_S; raw wall times are printed beside it.
"""

from __future__ import annotations

import bisect
import gc
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.003  # nominal duration of one reference computation
REFERENCE_EVERY_S = 0.05  # longest stretch of ops between two references


def reference_work():
    acc = Fraction(0)
    terms = {}
    for i in range(1, 350):
        q = Fraction(i % 17 - 8, i % 7 + 2)
        acc += q * q
        key = (i % 13, i % 11)
        terms[key] = terms.get(key, 0) + q
    return acc


class Clock:
    """Reference timings taken along a run, to correct the intervals in it."""

    def __init__(self):
        self._mid = []  # midpoints of the reference runs, ascending
        self._dur = []  # their durations
        self._last = perf_counter()

    def reference(self):
        gc.disable()  # a collection of the program's heap is not machine speed
        try:
            t0 = perf_counter()
            reference_work()
            t1 = perf_counter()
        finally:
            gc.enable()
        self._mid.append((t0 + t1) / 2)
        self._dur.append(t1 - t0)
        self._last = t1

    def tick(self):
        """Take a reference if ops have run for REFERENCE_EVERY_S since the last."""
        if perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.reference()

    def spent(self, t0=float("-inf"), t1=float("inf")):
        """Seconds spent in the references taken within [t0, t1]."""
        lo, hi = bisect.bisect_left(self._mid, t0), bisect.bisect_right(self._mid, t1)
        return sum(self._dur[lo:hi])

    def scale(self, t0, t1):
        """REFERENCE_S over the mean reference time in and around [t0, t1].

        The speed switches between levels within a second, so the mean of
        the references, not their median, estimates the average over the
        interval.
        """
        lo = max(0, bisect.bisect_left(self._mid, t0) - 1)
        hi = bisect.bisect_right(self._mid, t1) + 1
        near = self._dur[lo:hi]
        return REFERENCE_S * len(near) / sum(near)

"""Machine-speed probe used to normalize the benchmark's times.

On a shared host the speed of one core drifts by 20-50% within a minute,
so raw times of identical runs spread more than any useful bound.  The
benchmark runs this fixed pure-Python probe between jobs (three
repetitions, about 30 ms), in the process that runs the jobs, and scales
each measured time by ``REF_PROBE_S / probe time``: a time in
"reference seconds" is what the job would take on a core where the probe
takes 10 ms.  The probe mixes the two kinds of work brwmom's exact paths
do, interpreter dispatch on small integers and ``Fraction`` arithmetic on
growing integers.  It is not brwmom code, so no change to the package
moves it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REF_PROBE_S = 0.010
REPS = 3


def _work() -> Fraction:
    s = 0
    for i in range(75_000):
        s += i * i
    acc = Fraction(s % 7)
    for i in range(1, 1000):
        acc += Fraction(1, i)
    return acc


def probe() -> float:
    """Median seconds of REPS runs of the probe work."""
    times = []
    for _ in range(REPS):
        t0 = perf_counter()
        _work()
        times.append(perf_counter() - t0)
    return statistics.median(times)

"""Machine-speed probe, for timings that drift less with the host.

On a shared host the same pass of a workload can take up to twice as long
from one moment to the next, in regimes lasting from a fraction of a second
to several seconds, for reasons outside the program.  A fixed pure-Python
job (the probe) tracks that regime: it runs a few times right before and
right after each measured interval, and every ``SAMPLE_EVERY_S`` during it,
from a timer signal.  The interval's own time is its wall time minus the
probes run inside it; multiplied by ``REFERENCE_S / mean probe time`` it
becomes *reference seconds*: the time the interval would have taken on a
machine where the probe takes ``REFERENCE_S``.  A change to rht moves
reference seconds as it moves wall time, while most of a change in host
speed cancels out.

The probe shares no code with rht: Fraction arithmetic and tuple-keyed dict
updates, the two things rht's inner loops spend their time on.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# The probe's median time on the machine the benchmark was sized on
# (Python 3.11.7, 2 vCPUs at 2.0 GHz), so that reference seconds read close
# to wall seconds there.
REFERENCE_S = 0.0015

# Probes on each side of an interval, and the sampling period inside it.
# One probe jitters by about a sixth from the next; several are steadier.
SIDE_PROBES = 5
SAMPLE_EVERY_S = 0.05


def probe():
    """Seconds taken by the fixed job (about 1.5 ms)."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        acc += Fraction(1, i)
        key = (i % 31, i % 17)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - t0


def timed(fn):
    """(result, seconds, speed) of one call of ``fn``, from the main thread.

    ``seconds`` is the call's wall time less the probes run during it;
    ``seconds * speed`` is its time in reference seconds.
    """
    before = [probe() for _ in range(SIDE_PROBES)]
    inside = []
    previous = signal.signal(signal.SIGALRM,
                             lambda _signum, _frame: inside.append(probe()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    after = [probe() for _ in range(SIDE_PROBES)]
    speed = REFERENCE_S / statistics.fmean(before + inside + after)
    return result, wall - sum(inside), speed

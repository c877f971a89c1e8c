"""A fixed reference computation that measures how fast the machine runs
Python at the moment, apart from the program.

On a shared host the speed of a vCPU drifts by tens of percent within
seconds and by up to a factor of two over minutes, for every process
alike, so raw op latencies of two runs of the same code can differ by
more than any bound worth setting.  The worker therefore runs `unit()`
between ops, about every SAMPLE_EVERY_S seconds of op time, and scales
each op's latency by `scale(before, after)`: REFERENCE_MS over the mean of
the two unit times that bracket the op.  Every time metric then reads as
it would at a fixed machine speed.  Set-up time is scaled the same way by
units the parent process runs between its set-up probes.

The unit uses only the standard library (Fraction and integer arithmetic,
tuples, dicts, sorting: the same kind of interpreter work the program
does), so a change to the program never changes it, and a program that
gets 10% slower reads 10% slower.  The program's time does not follow the
machine's speed one for one (on a 2-vCPU KVM guest it moved 0.8 to 0.94
times as much as the unit's, in logarithms), so a little of the drift
remains in the scaled figures; the raw ones are printed beside them.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# About the median unit time between ops on the machine the bounds were
# set on (2-vCPU KVM guest, Intel Xeon at 2.1 GHz, Python 3.11), so scaled
# figures there come out near raw ones; only the scale of the metrics
# depends on it.
REFERENCE_MS = 20.0
SAMPLE_EVERY_S = 0.25
REPEAT = 3


def _work() -> int:
    table: dict = {}
    total = 0
    for i in range(1, 1200):
        if i % 40 == 1:
            acc = Fraction(0)
        acc += Fraction(i * i + 1, 2 * i + 3)
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i
        total += (acc.numerator * 7919) // (acc.denominator + i)
    words = sorted((v * 2654435761) % 1000003 for v in table.values())
    return total % 1000003 + sum(words)


def unit() -> float:
    """Seconds one reference unit (REPEAT rounds of the fixed work) takes,
    with the collector off so the program's heap size does not leak into
    it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REPEAT):
            _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that brings a time measured between two units of `before`
    and `after` seconds to the reference speed."""
    return REFERENCE_MS / (500 * (before + after))

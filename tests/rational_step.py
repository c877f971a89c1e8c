"""The original rational-matrix step on `Fraction` points, kept as a test
reference.

`roundreach.system.rational_step` now steps a `RationalSystem` on the
integer coordinates of its `RationalKernel`: the state x = k*g is the
integer vector k, and each coordinate of M k is rounded by an integer ratio.
This module keeps the earlier step: every product of a matrix entry and a
coordinate formed as a `Fraction`, summed per row, and the sum rounded to
the g-grid by `round_real`, so differential tests can check the integer
step against an independent exact implementation.  Only the tests import
it.
"""

from __future__ import annotations

from fractions import Fraction

from roundreach.rounding import round_real
from roundreach.system import RationalSystem


def reference_rational_step(
    system: RationalSystem, state: tuple[Fraction, ...]
) -> tuple[Fraction, ...]:
    """x' = round(M x), coordinate by coordinate."""
    kind = system.rounding.kind
    g = system.rounding.granularity
    out = []
    for row in system.matrix:
        acc = Fraction(0)
        for c, v in zip(row, state):
            if c:
                acc += c * v
        out.append(round_real(acc, kind, g))
    return tuple(out)

"""The exact grid-ball count, kept as a test reference.

`roundreach.rounding.kbox_count` counts the box around an Argand ball, one
floor division; `kball_count` counts the ball itself, one `isqrt` per grid
row, so it costs radius/g operations.  The step caps used it until they
counted boxes.  It is kept here so tests can check the box count against
it and run the deciders under the exact caps.  Only the tests import this
module.
"""

from __future__ import annotations

import math
from fractions import Fraction

from roundreach.numerics import Rational
from roundreach.rounding import PolarRounding, RoundingSpec


def kball_count(radius: Rational, spec: RoundingSpec) -> int:
    """Number of admissible points of modulus at most radius."""
    k = Fraction(radius) / spec.granularity  # the radius in grid steps, n/d
    if k < 0:
        return 0
    half = math.floor(k)
    if isinstance(spec, PolarRounding):
        return 1 + half * 2 * spec.angle_resolution
    n, d = k.numerator, k.denominator
    nn, dd = n * n, d * d
    # row a holds the b with (a*d)^2 + (b*d)^2 <= n^2; row -a mirrors row a
    rows = sum(2 * math.isqrt((nn - a * a * dd) // dd) + 1 for a in range(1, half + 1))
    return 2 * math.isqrt(nn // dd) + 1 + 2 * rows

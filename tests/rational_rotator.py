"""The exact rounded rotation by a rational multiple of pi, kept as a test
reference.

`roundreach.rotation_lab` steps a rational angle on `StepKernel`, as a
system of one size-1 unit block: a float bracket, Niven's rational values
read in integers, and the kernel's exact fallback through `round_value`.
This module keeps the earlier rotator's exact path on its own: cos and sin
of the angle as cyclotomic numbers, and each coordinate a*cos - b*sin (or
a*sin + b*cos) plus 1/2 floored by `certified_floor`, so differential tests
can check the production step against an independent exact rounding.  Only
the tests import it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from angle_reference import angle_cos, angle_sin
from roundreach.numerics import Angle, CycloNum, certified_floor


class RationalRotator:
    """Rotate an integer point by the angle, then round each coordinate to
    the nearest integer with half ties up; exact."""

    def __init__(self, angle: Angle) -> None:
        order = math.lcm(4, 2 * angle.denominator)
        self.cos_exact = angle_cos(angle, order)
        self.sin_exact = angle_sin(angle, order)
        self.half = CycloNum.from_rational(order, Fraction(1, 2))

    def parts(self, a: int, b: int) -> tuple[CycloNum, CycloNum]:
        """The exact rotated point (a*cos - b*sin, a*sin + b*cos)."""
        a, b = Fraction(a), Fraction(b)
        return (a * self.cos_exact - b * self.sin_exact,
                a * self.sin_exact + b * self.cos_exact)

    def step(self, p: tuple[int, int]) -> tuple[int, int]:
        re, im = self.parts(*p)
        return certified_floor(re + self.half), certified_floor(im + self.half)

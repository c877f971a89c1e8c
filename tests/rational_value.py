"""The rational value of a cyclotomic number, kept for the tests.

Nothing in `roundreach` reads a `CycloNum` back as a `Fraction`: the
deciders and the kernel work on its integer numerators.  This moved here
from `CycloNum.as_rational`.  Only the tests import this module.
"""

from __future__ import annotations

from fractions import Fraction

from roundreach.numerics import CycloNum


def as_rational(z: CycloNum) -> Fraction:
    """z as a Fraction; ValueError when z is not rational."""
    if not z.is_rational():
        raise ValueError("not a rational value")
    return Fraction(z.num[0], z.den)

"""The two unit-table builders as they were before `hyperbolic.unit_table`,
kept as a test reference.

Truncation and expansion (`TruncationResourceBounds`, `truncation_bounds`)
and polar rounding (`PolarResourceBounds`, `resource_bounds`) each ran the
budget recurrence and the closed-form ceiling check of a unit-modulus block
on their own.  They are kept here unchanged, so a differential test can
check the shared builder against them.  Only the tests import this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Optional, Sequence

from roundreach.errors import InternalInvariantError
from roundreach.rounding import ArgandPoint, ArgandRounding, PolarRounding
from roundreach.system import JnfSystem


@dataclass(frozen=True)
class TruncationResourceBounds:
    """Modulus and step budgets for one unit-modulus block under
    modulus-non-increasing rounding.

    modulus_bounds[k] bounds coordinate k's modulus while it is being
    watched and settle_bounds[k] the step by which it has resolved; index 0
    is the top of the block.  initial_size is the summed 1-norm of the
    block's starting coordinates, a rational upper bound on the summed
    moduli.
    """

    size: int
    granularity: Fraction
    initial_size: Fraction
    modulus_bounds: tuple[Fraction, ...]
    settle_bounds: tuple[int, ...]

    @property
    def growth_base(self) -> Fraction:
        clamped = max(self.initial_size, Fraction(1))
        raw = 2 * self.size * (2 / self.granularity) ** self.size * clamped
        return max(raw, Fraction(2))

    def doubly_exponential_ceiling(self, j: int) -> Fraction:
        """Closed-form ceiling for modulus_bounds[size - 1 - j]."""
        clamped = max(self.initial_size, Fraction(1))
        return (self.growth_base * clamped) ** ((self.size + 1) ** j)


def _one_norm(points: Sequence[ArgandPoint]) -> Fraction:
    return sum((abs(p.re) + abs(p.im) for p in points), Fraction(0))


def truncation_bounds(
    system: JnfSystem, block_index: Optional[int] = None
) -> TruncationResourceBounds:
    """Evaluate the step-budget recurrence for one unit-modulus block and
    check the closed-form ceiling on the modulus table."""
    spec = system.rounding
    if not isinstance(spec, ArgandRounding):
        raise ValueError("these budgets are defined for componentwise rounding")
    block, start, end = system.unit_block(block_index)
    initial_size = _one_norm(system.initial[start:end])
    size = block.size
    g = Fraction(spec.granularity)
    u = [Fraction(0)] * size
    t = [0] * size
    u[size - 1] = initial_size
    t[size - 1] = math.ceil((2 * u[size - 1] / g) ** size)
    for k in range(size - 2, -1, -1):
        u[k] = initial_size + size * t[k + 1] * u[k + 1]
        t[k] = math.ceil((2 * u[k] / g) ** size) + t[k + 1]
    bounds = TruncationResourceBounds(size, g, initial_size, tuple(u), tuple(t))
    for j in range(size):
        if bounds.modulus_bounds[size - 1 - j] > bounds.doubly_exponential_ceiling(j):
            raise InternalInvariantError(
                f"modulus table exceeds its closed-form ceiling at height {j}"
            )
    return bounds


@dataclass(frozen=True)
class PolarResourceBounds:
    """Modulus and settling-time tables for one unit-modulus block.

    modulus_bounds[j] bounds the modulus of dimension j and
    settle_bounds[j] the step by which dimension j has either settled into
    rotation or produced a divergence certificate; index 0 is the top.
    initial_size and target_size are the summed moduli the tables start
    from.
    """

    size: int
    resolution: int
    initial_size: Fraction
    target_size: Fraction
    granularity: Fraction
    modulus_bounds: tuple[Fraction, ...]
    settle_bounds: tuple[int, ...]

    @property
    def growth_base(self) -> Fraction:
        i_s = max(self.initial_size, Fraction(1))
        y_s = max(self.target_size, Fraction(1))
        return 3 * self.size * y_s * (2 * self.resolution) ** 2 * i_s

    def doubly_exponential_ceiling(self, j: int) -> Fraction:
        """Closed-form ceiling for modulus_bounds[size - 1 - j]."""
        i_s = max(self.initial_size, Fraction(1))
        return (self.growth_base * i_s) ** (2**j)


def resource_bounds(
    system: JnfSystem, block_index: Optional[int] = None
) -> PolarResourceBounds:
    """Evaluate the settling-time and modulus tables for one unit-modulus
    block of a polar instance, checking the closed-form ceiling."""
    spec = system.rounding
    if not isinstance(spec, PolarRounding):
        raise ValueError("resource tables are defined for polar rounding")
    block, start, end = system.unit_block(block_index)
    initial_size = sum((p.modulus for p in system.initial[start:end]), Fraction(0))
    target_size = sum((p.modulus for p in system.target[start:end]), Fraction(0))
    size = block.size
    resolution = spec.angle_resolution
    u = [Fraction(0)] * size
    t = [0] * size
    u[size - 1] = initial_size
    t[size - 1] = 1
    angle_count_sq = (2 * resolution) ** 2
    for k in range(size - 2, -1, -1):
        u[k] = initial_size + size * t[k + 1] * u[k + 1]
        t[k] = ceil((target_size + u[k]) * angle_count_sq) + t[k + 1]
    bounds = PolarResourceBounds(
        size,
        resolution,
        initial_size,
        target_size,
        Fraction(spec.granularity),
        tuple(u),
        tuple(t),
    )
    for j in range(size):
        if bounds.modulus_bounds[size - 1 - j] > bounds.doubly_exponential_ceiling(j):
            raise InternalInvariantError(
                f"modulus table exceeds its closed-form ceiling at height {j}"
            )
    return bounds

"""Rounding kinds, grid points, and the rounding maps for both grid shapes."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import InternalInvariantError
from .numerics import (
    Angle,
    CycloLike,
    CycloNum,
    Rational,
    ceil_sqrt,
    certified_floor,
    embed_polar,
    floor_sqrt,
    half_up_sqrt,
    modulus_sq,
    nearest_angle_index,
)


class RoundingKind(enum.Enum):
    FLOOR = "floor"
    CEIL = "ceil"
    TRUNCATE = "truncate"
    EXPAND = "expand"
    MINIMAL_ERROR_UP = "minimal_error_up"


@dataclass(frozen=True)
class ArgandRounding:
    """Componentwise rounding of real and imaginary parts on the g-grid."""

    kind: RoundingKind
    granularity: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "granularity", Fraction(self.granularity))
        if self.granularity <= 0:
            raise ValueError("granularity must be positive")


@dataclass(frozen=True)
class PolarRounding:
    """Rounding of the modulus on the g-grid and the angle to multiples of pi/R.

    The angle always rounds to the nearest grid angle with ties going
    counterclockwise; only the modulus rounding kind varies.
    """

    modulus_kind: RoundingKind
    angle_resolution: int
    granularity: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "granularity", Fraction(self.granularity))
        if self.granularity <= 0:
            raise ValueError("granularity must be positive")
        if self.angle_resolution < 2:
            raise ValueError("angle resolution must be at least 2")


RoundingSpec = Union[ArgandRounding, PolarRounding]


def _fraction(value: Rational) -> Fraction:
    # Fraction(q) on a Fraction rebuilds it through an ABC instance check
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class ArgandPoint:
    re: Fraction
    im: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _fraction(self.re))
        object.__setattr__(self, "im", _fraction(self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def modulus_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def value(self, order: int) -> CycloNum:
        return CycloNum.from_rational(order, self.re) + self.im * CycloNum.i_unit(order)


@dataclass(frozen=True)
class PolarPoint:
    modulus: Fraction
    angle_index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "modulus", _fraction(self.modulus))
        if self.modulus < 0:
            raise ValueError("modulus must be nonnegative")
        if self.modulus == 0 and self.angle_index != 0:
            raise ValueError("the origin carries angle index 0")

    def is_zero(self) -> bool:
        return self.modulus == 0

    def modulus_sq(self) -> Fraction:
        return self.modulus * self.modulus

    def angle(self, resolution: int) -> Angle:
        return Angle(self.angle_index, resolution)

    def value(self, order: int, resolution: int) -> CycloNum:
        return embed_polar(self.modulus, self.angle(resolution), order)


GridPoint = Union[ArgandPoint, PolarPoint]


def point_value(point: GridPoint, spec: RoundingSpec, order: int) -> CycloNum:
    if isinstance(point, ArgandPoint):
        return point.value(order)
    return point.value(order, spec.angle_resolution)


def is_admissible(point: GridPoint, spec: RoundingSpec) -> bool:
    if isinstance(spec, ArgandRounding):
        if not isinstance(point, ArgandPoint):
            return False
        g = spec.granularity
        return (point.re / g).denominator == 1 and (point.im / g).denominator == 1
    if not isinstance(point, PolarPoint):
        return False
    if (point.modulus / spec.granularity).denominator != 1:
        return False
    return 0 <= point.angle_index < 2 * spec.angle_resolution


def round_real(value: CycloLike, kind: RoundingKind, granularity: Rational = 1) -> Fraction:
    """Round a real value to the g-grid with the given kind; exact.

    Every kind reads one certified floor f of value/g (of value/g + 1/2 for
    minimal error).  Off the grid, value/g lies strictly between f and f + 1,
    and f >= 0 exactly when the value is positive.
    """
    g = _fraction(granularity)
    if g <= 0:
        raise ValueError("granularity must be positive")
    if kind is RoundingKind.MINIMAL_ERROR_UP:
        return certified_floor(value + g / 2, g) * g
    f = certified_floor(value, g)
    if kind is RoundingKind.FLOOR:
        return f * g
    if kind is RoundingKind.CEIL:
        up = True
    elif kind is RoundingKind.TRUNCATE:
        up = f < 0
    elif kind is RoundingKind.EXPAND:
        up = f >= 0
    else:
        raise ValueError(f"unknown rounding kind: {kind}")
    if up and value == f * g:
        up = False  # on the grid every kind keeps the value
    return (f + up) * g


def _round_modulus_steps(value_sq: CycloLike, kind: RoundingKind, g: Fraction) -> int:
    """Number of grid steps for the rounded modulus sqrt(value_sq); exact."""
    scaled = value_sq / (g * g)
    if kind in (RoundingKind.FLOOR, RoundingKind.TRUNCATE):
        return floor_sqrt(scaled)
    if kind in (RoundingKind.CEIL, RoundingKind.EXPAND):
        return ceil_sqrt(scaled)
    if kind is RoundingKind.MINIMAL_ERROR_UP:
        return half_up_sqrt(scaled)
    raise ValueError(f"unknown rounding kind: {kind}")


def round_value(value: CycloLike, spec: RoundingSpec) -> GridPoint:
    """Round an exact value to the nearest grid point under the spec."""
    if isinstance(spec, ArgandRounding):
        if isinstance(value, CycloNum):
            re = value.real_part()
            im = value.imag_part()
        else:
            re = _fraction(value)
            im = Fraction(0)
        return ArgandPoint(
            round_real(re, spec.kind, spec.granularity),
            round_real(im, spec.kind, spec.granularity),
        )
    g = spec.granularity
    if not isinstance(value, CycloNum):
        v = _fraction(value)
        steps = _round_modulus_steps(v * v, spec.modulus_kind, g)
        if steps == 0:
            return PolarPoint(Fraction(0), 0)
        index = 0 if v > 0 else spec.angle_resolution
        return PolarPoint(steps * g, index)
    if value.is_zero():
        return PolarPoint(Fraction(0), 0)
    steps = _round_modulus_steps(modulus_sq(value), spec.modulus_kind, g)
    if steps == 0:
        return PolarPoint(Fraction(0), 0)
    index = nearest_angle_index(value, spec.angle_resolution)
    return PolarPoint(steps * g, index)


def round_vector(values: Sequence[CycloLike], spec: RoundingSpec) -> tuple[GridPoint, ...]:
    return tuple(round_value(v, spec) for v in values)


def effect_bound(spec: RoundingSpec) -> Fraction:
    """The rounding effect bound: per component for Argand, on the modulus for Polar."""
    kind = spec.kind if isinstance(spec, ArgandRounding) else spec.modulus_kind
    if kind is RoundingKind.MINIMAL_ERROR_UP:
        return spec.granularity / 2
    return spec.granularity


def modulus_effect_bound(spec: RoundingSpec, real_only: bool = False) -> Fraction:
    """A rational bound on | |x| - |[x]| |.

    For Argand rounding of genuinely complex values the two component errors
    combine to at most sqrt(2) times the component bound; 3/2 is the rational
    over-approximation used. Real-only orbits keep the component bound itself.
    """
    base = effect_bound(spec)
    if isinstance(spec, PolarRounding) or real_only:
        return base
    return Fraction(3, 2) * base


def kball_count(radius: Rational, spec: RoundingSpec) -> int:
    """Number of admissible points of modulus at most radius."""
    k = Fraction(radius)
    if k < 0:
        return 0
    g = spec.granularity
    if isinstance(spec, PolarRounding):
        rings = math.floor(k / g)
        return 1 + rings * 2 * spec.angle_resolution
    half = math.floor(k / g)
    ksq = k * k
    total = 0
    for a in range(-half, half + 1):
        rem = ksq - a * a * g * g
        if rem < 0:
            raise InternalInvariantError("negative remainder in ball count")
        reach = floor_sqrt(rem / (g * g))
        total += 2 * reach + 1
    return total

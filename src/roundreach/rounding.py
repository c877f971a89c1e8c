"""Rounding kinds and their rules, grid points, and the rounding maps for both grid shapes."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .numerics import (
    Angle,
    CycloLike,
    CycloNum,
    Rational,
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
class KindRule:
    """One rounding kind's exact maps, in grid units; RULES holds one per
    kind.  Every map keeps a value that lies on the grid.

    off_grid(f) rounds a value strictly inside (f, f + 1); it is None for
    minimal error, the floor of the value plus 1/2.  ratio(num, den) rounds
    num/den for den > 0.  bracket(v, slack) rounds a real value known to
    lie in [v - slack, v + slack], or gives None when that does not settle
    it.  modulus(num, den) gives the grid steps of the rounded modulus
    sqrt(num/den) for num >= 0 and den > 0; irrational_modulus(v, slack)
    the same for an irrational squared modulus in [v - slack, v + slack],
    read off its settled floor (of 4 times it for minimal error), or None.
    effect bounds the distance between a value and its rounding.
    """

    off_grid: Optional[Callable[[int], int]]
    ratio: Callable[[int, int], int]
    bracket: Callable[[float, float], Optional[int]]
    modulus: Callable[[int, int], int]
    irrational_modulus: Callable[[float, float], Optional[int]]
    effect: Fraction


def _directed(off_grid: Callable[[int], int]) -> KindRule:
    """The rule of a kind that sends a value strictly inside (f, f + 1) to
    off_grid(f), which is f or f + 1.  A bracket must hold the value strictly
    inside such an interval.  A modulus is nonnegative, and an irrational
    square root never lies on the grid."""

    def ratio(num: int, den: int) -> int:
        f, rem = divmod(num, den)
        return off_grid(f) if rem else f

    def bracket(v: float, slack: float) -> Optional[int]:
        lo = v - slack
        f = math.floor(lo)
        if math.floor(v + slack) != f or lo == f:
            return None
        return off_grid(f)

    def modulus(num: int, den: int) -> int:
        s = math.isqrt(num // den)
        return s if s * s * den == num else off_grid(s)

    def irrational_modulus(v: float, slack: float) -> Optional[int]:
        f = math.floor(v - slack)
        return off_grid(math.isqrt(f)) if math.floor(v + slack) == f else None

    return KindRule(off_grid, ratio, bracket, modulus, irrational_modulus, Fraction(1))


def _half_up_bracket(v: float, slack: float) -> Optional[int]:
    f = math.floor(v + 0.5 - slack)
    return f if math.floor(v + 0.5 + slack) == f else None


def _half_up_irrational_modulus(v: float, slack: float) -> Optional[int]:
    f = math.floor((v - slack) * 4.0)
    return (math.isqrt(f) + 1) // 2 if math.floor((v + slack) * 4.0) == f else None


RULES: dict[RoundingKind, KindRule] = {
    RoundingKind.FLOOR: _directed(lambda f: f),
    RoundingKind.CEIL: _directed(lambda f: f + 1),
    RoundingKind.TRUNCATE: _directed(lambda f: f + (f < 0)),
    RoundingKind.EXPAND: _directed(lambda f: f + (f >= 0)),
    RoundingKind.MINIMAL_ERROR_UP: KindRule(
        None,
        lambda num, den: (2 * num + den) // (2 * den),
        _half_up_bracket,
        lambda num, den: (math.isqrt(4 * num // den) + 1) // 2,
        _half_up_irrational_modulus,
        Fraction(1, 2),
    ),
}


def _fraction(value: Rational) -> Fraction:
    # Fraction(q) on a Fraction rebuilds it through an ABC instance check
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class ArgandRounding:
    """Componentwise rounding of real and imaginary parts on the g-grid."""

    kind: RoundingKind
    granularity: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "granularity", _fraction(self.granularity))
        if self.granularity.numerator <= 0:
            raise ValueError("granularity must be positive")


def checked_int(value, what: str) -> int:
    """The value, which must be an int; bool is a subclass of int, but
    True is not a count."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


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
        object.__setattr__(self, "granularity", _fraction(self.granularity))
        if self.granularity.numerator <= 0:
            raise ValueError("granularity must be positive")
        if checked_int(self.angle_resolution, "angle_resolution") < 2:
            raise ValueError("angle resolution must be at least 2")


RoundingSpec = Union[ArgandRounding, PolarRounding]


@dataclass(frozen=True)
class ArgandPoint:
    re: Fraction
    im: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _fraction(self.re))
        object.__setattr__(self, "im", _fraction(self.im))

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
        if self.modulus.numerator < 0:
            raise ValueError("modulus must be nonnegative")
        if not self.modulus and self.angle_index != 0:
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


def grid_point(x: tuple[int, int], spec: RoundingSpec) -> GridPoint:
    """The grid point of a coordinate in grid units: (a, b) is
    ArgandPoint(a*g, b*g) and (k, i) is PolarPoint(k*g, i)."""
    g = spec.granularity
    if isinstance(spec, PolarRounding):
        return PolarPoint(x[0] * g, x[1])
    return ArgandPoint(x[0] * g, x[1] * g)


def point_value(point: GridPoint, spec: RoundingSpec, order: int) -> CycloNum:
    if isinstance(point, ArgandPoint):
        return point.value(order)
    return point.value(order, spec.angle_resolution)


def grid_steps(value: Fraction, g: Fraction) -> Optional[int]:
    """value/g when it is an integer, else None: one integer division."""
    steps, rem = divmod(value.numerator * g.denominator, value.denominator * g.numerator)
    return None if rem else steps


def grid_units(point: GridPoint, spec: RoundingSpec) -> Optional[tuple[int, int]]:
    """The point in grid units, the inverse of grid_point, or None when it
    is not admissible: of the other shape, off the g-grid, or with an angle
    index outside [0, 2R)."""
    g = spec.granularity
    if isinstance(spec, ArgandRounding):
        if not isinstance(point, ArgandPoint):
            return None
        a, b = grid_steps(point.re, g), grid_steps(point.im, g)
        return None if a is None or b is None else (a, b)
    if not isinstance(point, PolarPoint):
        return None
    k, i = grid_steps(point.modulus, g), point.angle_index
    return None if k is None or not 0 <= i < 2 * spec.angle_resolution else (k, i)


def round_real(value: CycloLike, kind: RoundingKind, granularity: Rational = 1) -> Fraction:
    """Round a real value to the g-grid with the given kind; exact.

    Every kind reads one certified floor f of value/g (of value/g + 1/2 for
    minimal error) and maps it by its rule.  Off the grid, value/g lies
    strictly between f and f + 1.
    """
    g = _fraction(granularity)
    if g <= 0:
        raise ValueError("granularity must be positive")
    off_grid = RULES[kind].off_grid
    if off_grid is None:
        return certified_floor(value + g / 2, g) * g
    f = certified_floor(value, g)
    up = off_grid(f)
    if up != f and value == f * g:
        up = f  # on the grid every kind keeps the value
    return up * g


def _round_sqrt(value: CycloLike, off_grid: Optional[Callable[[int], int]]) -> int:
    """sqrt(value) rounded by the rule with this off_grid map; exact."""
    if off_grid is None:
        return half_up_sqrt(value)
    s = floor_sqrt(value)
    up = off_grid(s)
    return s if up == s or value == s * s else up


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
    off_grid = RULES[spec.modulus_kind].off_grid
    if not isinstance(value, CycloNum):
        v = _fraction(value)
        steps = _round_sqrt(v * v / (g * g), off_grid)
        if steps == 0:
            return PolarPoint(Fraction(0), 0)
        index = 0 if v > 0 else spec.angle_resolution
        return PolarPoint(steps * g, index)
    if value.is_zero():
        return PolarPoint(Fraction(0), 0)
    steps = _round_sqrt(modulus_sq(value) / (g * g), off_grid)
    if steps == 0:
        return PolarPoint(Fraction(0), 0)
    index = nearest_angle_index(value, spec.angle_resolution)
    return PolarPoint(steps * g, index)


def effect_bound(spec: RoundingSpec) -> Fraction:
    """The rounding effect bound: per component for Argand, on the modulus for Polar."""
    return _scaled_effect(spec, 1, 1)


def _scaled_effect(spec: RoundingSpec, num: int, den: int) -> Fraction:
    """The effect bound times num/den, built as one Fraction."""
    kind = spec.kind if isinstance(spec, ArgandRounding) else spec.modulus_kind
    effect, g = RULES[kind].effect, spec.granularity
    return Fraction(num * effect.numerator * g.numerator, den * effect.denominator * g.denominator)


def modulus_effect_bound(spec: RoundingSpec, real_only: bool = False) -> Fraction:
    """A rational bound on | |x| - |[x]| |.

    For Argand rounding of genuinely complex values the two component errors
    combine to at most sqrt(2) times the component bound; 3/2 is the rational
    over-approximation used. Real-only orbits keep the component bound itself.
    """
    if isinstance(spec, PolarRounding) or real_only:
        return _scaled_effect(spec, 1, 1)
    return _scaled_effect(spec, 3, 2)


def kbox_count(num: int, den: int, spec: RoundingSpec) -> int:
    """An upper bound on the admissible points of modulus at most num/den
    (den > 0), from one floor division.  A ball of k grid steps lies in
    the box |a|, |b| <= floor(k), which holds (2*floor(k) + 1)^2 points;
    the polar count 1 + floor(k)*2R is the ball's exact count."""
    if num < 0:
        return 0
    g = spec.granularity
    half = num * g.denominator // (den * g.numerator)
    if isinstance(spec, PolarRounding):
        return 1 + half * 2 * spec.angle_resolution
    return (2 * half + 1) ** 2

"""Empirical harness for the rounded rotation on the integer grid.

Every lattice point in a disk is iterated under "rotate by theta, then
round each coordinate to the nearest integer with half ties up", recording
when each orbit becomes periodic and which cells get occupied at which
generation.  Rational multiples of pi run on a certified fast path whose
hard cases fall back to exact cyclotomic arithmetic; other angles are
evaluated by interval arithmetic with doubling precision and a hard cap.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import mpmath

from .errors import UndecidableTieError
from .numerics import (
    Angle, CycloNum, angle_cos, angle_sin, certified_floor, refine, settled_floor,
)
from .rounding import RULES, RoundingKind
from .system import OrbitRecord, orbit_shape

IntPair = tuple[int, int]

# The prefilter rounds t = a*cos - b*sin + 1/2 (or a*sin + b*cos + 1/2) as
# floor(fl(fl(V + 0.5) -+ S)) with V = fl(fl(A*C) -+ fl(B*S')), where A and
# B are a and b converted to floats, C and S' the float cosine and sine, and
# S = fl(m) * _FLOAT_SLACK the slack for m = |a| + |b| + 1.  With u = 2^-53:
# converting an int costs u|a| (nothing below 2^53); C and S' are within 2u
# of the true values (a 128-bit value rounded once, or for an interval angle
# the midpoint of two rounded endpoints); so |A*C - a*cos| <= 3u|a| + O(u^2).
# The two products, the sum, the + 0.5 and the -+ S each add one rounding,
# at most u|a|, u|b|, u(|a| + |b|), u*m and u*m.  The total is below
# 7u*m + O(u^2 m), and S >= 8u*m*(1 - u), so both ends of the bracket lie
# on their side of t and equal floors are the exact floor.  Past float range
# a conversion raises OverflowError and both coordinates take the fallback.
_FLOAT_SLACK = 2.0**-50

# round half up is minimal-error rounding, the bracket derived above
_half_up = RULES[RoundingKind.MINIMAL_ERROR_UP].bracket

_INTERVAL_PREC_CAP = 2**12


@dataclass(frozen=True)
class IrrationalTheta:
    """Angle descriptor 2^(exponent)/divisor * pi with a non-integer
    exponent, which no cyclotomic field can host."""

    exponent: Fraction
    divisor: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponent", Fraction(self.exponent))
        if self.divisor < 1:
            raise ValueError("the divisor must be positive")
        if self.exponent.denominator == 1:
            raise ValueError(
                "an integer exponent is a rational multiple of pi; use Angle"
            )

    @property
    def descriptor(self) -> str:
        e = self.exponent
        return f"2^({e.numerator}/{e.denominator})/{self.divisor} pi"

    def interval(self):
        """Certified interval for the angle at the current iv precision."""
        base = mpmath.iv.mpf(2) ** (
            mpmath.iv.mpf(self.exponent.numerator)
            / mpmath.iv.mpf(self.exponent.denominator)
        )
        return mpmath.iv.pi * base / self.divisor


Theta = Union[Angle, IrrationalTheta]

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_POWER_RE = re.compile(r"^2\^\((-?\d+)/(\d+)\)(?:/(\d+))?$")


def parse_theta(text: str) -> Theta:
    """Parse an angle descriptor: 'p/q pi' or '2^(a/b)/r pi'."""
    body = text.strip()
    if not body.endswith("pi"):
        raise ValueError(f"angle descriptor must end in 'pi': {text!r}")
    body = body[:-2].strip()
    m = _RATIONAL_RE.match(body) or _POWER_RE.match(body)
    if m is None:
        raise ValueError(f"cannot parse angle descriptor {text!r}")
    # every group after the first is a denominator or divisor
    if any(part is not None and int(part) == 0 for part in m.groups()[1:]):
        raise ValueError(f"zero denominator in angle descriptor {text!r}")
    if m.re is _RATIONAL_RE:
        num = int(m.group(1))
        den = int(m.group(2) or 1)
        return Angle(Fraction(num, den) % 2)
    exponent = Fraction(int(m.group(1)), int(m.group(2)))
    divisor = int(m.group(3) or 1)
    if exponent.denominator == 1:
        return Angle(Fraction(2 ** exponent.numerator, divisor) % 2)
    return IrrationalTheta(exponent, divisor)


def _theta_descriptor(theta: Theta) -> str:
    return str(theta) if isinstance(theta, Angle) else theta.descriptor


class _Rotator:
    """Rotate, then round half up: a float prefilter on each coordinate with
    the subclass's cos_f and sin_f, and its certified _fallback for one
    near a rounding tie."""

    def _fallback(self, a: int, b: int, im: bool) -> int:
        raise NotImplementedError

    def step(self, p: IntPair) -> IntPair:
        a, b = p
        try:
            slack = (abs(a) + abs(b) + 1) * _FLOAT_SLACK
            re_v = _half_up(a * self.cos_f - b * self.sin_f, slack)
            im_v = _half_up(a * self.sin_f + b * self.cos_f, slack)
        except OverflowError:
            re_v = im_v = None  # past float range there is no float answer
        if re_v is None:
            re_v = self._fallback(a, b, im=False)
        if im_v is None:
            im_v = self._fallback(a, b, im=True)
        return (re_v, im_v)


class _RationalRotator(_Rotator):
    """Rotation by a rational multiple of pi: float prefilter, exact
    cyclotomic arithmetic whenever a coordinate is near a tie."""

    def __init__(self, angle: Angle) -> None:
        self.angle = angle
        order = math.lcm(4, 2 * angle.pi_multiple.denominator)
        self.order = order
        self.cos_exact = angle_cos(angle, order)
        self.sin_exact = angle_sin(angle, order)
        self.half = CycloNum.from_rational(order, Fraction(1, 2))
        saved = mpmath.mp.prec
        try:
            mpmath.mp.prec = 128
            theta = mpmath.pi * angle.pi_multiple.numerator / angle.pi_multiple.denominator
            self.cos_f = float(mpmath.cos(theta))
            self.sin_f = float(mpmath.sin(theta))
        finally:
            mpmath.mp.prec = saved

    def _fallback(self, a: int, b: int, im: bool) -> int:
        if im:
            value = Fraction(a) * self.sin_exact + Fraction(b) * self.cos_exact
        else:
            value = Fraction(a) * self.cos_exact - Fraction(b) * self.sin_exact
        return certified_floor(value + self.half)


class _IntervalRotator(_Rotator):
    """Rotation by an interval-only angle: float prefilter, then doubling
    interval precision; an unresolved tie at the cap is an error."""

    def __init__(self, theta: IrrationalTheta) -> None:
        self.theta = theta
        saved = mpmath.iv.prec
        try:
            mpmath.iv.prec = 128
            box = theta.interval()
            c = mpmath.iv.cos(box)
            s = mpmath.iv.sin(box)
            self.cos_f = float((mpmath.mpf(c.a) + mpmath.mpf(c.b)) / 2)
            self.sin_f = float((mpmath.mpf(s.a) + mpmath.mpf(s.b)) / 2)
        finally:
            mpmath.iv.prec = saved

    def _fallback(self, a: int, b: int, im: bool) -> int:
        def enclose():
            angle_box = self.theta.interval()
            c = mpmath.iv.cos(angle_box)
            s = mpmath.iv.sin(angle_box)
            if im:
                return a * s + b * c + mpmath.iv.mpf("0.5")
            return a * c - b * s + mpmath.iv.mpf("0.5")

        verdict = refine(enclose, _INTERVAL_PREC_CAP, settled_floor)
        if verdict is None:
            raise UndecidableTieError(
                f"rounding of {(a, b)} under {self.theta.descriptor} "
                f"is still ambiguous at {_INTERVAL_PREC_CAP} bits"
            )
        return verdict


def _make_rotator(theta: Union[Theta, str]) -> _Rotator:
    if isinstance(theta, str):
        theta = parse_theta(theta)
    if isinstance(theta, Angle):
        return _RationalRotator(theta)
    return _IntervalRotator(theta)


def rotate_round(p: IntPair, theta: Union[Theta, str]) -> IntPair:
    """One step: rotate the integer point by theta, then round each
    coordinate to the nearest integer with half ties rounded up."""
    return _make_rotator(theta).step((int(p[0]), int(p[1])))


@dataclass(frozen=True)
class GridReport:
    """Aggregated occupancy of a disk experiment: for every cell the
    earliest generation at which any orbit placed a point there."""

    radius: int
    theta: str
    cells: dict[IntPair, int]
    unresolved: tuple[IntPair, ...]
    orbits: tuple[OrbitRecord, ...] = field(repr=False, default=())

    def max_modulus_sq(self) -> int:
        return max((x * x + y * y for x, y in self.cells), default=0)


def run_orbit(start: IntPair, theta: Union[Theta, str], budget: int = 1_000_000) -> OrbitRecord:
    """Iterate one start point until its orbit repeats or the budget ends."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    return orbit_shape(_make_rotator(theta).step, (int(start[0]), int(start[1])), budget)


def disk_points(radius: int) -> list[IntPair]:
    """All integer points with x^2 + y^2 <= radius^2, in (x, y) order."""
    r_sq = radius * radius
    return [
        (a, b)
        for a in range(-radius, radius + 1)
        for b in range(-radius, radius + 1)
        if a * a + b * b <= r_sq
    ]


def run_disk(radius: int, theta: Union[Theta, str], budget: int = 1_000_000) -> GridReport:
    """Iterate every lattice point of the disk and aggregate first-visit
    generations; starts whose orbit never repeated within the budget (or
    hit an undecidable tie) are listed as unresolved but still contribute
    the cells they reached."""
    if radius < 1:
        raise ValueError("radius must be positive")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if isinstance(theta, str):
        theta = parse_theta(theta)
    rotator = _make_rotator(theta)
    cells: dict[IntPair, int] = {}
    orbits = []
    unresolved = []
    for start in disk_points(radius):
        record = orbit_shape(rotator.step, start, budget)
        orbits.append(record)
        if record.period is None:
            unresolved.append(start)
        for point, step in record.visited:
            old = cells.get(point)
            if old is None or step < old:
                cells[point] = step
    return GridReport(
        radius, _theta_descriptor(theta), cells, tuple(unresolved), tuple(orbits)
    )


def grid_csv(report: GridReport) -> str:
    """The occupancy as CSV `x,y,first_generation`, rows sorted by (x, y);
    byte-stable for a given report."""
    lines = ["x,y,first_generation"]
    for (x, y), generation in sorted(report.cells.items()):
        lines.append(f"{x},{y},{generation}")
    return "\n".join(lines) + "\n"


def emit_grid(report: GridReport, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(grid_csv(report))

"""Empirical harness for the rounded rotation on the integer grid.

Every lattice point in a disk is iterated under "rotate by theta, then
round each coordinate to the nearest integer with half ties up", recording
when each orbit becomes periodic and which cells get occupied at which
generation.  The disk's orbits are found together on one successor map
(`orbit_shapes`), so each cell is stepped once.  A rational multiple of pi
steps on `StepKernel`, as a system of one size-1 unit block: a float
bracket, then Niven's rational values in integers, then the kernel's exact
cyclotomic fallback.  Other angles use the same float bracket and then
interval arithmetic with doubling precision and a hard cap.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Union

import mpmath

from .errors import UndecidableTieError
# certified_floor stays bound here for perfbench/layertrace.py's exact-fallback
# counter; a rational angle falls back through StepKernel, so none arrive
from .numerics import Angle, certified_floor, refine, settled_floor  # noqa: F401
from .rounding import RULES, ArgandPoint, ArgandRounding, RoundingKind
from .system import (
    JnfSystem,
    JordanBlock,
    OrbitRecord,
    orbit_shape,
    orbit_shapes,
    rounded_rotation,
)

IntPair = tuple[int, int]

_HALF_UP = ArgandRounding(RoundingKind.MINIMAL_ERROR_UP)
_ORIGIN = ArgandPoint(0, 0)

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


class _IntervalRotator:
    """Rotation by an interval-only angle: `rounded_rotation`, then doubling
    interval precision; an unresolved tie at the cap is an error."""

    def __init__(self, theta: IrrationalTheta) -> None:
        self.theta = theta
        saved = mpmath.iv.prec
        try:
            mpmath.iv.prec = 128
            box = theta.interval()
            c = mpmath.iv.cos(box)
            s = mpmath.iv.sin(box)
            cos_f = float((mpmath.mpf(c.a) + mpmath.mpf(c.b)) / 2)
            sin_f = float((mpmath.mpf(s.a) + mpmath.mpf(s.b)) / 2)
        finally:
            mpmath.iv.prec = saved
        self.step = rounded_rotation(RULES[_HALF_UP.kind].bracket, cos_f, sin_f, self._refine)

    def _refine(self, a: int, b: int) -> int:
        def enclose():
            box = self.theta.interval()
            return a * mpmath.iv.cos(box) - b * mpmath.iv.sin(box) + mpmath.iv.mpf("0.5")

        verdict = refine(enclose, _INTERVAL_PREC_CAP, settled_floor)
        if verdict is None:
            raise UndecidableTieError(
                f"the real part of {(a, b)} rotated by {self.theta.descriptor} "
                f"is still ambiguous at {_INTERVAL_PREC_CAP} bits"
            )
        return verdict


def _rotation_step(theta: Union[Theta, str]) -> Callable[[IntPair], IntPair]:
    if isinstance(theta, str):
        theta = parse_theta(theta)
    if not isinstance(theta, Angle):
        return _IntervalRotator(theta).step
    # StepKernel on one size-1 unit block, which never reads its start and
    # target: the block's update, and where it has no answer the exact step
    kernel = JnfSystem((JordanBlock(1, 1, theta),), (_ORIGIN,), (_ORIGIN,), _HALF_UP).kernel
    (_successor, update, _block), = kernel.plan
    step = kernel.step
    return lambda p: update(p, (0, 0)) or step((p,))[0]


# rotate_round's steps, one per parsed angle; run_disk builds its own step
# each call, so no angle's step outlives a disk
_memo_rotation_step = lru_cache(maxsize=64)(_rotation_step)


def rotate_round(p: IntPair, theta: Union[Theta, str]) -> IntPair:
    """One step: rotate the integer point by theta, then round each
    coordinate to the nearest integer with half ties rounded up.  The step
    is built once per angle and reused by later calls."""
    if isinstance(theta, str):
        theta = parse_theta(theta)
    return _memo_rotation_step(theta)((int(p[0]), int(p[1])))


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
    return orbit_shape(_rotation_step(theta), (int(start[0]), int(start[1])), budget)


def disk_points(radius: int) -> list[IntPair]:
    """All integer points with x^2 + y^2 <= radius^2, in (x, y) order."""
    r_sq = radius * radius
    points = []
    for a in range(-radius, radius + 1):
        half = math.isqrt(r_sq - a * a)
        points.extend((a, b) for b in range(-half, half + 1))
    return points


def run_disk(radius: int, theta: Union[Theta, str], budget: int = 1_000_000) -> GridReport:
    """Iterate every lattice point of the disk and aggregate first-visit
    generations; starts whose orbit never repeated within the budget (or
    hit an undecidable tie) are listed as unresolved but still contribute
    the cells they reached.  Each cell is stepped once, however many orbits
    pass through it."""
    if radius < 1:
        raise ValueError("radius must be positive")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if isinstance(theta, str):
        theta = parse_theta(theta)
    cells, orbits = orbit_shapes(_rotation_step(theta), disk_points(radius), budget)
    unresolved = tuple(record.start for record in orbits if record.period is None)
    return GridReport(radius, _theta_descriptor(theta), cells, unresolved, orbits)


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

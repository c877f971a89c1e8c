"""System descriptions, orbit stepping and the integer step kernel, verdicts,
the shared decision driver, and the orbit-shape loop."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Optional, Protocol, Union

from .errors import InternalInvariantError, UndecidableTieError
from .numerics import Angle, CycloNum, Rational, embed_polar
from .numerics import unit_circle, unit_point
from .rounding import (
    ArgandRounding,
    GridPoint,
    PolarRounding,
    RULES,
    RoundingSpec,
    _fraction,
    checked_int,
    grid_point,
    grid_steps,
    grid_units,
    point_value,
    round_value,
)


@dataclass(frozen=True)
class JordanBlock:
    size: int
    eigen_modulus: Fraction
    eigen_angle: Angle

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigen_modulus", _fraction(self.eigen_modulus))
        if checked_int(self.size, "block size") < 1:
            raise ValueError("block size must be positive")
        if self.eigen_modulus.numerator < 0:
            raise ValueError("eigenvalue modulus must be nonnegative")


@dataclass(frozen=True)
class JnfSystem:
    """A Jordan-form system: block-diagonal dynamics with per-step rounding.

    Within a block, coordinate j is fed by coordinate j+1 (the last block
    coordinate is autonomous). Initial and target are stored as grid points,
    and in grid units (`rounding.grid_units`) as initial_units and
    target_units, encoded once here.
    """

    blocks: tuple[JordanBlock, ...]
    initial: tuple[GridPoint, ...]
    target: tuple[GridPoint, ...]
    rounding: RoundingSpec
    initial_units: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    target_units: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("a system needs at least one dimension")
        dim = sum(b.size for b in self.blocks)
        if len(self.initial) != dim or len(self.target) != dim:
            raise ValueError("initial/target length must match total dimension")
        spec = self.rounding
        units = []
        for pt in (*self.initial, *self.target):
            x = grid_units(pt, spec)
            if x is None:
                raise ValueError(f"point {pt} is not admissible under {spec}")
            units.append(x)
        object.__setattr__(self, "initial_units", tuple(units[:dim]))
        object.__setattr__(self, "target_units", tuple(units[dim:]))

    @property
    def dimension(self) -> int:
        return sum(b.size for b in self.blocks)

    @property
    def is_hyperbolic(self) -> bool:
        """No eigenvalue has modulus one.  The deciders' step caps are then
        proved bounds on the number of distinct states, else safety nets."""
        return all(b.eigen_modulus != 1 for b in self.blocks)

    def field_order(self) -> int:
        parts = [4]
        if isinstance(self.rounding, PolarRounding):
            parts.append(2 * self.rounding.angle_resolution)
        for b in self.blocks:
            parts.append(2 * b.eigen_angle.denominator)
        return math.lcm(*parts)

    def block_slices(self) -> list[tuple[int, int]]:
        out = []
        at = 0
        for b in self.blocks:
            out.append((at, at + b.size))
            at += b.size
        return out

    def unit_block(self, index: int) -> tuple[JordanBlock, int, int]:
        """The indexed block, whose eigenvalue must have modulus one, with
        its coordinate range."""
        modulus = self.blocks[index].eigen_modulus
        if modulus != 1:
            raise ValueError(f"block {index} has eigenvalue modulus {modulus}, not one")
        return (self.blocks[index], *self.block_slices()[index])

    def eigen_value(self, block: JordanBlock, order: Optional[int] = None) -> CycloNum:
        order = order or self.field_order()
        return embed_polar(block.eigen_modulus, block.eigen_angle, order)

    @cached_property
    def kernel(self) -> "StepKernel":
        """The system's integer step kernel, built on first use."""
        return StepKernel(self)


# A float bracket's half-width is STEP_SLACK * (m + 1), with m the float
# magnitude bound each StepKernel helper computes; see StepKernel.
STEP_SLACK = 2.0**-44


def rounded_rotation(bracket: Callable, cos: float, sin: float,
                     open_part: Callable[[int, int], Optional[int]]) -> Callable:
    """A rounded unit rotation on integer pairs: x = (a, b) to the roundings
    of a*cos - b*sin and, as the same form at (b, -a), a*sin + b*cos.  A
    `KindRule.bracket` reads each from floats; one it leaves open, and both
    past float range, is open_part of its pair, and None from that makes the
    step None.  This is StepKernel's Argand bracket with r = 1 and no second
    term, so its slack derivation covers it while cos and sin lie within 22u
    of the true values.  A second argument, the successor term of a kernel
    update, is ignored: a lone rotation has none."""

    def rotate(x, _successor=None):
        a, b = x
        try:
            slack = (abs(a) + abs(b) + 1) * STEP_SLACK
            re = bracket(a * cos - b * sin, slack)
            im = bracket(a * sin + b * cos, slack)
        except OverflowError:
            re = im = None
        if re is None:
            re = open_part(a, b)
        if re is not None and im is None:
            im = open_part(b, -a)
        return None if re is None or im is None else (re, im)

    return rotate


# 2*cos(pi*t/6) for the t in [0, 12) where it is rational (Niven)
_TWO_COS = {0: 2, 2: 1, 3: 0, 4: -1, 6: -2, 8: -1, 9: 0, 10: 1}

_ORIGIN = (0, 0)


def _fits(magnitude: float) -> bool:
    """Every float sum bounded by twice the magnitude stays finite."""
    return 4.0 * magnitude < math.inf


class StepKernel:
    """One rounded step of a Jordan-form system on integer coordinates.

    A coordinate is a pair in grid units: (a, b) for ArgandPoint(a*g, b*g)
    and (k, i) for PolarPoint(k*g, i); `initial` and `target` are the
    system's start and target in these units, as the system encoded them.
    Coordinate j becomes the rounding of w = lambda*x_j + x_(j+1) (no
    second term at the end of a block), with lambda = (p/q)*zeta^m, zeta = e^(2*pi*i/N)
    and N the system's field order.  Each update is decided in integers
    where w is rational in the grid's terms, by a float bracket elsewhere,
    and by the exact cyclotomic value through `round_value` when the
    bracket does not settle or a float would leave its range (`exact`
    gives that value).  The kind's entry in `rounding.RULES` rounds each
    integer ratio and float bracket.

    Argand, lambda on an axis (m a multiple of N/4; by Niven exactly the
    rotations that keep the grid): both parts are integers over q.  Other
    angles: each part r*(a*cos - b*sin) + c (or r*(a*sin + b*cos) + d) is
    read in integers where Niven's theorem makes it rational
    (`_rational_turn`), and elsewhere bracketed in floats;
    lambda*x_j = 0 leaves w = x_(j+1) on the grid.  A lone unit rotation (a
    size-1 block with r = 1) is `rounded_rotation`, float bracket first: the
    fast order for the rotation experiments, where most parts are irrational.

    Polar: |w|^2/g^2 = (X^2 + Y^2 + X*Y*2cos(phi))/q^2 with X = p*k_j,
    Y = q*k_(j+1) and phi the angle between the two terms.  It is rational
    when 2cos(phi) is in {0, +-1, +-2} or a term is zero, and rounds in
    integers then; otherwise it is irrational, and a settled float bracket
    gives its floor (and 4V's, for minimal error).  The angle index of a
    single term is an exact index shift, the nearest grid angle to m
    field steps with ties counterclockwise; for two terms a float guess k
    is certified by the scores nearest_angle_index climbs,
    score(k) ~ X*cos(A1 - B) + Y*cos(A2 - B) with B = k*N/(2R), when
    score(k) - score(k +- 1) both exceed their slack, so k is the strict
    top of a unimodal sequence.

    Float slack, with u = 2^-53 and each bracket's magnitude bound m (the
    sum of the absolute values of its integer terms, over the common
    denominator where there is one):
    - an int converts with error u|x|, also past 2^53, and one past float
      range raises OverflowError, which sends the update exact;
    - a table cos or sin is within 22u of the true value: its argument
      2*pi*j/N carries three roundings of a value below 2*pi (19u) and
      libm adds at most 2u;
    - r enters only as the integers p and q, multiplied into the integer
      terms before conversion, so it adds only the conversion of q (u
      relative) and the division by it (u relative);
    - a product of a converted int and a table entry is then within 24u of
      the exact term; n terms add n - 1 roundings of u*m; the squared form
      of the polar modulus is two terms whose integer parts X^2 + Y^2 and
      2XY are formed exactly before conversion.
    An Argand part (three terms, a division, and + 1/2 for minimal error)
    is within 29u*(m + 1), the polar modulus (two terms, a division, times
    4 exactly) within 28u*(m + 1), and a score difference (four terms,
    with X + Y for m) within 54u*(X + Y); forming v -+ slack adds
    u*(|v| + slack).  The slack 2^-44*(m + 1) is 512u*(m + 1), and
    computing m in floats loses at most 6u of it, so every bracket holds
    the exact value with a factor of 8 to spare.
    Products of ints with table entries never underflow.  `_fits` keeps
    every partial sum finite.
    """

    def __init__(self, system: JnfSystem) -> None:
        spec = system.rounding
        self.system = system
        self.spec = spec
        self.polar = isinstance(spec, PolarRounding)
        self.rule = RULES[spec.modulus_kind if self.polar else spec.kind]
        self.initial = system.initial_units
        self.target = system.target_units

    # the field and the updates are built on the first step, so a run that
    # concludes on its start builds neither

    @cached_property
    def order(self) -> int:
        return self.system.field_order()

    @cached_property
    def circle(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The field's float cos and sin tables; an Argand block reads one
        entry, from unit_point, instead."""
        return unit_circle(self.order)

    @cached_property
    def plan(self) -> tuple:
        """Per coordinate: (successor index or None, update, block index)."""
        system = self.system
        plan = []
        for b, ((start, end), block) in enumerate(zip(system.block_slices(), system.blocks)):
            update = self._polar_update(block) if self.polar else self._argand_update(block)
            for j in range(start, end):
                plan.append((j + 1 if j + 1 < end else None, update, b))
        return tuple(plan)

    # -- grid points <-> integer coordinates

    def encode(self, state: Sequence[GridPoint]) -> tuple[tuple[int, int], ...]:
        spec = self.spec
        return tuple(grid_units(pt, spec) for pt in state)

    def decode(self, state: Sequence[tuple[int, int]]) -> tuple[GridPoint, ...]:
        spec = self.spec
        return tuple(grid_point(x, spec) for x in state)

    # -- the step

    def step(self, state: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
        out = []
        for j, (nxt, update, _b) in enumerate(self.plan):
            y = state[nxt] if nxt is not None else _ORIGIN
            out.append(update(state[j], y) or self._exact_round(state, j))
        return tuple(out)

    def exact(self, state: Sequence[tuple[int, int]], j: int) -> CycloNum:
        """The exact w = lambda*v_j + v_(j+1) for an integer state, in the
        system's field."""
        order = self.order
        nxt, _update, b = self.plan[j]
        lam = self.system.eigen_value(self.system.blocks[b], order)
        w = lam * point_value(grid_point(state[j], self.spec), self.spec, order)
        if nxt is not None:
            w = w + point_value(grid_point(state[nxt], self.spec), self.spec, order)
        return w

    def _exact_round(self, state: Sequence[tuple[int, int]], j: int) -> tuple[int, int]:
        return self.encode((round_value(self.exact(state, j), self.spec),))[0]

    # -- Argand updates

    def _argand_update(self, block: JordanBlock):
        ratio, bracket = self.rule.ratio, self.rule.bracket
        p, q = block.eigen_modulus.numerator, block.eigen_modulus.denominator
        quarter = self.order // 4
        m = _field_steps(block.eigen_angle, self.order)
        if m % quarter == 0:
            turn = m // quarter

            def axis(x, y):
                a, b = x
                if turn == 1:
                    a, b = -b, a
                elif turn == 2:
                    a, b = -a, -b
                elif turn == 3:
                    a, b = b, -a
                return (ratio(p * a + q * y[0], q), ratio(p * b + q * y[1], q))

            return axis
        cos, sin = unit_point(m, self.order)
        rational_turn = _rational_turn(block.eigen_angle)

        def part(a, b, c):
            # r*(a*cos - b*sin) + c rounded, or None
            t = rational_turn(a, b)
            if t is not None:
                den = q * t[1]
                return ratio(p * t[0] + c * den, den)
            try:
                fa, fb, fc, fq = float(p * a), float(p * b), float(q * c), float(q)
            except OverflowError:
                return None
            total = abs(fa) + abs(fb) + abs(fc)
            if not _fits(total):
                return None
            slack = (total / fq + 1.0) * STEP_SLACK
            return bracket((fa * cos - fb * sin + fc) / fq, slack)

        def rotate(x, y):
            a, b = x
            if p == 0 or (a == 0 and b == 0):
                return y
            re = part(a, b, y[0])
            im = None if re is None else part(b, -a, y[1])  # r*(a*sin + b*cos) + d
            return None if im is None else (re, im)

        if block.size > 1 or block.eigen_modulus != 1:
            return rotate
        # part reads Niven's rational values in integers; the origin stays put
        return rounded_rotation(bracket, cos, sin,
                                lambda a, b: 0 if a == b == 0 else part(a, b, 0))

    # -- polar updates

    def _polar_update(self, block: JordanBlock):
        modulus, irrational_modulus = self.rule.modulus, self.rule.irrational_modulus
        order = self.order
        p, q = block.eigen_modulus.numerator, block.eigen_modulus.denominator
        m = _field_steps(block.eigen_angle, order)
        count = 2 * self.spec.angle_resolution
        stride = order // count  # field steps per grid angle
        shift = (2 * m + stride) // (2 * stride)  # nearest grid angle to m, ties up
        qq = q * q
        cos = self.circle[0]
        two_cos = {t * order // 12: v for t, v in _TWO_COS.items() if t * order % 12 == 0}

        def polar(x, y):
            k, i = x
            l, h = y
            big_x, big_y = p * k, q * l
            if big_x == 0:
                return y
            if big_y == 0:
                steps = modulus(big_x * big_x, qq)
                return (steps, (i + shift) % count) if steps else _ORIGIN
            a1, a2 = m + i * stride, h * stride
            d = (a1 - a2) % order
            tc = two_cos.get(d)
            squares = big_x * big_x + big_y * big_y
            if tc is not None:
                steps = modulus(squares + big_x * big_y * tc, qq)
            else:
                try:
                    fs, fx, fq = float(squares), float(2 * big_x * big_y), float(qq)
                except OverflowError:
                    return None
                if not _fits(fs + fx):
                    return None
                slack = ((fs + fx) / fq + 1.0) * STEP_SLACK
                steps = irrational_modulus((fs + fx * cos[d]) / fq, slack)
                if steps is None:
                    return None
            if steps == 0:
                return _ORIGIN
            index = self._top_angle(big_x, big_y, a1, a2, stride, count)
            return None if index is None else (steps, index)

        return polar

    def _top_angle(self, big_x: int, big_y: int, a1: int, a2: int, stride: int,
                   count: int) -> Optional[int]:
        """The grid angle index nearest to X*zeta^a1 + Y*zeta^a2 for X, Y > 0
        when floats certify it, else None."""
        order = self.order
        cos, sin = self.circle
        try:
            fx, fy = float(big_x), float(big_y)
        except OverflowError:
            return None
        if not _fits(fx + fy):
            return None
        re = fx * cos[a1 % order] + fy * cos[a2 % order]
        im = fx * sin[a1 % order] + fy * sin[a2 % order]
        k = round(math.atan2(im, re) * count / (2.0 * math.pi)) % count
        b1, b2 = a1 - k * stride, a2 - k * stride
        top = fx * cos[b1 % order], fy * cos[b2 % order]
        slack = (fx + fy + 1.0) * STEP_SLACK
        for side in (stride, -stride):
            drop = (top[0] - fx * cos[(b1 - side) % order]
                    + top[1] - fy * cos[(b2 - side) % order])
            if not drop > slack:
                return None
        return k


def _rational_turn(angle: Angle) -> Callable[[int, int], Optional[tuple[int, int]]]:
    """For an angle off the axes, the map from integers (a, b) to the value
    a*cos(angle) - b*sin(angle), as an integer numerator and positive
    denominator, where Niven's theorem shows it rational, and to None
    elsewhere.  cos is rational only at denominator 3, where it is +-1/2
    and sin is not, and sin only at denominator 6, where it is +-1/2; at
    denominator 4 both are +-sqrt(2)/2 and the value vanishes on one
    line."""
    t = angle.denominator
    turn = angle.numerator  # the angle is turn/t * pi, turn < 2t
    if t == 3:
        c = 1 if turn in (1, 5) else -1  # cos(pi/3) = cos(5pi/3) = 1/2
        return lambda a, b: (a * c, 2) if b == 0 else None
    if t == 6:
        s = -1 if turn < 6 else 1  # minus sin: sin is 1/2 in (0, pi)
        return lambda a, b: (b * s, 2) if a == 0 else None
    if t == 4:
        quadrant = turn // 2  # 1/4, 3/4, 5/4, 7/4 pi
        cos_sign = 1 if quadrant in (0, 3) else -1
        sin_sign = 1 if quadrant in (0, 1) else -1
        return lambda a, b: (0, 1) if cos_sign * a == sin_sign * b else None
    return lambda a, b: None


def _field_steps(angle: Angle, order: int) -> int:
    """The m with angle = 2*pi*m/order; the order must host the angle."""
    return angle.numerator * order // (2 * angle.denominator)


def step_with_intermediates(
    system: JnfSystem, state: tuple[GridPoint, ...]
) -> tuple[tuple[GridPoint, ...], tuple[CycloNum, ...]]:
    """One rounded step of grid points, and the exact pre-rounding values
    in the system's field, from the kernel's `exact`."""
    kernel = system.kernel
    ints = kernel.encode(state)
    exact = tuple(kernel.exact(ints, j) for j in range(len(ints)))
    return kernel.decode(kernel.step(ints)), exact


def step(system: Union[JnfSystem, RationalSystem], state: tuple) -> tuple:
    """One rounded step of a Jordan-form or rational-matrix system's points,
    on the system's kernel."""
    kernel = system.kernel
    return kernel.decode(kernel.step(kernel.encode(state)))


def simulate(system: Union[JnfSystem, RationalSystem], steps: int) -> list[tuple]:
    """The orbit from the stored initial point, inclusive: steps+1 states,
    stepped on the system's kernel and decoded one by one."""
    kernel = system.kernel
    state = kernel.initial
    out = [system.initial]
    for _ in range(steps):
        state = kernel.step(state)
        out.append(kernel.decode(state))
    return out


@dataclass(frozen=True)
class RationalSystem:
    """x' = round(M x) with a rational matrix and componentwise real rounding.
    Initial and target are also stored in grid units, as initial_units and
    target_units, encoded once here."""

    matrix: tuple[tuple[Fraction, ...], ...]
    initial: tuple[Fraction, ...]
    target: tuple[Fraction, ...]
    rounding: ArgandRounding
    initial_units: tuple[int, ...] = field(init=False, repr=False, compare=False)
    target_units: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.rounding, ArgandRounding):
            raise ValueError("a rational-matrix instance needs componentwise rounding")
        object.__setattr__(self, "matrix",
                           tuple(tuple(map(_fraction, row)) for row in self.matrix))
        object.__setattr__(self, "initial", tuple(map(_fraction, self.initial)))
        object.__setattr__(self, "target", tuple(map(_fraction, self.target)))
        n = len(self.matrix)
        if n == 0:
            raise ValueError("a system needs at least one dimension")
        if any(len(row) != n for row in self.matrix):
            raise ValueError("matrix must be square")
        if len(self.initial) != n or len(self.target) != n:
            raise ValueError("initial/target length must match dimension")
        g = self.rounding.granularity
        units = []
        for v in (*self.initial, *self.target):
            k = grid_steps(v, g)
            if k is None:
                raise ValueError(f"{v} is not on the granularity-{g} grid")
            units.append(k)
        object.__setattr__(self, "initial_units", tuple(units[:n]))
        object.__setattr__(self, "target_units", tuple(units[n:]))

    @cached_property
    def kernel(self) -> "RationalKernel":
        """The system's integer step, built on first use."""
        return RationalKernel(self)


class IntegerMatrix:
    """A rational matrix M held as the integer matrix D*M, with D the least
    common denominator of M's entries: `times(k)` gives the integer vector
    D*M*k for an integer vector k."""

    def __init__(self, matrix: Sequence[Sequence[Rational]]) -> None:
        den = math.lcm(*(v.denominator for row in matrix for v in row))
        self.den = den
        # each row as its (column, entry) pairs with a nonzero entry
        self.rows = tuple(
            tuple((j, v.numerator * (den // v.denominator)) for j, v in enumerate(row) if v)
            for row in matrix
        )

    @classmethod
    def of_integers(cls, rows: Sequence[Sequence[int]], den: int) -> "IntegerMatrix":
        """The matrix M with D*M the integer rows and D = den, which the
        caller gives as the least such denominator."""
        matrix = cls.__new__(cls)
        matrix.den = den
        matrix.rows = tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in rows)
        return matrix

    def times(self, k: Sequence[int]) -> list[int]:
        out = []
        for row in self.rows:
            acc = 0
            for j, c in row:
                acc += c * k[j]
            out.append(acc)
        return out


class RationalKernel:
    """A rational-matrix system's step on integer coordinates: the state
    x = k*g is the integer vector k in grid units.  M x / g = M k, and every
    rounding kind commutes with scaling by g, so k' is M k rounded to
    integers: coordinate i is RULES[kind].ratio((A k)_i, D), with A = D*M
    the matrix as an `IntegerMatrix`.  `initial` and `target` are the
    system's start and target in grid units, as the system encoded them."""

    def __init__(self, system: RationalSystem) -> None:
        self.g = system.rounding.granularity
        self.ratio = RULES[system.rounding.kind].ratio
        self.matrix = IntegerMatrix(system.matrix)
        self.initial = system.initial_units
        self.target = system.target_units

    def encode(self, state: Sequence[Rational]) -> tuple[int, ...]:
        g = self.g
        return tuple(grid_steps(v, g) for v in state)

    def decode(self, state: Sequence[int]) -> tuple[Fraction, ...]:
        g = self.g
        return tuple(k * g for k in state)

    def step(self, state: tuple[int, ...]) -> tuple[int, ...]:
        ratio, den = self.ratio, self.matrix.den
        return tuple([ratio(v, den) for v in self.matrix.times(state)])


def rational_simulate(system: RationalSystem, steps: int) -> list[tuple[Fraction, ...]]:
    return simulate(system, steps)


# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class Reached:
    """The target grid point is hit, first at this step (step 0 counts)."""

    step: int


@dataclass(frozen=True)
class CycleDetected:
    """No conclusion other than repetition: step_bound is the repeat step when
    an exact state repeat was seen, else the pigeonhole bound in force."""

    step_bound: int


@dataclass(frozen=True)
class EscapedRadius:
    dimension: int
    radius: Fraction


@dataclass(frozen=True)
class DivergedPastTarget:
    dimension: int


@dataclass(frozen=True)
class StabilizedMismatch:
    dimension: int


Certificate = Union[CycleDetected, EscapedRadius, DivergedPastTarget, StabilizedMismatch]


@dataclass(frozen=True)
class NotReached:
    certificate: Certificate


Verdict = Union[Reached, NotReached]


@dataclass(frozen=True)
class Undecided:
    """The instance falls outside every decidable fragment this tool covers."""

    reason: str


# ---------------------------------------------------------------------------
# The orbit loop and the lock-step driver


class BlockAnalyzer(Protocol):
    """Observes one Jordan block along the shared orbit and may certify NO.

    States are the system kernel's integer coordinates in grid units, one
    pair per dimension: (a, b) for ArgandPoint(a*g, b*g), (k, i) for
    PolarPoint(k*g, i).  observe_initial sees the starting state; observe
    sees each transition prev -> new, step_index counting from 0.  An
    analyzer that needs the exact pre-rounding value of coordinate j asks
    the kernel for it, `kernel.exact(prev, j)`.  A returned certificate
    must hold forever (the driver has already target-checked the current
    state).
    """

    def observe_initial(self, state: Sequence[tuple[int, int]]) -> Optional[Certificate]:
        ...

    def observe(
        self,
        step_index: int,
        prev: Sequence[tuple[int, int]],
        new: Sequence[tuple[int, int]],
    ) -> Optional[Certificate]:
        ...


# Repeat detection stores every state in a dict up to this many states, then
# drops the dict and continues with Brent's constant-memory cycle check.
STATE_STORE_LIMIT = 2_000_000


def iterate(
    step: Callable[[Any], Any],
    start: Any,
    target: Any,
    observers: Sequence[BlockAnalyzer],
    *,
    cap: int,
    cap_is_state_bound: bool,
) -> Verdict:
    """Run the orbit of start under step until a conclusion.

    step is a plain state -> state map, the same contract as
    `orbit_shapes`; observers follow BlockAnalyzer.  Conclusions, in order
    of checking per step: target hit, an observer certificate, an exact
    state repeat.  The cap is checked before each step.
    cap_is_state_bound True means the cap is a proved bound on the number
    of distinct reachable states, so reaching it without a repeat is a
    sound cycle conclusion; False makes it an internal error.

    Repeats are found exactly by a dict of every state seen while it holds
    fewer than STATE_STORE_LIMIT states.  Past that, Brent's tortoise is
    saved at power-of-two distances; when a later state equals it, the
    states in between, all target-checked and observed, recur forever.
    """
    if start == target:
        return Reached(0)
    for observer in observers:
        cert = observer.observe_initial(start)
        if cert is not None:
            return NotReached(cert)
    visited: Optional[dict] = {start: 0}
    tortoise, power, lam = None, 1, 0
    state = start
    i = 0
    while True:
        if i >= cap:
            if cap_is_state_bound:
                return NotReached(CycleDetected(cap))
            raise InternalInvariantError(
                f"no conclusion within the resource bound of {cap} steps"
            )
        new_state = step(state)
        i += 1
        if new_state == target:
            return Reached(i)
        for observer in observers:
            cert = observer.observe(i - 1, state, new_state)
            if cert is not None:
                return NotReached(cert)
        if visited is not None:
            if new_state in visited:
                return NotReached(CycleDetected(i))
            if len(visited) < STATE_STORE_LIMIT:
                visited[new_state] = i
            else:
                visited, tortoise = None, new_state
        else:
            lam += 1
            if new_state == tortoise:
                return NotReached(CycleDetected(i))
            if lam == power:
                tortoise, power, lam = new_state, 2 * power, 0
        state = new_state


@dataclass(slots=True)
class OrbitRecord:
    """One start point's orbit shape: the start, the steps before its cycle
    and the cycle length (None when the budget ran out or a tie was
    undecidable, the transient then counting the steps that completed)."""

    start: Any
    transient: int
    period: Optional[int]


_TIE = -1  # the succ entry of a state whose step raised UndecidableTieError


def orbit_shapes(
    step: Callable[[Any], Any], starts: Sequence[Any], budget: int
) -> tuple[dict[Any, int], tuple[OrbitRecord, ...]]:
    """The orbits of many starts under one plain state -> state step, which
    runs at most once per distinct state.

    Returns every state within `budget` steps of a start with the first
    generation at which any start reaches it, and one `OrbitRecord` per
    start, in order, holding only the start, transient and period. Each
    start's record is what iterating it alone gives: the orbit stops at its
    first repeat, after `budget` steps, or at a state whose step raises
    UndecidableTieError (unresolved at the last completed step).

    Each state is hashed once, when the sweep first reaches it, into a
    dense id: the distinct starts take 0..u-1 and each new state the next
    id, and the rest of the work reads lists indexed by id. The sweep
    steps one whole level before the next and appends a level's new states
    in order, so every level is one id range and the states are stepped in
    id order. Hence `succ[i]` is the successor of id i, and the ids past
    the end of `succ` are exactly the states that no start's orbit steps.
    """
    index: dict[Any, int] = {}
    start_ids = [index.setdefault(start, len(index)) for start in starts]
    states = list(index)
    distinct = len(states)
    # level sweep from all starts at once: level k + 1 is the states first
    # reached from level k, so each state is stepped at its first generation
    generations = [0] * distinct
    succ: list[int] = []
    ties: list[int] = []
    lo, hi, k = 0, distinct, 0
    while lo < hi and k < budget:
        k += 1
        n = hi
        for state in states[lo:hi]:
            try:
                new_state = step(state)
            except UndecidableTieError:
                ties.append(len(succ))
                succ.append(_TIE)
                continue
            j = index.setdefault(new_state, n)
            if j == n:
                states.append(new_state)
                n += 1
            succ.append(j)
        generations += [k] * (n - hi)
        lo, hi = hi, n
    # path labelling: tails[i] and periods[i] are the steps from i to its
    # cycle and the cycle's period, or the steps to a state with no
    # successor (a tie, or past every start's budget) and period 0. -1 is
    # unlabelled, and a walk marks its own states -2 - (index along it)
    # until it ends, so one read per state tells a label from a closing cycle
    stepped = len(succ)
    tails = [-1] * stepped + [0] * (len(states) - stepped)
    for i in ties:
        tails[i] = 0
    periods = [0] * len(states)
    for first in range(distinct):
        if tails[first] != -1:
            continue
        path: list[int] = []
        i, tail = first, -1
        while tail == -1:
            tails[i] = -2 - len(path)
            path.append(i)
            i = succ[i]
            tail = tails[i]
        if tail < -1:  # the walk met itself: the rest of its path is a cycle
            at = -2 - tail
            period = len(path) - at
            for member in path[at:]:
                tails[member], periods[member] = 0, period
            del path[at:]
            tail = 0
        else:
            period = periods[i]
        for member in reversed(path):
            tail += 1
            tails[member], periods[member] = tail, period
    # a start iterated alone runs at most `budget` steps: a stop past them,
    # or a cycle it would close later, leaves it unresolved at `budget`
    records = []
    for start, i in zip(starts, start_ids):
        tail, period = tails[i], periods[i] or None
        if period is None:
            tail = min(tail, budget)
        elif tail + period > budget:
            tail, period = budget, None
        records.append(OrbitRecord(start, tail, period))
    return dict(zip(states, generations)), tuple(records)


def orbit_shape(step: Callable[[Any], Any], start: Any, budget: int) -> OrbitRecord:
    """Iterate a plain state -> state step from start until a state repeats
    or budget steps have run: the one-start case of `orbit_shapes`."""
    return orbit_shapes(step, (start,), budget)[1][0]


def run_lock_step(
    system: JnfSystem,
    analyzers: Sequence[BlockAnalyzer],
    *,
    step_cap: int,
    cap_is_state_bound: bool,
) -> Verdict:
    """Drive the shared orbit of a Jordan-form system on its kernel's
    integer coordinates, feeding every analyzer, until a conclusion (see
    iterate)."""
    kernel = system.kernel
    return iterate(
        kernel.step,
        kernel.initial,
        kernel.target,
        analyzers,
        cap=step_cap,
        cap_is_state_bound=cap_is_state_bound,
    )


class _LeavesBall:
    """Reports EscapedRadius on the first coordinate outside the ball; the
    start is not checked."""

    def __init__(self, radius: Fraction, outside: Callable[[Any], bool]) -> None:
        self.radius = radius
        self.outside = outside

    def observe_initial(self, state: Sequence) -> Optional[Certificate]:
        return None

    def observe(self, step_index, prev, new) -> Optional[Certificate]:
        for d, v in enumerate(new):
            if self.outside(v):
                return EscapedRadius(d, self.radius)
        return None


def _outside_ball(
    system: Union[JnfSystem, RationalSystem], radius: Fraction
) -> Callable[[Any], bool]:
    """The test for one state coordinate, in the kernel's grid units,
    outside the ball: an integer, or a pair of integers."""
    g = system.rounding.granularity
    if isinstance(system, RationalSystem):
        # |k|*g exceeds the radius exactly when |k| exceeds floor(radius/g)
        bound = math.floor(radius / g)
        return lambda k: abs(k) > bound
    # integer squares exceed (radius/g)^2 exactly when they exceed its floor
    bound = math.floor((radius / g) ** 2)
    if isinstance(system.rounding, PolarRounding):
        return lambda x: x[0] * x[0] > bound
    return lambda x: x[0] * x[0] + x[1] * x[1] > bound


def brute_force_decide(
    system: Union[JnfSystem, RationalSystem],
    ball_bound: Optional[Fraction] = None,
    step_bound: int = 1_000_000,
) -> Verdict:
    """Reference decision by plain enumeration with exact repeat detection.

    If ball_bound is given, leaving the ball is reported as EscapedRadius; the
    caller asserts that bound confines every orbit that can still reach the
    target. Hitting step_bound without a repeat yields CycleDetected at the
    bound; the caller picks step_bound large enough for that to be sound.
    States meet only each other and the target, so the orbit runs on the
    kernel's integer coordinates.
    """
    kernel = system.kernel
    observers = []
    if ball_bound is not None:
        radius = Fraction(ball_bound)
        observers.append(_LeavesBall(radius, _outside_ball(system, radius)))
    return iterate(
        kernel.step,
        kernel.initial,
        kernel.target,
        observers,
        cap=step_bound,
        cap_is_state_bound=True,
    )

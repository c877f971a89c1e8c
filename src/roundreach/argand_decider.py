"""Deciders for componentwise rounding that never grows, or never shrinks,
the modulus of a unit-eigenvalue block.

The case split rests on which of sin, cos, tan are rational at a rational
multiple of pi.  A unit eigenvalue on a right-angle multiple maps grid
points to grid points, so no rounding ever happens; any other unit
eigenvalue rounds at every nonzero step, which forces the modulus strictly
down (truncation) or strictly up (expansion) on the grid.  Everything else
follows from watching the bottom-most nonzero coordinate of each block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InternalInvariantError
from .hyperbolic import Fragment, RadiusTable, decide_by_blocks
from .numerics import Angle, CycloNum, ceil_sqrt, floor_sqrt
from .rounding import (
    ArgandPoint,
    ArgandRounding,
    RoundingKind,
    point_value,
)
from .system import (
    Certificate,
    DivergedPastTarget,
    JnfSystem,
    JordanBlock,
    StabilizedMismatch,
    Verdict,
)


@dataclass(frozen=True)
class AngleClass:
    """Rationality profile of sin, cos, tan at a rational multiple of pi.

    tan_rational is None exactly when cos vanishes there.
    """

    sin_rational: bool
    cos_rational: bool
    tan_rational: Optional[bool]
    axis_multiple_90: bool


def niven_classify(angle: Angle) -> AngleClass:
    """Classify by the reduced denominator q of the angle as (p/q) pi.

    sin is rational only at values 0, 1/2, 1 in absolute value (q in
    {1, 2, 6}), cos correspondingly at q in {1, 2, 3}, and tan only at 0
    and 1 in absolute value (q in {1, 4}), undefined at q = 2.
    """
    q = angle.pi_multiple.denominator
    return AngleClass(
        sin_rational=q in (1, 2, 6),
        cos_rational=q in (1, 2, 3),
        tan_rational=None if q == 2 else q in (1, 4),
        axis_multiple_90=q in (1, 2),
    )


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


def _divergence_due(
    value_sq: Fraction, above_sq: Fraction, above_target_sq: Fraction
) -> int:
    """Steps after which the coordinate above a constant nonzero rotator
    provably exceeds its target modulus forever.

    From x^(s+n) = eigen^n x^(s) + n eigen^(n-1) v exactly, the modulus is
    at least n|v| - |x^(s)|, so any n past (|y| + |x^(s)|)/|v| works.
    """
    reach = Fraction(ceil_sqrt(4 * above_target_sq), 2) + Fraction(
        ceil_sqrt(4 * above_sq), 2
    )
    return floor_sqrt(reach * reach / value_sq) + 1


class _ArgandBlockAnalyzer:
    """Shared bookkeeping: the watched coordinate is the bottom-most one
    that is not permanently zero, and everything below it stays zero."""

    def __init__(
        self,
        offset: int,
        block: JordanBlock,
        spec: ArgandRounding,
        target: Sequence[ArgandPoint],
        order: int,
    ) -> None:
        self.offset = offset
        self.block = block
        self.spec = spec
        self.order = order
        self.target = tuple(target)
        self.size = block.size
        self.axis = niven_classify(block.eigen_angle).axis_multiple_90
        self.active: Optional[int] = None
        self.all_zero = False
        self.settled = False
        # (step at which the coordinate above provably left, its index)
        self.pending: Optional[tuple[int, int]] = None

    def _cascade(self, state: Sequence, from_dim: int) -> Optional[Certificate]:
        d = from_dim
        while d >= 0 and state[self.offset + d].is_zero():
            if not self.target[d].is_zero():
                return StabilizedMismatch(self.offset + d)
            d -= 1
        if d < 0:
            self.active = None
            self.all_zero = True
        else:
            self.active = d
        return None

    def _assert_no_rounding(self, unrounded: Sequence[CycloNum], new: Sequence) -> None:
        for j in range(self.size):
            at = self.offset + j
            if point_value(new[at], self.spec, self.order) != unrounded[at]:
                raise InternalInvariantError(
                    "a right-angle rotation step should never round"
                )

    def _assert_zero_floor(self, new: Sequence, below: int) -> None:
        for j in range(below + 1, self.size):
            if not new[self.offset + j].is_zero():
                raise InternalInvariantError(
                    "a zeroed coordinate came back to life"
                )

    def _constant_modulus(
        self, state: Sequence, a: int, q: Fraction, step: int
    ) -> Optional[Certificate]:
        """Watched coordinate a keeps squared modulus q forever from this
        step: a target mismatch is permanent, the top coordinate settles,
        and any other has the coordinate above diverge on a schedule."""
        self.active = None
        if q != self.target[a].modulus_sq():
            return StabilizedMismatch(self.offset + a)
        if a == 0:
            self.settled = True
            return None
        above = state[self.offset + a - 1]
        due = step + _divergence_due(
            q, above.modulus_sq(), self.target[a - 1].modulus_sq()
        )
        self.pending = (due, a - 1)
        return None

    def _watch(
        self, step_index: int, a: int, prev: Sequence, new: Sequence
    ) -> Optional[Certificate]:
        raise NotImplementedError

    def observe(
        self,
        step_index: int,
        prev: Sequence,
        unrounded: Sequence[CycloNum],
        new: Sequence,
    ) -> Optional[Certificate]:
        if self.pending is not None:
            self._assert_no_rounding(unrounded, new)
            due, dim = self.pending
            if step_index + 1 >= due:
                self.pending = None
                return DivergedPastTarget(self.offset + dim)
            return None
        if self.settled:
            self._assert_no_rounding(unrounded, new)
            return None
        if self.all_zero:
            self._assert_zero_floor(new, -1)
            return None
        a = self.active
        assert a is not None
        self._assert_zero_floor(new, a)
        return self._watch(step_index, a, prev, new)


class TruncationBlockAnalyzer(_ArgandBlockAnalyzer):
    """Watches one unit-modulus block under modulus-non-increasing rounding.

    Off the right-angle axes the watched coordinate's modulus strictly
    drops every step, so it reaches zero and the watch moves up.  On an
    axis nothing ever rounds; the first value repeat certifies a constant
    rotator, after which either the modulus contradicts the target or the
    coordinate above diverges on an exact schedule.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.visited: dict[tuple[Fraction, Fraction], int] = {}

    def observe_initial(self, state: Sequence) -> Optional[Certificate]:
        cert = self._cascade(state, self.size - 1)
        if cert is not None:
            return cert
        if self.active is not None:
            p = state[self.offset + self.active]
            self.visited = {(p.re, p.im): 0}
        return None

    # bound on each analyzer class: perfbench/layertrace.py wraps the
    # observe that a class holds itself
    observe = _ArgandBlockAnalyzer.observe

    def _watch(
        self, step_index: int, a: int, prev: Sequence, new: Sequence
    ) -> Optional[Certificate]:
        p_prev: ArgandPoint = prev[self.offset + a]
        p_new: ArgandPoint = new[self.offset + a]
        q_prev = p_prev.modulus_sq()
        q_new = p_new.modulus_sq()
        if q_new > q_prev:
            raise InternalInvariantError("truncation grew a watched modulus")
        if not self.axis and q_new >= q_prev:
            raise InternalInvariantError(
                "an off-axis truncation step failed to shrink the modulus"
            )
        if p_new.is_zero():
            cert = self._cascade(new, a)
            if cert is not None:
                return cert
            if self.active is not None:
                p = new[self.offset + self.active]
                self.visited = {(p.re, p.im): step_index + 1}
            return None
        key = (p_new.re, p_new.im)
        if key in self.visited:
            # a nonzero repeat: the coordinate rotates at constant modulus
            if not self.axis:
                raise InternalInvariantError(
                    "a nonzero orbit stabilized off the right-angle axes"
                )
            return self._constant_modulus(new, a, q_new, step_index + 1)
        self.visited[key] = step_index + 1
        return None


class ExpansionBlockAnalyzer(_ArgandBlockAnalyzer):
    """Watches one unit-modulus block under modulus-non-decreasing rounding.

    On a right-angle axis nothing rounds, so the watched coordinate keeps
    its modulus forever: a target mismatch is permanent at once, and
    otherwise the coordinate above diverges on an exact schedule.  Off the
    axes the watched modulus strictly grows every step and is certified
    the moment it passes the target's.
    """

    def observe_initial(self, state: Sequence) -> Optional[Certificate]:
        cert = self._cascade(state, self.size - 1)
        if cert is not None:
            return cert
        if self.active is None or not self.axis:
            return None
        a = self.active
        q = state[self.offset + a].modulus_sq()
        return self._constant_modulus(state, a, q, 0)

    observe = _ArgandBlockAnalyzer.observe  # see TruncationBlockAnalyzer

    def _watch(
        self, step_index: int, a: int, prev: Sequence, new: Sequence
    ) -> Optional[Certificate]:
        q_prev = prev[self.offset + a].modulus_sq()
        q_new = new[self.offset + a].modulus_sq()
        if q_new <= q_prev:
            raise InternalInvariantError(
                "an off-axis expansion step failed to grow the modulus"
            )
        if q_new > self.target[a].modulus_sq():
            self.active = None
            return DivergedPastTarget(self.offset + a)
        return None


def argand_step_cap(system: JnfSystem, tables: Sequence) -> int:
    """Safety-net step bound: per-block budgets, target-distance slack for
    the scheduled divergences, and a joint state count for the cycle, read
    off the blocks' tables."""
    spec = system.rounding
    settle = 0
    states = 1
    for (start, end), table in zip(system.block_slices(), tables):
        if isinstance(table, RadiusTable):
            states *= table.step_bound(spec)
            continue
        g = spec.granularity
        target_slice = system.target[start:end]
        y1 = _one_norm(target_slice)
        q_max = max((p.modulus_sq() for p in target_slice), default=Fraction(0))
        slack = (
            math.ceil((y1 + table.modulus_bounds[0]) / g)
            + math.ceil(q_max / (g * g))
            + 8
        )
        settle += table.settle_bounds[0] + slack
        states *= 4
    return settle + states + 2


TRUNCATION = Fragment(argand_step_cap, truncation_bounds, TruncationBlockAnalyzer)
EXPANSION = Fragment(argand_step_cap, truncation_bounds, ExpansionBlockAnalyzer)


def _decide_argand(system: JnfSystem, kind: RoundingKind, fragment: Fragment) -> Verdict:
    spec = system.rounding
    if not isinstance(spec, ArgandRounding) or spec.kind is not kind:
        raise ValueError(
            f"this decision procedure needs componentwise {kind.value} rounding"
        )
    return decide_by_blocks(system, fragment)


def decide_truncation(system: JnfSystem) -> Verdict:
    """Decide reachability when rounding truncates each component toward
    zero; unit-modulus blocks get the settling analysis, the rest the
    escape-radius analysis."""
    return _decide_argand(system, RoundingKind.TRUNCATE, TRUNCATION)


def decide_expansion(system: JnfSystem) -> Verdict:
    """Decide reachability when rounding pushes each component away from
    zero; unit-modulus blocks get the growth analysis, the rest the
    escape-radius analysis."""
    return _decide_argand(system, RoundingKind.EXPAND, EXPANSION)

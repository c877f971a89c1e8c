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
from .hyperbolic import Fragment, RadiusTable, UnitTable, decide_by_blocks, unit_table
from .numerics import Angle, ceil_sqrt, floor_sqrt
from .rounding import (
    ArgandPoint,
    ArgandRounding,
    RoundingKind,
    grid_point,
    point_value,
)
from .system import (
    Certificate,
    DivergedPastTarget,
    JnfSystem,
    JordanBlock,
    StabilizedMismatch,
    StepKernel,
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


_ZERO = (0, 0)


def _one_norm(points: Sequence[ArgandPoint]) -> Fraction:
    return sum((abs(p.re) + abs(p.im) for p in points), Fraction(0))


def truncation_bounds(
    system: JnfSystem, block_index: Optional[int] = None
) -> UnitTable:
    """The budget tables of one unit-modulus block under
    modulus-non-increasing rounding: coordinate k resolves within
    ceil((2*u[k]/g)^size) steps, and the ceiling's exponent is size + 1.
    initial_size is the summed 1-norm of the block's starting coordinates."""
    spec = system.rounding
    if not isinstance(spec, ArgandRounding):
        raise ValueError("these budgets are defined for componentwise rounding")
    block, start, end = system.unit_block(block_index)
    initial_size = _one_norm(system.initial[start:end])
    size = block.size
    g = Fraction(spec.granularity)
    clamped = max(initial_size, Fraction(1))
    growth_base = max(2 * size * (2 / g) ** size * clamped, Fraction(2))

    def settle(u: Fraction) -> int:
        return math.ceil((2 * u / g) ** size)

    return unit_table(size, initial_size, settle(initial_size), settle, growth_base, size + 1)


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


def _sq(x: tuple[int, int]) -> int:
    """The squared modulus of a coordinate (a, b) in grid units, over g^2."""
    return x[0] * x[0] + x[1] * x[1]


class _ArgandBlockAnalyzer:
    """Shared bookkeeping: the watched coordinate is the bottom-most one
    that is not permanently zero, and everything below it stays zero.
    Coordinates, the target's included, are pairs (a, b) in grid units;
    squared moduli compare as the integers a^2 + b^2."""

    def __init__(self, offset: int, block: JordanBlock, kernel: StepKernel) -> None:
        self.offset = offset
        self.block = block
        self.kernel = kernel
        self.spec = kernel.spec
        self.size = block.size
        self.target = kernel.target[offset:offset + self.size]
        self.axis = niven_classify(block.eigen_angle).axis_multiple_90
        self.active: Optional[int] = None
        self.all_zero = False
        self.settled = False
        # (step at which the coordinate above provably left, its index)
        self.pending: Optional[tuple[int, int]] = None

    def _cascade(self, state: Sequence, from_dim: int) -> Optional[Certificate]:
        d = from_dim
        while d >= 0 and state[self.offset + d] == _ZERO:
            if self.target[d] != _ZERO:
                return StabilizedMismatch(self.offset + d)
            d -= 1
        if d < 0:
            self.active = None
            self.all_zero = True
        else:
            self.active = d
        return None

    def _assert_no_rounding(self, prev: Sequence, new: Sequence) -> None:
        kernel = self.kernel
        for j in range(self.size):
            at = self.offset + j
            value = point_value(grid_point(new[at], self.spec), self.spec, kernel.order)
            if value != kernel.exact(prev, at):
                raise InternalInvariantError(
                    "a right-angle rotation step should never round"
                )

    def _assert_zero_floor(self, new: Sequence, below: int) -> None:
        for j in range(below + 1, self.size):
            if new[self.offset + j] != _ZERO:
                raise InternalInvariantError(
                    "a zeroed coordinate came back to life"
                )

    def _constant_modulus(
        self, state: Sequence, a: int, q: int, step: int
    ) -> Optional[Certificate]:
        """Watched coordinate a keeps squared modulus q*g^2 forever from
        this step: a target mismatch is permanent, the top coordinate
        settles, and any other has the coordinate above diverge on a
        schedule."""
        self.active = None
        if q != _sq(self.target[a]):
            return StabilizedMismatch(self.offset + a)
        if a == 0:
            self.settled = True
            return None
        g_sq = self.spec.granularity ** 2
        above = state[self.offset + a - 1]
        due = step + _divergence_due(
            q * g_sq, _sq(above) * g_sq, _sq(self.target[a - 1]) * g_sq
        )
        self.pending = (due, a - 1)
        return None

    def _watch(
        self, step_index: int, a: int, prev: Sequence, new: Sequence
    ) -> Optional[Certificate]:
        raise NotImplementedError

    def observe(
        self, step_index: int, prev: Sequence, new: Sequence
    ) -> Optional[Certificate]:
        if self.pending is not None:
            self._assert_no_rounding(prev, new)
            due, dim = self.pending
            if step_index + 1 >= due:
                self.pending = None
                return DivergedPastTarget(self.offset + dim)
            return None
        if self.settled:
            self._assert_no_rounding(prev, new)
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
        self.visited: dict[tuple[int, int], int] = {}

    def observe_initial(self, state: Sequence) -> Optional[Certificate]:
        cert = self._cascade(state, self.size - 1)
        if cert is not None:
            return cert
        if self.active is not None:
            self.visited = {state[self.offset + self.active]: 0}
        return None

    # bound on each analyzer class: perfbench/layertrace.py wraps the
    # observe that a class holds itself
    observe = _ArgandBlockAnalyzer.observe

    def _watch(
        self, step_index: int, a: int, prev: Sequence, new: Sequence
    ) -> Optional[Certificate]:
        x_new = new[self.offset + a]
        q_prev = _sq(prev[self.offset + a])
        q_new = _sq(x_new)
        if q_new > q_prev:
            raise InternalInvariantError("truncation grew a watched modulus")
        if not self.axis and q_new >= q_prev:
            raise InternalInvariantError(
                "an off-axis truncation step failed to shrink the modulus"
            )
        if q_new == 0:
            cert = self._cascade(new, a)
            if cert is not None:
                return cert
            if self.active is not None:
                self.visited = {new[self.offset + self.active]: step_index + 1}
            return None
        if x_new in self.visited:
            # a nonzero repeat: the coordinate rotates at constant modulus
            if not self.axis:
                raise InternalInvariantError(
                    "a nonzero orbit stabilized off the right-angle axes"
                )
            return self._constant_modulus(new, a, q_new, step_index + 1)
        self.visited[x_new] = step_index + 1
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
        return self._constant_modulus(state, a, _sq(state[self.offset + a]), 0)

    observe = _ArgandBlockAnalyzer.observe  # see TruncationBlockAnalyzer

    def _watch(
        self, step_index: int, a: int, prev: Sequence, new: Sequence
    ) -> Optional[Certificate]:
        q_prev = _sq(prev[self.offset + a])
        q_new = _sq(new[self.offset + a])
        if q_new <= q_prev:
            raise InternalInvariantError(
                "an off-axis expansion step failed to grow the modulus"
            )
        if q_new > _sq(self.target[a]):
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

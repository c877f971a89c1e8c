"""Deciding reachability under polar rounding with unit-modulus spectrum.

A dimension of a Jordan block is "just rotating" once its modulus stays
constant forever; the bottom dimension does so from the start, and each
dimension above either settles or provably diverges once the one below it
has settled.  The analyzers certify divergence or a permanent modulus
mismatch, and the driver's exact repeat detection concludes once every
dimension rotates.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import ceil, lcm
from typing import Optional, Sequence

from .errors import InternalInvariantError
from .hyperbolic import Fragment, RadiusTable, UnitTable, decide_by_blocks, unit_table
from .numerics import Angle, CycloNum, Rational, embed_polar, modulus_sq, sign_of_real
from .rounding import PolarRounding, modulus_effect_bound
from .system import (
    Certificate,
    DivergedPastTarget,
    JnfSystem,
    JordanBlock,
    StabilizedMismatch,
    StepKernel,
    Verdict,
)


def _separation(upper_index: int, eigen_steps: int, lower_index: int, stride: int,
                half_turn: int) -> int:
    """The separation angle, in steps of pi/half_turn, between a grid angle
    upper_index rotated by eigen_steps and the grid angle lower_index, with
    stride steps per grid angle.  Lies in [0, half_turn]."""
    d = ((upper_index - lower_index) * stride + eigen_steps) % (2 * half_turn)
    return min(d, 2 * half_turn - d)


def _half_turn(eigen_angle: Angle, resolution: int) -> tuple[int, int]:
    """The steps per half turn that host both the grid angles pi/resolution
    and the eigenvalue angle, and the eigenvalue angle in those steps."""
    p, q = eigen_angle.numerator, eigen_angle.denominator
    half_turn = lcm(resolution, q)
    return half_turn, p * (half_turn // q)


def gamma_exceeds_right_angle(unrounded: CycloNum, rotated: CycloNum) -> bool:
    """Whether the sum opens more than a right angle against the rotated
    value it came from, as the sign of Re(w * conj(a)).

    The angle itself is usually not a rational multiple of pi, so only this
    comparison is offered, exactly.
    """
    inner = (unrounded * rotated.conjugate()).real_part()
    return sign_of_real(inner) < 0


def divergence_stop(
    upper_steps: Rational,
    lower_steps: Rational,
    target_steps: Rational,
    unrounded: CycloNum,
    spec: PolarRounding,
) -> bool:
    """Permanent-divergence test: the modulus grew by more than rounding can
    undo, dominates the value added from below, and already clears the
    target.  The three moduli are given in grid steps of the spec's
    granularity g.  All comparisons are exact."""
    if upper_steps < target_steps:
        return False
    if 2 * upper_steps * upper_steps < lower_steps * lower_steps:
        return False
    threshold = (upper_steps * spec.granularity + modulus_effect_bound(spec)) ** 2
    return sign_of_real(modulus_sq(unrounded) - threshold) > 0


class PhiMode(enum.Enum):
    PHI_I = "initial"
    PHI_D = "decreased"
    PHI_SMALL = "small"


def resource_bounds(
    system: JnfSystem, block_index: Optional[int] = None
) -> UnitTable:
    """The settling-time and modulus tables of one unit-modulus block of a
    polar instance: a dimension settles into rotation or produces a
    divergence certificate within ceil((Y + u)*(2R)^2) steps of the one
    below, Y the target's summed moduli; the ceiling's exponent is 2."""
    spec = system.rounding
    if not isinstance(spec, PolarRounding):
        raise ValueError("resource tables are defined for polar rounding")
    block, start, end = system.unit_block(block_index)
    initial_size = sum((p.modulus for p in system.initial[start:end]), Fraction(0))
    target_size = sum((p.modulus for p in system.target[start:end]), Fraction(0))
    size = block.size
    angle_count_sq = (2 * spec.angle_resolution) ** 2
    growth_base = (3 * size * max(target_size, Fraction(1)) * angle_count_sq
                   * max(initial_size, Fraction(1)))

    def settle(u: Fraction) -> int:
        return ceil((target_size + u) * angle_count_sq)

    return unit_table(size, initial_size, 1, settle, growth_base, 2)


class _DimensionMachine:
    """Tracks the lowest not-yet-settled dimension of one block; moduli in
    grid units, separation angles in steps of pi/half_turn."""

    def __init__(self, dim: int, since: int, target_modulus: int) -> None:
        self.dim = dim
        self.since = since  # the dimension below rotates from this step on
        self.target_modulus = target_modulus
        self.mode = PhiMode.PHI_I
        self.prev_phi: Optional[int] = None
        self.prev_phi_modulus: Optional[int] = None
        self.assert_next_phi_small = False
        self.visited: dict = {}
        self.history: list[int] = []


class PolarBlockAnalyzer:
    """Settles the dimensions of one unit-modulus Jordan block bottom-up.

    Emits a permanent-mismatch certificate when a settled dimension's
    constant modulus differs from the target's, and a divergence
    certificate when the tracked dimension provably outgrows the target.
    Violations of the supporting monotonicity facts raise, as they would
    mean the analysis itself is wrong.  Coordinates, the target's
    included, are pairs (k, i) in grid units: modulus k*g, angle index i.
    """

    def __init__(self, offset: int, block: JordanBlock, kernel: StepKernel) -> None:
        self.offset = offset
        self.block = block
        self.kernel = kernel
        self.spec = kernel.spec
        self.size = block.size
        self.target = kernel.target[offset:offset + self.size]
        self.resolution = self.spec.angle_resolution
        # separation angles phi in steps of pi/half_turn: a right angle is
        # half_turn/2 of them
        self.half_turn, self.eigen_steps = _half_turn(block.eigen_angle, self.resolution)
        self.stride = self.half_turn // self.resolution
        self.rotating_moduli: dict[int, int] = {}
        self.machine: Optional[_DimensionMachine] = None

    # -- helpers

    def _substate(self, state: Sequence, low: int) -> tuple:
        return tuple(state[self.offset + j] for j in range(low, self.size))

    def _promote(
        self, state: Sequence, dim: int, since: int
    ) -> Optional[Certificate]:
        """Mark dim as rotating from `since`, cascading up past zero values."""
        while dim >= 0:
            modulus = state[self.offset + dim][0]
            self.rotating_moduli[dim] = modulus
            if modulus != self.target[dim][0]:
                self.machine = None
                return StabilizedMismatch(self.offset + dim)
            if dim == 0:
                self.machine = None
                return None
            if modulus > 0:
                break
            # a zero value below makes the next dimension autonomous too
            dim -= 1
        machine = _DimensionMachine(dim - 1, since, self.target[dim - 1][0])
        machine.visited[self._substate(state, dim - 1)] = 0
        machine.history.append(state[self.offset + dim - 1][0])
        self.machine = machine
        return None

    # -- analyzer interface

    def observe_initial(self, state: Sequence) -> Optional[Certificate]:
        return self._promote(state, self.size - 1, 0)

    def observe(
        self, step_index: int, prev: Sequence, new: Sequence
    ) -> Optional[Certificate]:
        for dim, modulus in self.rotating_moduli.items():
            if new[self.offset + dim][0] != modulus:
                raise InternalInvariantError(
                    f"settled dimension {self.offset + dim} changed modulus"
                )
        machine = self.machine
        if machine is None:
            return None
        dim = machine.dim
        # (modulus in grid steps, angle index) of the tracked dimension
        # before and after the step, and of the one below before it
        prev_modulus, upper_angle = prev[self.offset + dim]
        new_modulus = new[self.offset + dim][0]
        lower_modulus, lower_angle = prev[self.offset + dim + 1]
        half_turn = self.half_turn  # phi is wider than a right angle when 2*phi > half_turn

        prev_index = step_index  # the state the update was applied to
        phi_valid = prev_index >= machine.since + 1
        cor_valid = prev_index >= machine.since

        phi: Optional[int] = None
        if prev_modulus and lower_modulus and phi_valid:
            # the separation phi(prev_index)
            phi = _separation(upper_angle, self.eigen_steps, lower_angle,
                              self.stride, half_turn)

        if machine.assert_next_phi_small:
            machine.assert_next_phi_small = False
            if phi is not None and 2 * phi > half_turn:
                raise InternalInvariantError(
                    "separation stayed wide after a widening growth step"
                )

        if phi is not None:
            if machine.prev_phi is not None:
                if phi > machine.prev_phi:
                    raise InternalInvariantError(
                        "separation angle increased while the lower "
                        "dimension was rotating"
                    )
                if (
                    machine.mode is PhiMode.PHI_D
                    and phi == machine.prev_phi
                    and 2 * phi > half_turn
                    and new_modulus > prev_modulus
                ):
                    raise InternalInvariantError(
                        "modulus grew at a repeated wide separation angle"
                    )
                if phi == machine.prev_phi and prev_modulus == machine.prev_phi_modulus:
                    # two equal separation angles at equal modulus settle
                    # the dimension into rotation
                    if new_modulus != prev_modulus:
                        raise InternalInvariantError(
                            "modulus changed right after a rotation witness"
                        )
                    return self._promote(new, dim, prev_index - 1)
                if phi < machine.prev_phi and machine.mode is not PhiMode.PHI_SMALL:
                    machine.mode = PhiMode.PHI_D
            machine.prev_phi = phi
            machine.prev_phi_modulus = prev_modulus
            if 2 * phi <= half_turn:
                machine.mode = PhiMode.PHI_SMALL
        else:
            machine.prev_phi = None
            machine.prev_phi_modulus = None

        if machine.mode is PhiMode.PHI_SMALL:
            if new_modulus < prev_modulus:
                raise InternalInvariantError(
                    "modulus dropped after the separation angle closed"
                )
            if new_modulus > machine.target_modulus:
                self.machine = None
                return DivergedPastTarget(self.offset + dim)

        if cor_valid and prev_modulus:
            w = self.kernel.exact(prev, self.offset + dim)
            if divergence_stop(
                prev_modulus, lower_modulus, machine.target_modulus, w, self.spec
            ):
                self.machine = None
                return DivergedPastTarget(self.offset + dim)
            if phi is not None and self._gamma_wide_and_growing(
                prev[self.offset + dim], w
            ):
                machine.assert_next_phi_small = True

        # fallback settle detection: the tracked suffix is autonomous, so a
        # repeat proves periodicity, and a periodic modulus must be constant
        sub = self._substate(new, dim)
        seen = machine.visited.get(sub)
        if seen is None:
            machine.visited[sub] = len(machine.history)
            machine.history.append(new_modulus)
            return None
        window = machine.history[seen:]
        if any(m != window[0] for m in window):
            raise InternalInvariantError(
                "periodic suffix with a non-constant modulus"
            )
        return self._promote(new, dim, prev_index + 1)

    def _gamma_wide_and_growing(self, upper_prev: tuple[int, int], w: CycloNum) -> bool:
        """Whether w outgrows and opens wider than a right angle against
        a = eigen * upper_prev, the exact rotated value, one embedding."""
        k, i = upper_prev
        block = self.block
        a = embed_polar(block.eigen_modulus * k * self.spec.granularity,
                        Angle(i, self.resolution) + block.eigen_angle, self.kernel.order)
        if sign_of_real(modulus_sq(w) - modulus_sq(a)) <= 0:
            return False
        return gamma_exceeds_right_angle(w, a)


def polar_step_cap(system: JnfSystem, tables: Optional[Sequence] = None) -> int:
    """Safety-net step bound: settle times plus a joint state count, read
    off the blocks' tables (POLAR's, built here when none are given)."""
    spec = system.rounding
    if tables is None:
        tables = POLAR.tables(system)
    settle = 0
    states = 1
    for table in tables:
        if isinstance(table, RadiusTable):
            states *= table.step_bound(spec)
            continue
        settle += table.settle_bounds[0]
        for bound in table.modulus_bounds:
            steps = int(bound / spec.granularity) + 1
            states *= 1 + steps * 2 * spec.angle_resolution
    return settle + states + 2


POLAR = Fragment(polar_step_cap, resource_bounds, PolarBlockAnalyzer)


def decide_polar(system: JnfSystem) -> Verdict:
    """Decide reachability for polar rounding; unit-modulus blocks get the
    rotation analysis, the rest the escape-radius analysis."""
    spec = system.rounding
    if not isinstance(spec, PolarRounding):
        raise ValueError("this decision procedure needs polar rounding")
    return decide_by_blocks(system, POLAR)

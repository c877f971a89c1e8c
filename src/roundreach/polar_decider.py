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
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Optional, Sequence

from .errors import InternalInvariantError
from .hyperbolic import Fragment, RadiusTable, decide_by_blocks
from .numerics import Angle, CycloNum, embed_polar, modulus_sq, sign_of_real
from .rounding import (
    PolarPoint,
    PolarRounding,
    modulus_effect_bound,
)
from .system import (
    Certificate,
    DivergedPastTarget,
    JnfSystem,
    JordanBlock,
    StabilizedMismatch,
    Verdict,
)


def phi_angle(
    upper: PolarPoint,
    eigen_angle: Angle,
    lower: PolarPoint,
    resolution: int,
) -> Angle:
    """Separation angle between the rotated upper value and the value fed in
    from the dimension below; both must be nonzero.  Lies in [0, pi]."""
    if upper.is_zero() or lower.is_zero():
        raise ValueError("the separation angle needs two nonzero values")
    rotated = upper.angle(resolution) + eigen_angle
    return rotated.distance_to(lower.angle(resolution))


def gamma_exceeds_right_angle(unrounded: CycloNum, rotated: CycloNum) -> bool:
    """Whether the sum opens more than a right angle against the rotated
    value it came from, as the sign of Re(w * conj(a)).

    The angle itself is usually not a rational multiple of pi, so only this
    comparison is offered, exactly.
    """
    inner = (unrounded * rotated.conjugate()).real_part()
    return sign_of_real(inner) < 0


def divergence_stop(
    upper_modulus: Fraction,
    lower_modulus: Fraction,
    target_modulus: Fraction,
    unrounded: CycloNum,
    spec: PolarRounding,
) -> bool:
    """Permanent-divergence test: the modulus grew by more than rounding can
    undo, dominates the value added from below, and already clears the
    target.  All comparisons are exact."""
    delta = modulus_effect_bound(spec)
    if upper_modulus < target_modulus:
        return False
    if 2 * upper_modulus * upper_modulus < lower_modulus * lower_modulus:
        return False
    threshold = (upper_modulus + delta) ** 2
    return sign_of_real(modulus_sq(unrounded) - threshold) > 0


class PhiMode(enum.Enum):
    PHI_I = "initial"
    PHI_D = "decreased"
    PHI_SMALL = "small"


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


class _DimensionMachine:
    """Tracks the lowest not-yet-settled dimension of one block."""

    def __init__(self, dim: int, since: int, target_modulus: Fraction) -> None:
        self.dim = dim
        self.since = since  # the dimension below rotates from this step on
        self.target_modulus = target_modulus
        self.mode = PhiMode.PHI_I
        self.prev_phi: Optional[Angle] = None
        self.prev_phi_modulus: Optional[Fraction] = None
        self.assert_next_phi_small = False
        self.visited: dict = {}
        self.history: list[Fraction] = []


class PolarBlockAnalyzer:
    """Settles the dimensions of one unit-modulus Jordan block bottom-up.

    Emits a permanent-mismatch certificate when a settled dimension's
    constant modulus differs from the target's, and a divergence
    certificate when the tracked dimension provably outgrows the target.
    Violations of the supporting monotonicity facts raise, as they would
    mean the analysis itself is wrong.
    """

    def __init__(
        self,
        offset: int,
        block: JordanBlock,
        spec: PolarRounding,
        target: Sequence[PolarPoint],
        order: int,
    ) -> None:
        self.offset = offset
        self.block = block
        self.spec = spec
        self.order = order
        self.target = tuple(target)
        self.size = block.size
        self.resolution = spec.angle_resolution
        self.rotating_moduli: dict[int, Fraction] = {}
        self.machine: Optional[_DimensionMachine] = None

    # -- helpers

    def _substate(self, state: Sequence, low: int) -> tuple:
        return tuple(state[self.offset + j] for j in range(low, self.size))

    def _promote(
        self, state: Sequence, dim: int, since: int
    ) -> Optional[Certificate]:
        """Mark dim as rotating from `since`, cascading up past zero values."""
        while dim >= 0:
            modulus = state[self.offset + dim].modulus
            self.rotating_moduli[dim] = modulus
            if modulus != self.target[dim].modulus:
                self.machine = None
                return StabilizedMismatch(self.offset + dim)
            if dim == 0:
                self.machine = None
                return None
            if modulus > 0:
                break
            # a zero value below makes the next dimension autonomous too
            dim -= 1
        machine = _DimensionMachine(dim - 1, since, self.target[dim - 1].modulus)
        machine.visited[self._substate(state, dim - 1)] = 0
        machine.history.append(state[self.offset + dim - 1].modulus)
        self.machine = machine
        return None

    # -- analyzer interface

    def observe_initial(self, state: Sequence) -> Optional[Certificate]:
        return self._promote(state, self.size - 1, 0)

    def observe(
        self,
        step_index: int,
        prev: Sequence,
        unrounded: Sequence[CycloNum],
        new: Sequence,
    ) -> Optional[Certificate]:
        for dim, modulus in self.rotating_moduli.items():
            if new[self.offset + dim].modulus != modulus:
                raise InternalInvariantError(
                    f"settled dimension {self.offset + dim} changed modulus"
                )
        machine = self.machine
        if machine is None:
            return None
        dim = machine.dim
        upper_prev: PolarPoint = prev[self.offset + dim]
        upper_new: PolarPoint = new[self.offset + dim]
        lower_prev: PolarPoint = prev[self.offset + dim + 1]
        prev_modulus = upper_prev.modulus
        new_modulus = upper_new.modulus

        prev_index = step_index  # the state the update was applied to
        phi_valid = prev_index >= machine.since + 1
        cor_valid = prev_index >= machine.since

        phi: Optional[Angle] = None
        if not upper_prev.is_zero() and not lower_prev.is_zero() and phi_valid:
            phi = phi_angle(
                upper_prev, self.block.eigen_angle, lower_prev, self.resolution
            )  # the separation phi(prev_index)

        if machine.assert_next_phi_small:
            machine.assert_next_phi_small = False
            if phi is not None and phi.compare_to_right_angle() > 0:
                raise InternalInvariantError(
                    "separation stayed wide after a widening growth step"
                )

        if phi is not None:
            if machine.prev_phi is not None:
                if phi.pi_multiple > machine.prev_phi.pi_multiple:
                    raise InternalInvariantError(
                        "separation angle increased while the lower "
                        "dimension was rotating"
                    )
                if (
                    machine.mode is PhiMode.PHI_D
                    and phi.pi_multiple == machine.prev_phi.pi_multiple
                    and phi.compare_to_right_angle() > 0
                    and new_modulus > prev_modulus
                ):
                    raise InternalInvariantError(
                        "modulus grew at a repeated wide separation angle"
                    )
                if (
                    phi.pi_multiple == machine.prev_phi.pi_multiple
                    and prev_modulus == machine.prev_phi_modulus
                ):
                    # two equal separation angles at equal modulus settle
                    # the dimension into rotation
                    if new_modulus != prev_modulus:
                        raise InternalInvariantError(
                            "modulus changed right after a rotation witness"
                        )
                    return self._promote(new, dim, prev_index - 1)
                if (
                    phi.pi_multiple < machine.prev_phi.pi_multiple
                    and machine.mode is not PhiMode.PHI_SMALL
                ):
                    machine.mode = PhiMode.PHI_D
            machine.prev_phi = phi
            machine.prev_phi_modulus = prev_modulus
            if phi.compare_to_right_angle() <= 0:
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

        if cor_valid and not upper_prev.is_zero():
            w = unrounded[self.offset + dim]
            if divergence_stop(
                prev_modulus,
                lower_prev.modulus,
                machine.target_modulus,
                w,
                self.spec,
            ):
                self.machine = None
                return DivergedPastTarget(self.offset + dim)
            if phi is not None and self._gamma_wide_and_growing(upper_prev, w):
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

    def _gamma_wide_and_growing(
        self, upper_prev: PolarPoint, w: CycloNum
    ) -> bool:
        eigen = embed_polar(self.block.eigen_modulus, self.block.eigen_angle, self.order)
        a = eigen * upper_prev.value(self.order, self.resolution)
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

"""System descriptions, orbit stepping, verdicts, the shared decision driver,
and the orbit-shape loop."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Protocol, Sequence, Union

from .errors import InternalInvariantError, UndecidableTieError
from .numerics import Angle, CycloNum, embed_polar
from .rounding import (
    ArgandRounding,
    GridPoint,
    PolarRounding,
    RoundingSpec,
    is_admissible,
    point_value,
    round_real,
    round_value,
)


@dataclass(frozen=True)
class JordanBlock:
    size: int
    eigen_modulus: Fraction
    eigen_angle: Angle

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigen_modulus", Fraction(self.eigen_modulus))
        if self.size < 1:
            raise ValueError("block size must be positive")
        if self.eigen_modulus < 0:
            raise ValueError("eigenvalue modulus must be nonnegative")


def _lcm(*values: int) -> int:
    out = 1
    for v in values:
        out = math.lcm(out, v)
    return out


@dataclass(frozen=True)
class JnfSystem:
    """A Jordan-form system: block-diagonal dynamics with per-step rounding.

    Within a block, coordinate j is fed by coordinate j+1 (the last block
    coordinate is autonomous). Initial and target are stored as grid points.
    """

    blocks: tuple[JordanBlock, ...]
    initial: tuple[GridPoint, ...]
    target: tuple[GridPoint, ...]
    rounding: RoundingSpec

    def __post_init__(self) -> None:
        dim = sum(b.size for b in self.blocks)
        if len(self.initial) != dim or len(self.target) != dim:
            raise ValueError("initial/target length must match total dimension")
        for pt in (*self.initial, *self.target):
            if not is_admissible(pt, self.rounding):
                raise ValueError(f"point {pt} is not admissible under {self.rounding}")

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
        return _lcm(*parts)

    def block_slices(self) -> list[tuple[int, int]]:
        out = []
        at = 0
        for b in self.blocks:
            out.append((at, at + b.size))
            at += b.size
        return out

    def unit_block(self, index: Optional[int] = None) -> tuple[JordanBlock, int, int]:
        """Block index with its coordinate range; with no index, the only
        block whose eigenvalue has modulus one."""
        if index is None:
            units = [i for i, b in enumerate(self.blocks) if b.eigen_modulus == 1]
            if len(units) != 1:
                raise ValueError(
                    "pass block_index when the system has several unit blocks"
                )
            index = units[0]
        return (self.blocks[index], *self.block_slices()[index])

    def eigen_value(self, block: JordanBlock, order: Optional[int] = None) -> CycloNum:
        order = order or self.field_order()
        return embed_polar(block.eigen_modulus, block.eigen_angle, order)


def step_with_intermediates(
    system: JnfSystem,
    state: tuple[GridPoint, ...],
    order: Optional[int] = None,
    eigen_cache: Optional[list[CycloNum]] = None,
) -> tuple[tuple[GridPoint, ...], tuple[CycloNum, ...]]:
    """One rounded step; also returns the exact pre-rounding values."""
    order = order or system.field_order()
    if eigen_cache is None:
        eigen_cache = [system.eigen_value(b, order) for b in system.blocks]
    values = [point_value(p, system.rounding, order) for p in state]
    unrounded: list[CycloNum] = [None] * len(values)  # type: ignore[list-item]
    for (start, end), lam in zip(system.block_slices(), eigen_cache):
        for j in range(start, end):
            w = lam * values[j]
            if j + 1 < end:
                w = w + values[j + 1]
            unrounded[j] = w
    new_state = tuple(round_value(w, system.rounding) for w in unrounded)
    return new_state, tuple(unrounded)


def step(system: JnfSystem, state: tuple[GridPoint, ...]) -> tuple[GridPoint, ...]:
    return step_with_intermediates(system, state)[0]


def simulate(system: Union[JnfSystem, RationalSystem], steps: int) -> list[tuple]:
    """The orbit from the stored initial point, inclusive: steps+1 states."""
    advance = orbit_step(system)
    out = [system.initial]
    for _ in range(steps):
        out.append(advance(out[-1])[0])
    return out


@dataclass(frozen=True)
class RationalSystem:
    """x' = round(M x) with a rational matrix and componentwise real rounding."""

    matrix: tuple[tuple[Fraction, ...], ...]
    initial: tuple[Fraction, ...]
    target: tuple[Fraction, ...]
    rounding: ArgandRounding

    def __post_init__(self) -> None:
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("matrix must be square")
        if len(self.initial) != n or len(self.target) != n:
            raise ValueError("initial/target length must match dimension")
        g = self.rounding.granularity
        for v in (*self.initial, *self.target):
            if (Fraction(v) / g).denominator != 1:
                raise ValueError(f"{v} is not on the granularity-{g} grid")

    @property
    def dimension(self) -> int:
        return len(self.matrix)


def rational_step(system: RationalSystem, state: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    kind = system.rounding.kind
    g = system.rounding.granularity
    out = []
    for row in system.matrix:
        acc = Fraction(0)
        for c, v in zip(row, state):
            if c:
                acc += c * v
        out.append(round_real(acc, kind, g))
    return tuple(out)


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

    observe_initial sees the starting state; observe sees each transition with
    the exact pre-rounding values. A returned certificate must hold forever
    (the driver has already target-checked the current state).
    """

    def observe_initial(self, state: Sequence[GridPoint]) -> Optional[Certificate]:
        ...

    def observe(
        self,
        step_index: int,
        prev: Sequence[GridPoint],
        unrounded: Sequence[CycloNum],
        new: Sequence[GridPoint],
    ) -> Optional[Certificate]:
        ...


# Repeat detection stores every state in a dict up to this many states, then
# drops the dict and continues with Brent's constant-memory cycle check.
STATE_STORE_LIMIT = 2_000_000


def iterate(
    step: Callable[[Any], tuple[Any, Any]],
    start: Any,
    target: Any,
    observers: Sequence[BlockAnalyzer],
    *,
    cap: Optional[int],
    cap_is_state_bound: bool,
) -> Verdict:
    """Run the orbit of start under step until a conclusion.

    step(state) returns (new state, unrounded values); observers follow
    BlockAnalyzer.  Conclusions, in order of checking per step: target hit,
    an observer certificate, an exact state repeat.  A cap (None for none)
    is checked before each step.  cap_is_state_bound True means the cap is
    a proved bound on the number of distinct reachable states, so reaching
    it without a repeat is a sound cycle conclusion; False makes it an
    internal error.

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
        if cap is not None and i >= cap:
            if cap_is_state_bound:
                return NotReached(CycleDetected(cap))
            raise InternalInvariantError(
                f"no conclusion within the resource bound of {cap} steps"
            )
        new_state, unrounded = step(state)
        i += 1
        if new_state == target:
            return Reached(i)
        for observer in observers:
            cert = observer.observe(i - 1, state, unrounded, new_state)
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


@dataclass(frozen=True)
class OrbitRecord:
    """One start point's orbit: the states before the cycle, the cycle
    length (None when the budget ran out or a tie was undecidable), and
    every visited point with its first-visit step."""

    start: Any
    transient: int
    period: Optional[int]
    visited: tuple[tuple[Any, int], ...]


def orbit_shape(step: Callable[[Any], Any], start: Any, budget: int) -> OrbitRecord:
    """Iterate a plain state -> state step from start until a state repeats
    or budget steps have run, keeping every state at its first-visit step.

    A step that raises UndecidableTieError ends the orbit unresolved at the
    last completed step.
    """
    seen = {start: 0}
    visited = [(start, 0)]
    state = start
    for i in range(1, budget + 1):
        try:
            state = step(state)
        except UndecidableTieError:
            return OrbitRecord(start, i - 1, None, tuple(visited))
        if state in seen:
            first = seen[state]
            return OrbitRecord(start, first, i - first, tuple(visited))
        seen[state] = i
        visited.append((state, i))
    return OrbitRecord(start, budget, None, tuple(visited))


def orbit_step(
    system: Union[JnfSystem, RationalSystem]
) -> Callable[[Any], tuple[Any, Any]]:
    """The system's step for iterate: state -> (new state, unrounded values);
    a rational system has no unrounded values to show."""
    if isinstance(system, RationalSystem):
        return lambda state: (rational_step(system, state), None)
    order = system.field_order()
    eigen = [system.eigen_value(b, order) for b in system.blocks]
    return lambda state: step_with_intermediates(system, state, order, eigen)


def run_lock_step(
    system: JnfSystem,
    analyzers: Sequence[BlockAnalyzer],
    *,
    step_cap: Optional[int] = None,
    cap_is_state_bound: bool = False,
) -> Verdict:
    """Drive the shared orbit of a Jordan-form system, feeding every
    analyzer, until a conclusion (see iterate)."""
    return iterate(
        orbit_step(system),
        system.initial,
        system.target,
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

    def observe(self, step_index, prev, unrounded, new) -> Optional[Certificate]:
        for d, v in enumerate(new):
            if self.outside(v):
                return EscapedRadius(d, self.radius)
        return None


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
    """
    observers = []
    if ball_bound is not None:
        radius = Fraction(ball_bound)
        if isinstance(system, RationalSystem):
            outside = lambda v: abs(v) > radius
        else:
            radius_sq = radius * radius
            outside = lambda pt: pt.modulus_sq() > radius_sq
        observers.append(_LeavesBall(radius, outside))
    return iterate(
        orbit_step(system),
        system.initial,
        system.target,
        observers,
        cap=step_bound,
        cap_is_state_bound=True,
    )

"""Deciders for blocks whose eigenvalue modulus differs from one."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence, Union

import sympy

from .errors import (
    InternalInvariantError,
    ModulusOneSpectrumError,
    NonRationalSpectrumError,
)
from .numerics import ceil_sqrt
from .rounding import (
    ArgandRounding,
    GridPoint,
    RoundingSpec,
    effect_bound,
    kball_count,
    modulus_effect_bound,
)
from .system import (
    BlockAnalyzer,
    Certificate,
    EscapedRadius,
    JnfSystem,
    JordanBlock,
    RationalSystem,
    Verdict,
    iterate,
    orbit_step,
    run_lock_step,
)

RationalMatrix = tuple[tuple[Fraction, ...], ...]


def _exact_sqrt(q: Fraction) -> Optional[Fraction]:
    a = math.isqrt(q.numerator)
    b = math.isqrt(q.denominator)
    if a * a == q.numerator and b * b == q.denominator:
        return Fraction(a, b)
    return None


def modulus_upper(value: Union[GridPoint, Fraction, int], granularity: Fraction = Fraction(1)) -> Fraction:
    """A rational upper bound on |value|: exact when the modulus is rational,
    else the ceiling on the granularity grid (a sound enlargement)."""
    if isinstance(value, (int, Fraction)):
        return abs(Fraction(value))
    q = value.modulus_sq()
    root = _exact_sqrt(q)
    if root is not None:
        return root
    g = Fraction(granularity)
    return Fraction(ceil_sqrt(q / (g * g))) * g


@dataclass(frozen=True)
class RadiusTable:
    """Per-dimension escape radii for one block; index 0 is the fed-most
    coordinate, the last index the autonomous one."""

    eigen_modulus: Fraction
    delta: Fraction
    ell: Fraction
    radii: tuple[Fraction, ...]

    @property
    def size(self) -> int:
        return len(self.radii)

    def step_bound(self, spec: RoundingSpec) -> int:
        """States available to this block: ball-count product, floored by the
        bounding-hypercube count (2*Cmax/g)^size."""
        product = 1
        for c in self.radii:
            product *= kball_count(c, spec)
        cmax = max(self.radii)
        cube = (2 * cmax / spec.granularity) ** len(self.radii)
        return max(product, math.ceil(cube))


def radii(
    block: JordanBlock,
    delta: Fraction,
    target_slice: Sequence[Union[GridPoint, Fraction]],
    initial_slice: Optional[Sequence[Union[GridPoint, Fraction]]] = None,
    granularity: Fraction = Fraction(1),
) -> RadiusTable:
    """Escape radii from the eigenvalue modulus, the rounding effect bound,
    and the moduli of the relevant points."""
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("the rounding effect bound must be positive")
    lam = block.eigen_modulus
    if lam == 1:
        raise ModulusOneSpectrumError("escape radii need |eigenvalue| != 1")
    moduli = [modulus_upper(v, granularity) for v in target_slice]
    if initial_slice is not None:
        moduli += [modulus_upper(v, granularity) for v in initial_slice]
    ell = max(Fraction(1), delta, *moduli) if moduli else max(Fraction(1), delta)
    denom = lam - 1 if lam > 1 else 1 - lam
    size = block.size
    out = [Fraction(0)] * size
    out[size - 1] = delta / denom + ell
    for j in range(size - 2, -1, -1):
        out[j] = (delta + out[j + 1]) / denom + ell
    beta = Fraction(2) / denom
    cap = ell * (size + 1) * (1 + beta**size)
    for c in out:
        if not ell < c <= cap:
            raise InternalInvariantError("radius chain left its proved envelope")
    return RadiusTable(lam, delta, ell, tuple(out))


class HyperbolicBlockAnalyzer:
    """Emits an escape certificate once any coordinate meets its radius."""

    def __init__(self, offset: int, table: RadiusTable) -> None:
        self.offset = offset
        self.table = table
        self._radii_sq = [c * c for c in table.radii]

    def _check(self, state: Sequence[GridPoint]) -> Optional[Certificate]:
        for j, c_sq in enumerate(self._radii_sq):
            pt = state[self.offset + j]
            if pt.modulus_sq() >= c_sq:
                return EscapedRadius(self.offset + j, self.table.radii[j])
        return None

    def observe_initial(self, state: Sequence[GridPoint]) -> Optional[Certificate]:
        return self._check(state)

    def observe(self, step_index, prev, unrounded, new) -> Optional[Certificate]:
        return self._check(new)


def _block_is_real(system: JnfSystem, block: JordanBlock, start: int, end: int) -> bool:
    if not isinstance(system.rounding, ArgandRounding):
        return False
    if not (block.eigen_angle.is_zero() or block.eigen_angle.pi_multiple == 1):
        return False
    for pt in (*system.initial[start:end], *system.target[start:end]):
        if pt.im != 0:  # type: ignore[union-attr]
            return False
    return True


def escape_table(system: Union[JnfSystem, "Eigenbasis"], index: int) -> RadiusTable:
    """Escape radii of one block: the one place they are built.

    In an eigenbasis the effect bound is the basis's delta; on the grid it
    is the modulus effect bound, the real-only one for a real block under
    componentwise rounding.
    """
    block = system.blocks[index]
    start, end = system.block_slices()[index]
    if isinstance(system, Eigenbasis):
        delta = system.delta
    else:
        real_only = _block_is_real(system, block, start, end)
        delta = modulus_effect_bound(system.rounding, real_only=real_only)
    return radii(
        block,
        delta,
        system.target[start:end],
        system.initial[start:end],
        system.rounding.granularity,
    )


def hyperbolic_step_cap(system: JnfSystem, tables: Sequence[RadiusTable]) -> int:
    cap = 1
    for table in tables:
        for c in table.radii:
            cap *= kball_count(c, system.rounding)
    return cap


@dataclass(frozen=True)
class Fragment:
    """What a Jordan-form decider runs on: unit_tables(system, index) builds
    the tables of a block whose eigenvalue has modulus one, unit_analyzer
    (offset, block, rounding, target slice, field order) watches such a
    block, and step_cap(system, tables) reads the cap off every block's
    table.  With no unit_tables the fragment covers no modulus-one block."""

    step_cap: Callable[[JnfSystem, Sequence], int]
    unit_tables: Optional[Callable[[JnfSystem, int], Any]] = None
    unit_analyzer: Optional[Callable[..., BlockAnalyzer]] = None

    def tables(self, system: JnfSystem) -> list:
        """Every block's table, each built once: escape radii where the
        eigenvalue modulus is not one, unit_tables where it is (without
        unit_tables, ModulusOneSpectrumError)."""
        return [
            self.unit_tables(system, i)
            if self.unit_tables is not None and block.eigen_modulus == 1
            else escape_table(system, i)
            for i, block in enumerate(system.blocks)
        ]


HYPERBOLIC = Fragment(hyperbolic_step_cap)


def block_tables(system: JnfSystem) -> list[RadiusTable]:
    """Escape radii for every block of a system without modulus-one eigenvalues."""
    return HYPERBOLIC.tables(system)


def decide_by_blocks(system: JnfSystem, fragment: Fragment) -> Verdict:
    """Run the lock-step driver over the fragment's tables: the escape-radius
    analyzer on every block with a radius table, the fragment's unit
    analyzer on the others, and the cap read off the same tables."""
    tables = fragment.tables(system)
    order = system.field_order()
    analyzers = [
        HyperbolicBlockAnalyzer(start, table)
        if isinstance(table, RadiusTable)
        else fragment.unit_analyzer(
            start, block, system.rounding, system.target[start:end], order
        )
        for block, (start, end), table in zip(
            system.blocks, system.block_slices(), tables
        )
    ]
    return run_lock_step(
        system,
        analyzers,
        step_cap=fragment.step_cap(system, tables),
        cap_is_state_bound=system.is_hyperbolic,
    )


def decide_hyperbolic_jnf(system: JnfSystem) -> Verdict:
    """Decide reachability when every eigenvalue has modulus != 1.

    Orbit coordinates either meet their escape radius (a permanent no) or stay
    confined, where exact repeat detection and the ball-count pigeonhole bound
    conclude.  A modulus-one block raises ModulusOneSpectrumError.
    """
    return decide_by_blocks(system, HYPERBOLIC)


# ---------------------------------------------------------------------------
# Rational matrices: exact linear algebra, Jordan form, the Jordan basis


def mat_vec(m: RationalMatrix, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(sum((c * x for c, x in zip(row, v)), Fraction(0)) for row in m)


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    n = len(a)
    k = len(b)
    cols = len(b[0])
    return tuple(
        tuple(
            sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
            for j in range(cols)
        )
        for i in range(n)
    )


def mat_inv(m: RationalMatrix) -> RationalMatrix:
    n = len(m)
    work = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def max_abs_row_sum(m: RationalMatrix) -> Fraction:
    return max(sum((abs(v) for v in row), Fraction(0)) for row in m)


def jnf_rational(matrix: RationalMatrix) -> tuple[RationalMatrix, RationalMatrix]:
    """Exact Jordan decomposition M = P J P^-1 over the rationals, checked
    as M P = P J (sympy's P is invertible).

    Raises NonRationalSpectrumError when an eigenvalue is not rational.
    """
    n = len(matrix)
    sm = sympy.Matrix(n, n, lambda i, j: sympy.Rational(matrix[i][j].numerator, matrix[i][j].denominator))
    for eigenvalue in sm.eigenvals():
        if not isinstance(sympy.nsimplify(eigenvalue), sympy.Rational):
            raise NonRationalSpectrumError(f"eigenvalue {eigenvalue} is not rational")
    p_sym, j_sym = sm.jordan_form()
    p = tuple(
        tuple(Fraction(int(p_sym[i, j].p), int(p_sym[i, j].q)) for j in range(n))
        for i in range(n)
    )
    j = tuple(
        tuple(Fraction(int(j_sym[i, j2].p), int(j_sym[i, j2].q)) for j2 in range(n))
        for i in range(n)
    )
    if mat_mul(matrix, p) != mat_mul(p, j):
        raise InternalInvariantError("Jordan reconstruction mismatch")
    return p, j


def parse_jordan_blocks(j: RationalMatrix) -> list[JordanBlock]:
    """Split a Jordan matrix into blocks; validates the shape exactly."""
    from .numerics import Angle

    n = len(j)
    for r in range(n):
        for c in range(n):
            if c == r or c == r + 1:
                continue
            if j[r][c] != 0:
                raise ValueError("not a Jordan matrix: stray entry")
    blocks = []
    start = 0
    while start < n:
        end = start
        while end + 1 < n and j[end][end + 1] == 1:
            if j[end + 1][end + 1] != j[start][start]:
                raise ValueError("not a Jordan matrix: eigenvalue changes inside a block")
            end += 1
        if end + 1 < n and j[end][end + 1] not in (0, 1):
            raise ValueError("not a Jordan matrix: superdiagonal entry outside {0,1}")
        eig = j[start][start]
        angle = Angle(0) if eig >= 0 else Angle(1)
        blocks.append(JordanBlock(end - start + 1, abs(eig), angle))
        start = end + 1
    return blocks


@dataclass(frozen=True)
class Eigenbasis:
    """Where a rational-matrix system is watched: its Jordan basis
    z = P^-1 x, with the blocks of J, start and target in z, and delta,
    the rounding's effect bound there (the grid's scaled by the maximum
    absolute row sum of P^-1)."""

    p_inverse: RationalMatrix
    delta: Fraction
    blocks: tuple[JordanBlock, ...]
    initial: tuple[Fraction, ...]
    target: tuple[Fraction, ...]
    rounding: ArgandRounding

    block_slices = JnfSystem.block_slices


def eigenbasis(system: RationalSystem) -> tuple[Eigenbasis, list[RadiusTable], int]:
    """The system's Jordan basis, every block's escape radii there, and a
    proved bound on the number of distinct states.

    The bound counts grid points x = P z in the box the radii span.  A
    modulus-one eigenvalue raises ModulusOneSpectrumError, a non-rational
    one NonRationalSpectrumError.
    """
    p, j = jnf_rational(system.matrix)
    p_inverse = mat_inv(p)
    basis = Eigenbasis(
        p_inverse,
        effect_bound(system.rounding) * max_abs_row_sum(p_inverse),
        tuple(parse_jordan_blocks(j)),
        mat_vec(p_inverse, system.initial),
        mat_vec(p_inverse, system.target),
        system.rounding,
    )
    tables = [escape_table(basis, i) for i in range(len(basis.blocks))]
    all_radii = [c for table in tables for c in table.radii]
    g = system.rounding.granularity
    cap = 1
    for row in p:
        reach = sum((abs(c) * r for c, r in zip(row, all_radii)), Fraction(0))
        cap *= 2 * math.floor(reach / g) + 1
    return basis, tables, cap


class _EigenbasisEscape:
    """Certifies NO once a coordinate of z = P^-1 x meets its escape radius."""

    def __init__(self, p_inverse: RationalMatrix, radii_flat: Sequence[Fraction]) -> None:
        self.p_inverse = p_inverse
        self.radii = radii_flat

    def observe_initial(self, state: Sequence[Fraction]) -> Optional[Certificate]:
        z = mat_vec(self.p_inverse, state)
        for d, (v, c) in enumerate(zip(z, self.radii)):
            if abs(v) >= c:
                return EscapedRadius(d, c)
        return None

    def observe(self, step_index, prev, unrounded, new) -> Optional[Certificate]:
        return self.observe_initial(new)


def decide_hyperbolic_general(system: RationalSystem) -> Verdict:
    """Decide a rational-matrix system on its own orbit, watched in its
    Jordan basis.

    The update matrix must have a rational spectrum with no modulus-one
    eigenvalue.  The orbit x(i+1) = [M x(i)] is stepped exactly; each
    state's z = P^-1 x is checked against escape radii that use the
    effect bound of the rounding seen in that basis.
    """
    basis, tables, cap = eigenbasis(system)
    escape = _EigenbasisEscape(
        basis.p_inverse, [c for table in tables for c in table.radii]
    )
    return iterate(
        orbit_step(system),
        system.initial,
        system.target,
        [escape],
        cap=cap,
        cap_is_state_bound=True,
    )

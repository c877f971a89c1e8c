"""The escape-radius and eigenbasis builders as they were before they read
grid-unit integers, kept as a test reference.

`escape_table` read each block's moduli off its `GridPoint`s through
`modulus_upper` (an exact rational root, else `ceil_sqrt` on the grid) and
ran the radius chain in `Fraction` arithmetic, into a table of `Fraction`
radii; `eigenbasis` found start and target in z with two `Fraction`
`mat_vec` calls on P^-1, its effect bound with `max_abs_row_sum`, and its
state-count cap by `Fraction` sums.  They are kept here unchanged, so
differential tests can check the integer builders against them;
`jordan_basis` reads `jnf_rational`'s integer columns back into the
`Fraction` matrix P.  Only the tests import this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from roundreach.errors import InternalInvariantError, ModulusOneSpectrumError
from roundreach.hyperbolic import jnf_rational, mat_inv, mat_vec
from roundreach.numerics import ceil_sqrt
from roundreach.rounding import (
    ArgandRounding,
    GridPoint,
    effect_bound,
    modulus_effect_bound,
)
from roundreach.system import JnfSystem, JordanBlock, RationalSystem

RationalMatrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class RadiusTable:
    """Per-dimension escape radii for one block, as `Fraction`s."""

    eigen_modulus: Fraction
    delta: Fraction
    ell: Fraction
    radii: tuple[Fraction, ...]


def jordan_basis(matrix: RationalMatrix):
    """`jnf_rational`'s P as a `Fraction` matrix, column i being its
    integer column i over its scale, and the blocks."""
    columns, scales, blocks = jnf_rational(matrix)
    p = tuple(tuple(Fraction(col[i], s) for col, s in zip(columns, scales))
              for i in range(len(columns)))
    return p, blocks


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


def _block_is_real(system: JnfSystem, block: JordanBlock, start: int, end: int) -> bool:
    if not isinstance(system.rounding, ArgandRounding):
        return False
    if not (block.eigen_angle.is_zero() or block.eigen_angle.pi_multiple == 1):
        return False
    for pt in (*system.initial[start:end], *system.target[start:end]):
        if pt.im != 0:  # type: ignore[union-attr]
            return False
    return True


def escape_table(system: JnfSystem, index: int) -> RadiusTable:
    """Escape radii of one block of a Jordan-form system, from its grid
    points."""
    block = system.blocks[index]
    start, end = system.block_slices()[index]
    real_only = _block_is_real(system, block, start, end)
    delta = modulus_effect_bound(system.rounding, real_only=real_only)
    return radii(
        block,
        delta,
        system.target[start:end],
        system.initial[start:end],
        system.rounding.granularity,
    )


def max_abs_row_sum(m: RationalMatrix) -> Fraction:
    return max(sum((abs(v) for v in row), Fraction(0)) for row in m)


def eigenbasis(system: RationalSystem):
    """(P^-1, delta, start in z, target in z, the blocks' radius tables,
    the state-count cap), each built in `Fraction` arithmetic."""
    p, blocks = jordan_basis(system.matrix)
    p_inverse = mat_inv(p)
    delta = effect_bound(system.rounding) * max_abs_row_sum(p_inverse)
    initial = mat_vec(p_inverse, system.initial)
    target = mat_vec(p_inverse, system.target)
    tables = []
    start = 0
    for block in blocks:
        end = start + block.size
        tables.append(radii(block, delta, target[start:end], initial[start:end],
                            system.rounding.granularity))
        start = end
    all_radii = [c for table in tables for c in table.radii]
    g = system.rounding.granularity
    cap = 1
    for row in p:
        reach = sum((abs(c) * r for c, r in zip(row, all_radii)), Fraction(0))
        cap *= 2 * math.floor(reach / g) + 1
    return p_inverse, delta, initial, target, tables, cap

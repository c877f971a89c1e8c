"""The step cap as computed from `Fraction` tables, kept as a test
reference.

`RadiusTable.step_bound` and `hyperbolic.step_cap` read their counts off
integer tables.  Here the same rule reads them off `Fraction` radii and
moduli, one `kbox_count` division of a `Fraction` radius by the
granularity per radius, over the `Fraction` tables of `escape_reference`
and `unit_tables_reference` (`tables`), so differential tests can check
the integer caps against it.  Only the tests import this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import escape_reference
import unit_tables_reference
from escape_reference import RadiusTable
from roundreach.rounding import PolarRounding, RoundingSpec
from roundreach.system import JnfSystem


def kbox_count(radius: Fraction, spec: RoundingSpec) -> int:
    k = Fraction(radius) / spec.granularity
    if k < 0:
        return 0
    half = math.floor(k)
    if isinstance(spec, PolarRounding):
        return 1 + half * 2 * spec.angle_resolution
    return (2 * half + 1) ** 2


def step_bound(table: RadiusTable, spec: RoundingSpec) -> int:
    """RadiusTable.step_bound: the product of the box counts."""
    product = 1
    for c in table.radii:
        product *= kbox_count(c, spec)
    return product


def tables(system: JnfSystem) -> list:
    """Every block's table: escape radii off the unit circle, the
    rounding's unit budgets on it."""
    unit = (unit_tables_reference.resource_bounds if isinstance(system.rounding, PolarRounding)
            else unit_tables_reference.truncation_bounds)
    return [unit(system, i) if block.eigen_modulus == 1
            else escape_reference.escape_table(system, i)
            for i, block in enumerate(system.blocks)]


def unit_count(system: JnfSystem, index: int, table) -> tuple[int, int]:
    """A unit block's settle steps and state count.  Under polar rounding:
    its top settle bound, and 1 + (u + 1)*2R states per coordinate of
    modulus budget u*g.  Under truncation and expansion: the top settle
    bound plus the scheduled divergences' slack, and 4 states."""
    spec = system.rounding
    if isinstance(spec, PolarRounding):
        states = 1
        for bound in table.modulus_bounds:
            steps = int(bound / spec.granularity) + 1
            states *= 1 + steps * 2 * spec.angle_resolution
        return table.settle_bounds[0], states
    start, end = system.block_slices()[index]
    target = system.kernel.target[start:end]
    slack = (
        sum(abs(a) + abs(b) for a, b in target)
        + math.ceil(table.modulus_bounds[0] / spec.granularity)
        + max(a * a + b * b for a, b in target)
        + 8
    )
    return table.settle_bounds[0] + slack, 4


def step_cap(system: JnfSystem, tables: Sequence) -> int:
    """hyperbolic.step_cap: the product of the blocks' state counts, a
    proved bound when no eigenvalue has modulus one; otherwise every unit
    block's settle steps, plus the product, plus 2."""
    settle = 0
    states = 1
    for index, table in enumerate(tables):
        if isinstance(table, RadiusTable):
            states *= step_bound(table, system.rounding)
            continue
        steps, count = unit_count(system, index, table)
        settle += steps
        states *= count
    return states if system.is_hyperbolic else settle + states + 2

"""The step caps as they were computed from `Fraction` tables, kept as a
test reference.

`RadiusTable.step_bound`, `hyperbolic_step_cap`, `argand_step_cap` and
`polar_step_cap` read their counts off `Fraction` radii and moduli, one
`kbox_count` division of a `Fraction` radius by the granularity per
radius.  They are kept here as they were, over the `Fraction` tables of
`escape_reference` and `unit_tables_reference` (`tables`), so
differential tests can check the integer caps against them.  Only the
tests import this module.
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
    """RadiusTable.step_bound: the product of the box counts, floored by
    the bounding-hypercube count (2*Cmax/g)^size."""
    product = 1
    for c in table.radii:
        product *= kbox_count(c, spec)
    cmax = max(table.radii)
    cube = (2 * cmax / spec.granularity) ** len(table.radii)
    return max(product, math.ceil(cube))


def tables(system: JnfSystem) -> list:
    """Every block's table: escape radii off the unit circle, the
    rounding's unit budgets on it."""
    unit = (unit_tables_reference.resource_bounds if isinstance(system.rounding, PolarRounding)
            else unit_tables_reference.truncation_bounds)
    return [unit(system, i) if block.eigen_modulus == 1
            else escape_reference.escape_table(system, i)
            for i, block in enumerate(system.blocks)]


def hyperbolic_step_cap(system: JnfSystem, tables: Sequence[RadiusTable]) -> int:
    cap = 1
    for table in tables:
        for c in table.radii:
            cap *= kbox_count(c, system.rounding)
    return cap


def argand_step_cap(system: JnfSystem, tables: Sequence) -> int:
    spec = system.rounding
    settle = 0
    states = 1
    for (start, end), table in zip(system.block_slices(), tables):
        if isinstance(table, RadiusTable):
            states *= step_bound(table, spec)
            continue
        target = system.kernel.target[start:end]
        slack = (
            sum(abs(a) + abs(b) for a, b in target)
            + math.ceil(table.modulus_bounds[0] / spec.granularity)
            + max(a * a + b * b for a, b in target)
            + 8
        )
        settle += table.settle_bounds[0] + slack
        states *= 4
    return settle + states + 2


def polar_step_cap(system: JnfSystem, tables: Sequence) -> int:
    spec = system.rounding
    settle = 0
    states = 1
    for table in tables:
        if isinstance(table, RadiusTable):
            states *= step_bound(table, spec)
            continue
        settle += table.settle_bounds[0]
        for bound in table.modulus_bounds:
            steps = int(bound / spec.granularity) + 1
            states *= 1 + steps * 2 * spec.angle_resolution
    return settle + states + 2

"""The shared unit-table builder against the two builders it replaced, and
the unit-block lookup both table families go through."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unit_tables_reference as reference
from roundreach.argand_decider import truncation_bounds
from roundreach.numerics import Angle
from roundreach.polar_decider import resource_bounds
from roundreach.rounding import (
    ArgandPoint,
    ArgandRounding,
    PolarPoint,
    PolarRounding,
    RoundingKind,
)
from roundreach.system import JnfSystem, JordanBlock

ANGLES = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(5, 6))
GRANULARITIES = (Fraction(1), Fraction(1, 2), Fraction(1, 3))
HYPERBOLIC = JordanBlock(1, Fraction(2), Angle(Fraction(0)))


@st.composite
def unit_system(draw, polar: bool):
    """One unit block of size 1-4, sometimes below a modulus-2 block, with
    random grid points for its start and target; returns (system, index)."""
    size = draw(st.integers(1, 4))
    g = draw(st.sampled_from(GRANULARITIES))
    blocks = (JordanBlock(size, Fraction(1), Angle(draw(st.sampled_from(ANGLES)))),)
    if draw(st.booleans()):
        blocks = (HYPERBOLIC,) + blocks
    dim = sum(b.size for b in blocks)
    if polar:
        resolution = draw(st.sampled_from((2, 3, 4, 6)))
        spec = PolarRounding(
            draw(st.sampled_from((RoundingKind.FLOOR, RoundingKind.MINIMAL_ERROR_UP))),
            resolution, g)

        def point():
            k = draw(st.integers(0, 12))
            return PolarPoint(k * g, draw(st.integers(0, 2 * resolution - 1)) if k else 0)
    else:
        spec = ArgandRounding(
            draw(st.sampled_from((RoundingKind.TRUNCATE, RoundingKind.EXPAND))), g)

        def point():
            return ArgandPoint(draw(st.integers(-9, 9)) * g, draw(st.integers(-9, 9)) * g)

    initial = tuple(point() for _ in range(dim))
    target = tuple(point() for _ in range(dim))
    return JnfSystem(blocks, initial, target, spec), len(blocks) - 1


def assert_same_tables(mine, ref) -> None:
    assert mine.initial_size == ref.initial_size
    assert mine.modulus_bounds == ref.modulus_bounds
    assert mine.settle_bounds == ref.settle_bounds
    assert mine.growth_base == ref.growth_base
    for j in range(len(ref.modulus_bounds)):
        assert mine.doubly_exponential_ceiling(j) == ref.doubly_exponential_ceiling(j)


@settings(max_examples=150, deadline=None)
@given(unit_system(polar=False))
def test_truncation_tables_match_the_reference(case):
    system, index = case
    assert_same_tables(truncation_bounds(system, index),
                       reference.truncation_bounds(system, index))


@settings(max_examples=150, deadline=None)
@given(unit_system(polar=True))
def test_polar_tables_match_the_reference(case):
    system, index = case
    assert_same_tables(resource_bounds(system, index),
                       reference.resource_bounds(system, index))


def _argand(blocks) -> JnfSystem:
    points = tuple(ArgandPoint(Fraction(3), Fraction(0)) for b in blocks for _ in range(b.size))
    return JnfSystem(blocks, points, points, ArgandRounding(RoundingKind.TRUNCATE))


def test_unit_block_rejects_an_index_off_the_unit_circle():
    unit = JordanBlock(1, Fraction(1), Angle(Fraction(1, 4)))
    system = _argand((unit, HYPERBOLIC))
    assert system.unit_block(0) == (unit, 0, 1)
    with pytest.raises(ValueError, match="block 1 has eigenvalue modulus 2, not one"):
        system.unit_block(1)
    with pytest.raises(ValueError, match="block 1 has eigenvalue modulus 2, not one"):
        truncation_bounds(system, 1)

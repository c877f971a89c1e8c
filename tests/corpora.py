"""The seeded decider corpora of acceptance criteria 4, 6 and 7.

Each generator yields the same systems, in the same order, every run.
"""

import random
from fractions import Fraction

from roundreach.numerics import Angle
from roundreach.rounding import (
    ArgandPoint,
    ArgandRounding,
    PolarPoint,
    PolarRounding,
    RoundingKind,
)
from roundreach.system import JnfSystem, JordanBlock

FL, MU, TR = (RoundingKind.FLOOR, RoundingKind.MINIMAL_ERROR_UP,
              RoundingKind.TRUNCATE)


def hyperbolic_corpus():
    """Criterion 4: 200 systems with no modulus-one block."""
    rng = random.Random(20260825)
    moduli = [Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(3)]
    shapes = [(1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1)]
    angles = [Angle(Fraction(0)), Angle(Fraction(1)), Angle(Fraction(1, 2))]
    kinds = [FL, MU, TR]
    for trial in range(200):
        shape = rng.choice(shapes)
        blocks = tuple(
            JordanBlock(size, rng.choice(moduli), rng.choice(angles))
            for size in shape)
        dim = sum(shape)
        initial = tuple(
            ArgandPoint(Fraction(rng.randint(-10, 10)),
                        Fraction(rng.randint(-10, 10)))
            for _ in range(dim))
        target = tuple(
            ArgandPoint(Fraction(rng.randint(-10, 10)),
                        Fraction(rng.randint(-10, 10)))
            for _ in range(dim))
        yield JnfSystem(blocks, initial, target, ArgandRounding(kinds[trial % 3]))


def polar_corpus():
    """Criterion 6: 100 systems of one unit block under polar rounding."""
    rng = random.Random(20260826)
    angles = [Angle(Fraction(1, 2)), Angle(Fraction(1, 3)),
              Angle(Fraction(1, 4))]
    for trial in range(100):
        size = rng.randint(1, 2)
        resolution = rng.choice([2, 3, 4])
        spec = PolarRounding([FL, MU, TR][trial % 3], resolution)
        blocks = (JordanBlock(size, Fraction(1), rng.choice(angles)),)

        def point():
            modulus = Fraction(rng.randint(0, 8))
            index = rng.randint(0, 2 * resolution - 1) if modulus else 0
            return PolarPoint(modulus, index)

        yield JnfSystem(blocks, tuple(point() for _ in range(size)),
                        tuple(point() for _ in range(size)), spec)


def argand_corpus():
    """Criterion 7: 100 systems of one unit block under componentwise
    truncation (even trials) or expansion (odd trials)."""
    rng = random.Random(20260827)
    angles = [Angle(Fraction(1, 4)), Angle(Fraction(1, 3)),
              Angle(Fraction(1, 2))]
    for trial in range(100):
        size = rng.randint(1, 2)
        kind = TR if trial % 2 == 0 else RoundingKind.EXPAND
        angle = rng.choice(angles)
        blocks = (JordanBlock(size, Fraction(1), angle),)
        initial = tuple(
            ArgandPoint(Fraction(rng.randint(-5, 5)),
                        Fraction(rng.randint(-5, 5)))
            for _ in range(size))
        target = tuple(
            ArgandPoint(Fraction(rng.randint(-5, 5)),
                        Fraction(rng.randint(-5, 5)))
            for _ in range(size))
        yield JnfSystem(blocks, initial, target, ArgandRounding(kind))

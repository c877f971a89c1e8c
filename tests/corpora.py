"""The seeded decider corpora of acceptance criteria 4, 6 and 7, and the
rational-matrix corpus of the hyperbolic tests.

Each generator yields the same systems, in the same order, every run.
"""

import random
from fractions import Fraction

from roundreach.hyperbolic import mat_inv, mat_mul
from roundreach.numerics import Angle
from roundreach.rounding import (
    ArgandPoint,
    ArgandRounding,
    PolarPoint,
    PolarRounding,
    RoundingKind,
)
from roundreach.system import JnfSystem, JordanBlock, RationalSystem

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


def rational_matrices():
    """Without end: (P D P^-1, eigenvalues) for an integer P drawn until
    it is invertible and a diagonal D over {1/2, 2, 3, -2}, in one to
    three dimensions."""
    rng = random.Random(37)
    while True:
        n = rng.randint(1, 3)
        eigs = [rng.choice([Fraction(1, 2), Fraction(2), Fraction(3), Fraction(-2)])
                for _ in range(n)]
        while True:
            p = tuple(
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n)
            )
            try:
                p_inv = mat_inv(p)
                break
            except ValueError:
                continue
        d = tuple(
            tuple(eigs[i] if i == j else Fraction(0) for j in range(n))
            for i in range(n)
        )
        yield mat_mul(mat_mul(p, d), p_inv), eigs


def rational_corpus():
    """200 rational-matrix systems on the first 200 rational_matrices, with
    start and target coordinates drawn like criterion 4's from a stream of
    their own (so the matrices stay those rational_matrices yields) and
    the rounding kind cycling floor, minimal error, truncation."""
    rng = random.Random(38)
    kinds = [FL, MU, TR]
    for trial, (matrix, _eigs) in zip(range(200), rational_matrices()):
        n = len(matrix)
        initial = tuple(Fraction(rng.randint(-10, 10)) for _ in range(n))
        target = tuple(Fraction(rng.randint(-10, 10)) for _ in range(n))
        yield RationalSystem(matrix, initial, target, ArgandRounding(kinds[trial % 3]))

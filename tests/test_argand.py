"""Componentwise truncation and expansion on rotation blocks."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from roundreach.numerics import Angle
from roundreach.rounding import ArgandPoint, ArgandRounding, RoundingKind
from roundreach.argand_decider import (
    decide_expansion,
    decide_truncation,
    niven_classify,
    truncation_bounds,
)
from roundreach.system import (
    CycleDetected,
    DivergedPastTarget,
    JnfSystem,
    JordanBlock,
    NotReached,
    Reached,
    StabilizedMismatch,
    brute_force_decide,
    simulate,
    step,
)

TR, EX = RoundingKind.TRUNCATE, RoundingKind.EXPAND


def A(re, im=0):
    return ArgandPoint(Fraction(re), Fraction(im))


B1_45 = (JordanBlock(1, Fraction(1), Angle(Fraction(1, 4))),)
B1_90 = (JordanBlock(1, Fraction(1), Angle(Fraction(1, 2))),)
B2_45 = (JordanBlock(2, Fraction(1), Angle(Fraction(1, 4))),)


def make(blocks, initial, target, kind, g=Fraction(1)):
    return JnfSystem(blocks, initial, target, ArgandRounding(kind, g))


@pytest.mark.parametrize(
    "num, sin_r, cos_r, tan_r, axis",
    [
        (Fraction(0), True, True, True, True),
        (Fraction(1, 2), True, True, None, True),
        (Fraction(1), True, True, True, True),
        (Fraction(3, 2), True, True, None, True),
        (Fraction(1, 4), False, False, True, False),
        (Fraction(3, 4), False, False, True, False),
        (Fraction(1, 3), False, True, False, False),
        (Fraction(1, 6), True, False, False, False),
        (Fraction(5, 6), True, False, False, False),
        (Fraction(1, 12), False, False, False, False),
        (Fraction(2, 3), False, True, False, False),
    ],
)
def test_niven_classify_frozen_rows(num, sin_r, cos_r, tan_r, axis):
    c = niven_classify(Angle(num))
    assert (c.sin_rational, c.cos_rational, c.tan_rational,
            c.axis_multiple_90) == (sin_r, cos_r, tan_r, axis)


def test_niven_classify_against_symbolic_evaluation():
    for q in range(1, 25):
        for p in range(0, 2 * q):
            angle = Angle(Fraction(p, q))
            c = niven_classify(angle)
            x = sympy.Rational(*angle.pi_multiple.as_integer_ratio()) * sympy.pi
            s, co = sympy.sin(x), sympy.cos(x)
            assert c.sin_rational == bool(sympy.nsimplify(s).is_rational), angle
            assert c.cos_rational == bool(sympy.nsimplify(co).is_rational), angle
            if co == 0:
                assert c.tan_rational is None, angle
            else:
                t = sympy.nsimplify(sympy.tan(x))
                assert c.tan_rational == bool(t.is_rational), angle
            assert c.axis_multiple_90 == (s == 0 or co == 0), angle


def test_truncation_orbit_to_zero():
    s = make(B1_45, (A(3),), (A(0),), TR)
    assert decide_truncation(s) == Reached(5)
    assert brute_force_decide(s, step_bound=400) == Reached(5)
    coords = [(st[0].re, st[0].im) for st in simulate(s, 5)]
    assert coords == [(3, 0), (2, 2), (0, 2), (-1, 1), (-1, 0), (0, 0)]


def test_truncation_right_angle_cases():
    s = make(B1_90, (A(3, 4),), (A(-4, 3),), TR)
    assert decide_truncation(s) == Reached(1)
    s = make(B1_90, (A(3, 4),), (A(5, 0),), TR)
    assert decide_truncation(s) == NotReached(CycleDetected(4))
    assert brute_force_decide(s, step_bound=400) == NotReached(CycleDetected(4))
    # same cycle, but the modulus analyzer certifies before the loop closes
    s = make(B1_90, (A(3, 4),), (A(2, 0),), TR)
    assert decide_truncation(s) == NotReached(StabilizedMismatch(0))
    assert isinstance(brute_force_decide(s, step_bound=400), NotReached)


def test_expansion_cases():
    s = make(B1_45, (A(3),), (A(3),), EX)
    assert decide_expansion(s) == Reached(0)
    # expansion never shrinks a coordinate: a smaller target is dead on entry
    s = make(B1_45, (A(3),), (A(2),), EX)
    assert decide_expansion(s) == NotReached(DivergedPastTarget(0))
    coords = [(st[0].re, st[0].im) for st in simulate(s, 4)]
    assert coords == [(3, 0), (3, 3), (0, 5), (-4, 4), (-6, 0)]


def test_expansion_deleted_bottom_dimension():
    s = make(B2_45, (A(3), A(0)), (A(3), A(0)), EX)
    assert decide_expansion(s) == Reached(0)
    s = make(B2_45, (A(3), A(0)), (A(4), A(0)), EX)
    assert decide_expansion(s) == NotReached(DivergedPastTarget(0))


def test_decide_rejects_wrong_rounding():
    from roundreach.rounding import PolarPoint, PolarRounding

    blocks = (JordanBlock(1, Fraction(1), Angle(Fraction(1, 2))),)
    s = JnfSystem(blocks, (PolarPoint(Fraction(1), 0),),
                  (PolarPoint(Fraction(1), 0),),
                  PolarRounding(RoundingKind.MINIMAL_ERROR_UP, 2))
    with pytest.raises(ValueError):
        decide_truncation(s)


def test_truncation_builds_each_escape_table_once(monkeypatch):
    # the escape table the analyzer watches is the one the step cap reads
    from roundreach import hyperbolic

    calls = []
    radii = hyperbolic.radii
    monkeypatch.setattr(
        hyperbolic, "radii", lambda *args: calls.append(args) or radii(*args)
    )
    blocks = B1_45 + (JordanBlock(1, Fraction(1, 2), Angle(Fraction(0))),)
    s = make(blocks, (A(3), A(4)), (A(0), A(0)), TR)
    assert decide_truncation(s) == Reached(5)
    assert len(calls) == 1


def test_truncation_bounds_frozen_tables():
    s = make(B1_45, (A(3),), (A(0),), TR)
    b = truncation_bounds(s)
    assert b.initial_size == 3
    assert b.modulus_bounds == (Fraction(3),)
    assert b.settle_bounds == (6,)
    assert b.growth_base == 12

    s = make(B2_45, (A(3), A(2)), (A(0), A(0)), TR)
    b = truncation_bounds(s)
    assert b.initial_size == 5
    assert b.modulus_bounds == (Fraction(1005), Fraction(5))
    assert b.settle_bounds == (4040200, 100)
    assert b.growth_base == 80


def test_truncation_bounds_ceiling_sweep():
    rng = random.Random(61)
    for _ in range(50):
        size = rng.randint(1, 4)
        g = rng.choice([Fraction(1), Fraction(1, 2), Fraction(1, 3)])
        blocks = (JordanBlock(size, Fraction(1), Angle(Fraction(1, 2))),)
        initial = tuple(A(rng.randint(0, 9), rng.randint(0, 9))
                        for _ in range(size))
        target = tuple(A(0) for _ in range(size))
        s = make(blocks, initial, target, TR, g)
        b = truncation_bounds(s)
        for j in range(size):
            assert b.modulus_bounds[size - 1 - j] <= b.doubly_exponential_ceiling(j)
        assert all(a >= c for a, c in zip(b.settle_bounds, b.settle_bounds[1:]))


def test_decide_agrees_with_brute_force_randomized():
    rng = random.Random(20260823)
    angles = [Angle(Fraction(1, 4)), Angle(Fraction(1, 3)), Angle(Fraction(1, 2))]
    for trial in range(60):
        size = rng.randint(1, 2)
        kind = TR if trial % 2 == 0 else EX
        blocks = (JordanBlock(size, Fraction(1), rng.choice(angles)),)
        initial = tuple(A(rng.randint(-5, 5), rng.randint(-5, 5))
                        for _ in range(size))
        target = tuple(A(rng.randint(-5, 5), rng.randint(-5, 5))
                       for _ in range(size))
        s = make(blocks, initial, target, kind)
        decide = decide_truncation if kind is TR else decide_expansion
        mine = decide(s)
        # expansion never shrinks moduli, so once past the target ball the
        # orbit cannot come back: a small escape radius keeps brute sound
        ref = brute_force_decide(
            s, step_bound=2000,
            ball_bound=Fraction(1000) if kind is EX else None)
        same_reach = isinstance(mine, Reached) == isinstance(ref, Reached)
        assert same_reach, (s, mine, ref)
        if isinstance(mine, Reached):
            assert mine == ref


def _truncated_eighth_turn(x: int, y: int) -> tuple[int, int]:
    # integer model of one rotation by a 45 degree turn followed by
    # truncation toward zero: coordinates are (x - y) and (x + y) each
    # scaled by sqrt(2)/2, truncated via integer square roots
    def tr(k: int) -> int:
        return (1 if k >= 0 else -1) * math.isqrt(k * k // 2)

    return tr(x - y), tr(x + y)


def test_truncation_stabilizes_only_at_origin_exhaustive():
    # every orbit in the radius-30 disk ends in a cycle; if that cycle is a
    # fixpoint it is the origin (checked on the independent integer model)
    fixpoints = set()
    for x in range(-30, 31):
        for y in range(-30, 31):
            if x * x + y * y > 900:
                continue
            seen = {}
            p = (x, y)
            while p not in seen:
                seen[p] = len(seen)
                p = _truncated_eighth_turn(*p)
            if _truncated_eighth_turn(*p) == p:
                fixpoints.add(p)
    assert fixpoints == {(0, 0)}


def test_truncation_package_orbits_match_integer_model():
    for x, y in [(3, 0), (7, 2), (-5, 6), (12, -9), (30, 0), (-17, -17)]:
        s = make(B1_45, (A(x, y),), (A(0),), TR)
        state = s.initial
        model = (x, y)
        for _ in range(40):
            state = step(s, state)
            model = _truncated_eighth_turn(*model)
            assert (state[0].re, state[0].im) == model

"""Unit-modulus rotation analysis under polar rounding."""

import random
from fractions import Fraction

import pytest

from angle_reference import angle_distance
from roundreach.numerics import Angle, CycloNum, embed_polar
from roundreach.rounding import (
    PolarPoint,
    PolarRounding,
    RoundingKind,
    round_value,
)
from roundreach.polar_decider import (
    _half_turn,
    _separation,
    decide_polar,
    divergence_stop,
    gamma_exceeds_right_angle,
    polar_step_cap,
    resource_bounds,
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
    orbit_shape,
    simulate,
    step,
)

MU, FL = RoundingKind.MINIMAL_ERROR_UP, RoundingKind.FLOOR
HALF = Fraction(1, 2)


def P(m, a=0):
    return PolarPoint(Fraction(m), a)


def system(blocks, initial, target, kind=MU, resolution=2):
    return JnfSystem(blocks, initial, target, PolarRounding(kind, resolution))


B2 = (JordanBlock(2, Fraction(1), Angle(HALF)),)
B3 = (JordanBlock(3, Fraction(1), Angle(HALF)),)
B1 = (JordanBlock(1, Fraction(1), Angle(HALF)),)


def test_phi_angle_frozen():
    # the separation angle phi, as a multiple of pi, between the upper grid
    # angle rotated by pi/2 and the lower one, at angle resolution 2
    half_turn, eigen_steps = _half_turn(Angle(HALF), 2)

    def phi(upper_index, lower_index):
        steps = _separation(upper_index, eigen_steps, lower_index, half_turn // 2, half_turn)
        return Fraction(steps, half_turn)

    assert phi(0, 0) == HALF
    assert phi(1, 0) == 1
    assert phi(0, 1) == 0


def test_gamma_exceeds_right_angle():
    a = embed_polar(Fraction(5), Angle(Fraction(0)), 8)
    for num, expect in ((Fraction(1, 4), False), (Fraction(1, 2), False),
                        (Fraction(3, 4), True), (Fraction(1), True)):
        w = embed_polar(Fraction(5), Angle(num), 8)
        assert gamma_exceeds_right_angle(w, a) is expect, num


def test_divergence_stop_frozen():
    spec = PolarRounding(MU, 2, Fraction(1))

    def w(value):
        return CycloNum.from_rational(4, Fraction(value))

    args = (Fraction(10), Fraction(4), Fraction(8))
    assert divergence_stop(*args, w(11), spec)
    # not past the rounding-proof threshold (10 + 1/2)
    assert not divergence_stop(*args, w(Fraction(52, 5)), spec)
    # below the target modulus
    assert not divergence_stop(Fraction(7), Fraction(4), Fraction(8), w(11), spec)
    # dominated by the value fed from below
    assert not divergence_stop(Fraction(10), Fraction(15), Fraction(8), w(11), spec)


def test_divergence_stop_is_permanent_on_example():
    # once the top dimension outruns its feeder and the target, its modulus
    # never comes back down: check along a long orbit
    s = system(B3, (P(6), P(5), P(4)), (P(6), P(5), P(4)))
    states = simulate(s, 300)
    fired_at = None
    for i, st in enumerate(states):
        if st[0].modulus > 60:
            fired_at = i
            break
    assert fired_at is not None
    floor_mod = states[fired_at][0].modulus
    assert all(st[0].modulus >= floor_mod for st in states[fired_at:])


def test_resource_bounds_frozen_tables():
    s = system(B2, (P(5), P(4)), (P(1), P(1)))
    b = resource_bounds(s, 0)
    assert b.initial_size == 9
    assert b.modulus_bounds == (Fraction(27), Fraction(9))
    assert b.settle_bounds == (465, 1)
    assert b.growth_base == 1728

    s = system(B2, (P(5), P(4)), (P(5), P(4)))
    b = resource_bounds(s, 0)
    assert b.settle_bounds == (577, 1)
    assert b.growth_base == 7776


def test_resource_bounds_ceiling_property():
    rng = random.Random(53)
    for _ in range(40):
        size = rng.randint(1, 4)
        blocks = (JordanBlock(size, Fraction(1), Angle(HALF)),)
        initial = tuple(P(rng.randint(0, 8)) for _ in range(size))
        target = tuple(P(rng.randint(0, 8)) for _ in range(size))
        res = rng.choice([2, 3, 4])
        s = system(blocks, initial, target, resolution=res)
        b = resource_bounds(s, 0)
        f = b.growth_base
        clamped = max(b.initial_size, 1)
        for j, u in enumerate(reversed(b.modulus_bounds)):
            assert u <= (f * clamped) ** (2**j)
        # settle bounds accumulate bottom-up
        assert all(a >= c for a, c in zip(b.settle_bounds, b.settle_bounds[1:]))


def test_polar_step_cap_positive_and_monotone_in_size():
    small = system(B1, (P(3),), (P(3),))
    large = system(B2, (P(5), P(4)), (P(5), P(4)))
    assert 0 < polar_step_cap(small) < polar_step_cap(large)


def test_lemma_style_angle_margin():
    # rounding the angle to the pi/R grid and adding the half-step tie margin
    # never crosses a right angle, for every resolution from 3 up
    for resolution in range(3, 101):
        theta = Fraction(1, resolution)
        steps = (Fraction(1, 4) + theta - Fraction(1, 10**9)) // theta
        assert steps * theta + theta / 2 <= HALF


def test_decide_example_battery():
    cases = [
        # Example-9 flavored dimension-2 rotation, on-cycle target
        (system(B2, (P(5), P(4)), (P(16, 1), P(4, 1))), Reached(13)),
        (system(B2, (P(5), P(4)), (P(16, 1), P(4, 2))),
         NotReached(CycleDetected(15))),
        # 17 is above the top-dimension ceiling: settled mismatch
        (system(B2, (P(5), P(4)), (P(17), P(4))),
         NotReached(StabilizedMismatch(0))),
        (system(B2, (P(7), P(2)), (P(8, 2), P(2, 2))),
         NotReached(StabilizedMismatch(0))),
        (system(B2, (P(5), P(0)), (P(5, 1), P(0))), Reached(1)),
        (system(B2, (P(5), P(0)), (P(6), P(0))),
         NotReached(StabilizedMismatch(0))),
        (system(B3, (P(6), P(5), P(4)), (P(6, 1), P(5), P(4))),
         NotReached(DivergedPastTarget(1))),
        (system(B1, (P(3),), (P(3, 2),)), Reached(2)),
        (system(B1, (P(3),), (P(4),)), NotReached(StabilizedMismatch(0))),
    ]
    for s, expected in cases:
        assert decide_polar(s) == expected
        ref = brute_force_decide(s, step_bound=2000)
        assert isinstance(decide_polar(s), Reached) == isinstance(ref, Reached)


def test_decide_contracting_blocks():
    b_half = (JordanBlock(2, HALF, Angle(HALF)),)
    s = JnfSystem(b_half, (P(7), P(2)), (P(2, 1), P(1, 2)), PolarRounding(MU, 2))
    assert decide_polar(s) == Reached(6)
    s = JnfSystem(b_half, (P(7), P(3)), (P(1, 3), P(0)), PolarRounding(FL, 2))
    assert decide_polar(s) == Reached(3)
    s = JnfSystem(b_half, (P(7), P(2)), (P(1, 2), P(1, 2)), PolarRounding(MU, 2))
    verdict = decide_polar(s)
    assert isinstance(verdict, NotReached)


def test_decide_rejects_wrong_rounding():
    from roundreach.rounding import ArgandPoint, ArgandRounding

    blocks = (JordanBlock(1, Fraction(1), Angle(HALF)),)
    s = JnfSystem(blocks, (ArgandPoint(Fraction(1), Fraction(0)),),
                  (ArgandPoint(Fraction(1), Fraction(0)),),
                  ArgandRounding(RoundingKind.TRUNCATE))
    with pytest.raises(ValueError):
        decide_polar(s)


def test_decide_agrees_with_brute_force_randomized():
    rng = random.Random(20260822)
    for _ in range(40):
        size = rng.randint(1, 2)
        angle = rng.choice([Angle(HALF), Angle(Fraction(1, 3)), Angle(Fraction(1, 4))])
        res = rng.choice([2, 3, 4])
        blocks = (JordanBlock(size, Fraction(1), angle),)
        spec = PolarRounding(MU, res)
        def point():
            m = Fraction(rng.randint(0, 8))
            return PolarPoint(m, rng.randint(0, 2 * res - 1) if m else 0)

        initial = tuple(point() for _ in range(size))
        target = tuple(point() for _ in range(size))
        s = JnfSystem(blocks, initial, target, spec)
        mine = decide_polar(s)
        ref = brute_force_decide(s, step_bound=1200)
        assert isinstance(mine, Reached) == isinstance(ref, Reached), (s, mine, ref)
        if isinstance(mine, Reached):
            assert mine == ref


def tower_orbit(s):
    return orbit_shape(lambda state: step(s, state), s.initial, 10_000)


def largest_moduli(run):
    return tuple(max(state[j].modulus for state, _i in run.visited)
                 for j in range(len(run.start)))


def test_axis_simulation_example_growth():
    run = tower_orbit(system(B2, (P(5), P(4)), (P(5), P(4))))
    assert (run.transient, run.period) == (11, 4)
    assert largest_moduli(run) == (16, 4)

    run = tower_orbit(system(B3, (P(6), P(5), P(4)), (P(6), P(5), P(4))))
    assert (run.transient, run.period) == (204, 4)
    assert largest_moduli(run) == (256, 16, 4)


def test_orbit_shape_matches_plain_simulation():
    towers = (system(B2, (P(5), P(4)), (P(5), P(4))),
              system(B3, (P(6), P(5), P(4)), (P(6), P(5), P(4))))
    for s in towers:
        run = tower_orbit(s)
        end = run.transient + run.period
        states = simulate(s, end)
        assert len({state for state, _i in run.visited}) == len(run.visited)
        assert [i for _state, i in run.visited] == list(range(end))
        assert run.visited == tuple(zip(states[:end], range(end)))
        assert states[end] == states[run.transient]


def test_rounded_angle_never_moves_into_target_mismatch():
    # rounding the angle moves a value by at most half a grid step: the grid
    # index of the rounded value differs from the nearest index by 0
    spec = PolarRounding(MU, 3, Fraction(1))
    rng = random.Random(59)
    for _ in range(50):
        m = Fraction(rng.randint(1, 9))
        num = Fraction(rng.randint(0, 35), 18)
        z = embed_polar(m, Angle(num), 36)
        p = round_value(z, spec)
        if p.is_zero():
            continue
        grid_angle = p.angle(3)
        true_angle = Angle(num)
        assert angle_distance(grid_angle, true_angle).pi_multiple <= Fraction(1, 6)

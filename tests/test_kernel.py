"""The integer step kernel against the cyclotomic reference step."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclo_step import reference_step
from roundreach.numerics import Angle
from roundreach.rounding import (
    ArgandPoint,
    ArgandRounding,
    PolarPoint,
    PolarRounding,
    RoundingKind,
)
from roundreach.system import (
    JnfSystem,
    JordanBlock,
    Reached,
    StepKernel,
    brute_force_decide,
    step_with_intermediates,
)

MODULI = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
# the axes, each of Niven's rational cases off them (denominators 3, 4, 6),
# and angles whose cos and sin are both irrational
ANGLES = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1),
          Fraction(2, 3), Fraction(5, 6), Fraction(7, 4),
          Fraction(1, 7), Fraction(2, 5), Fraction(1, 42)]
GRANULARITIES = [Fraction(1), Fraction(1, 2), Fraction(3, 2)]

# coordinates of every size up to 2^70: float brackets settle below about
# 2^40 and tell nothing past 2^53
coordinates = st.integers(0, 70).flatmap(lambda bits: st.integers(-2**bits, 2**bits))


@st.composite
def jnf_case(draw, polar: bool):
    blocks = tuple(
        JordanBlock(draw(st.integers(1, 3)), draw(st.sampled_from(MODULI)),
                    Angle(draw(st.sampled_from(ANGLES))))
        for _ in range(draw(st.integers(1, 3))))
    kind = draw(st.sampled_from(list(RoundingKind)))
    g = draw(st.sampled_from(GRANULARITIES))
    dim = sum(b.size for b in blocks)
    if polar:
        resolution = draw(st.integers(2, 4))
        spec = PolarRounding(kind, resolution, g)
        state = []
        for _ in range(dim):
            k = abs(draw(coordinates))
            i = draw(st.integers(0, 2 * resolution - 1)) if k else 0
            state.append(PolarPoint(k * g, i))
    else:
        spec = ArgandRounding(kind, g)
        state = [ArgandPoint(draw(coordinates) * g, draw(coordinates) * g)
                 for _ in range(dim)]
    state = tuple(state)
    return JnfSystem(blocks, state, state, spec)


def assert_matches_reference(system, steps=3):
    state = system.initial
    for _ in range(steps):
        new, unrounded = step_with_intermediates(system, state)
        ref_new, ref_unrounded = reference_step(system, state)
        assert new == ref_new, (system, state)
        assert len(unrounded) == len(ref_unrounded)
        for j, w in enumerate(ref_unrounded):
            assert unrounded[j] == w, (system, state, j)
        state = ref_new


@settings(max_examples=250, deadline=None)
@given(jnf_case(polar=False))
def test_argand_kernel_matches_reference_step(system):
    assert_matches_reference(system)


@settings(max_examples=250, deadline=None)
@given(jnf_case(polar=True))
def test_polar_kernel_matches_reference_step(system):
    assert_matches_reference(system)


def count_fallbacks(monkeypatch):
    calls = []
    exact_round = StepKernel._exact_round

    def spy(self, state, j):
        calls.append(j)
        return exact_round(self, state, j)

    monkeypatch.setattr(StepKernel, "_exact_round", spy)
    return calls


def one_step(blocks, state, spec):
    system = JnfSystem(blocks, state, state, spec)
    new = step_with_intermediates(system, state)[0]
    assert new == reference_step(system, state)[0]
    return new


def test_half_angle_ties_go_counterclockwise(monkeypatch):
    calls = count_fallbacks(monkeypatch)
    blocks = (JordanBlock(2, Fraction(1), Angle(0)),)
    spec = PolarRounding(RoundingKind.FLOOR, 2)
    # 1 + i lies midway between indices 0 and 1, 1 - i between 3 and 0
    new = one_step(blocks, (PolarPoint(1, 0), PolarPoint(1, 1)), spec)
    assert new[0] == PolarPoint(1, 1)
    new = one_step(blocks, (PolarPoint(1, 0), PolarPoint(1, 3)), spec)
    assert new[0] == PolarPoint(1, 0)
    assert calls == [0, 0]


@pytest.mark.parametrize("angle, x, re", [
    (Fraction(1, 4), (3, 3), 2),     # (3 + 3i) e^(i pi/4) = 3 sqrt(2) i
    (Fraction(3, 4), (3, -3), 2),    # (3 - 3i) e^(3i pi/4) = 3 sqrt(2) i
    (Fraction(2, 3), (4, 0), 0),     # 4 e^(2i pi/3) = -2 + 2 sqrt(3) i
    (Fraction(5, 6), (0, -6), 5),    # -6i e^(5i pi/6) = 3 + 3 sqrt(3) i
])
def test_on_grid_parts_off_the_axes_round_in_integers(monkeypatch, angle, x, re):
    # a float bracket cannot tell these real parts from their neighbours;
    # Niven's rational cases are read in integers, with no exact fallback
    calls = count_fallbacks(monkeypatch)
    blocks = (JordanBlock(2, Fraction(1), Angle(angle)),)
    state = (ArgandPoint(*x), ArgandPoint(2, -1))
    for kind in RoundingKind:
        new = one_step(blocks, state, ArgandRounding(kind))
        assert new[0].re == re
    assert calls == []


def test_coordinates_past_two_to_the_53(monkeypatch):
    calls = count_fallbacks(monkeypatch)
    big = 2**60 + 7
    blocks = (JordanBlock(2, Fraction(1, 2), Angle(Fraction(1, 3))),)
    one_step(blocks, (ArgandPoint(big, -3), ArgandPoint(5, big)),
             ArgandRounding(RoundingKind.MINIMAL_ERROR_UP))
    assert calls == [0, 1]
    calls.clear()
    blocks = (JordanBlock(2, Fraction(2), Angle(Fraction(1, 4))),)
    one_step(blocks, (PolarPoint(big, 1), PolarPoint(big - 2, 3)),
             PolarRounding(RoundingKind.CEIL, 4))
    assert calls == [0]


def test_two_terms_past_float_range(monkeypatch):
    calls = count_fallbacks(monkeypatch)
    big = 10**400
    blocks = (JordanBlock(2, Fraction(1), Angle(Fraction(1, 4))),)
    one_step(blocks, (PolarPoint(big, 0), PolarPoint(big, 3)),
             PolarRounding(RoundingKind.FLOOR, 4))
    assert calls == [0]


def test_oracle_decides_the_instance_past_float_range():
    # one term per update: the modulus rounds in integers and the angle
    # is an index shift, so no float is formed
    big = Fraction(10**400)
    system = JnfSystem(
        (JordanBlock(1, Fraction(1), Angle(Fraction(1, 4))),),
        (PolarPoint(big, 0),),
        (PolarPoint(big, 2),),
        PolarRounding(RoundingKind.FLOOR, 4),
    )
    assert brute_force_decide(system, step_bound=10) == Reached(2)

"""Grid rounding in both coordinate styles, effect bounds, ball counts."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_cyclo as ref
from ball_reference import kball_count
from rational_value import as_rational
from roundreach.numerics import Angle, CycloNum, embed_polar, modulus_sq, totient
from roundreach.rounding import (
    RULES,
    ArgandPoint,
    ArgandRounding,
    PolarPoint,
    PolarRounding,
    RoundingKind,
    effect_bound,
    is_admissible,
    kbox_count,
    modulus_effect_bound,
    point_value,
    round_real,
    round_value,
)

FL, CE = RoundingKind.FLOOR, RoundingKind.CEIL
TR, EX, MU = RoundingKind.TRUNCATE, RoundingKind.EXPAND, RoundingKind.MINIMAL_ERROR_UP

grid_rationals = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=8
)


@pytest.mark.parametrize(
    "value,expect",
    [
        (Fraction(7, 2), {FL: 3, CE: 4, TR: 3, EX: 4, MU: 4}),
        (Fraction(-7, 2), {FL: -4, CE: -3, TR: -3, EX: -4, MU: -3}),
        (Fraction(2), {FL: 2, CE: 2, TR: 2, EX: 2, MU: 2}),
        (Fraction(-9, 4), {FL: -3, CE: -2, TR: -2, EX: -3, MU: -2}),
        (Fraction(1, 4), {FL: 0, CE: 1, TR: 0, EX: 1, MU: 0}),
        (Fraction(3, 4), {FL: 0, CE: 1, TR: 0, EX: 1, MU: 1}),
    ],
)
def test_round_real_unit_grid(value, expect):
    for kind, out in expect.items():
        assert round_real(value, kind) == out, kind


def test_round_real_finer_grid():
    g = Fraction(1, 2)
    assert round_real(Fraction(3, 4), FL, g) == Fraction(1, 2)
    assert round_real(Fraction(3, 4), CE, g) == 1
    assert round_real(Fraction(3, 4), MU, g) == 1
    assert round_real(Fraction(-3, 4), TR, g) == Fraction(-1, 2)
    assert round_real(Fraction(-3, 4), EX, g) == -1


@given(grid_rationals, st.integers(-10, 10))
def test_round_real_commutes_with_grid_shifts(v, k):
    # truncate/expand are origin-symmetric instead, covered below
    g = Fraction(1, 2)
    for kind in (FL, CE, MU):
        assert round_real(v + k * g, kind, g) == round_real(v, kind, g) + k * g


@given(grid_rationals)
def test_round_real_symmetries(v):
    assert round_real(-v, TR) == -round_real(v, TR)
    assert round_real(-v, EX) == -round_real(v, EX)
    assert round_real(-v, FL) == -round_real(v, CE)


@given(grid_rationals)
def test_round_real_error_bounded(v):
    g = Fraction(1, 3)
    for kind in RoundingKind:
        assert abs(round_real(v, kind, g) - v) < g
    assert abs(round_real(v, MU, g) - v) <= g / 2


@st.composite
def real_values(draw):
    """A real field element or a rational, in the integer kernel and the
    Fraction reference; on a grid point of g a good share of the time."""
    g = draw(st.fractions(min_value=Fraction(1, 6), max_value=Fraction(3), max_denominator=6))
    if draw(st.booleans()):
        q = draw(st.integers(-20, 20)) * g + draw(st.sampled_from((0, 0, g / 2, g / 3)))
        return q, q, g
    order = draw(st.sampled_from((4, 8, 12, 24)))
    deg = totient(order)
    coeffs = tuple(draw(st.lists(
        st.one_of(st.just(Fraction(0)), st.fractions(
            min_value=Fraction(-20), max_value=Fraction(20), max_denominator=6)),
        min_size=deg, max_size=deg)))
    return (CycloNum(order, coeffs).real_part(),
            ref.CycloNum(order, coeffs).real_part(), g)


@settings(max_examples=200, deadline=None)
@given(real_values())
def test_round_real_matches_the_recursive_reference(case):
    value, ref_value, g = case
    for kind in RoundingKind:
        assert round_real(value, kind, g) == ref.round_real(ref_value, kind, g), kind


@pytest.mark.parametrize("kind", list(RoundingKind))
@given(num=st.integers(-200, 200), den=st.integers(1, 60))
@settings(max_examples=300, deadline=None)
def test_rule_ratio_matches_the_recursive_reference(kind, num, den):
    # exact halves (den even) separate minimal-error rounding from the rest
    assert RULES[kind].ratio(num, den) == ref.round_real(Fraction(num, den), kind)


@pytest.mark.parametrize("kind", list(RoundingKind))
@given(num=st.integers(-400, 400), den=st.sampled_from([1, 2, 4, 8, 3, 5, 7]),
       slack=st.sampled_from([0.0, 2.0**-40, 2.0**-20, 0.125, 0.5]))
@settings(max_examples=300, deadline=None)
def test_rule_bracket_settles_only_to_the_rounding(kind, num, den, slack):
    value = Fraction(num, den)
    v = float(value)
    # the bracket as the float operations form it must hold the value; only
    # a point bracket on a value no float holds exactly misses it
    if not Fraction(v - slack) <= value <= Fraction(v + slack):
        assert slack == 0.0
        return
    settled = RULES[kind].bracket(v, slack)
    assert settled is None or settled == ref.round_real(value, kind), settled
    if slack == 0.0:
        # a point bracket settles everything but a directed kind on the grid
        assert (settled is None) == (kind is not MU and value.denominator == 1)


def test_round_value_argand_componentwise():
    spec = ArgandRounding(FL, Fraction(1))
    z = CycloNum.from_rational(8, Fraction(5, 2)) + CycloNum.i_unit(8) * Fraction(7, 3)
    p = round_value(z, spec)
    assert p == ArgandPoint(Fraction(2), Fraction(2))


def test_round_value_polar_modulus_and_angle():
    spec = PolarRounding(MU, 2, Fraction(1))
    z = embed_polar(Fraction(5, 2), Angle(Fraction(1, 2)), 4)
    p = round_value(z, spec)
    assert p == PolarPoint(Fraction(3), 1)
    # angle snaps to the nearest grid ray, ties counterclockwise
    z = embed_polar(Fraction(2), Angle(Fraction(1, 4)), 8)
    assert round_value(z, spec).angle_index == 1
    z = embed_polar(Fraction(2), Angle(Fraction(7, 4)), 8)
    assert round_value(z, spec).angle_index == 0


@pytest.mark.parametrize("kind", [FL, CE, TR, EX, MU])
def test_round_value_polar_past_float_range(kind):
    # the modulus needs floors past float range and the angle gets no float guess
    big = 10**400

    def steps(n: int) -> int:
        r = math.isqrt(n)
        if kind in (FL, TR):
            return r
        if kind in (CE, EX):
            return r if r * r == n else r + 1
        return (math.isqrt(4 * n) + 1) // 2

    spec = PolarRounding(kind, 4, Fraction(1))
    plus, minus = big * big + big + 1, big * big - big + 1  # |z|^2 for cos = +-1/2
    for num, index, n in ((1, 1, plus), (2, 3, minus), (4, 5, minus), (5, 7, plus)):
        z = embed_polar(big, Angle(num, 3), 24) + 1
        assert modulus_sq(z) == n
        assert round_value(z, spec) == PolarPoint(Fraction(steps(n)), index), num
    z = embed_polar(big, Angle(1, 4), 8)
    assert round_value(z, spec) == PolarPoint(Fraction(big), 1)


def test_round_value_polar_origin():
    spec = PolarRounding(FL, 2, Fraction(1))
    z = embed_polar(Fraction(1, 2), Angle(Fraction(1, 2)), 4)
    p = round_value(z, spec)
    assert p.is_zero() and p.angle_index == 0


def test_polar_point_validation():
    with pytest.raises(ValueError):
        PolarPoint(Fraction(-1), 0)
    with pytest.raises(ValueError):
        PolarPoint(Fraction(0), 2)


@pytest.mark.parametrize("resolution", [2.5, 3.0, True, "3"])
def test_polar_angle_resolution_must_be_an_int(resolution):
    # parse_instance rejects these; the constructor must too
    with pytest.raises(ValueError, match="angle_resolution must be an integer"):
        PolarRounding(FL, resolution)


def test_grid_fixpoint_both_shapes():
    argand = ArgandRounding(TR, Fraction(1, 2))
    pt = ArgandPoint(Fraction(3, 2), Fraction(-1))
    assert is_admissible(pt, argand)
    assert round_value(point_value(pt, argand, 4), argand) == pt

    polar = PolarRounding(MU, 3, Fraction(1))
    pt = PolarPoint(Fraction(2), 4)
    assert is_admissible(pt, polar)
    assert round_value(point_value(pt, polar, 12), polar) == pt


def test_admissibility_rejects_off_grid():
    assert not is_admissible(ArgandPoint(Fraction(1, 3), Fraction(0)), ArgandRounding(FL))
    assert not is_admissible(PolarPoint(Fraction(1, 3), 0), PolarRounding(FL, 2))
    assert not is_admissible(PolarPoint(Fraction(1), 5), PolarRounding(FL, 2))


def test_point_value_roundtrips_to_field():
    spec = PolarRounding(FL, 2, Fraction(1))
    v = point_value(PolarPoint(Fraction(3), 1), spec, 4)
    assert v == CycloNum.i_unit(4) * 3
    spec = ArgandRounding(FL, Fraction(1))
    v = point_value(ArgandPoint(Fraction(2), Fraction(-1)), spec, 4)
    assert v == CycloNum.from_rational(4, 2) - CycloNum.i_unit(4)


def test_effect_bounds_frozen():
    assert effect_bound(ArgandRounding(FL, Fraction(1))) == 1
    assert modulus_effect_bound(ArgandRounding(FL, Fraction(1))) == Fraction(3, 2)
    assert effect_bound(PolarRounding(MU, 2, Fraction(1))) == Fraction(1, 2)
    assert modulus_effect_bound(PolarRounding(MU, 2, Fraction(1))) == Fraction(1, 2)


def test_effect_bound_covers_rounding_move():
    spec = ArgandRounding(FL, Fraction(1))
    delta_sq = effect_bound(spec) ** 2 * 2
    for re, im in ((Fraction(5, 2), Fraction(-7, 3)), (Fraction(-1, 7), Fraction(9, 4))):
        z = CycloNum.from_rational(4, re) + CycloNum.i_unit(4) * im
        p = round_value(z, spec)
        moved = point_value(p, spec, 4) - z
        assert as_rational(modulus_sq(moved)) <= delta_sq


def test_kball_count_small_radii():
    # grid points with |z| <= 2: 5x5 square minus the four corners
    assert kball_count(Fraction(2), ArgandRounding(FL, Fraction(1))) == 13
    assert kball_count(Fraction(1), ArgandRounding(FL, Fraction(1))) == 5
    # polar at resolution 2: origin plus 4 rays of 2 each
    assert kball_count(Fraction(2), PolarRounding(FL, 2, Fraction(1))) == 9
    assert kball_count(Fraction(0), ArgandRounding(FL, Fraction(1))) == 1
    # the boxes around them: 5x5, 3x3, the polar ball itself, the origin
    assert kbox_count(2, 1, ArgandRounding(FL, Fraction(1))) == 25
    assert kbox_count(1, 1, ArgandRounding(FL, Fraction(1))) == 9
    assert kbox_count(2, 1, PolarRounding(FL, 2, Fraction(1))) == 9
    assert kbox_count(0, 1, ArgandRounding(FL, Fraction(1))) == 1


@given(radius=st.fractions(min_value=Fraction(-1), max_value=Fraction(7), max_denominator=6),
       g=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 2)]),
       resolution=st.sampled_from([None, 2, 3]))
@settings(max_examples=200, deadline=None)
def test_kball_count_matches_lattice_enumeration(radius, g, resolution):
    reach = math.floor(abs(radius) / g) + 1
    if resolution is None:
        spec = ArgandRounding(FL, g)
        points = [ArgandPoint(a * g, b * g)
                  for a in range(-reach, reach + 1) for b in range(-reach, reach + 1)]
    else:
        spec = PolarRounding(FL, resolution, g)
        points = [PolarPoint(k * g, i if k else 0)
                  for k in range(reach + 1) for i in range(2 * resolution)]
    inside = {p for p in points if is_admissible(p, spec) and p.modulus_sq() <= radius * radius}
    expect = len(inside) if radius >= 0 else 0
    assert kball_count(radius, spec) == expect
    # the box count bounds the ball's points, and is exact for polar balls
    box = kbox_count(radius.numerator, radius.denominator, spec)
    assert box >= expect
    if resolution is not None:
        assert box == expect


@given(radius=st.fractions(min_value=Fraction(-1), max_value=Fraction(40), max_denominator=6),
       g=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3)]),
       resolution=st.sampled_from([None, 2, 3]))
@settings(max_examples=300, deadline=None)
def test_kbox_count_is_the_bounding_box(radius, g, resolution):
    if resolution is not None:
        spec = PolarRounding(FL, resolution, g)
        assert kbox_count(radius.numerator, radius.denominator, spec) == kball_count(radius, spec)
        return
    spec = ArgandRounding(FL, g)
    box = kbox_count(radius.numerator, radius.denominator, spec)
    if radius < 0:
        assert box == 0
        return
    # the narrowest square |a|, |b| <= m of grid points that holds the ball
    m = 0
    while (m + 1) * g <= radius:
        m += 1
    assert box == (2 * m + 1) ** 2 >= kball_count(radius, spec)

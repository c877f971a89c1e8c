"""Exact-arithmetic foundation: field laws, certified floors, sign tests."""

import cmath
import math
import random
from unittest import mock
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_cyclo as ref
from roundreach import numerics
from roundreach.errors import NotRealError, OrderMismatchError, PrecisionExhaustedError
from roundreach.numerics import (
    Angle,
    CycloNum,
    angle_cos,
    angle_sin,
    ceil_sqrt,
    certified_floor,
    cyclotomic_coeffs,
    embed_polar,
    floor_sqrt,
    half_up_sqrt,
    modulus_sq,
    nearest_angle_index,
    sign_of_real,
    totient,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def random_cyclo(rng: random.Random, order: int = 12) -> CycloNum:
    coeffs = tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(totient(order))
    )
    return CycloNum(order, coeffs)


def test_totient_and_cyclotomic_polynomials():
    assert [totient(n) for n in (1, 2, 3, 4, 8, 12)] == [1, 1, 2, 2, 4, 4]
    assert cyclotomic_coeffs(4) == (1, 0, 1)
    assert cyclotomic_coeffs(8) == (1, 0, 0, 0, 1)
    # x^4 - x^2 + 1
    assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_match_divisor_recursion():
    # the reference divides x^n - 1 by phi_d for every proper divisor d
    for n in [*range(1, 501), 840, 1260, 1680, 2000, 2310]:
        assert cyclotomic_coeffs(n) == ref.cyclotomic_coeffs(n), n
    # phi_(2*10^6) = phi_10(x^200000), five terms
    phi = cyclotomic_coeffs(2 * 10**6)
    assert {j: c for j, c in enumerate(phi) if c} == {
        0: 1, 200000: -1, 400000: 1, 600000: -1, 800000: 1}


def test_primitive_root_powers_close():
    z = CycloNum.zeta_pow(8, 1)
    assert z * z == CycloNum.zeta_pow(8, 2)
    prod = CycloNum.from_rational(8, 1)
    for _ in range(8):
        prod = prod * z
    assert prod == CycloNum.from_rational(8, 1)
    assert CycloNum.zeta_pow(8, 4) == CycloNum.from_rational(8, -1)


def test_i_unit_squares_to_minus_one():
    for order in (4, 8, 12, 20):
        i = CycloNum.i_unit(order)
        assert i * i == CycloNum.from_rational(order, -1)


def test_ring_laws_randomized():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (random_cyclo(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert (a / q) * q == a


def test_conjugation_is_multiplicative_and_involutive():
    rng = random.Random(11)
    for _ in range(100):
        a, b = random_cyclo(rng), random_cyclo(rng)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a


def test_modulus_sq_matches_float():
    rng = random.Random(13)
    for _ in range(50):
        a = random_cyclo(rng)
        exact = modulus_sq(a)
        approx = abs(a.approx_complex()) ** 2
        assert exact.is_real_symbolic()
        assert math.isclose(exact.approx_complex().real, approx, rel_tol=1e-9, abs_tol=1e-9)


def test_order_mismatch_rejected():
    a = CycloNum.from_rational(4, 1)
    b = CycloNum.from_rational(3, 1)
    with pytest.raises(OrderMismatchError):
        _ = a + b


@given(rationals)
def test_rational_embedding_roundtrip(q):
    z = CycloNum.from_rational(12, q)
    assert z.is_rational()
    assert z.as_rational() == q


@given(rationals, rationals)
def test_arithmetic_agrees_with_fractions(p, q):
    zp, zq = CycloNum.from_rational(8, p), CycloNum.from_rational(8, q)
    assert (zp + zq).as_rational() == p + q
    assert (zp * zq).as_rational() == p * q


@given(rationals)
def test_certified_floor_matches_math_floor(q):
    assert certified_floor(q) == math.floor(q)
    assert certified_floor(CycloNum.from_rational(12, q)) == math.floor(q)


@given(rationals)
def test_certified_floor_idempotent_and_grid_fixpoint(q):
    f = certified_floor(q)
    assert certified_floor(Fraction(f)) == f
    g = Fraction(1, 3)
    steps = certified_floor(q, g)
    assert steps * g <= q < (steps + 1) * g


def test_certified_floor_on_irrationals():
    # 2 cos(pi/4) = sqrt(2)
    root2 = CycloNum.zeta_pow(8, 1) + CycloNum.zeta_pow(8, 7)
    assert certified_floor(root2) == 1
    assert certified_floor(-root2) == -2
    assert certified_floor(root2 * root2) == 2
    assert certified_floor(root2, Fraction(1, 2)) == 2
    # 2 cos(pi/6) = sqrt(3)
    root3 = CycloNum.zeta_pow(12, 1) + CycloNum.zeta_pow(12, 11)
    assert certified_floor(root3) == 1
    assert certified_floor(root3 + 100) == 101


def test_certified_floor_rejects_imaginary():
    with pytest.raises(NotRealError):
        certified_floor(CycloNum.i_unit(4))


def test_sign_of_real():
    assert sign_of_real(Fraction(3, 7)) == 1
    assert sign_of_real(Fraction(0)) == 0
    assert sign_of_real(Fraction(-2)) == -1
    root2 = CycloNum.zeta_pow(8, 1) + CycloNum.zeta_pow(8, 7)
    assert sign_of_real(root2 - 1) == 1
    assert sign_of_real(root2 - 2) == -1
    assert sign_of_real(root2 * root2 - 2) == 0


def test_sign_of_real_cross_check_randomized():
    rng = random.Random(17)
    for _ in range(100):
        a = random_cyclo(rng, 8)
        r = a.real_part()
        s = sign_of_real(r)
        approx = r.approx_complex().real
        if abs(approx) > 1e-6:
            assert s == (1 if approx > 0 else -1)


@given(st.fractions(min_value=Fraction(0), max_value=Fraction(400), max_denominator=9))
def test_sqrt_brackets(q):
    f, c, h = floor_sqrt(q), ceil_sqrt(q), half_up_sqrt(q)
    assert f * f <= q
    assert (f + 1) * (f + 1) > q
    assert c * c >= q
    assert c == f or c == f + 1
    assert f <= h <= c


def test_sqrt_on_cyclo_values():
    v = CycloNum.from_rational(12, Fraction(17))
    assert floor_sqrt(v) == 4
    assert ceil_sqrt(v) == 5
    assert half_up_sqrt(Fraction(25)) == 5
    # half-up at the midpoint: 20.25 has sqrt 4.5
    assert half_up_sqrt(Fraction(81, 4)) == 5
    assert floor_sqrt(Fraction(81, 4)) == 4


def test_angle_normalization_and_str():
    assert Angle(Fraction(5, 2)).pi_multiple == Fraction(1, 2)
    assert Angle(-1, 2).pi_multiple == Fraction(3, 2)
    assert str(Angle(Fraction(1, 3))) == "1/3 pi"
    assert Angle(2).pi_multiple == 0


def test_angle_distance_and_right_angle_compare():
    a, b = Angle(Fraction(1, 4)), Angle(Fraction(7, 4))
    assert a.distance_to(b).pi_multiple == Fraction(1, 2)
    assert a.distance_to(a).is_zero()
    # distance measures the short way around and tops out at pi
    assert Angle(0).distance_to(Angle(1)).pi_multiple == 1


@given(st.integers(0, 23), st.integers(0, 23))
def test_angle_distance_symmetric(p, q):
    a, b = Angle(Fraction(p, 12)), Angle(Fraction(q, 12))
    assert a.distance_to(b).pi_multiple == b.distance_to(a).pi_multiple
    assert a.distance_to(b).pi_multiple <= 1


def test_trig_pythagorean_identity_exact():
    for num, den in ((1, 2), (1, 3), (1, 4), (2, 3), (5, 6)):
        angle = Angle(Fraction(num, den))
        order = 2 * den if (2 * den) % 4 == 0 else 4 * den
        c, s = angle_cos(angle, order), angle_sin(angle, order)
        assert c * c + s * s == CycloNum.from_rational(order, 1)


def test_embed_polar_known_points():
    z = embed_polar(Fraction(2), Angle(Fraction(1, 2)), 4)
    assert z == CycloNum.i_unit(4) * 2
    z = embed_polar(Fraction(3), Angle(Fraction(1)), 4)
    assert z.is_rational() and z.as_rational() == -3
    z = embed_polar(Fraction(5), Angle(Fraction(1, 4)), 8)
    assert modulus_sq(z).as_rational() == 25


def test_nearest_angle_index_quadrants():
    for idx in range(4):
        z = embed_polar(Fraction(1), Angle(Fraction(idx, 2)), 8)
        assert nearest_angle_index(z, 2) == idx
    # exactly between grid angles 0 and 1: ties go counterclockwise
    z = embed_polar(Fraction(1), Angle(Fraction(1, 4)), 8)
    assert nearest_angle_index(z, 2) == 1


# ---------------------------------------------------------------------------
# Differential checks against the Fraction-tuple reference kernel

# 36: phi_36 = phi_6(x^6), the spread; 60 and 84: three distinct primes;
# 420: phi_420 has 33 nonzero terms and a coefficient of 2
DIFF_ORDERS = (4, 8, 12, 20, 24, 36, 60, 84, 420)
# The angle searches run at each of the 15 resolutions R with 2R | 420, and
# every Fraction-reference score there is a degree-96 product: 1-2 s an
# example.  They take the other orders; the field laws are checked at 420.
ANGLE_ORDERS = DIFF_ORDERS[:-1]
coefficients = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=Fraction(-40), max_value=Fraction(40), max_denominator=30),
)
nonzero_rationals = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=12
).filter(bool)
positive_rationals = st.fractions(
    min_value=Fraction(1, 12), max_value=Fraction(9), max_denominator=12
)


@st.composite
def cyclo_pair(draw, orders=DIFF_ORDERS):
    """Two elements of one field, each as (integer kernel, Fraction reference)."""
    order = draw(st.sampled_from(orders))
    deg = totient(order)
    out = []
    for _ in range(2):
        coeffs = tuple(draw(st.lists(coefficients, min_size=deg, max_size=deg)))
        out.append((CycloNum(order, coeffs), ref.CycloNum(order, coeffs)))
    return out


def assert_same(z: CycloNum, r: "ref.CycloNum") -> None:
    assert z.order == r.order
    assert z.coeffs == r.coeffs
    assert all(type(c) is int for c in z.num) and type(z.den) is int
    assert z.den > 0 and math.gcd(z.den, *z.num) == 1
    assert z == CycloNum(r.order, r.coeffs)
    assert hash(z) == hash(CycloNum(r.order, r.coeffs))


@settings(max_examples=150, deadline=None)
@given(cyclo_pair(), nonzero_rationals)
def test_field_operations_match_fraction_reference(pair, q):
    (a, ra), (b, rb) = pair
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(a * b, ra * rb)
    assert_same(-a, -ra)
    assert_same(a * q, ra * q)
    assert_same(q * a, q * ra)
    assert_same(a + q, ra + q)
    assert_same(q - a, q - ra)
    assert_same(a / q, ra / q)
    assert_same(a.conjugate(), ra.conjugate())
    assert_same(a.real_part(), ra.real_part())
    assert_same(a.imag_part(), ra.imag_part())
    assert (a == b) == (ra == rb)
    assert (a == q) == (ra == q)
    assert a.is_rational() == ra.is_rational()
    assert a.approx_complex() == ra.approx_complex()


def test_zeta_powers_match_fraction_reference():
    for order in DIFF_ORDERS:
        for k in range(-order, order):
            assert_same(CycloNum.zeta_pow(order, k), ref.CycloNum.zeta_pow(order, k))


@settings(max_examples=150, deadline=None)
@given(cyclo_pair(ANGLE_ORDERS), positive_rationals)
def test_certified_functions_match_fraction_reference(pair, g):
    (a, ra), (b, rb) = pair
    real, ref_real = (a * b).real_part(), (ra * rb).real_part()
    assert certified_floor(real, g) == ref.certified_floor(ref_real, g)
    assert sign_of_real(real) == ref.sign_of_real(ref_real)
    assert sign_of_real(real - b.real_part()) == ref.sign_of_real(ref_real - rb.real_part())
    square, ref_square = modulus_sq(a), ref.modulus_sq(ra)
    assert floor_sqrt(square) == ref.floor_sqrt(ref_square)
    assert ceil_sqrt(square) == ref.ceil_sqrt(ref_square)
    assert half_up_sqrt(square) == ref.half_up_sqrt(ref_square)
    if not a.is_zero():
        for resolution in range(2, a.order // 2 + 1):
            if a.order % (2 * resolution) == 0:
                assert nearest_angle_index(a, resolution) == ref.nearest_angle_index(
                    ra, resolution)


def _patched_guess(mode: str, phase: float):
    """A stand-in for CycloNum.approx_complex that misleads the float guess."""
    true_approx = CycloNum.approx_complex
    if mode == "zero":
        return lambda self: 0j
    if mode == "random":
        return lambda self: cmath.rect(1.0, phase)
    return lambda self: -true_approx(self)  # the antipode


guess_modes = st.sampled_from(("zero", "random", "antipode"))


@settings(max_examples=150, deadline=None)
@given(cyclo_pair(ANGLE_ORDERS), guess_modes, st.floats(-math.pi, math.pi))
def test_nearest_angle_climb_matches_tournament_from_any_guess(pair, mode, phase):
    (a, ra), _ = pair
    assume(not a.is_zero())
    with mock.patch.object(CycloNum, "approx_complex", _patched_guess(mode, phase)):
        for resolution in range(2, a.order // 2 + 1):
            if a.order % (2 * resolution) == 0:
                assert nearest_angle_index(a, resolution) == ref.nearest_angle_index(
                    ra, resolution)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3, 4, 6)), st.integers(0, 11), positive_rationals,
       st.sampled_from(("none", "zero", "random", "antipode")), st.floats(-math.pi, math.pi))
def test_nearest_angle_exact_midpoints_go_counterclockwise(resolution, k, modulus, mode, phase):
    # the angle (2k+1)pi/(2R) is exactly between grid indices k and k+1
    k %= 2 * resolution
    z = embed_polar(modulus, Angle(2 * k + 1, 2 * resolution), 4 * resolution)
    expected = (k + 1) % (2 * resolution)
    if mode == "none":
        assert nearest_angle_index(z, resolution) == expected
        return
    with mock.patch.object(CycloNum, "approx_complex", _patched_guess(mode, phase)):
        assert nearest_angle_index(z, resolution) == expected


# ---------------------------------------------------------------------------
# Certified paths of the integer kernel, each forced

def sqrt2() -> CycloNum:
    return CycloNum.zeta_pow(8, 1) + CycloNum.zeta_pow(8, 7)


def test_numerators_beyond_float_range_use_intervals():
    big = 10**400
    w = sqrt2() * big
    assert certified_floor(w) == math.isqrt(2 * big * big)
    assert sign_of_real(w - math.isqrt(2 * big * big)) == 1
    assert floor_sqrt(w * w) == math.isqrt(2 * big * big)
    # a denominator beyond float range, with a value near 1.41
    v = w / (big + 1)
    assert certified_floor(v) == 1
    assert certified_floor(v, Fraction(1, 100)) == 141
    assert sign_of_real(v - Fraction(141, 100)) == 1


def silver_power(k: int) -> tuple[CycloNum, int]:
    """(1 + sqrt2)^k and the integer L = (1 + sqrt2)^k + (1 - sqrt2)^k.

    |1 - sqrt2|^k is tiny, so (1 + sqrt2)^k sits just below L for even k
    and just above for odd k.
    """
    up = 1 + sqrt2()
    down = 1 - sqrt2()
    power_up, power_down = CycloNum.from_rational(8, 1), CycloNum.from_rational(8, 1)
    for _ in range(k):
        power_up, power_down = power_up * up, power_down * down
    lucas = (power_up + power_down).as_rational()
    assert lucas.denominator == 1
    return power_up, int(lucas)


@pytest.mark.parametrize("k", [30, 31, 60, 61])
def test_values_within_float_slack_of_an_integer(k):
    power_up, lucas = silver_power(k)
    expected = lucas - 1 if k % 2 == 0 else lucas
    assert certified_floor(power_up) == expected
    assert sign_of_real(power_up - lucas) == (-1 if k % 2 == 0 else 1)
    assert certified_floor(power_up / 3, Fraction(1, 3)) == expected


def test_precision_cap_fails_loudly(monkeypatch):
    # (1 + sqrt2)^60 is within 10^-22 of an integer near 2^75, which one
    # 64-bit enclosure cannot separate from it
    power_up, lucas = silver_power(60)
    monkeypatch.setattr(numerics, "_PREC_CAP", 64)
    with pytest.raises(PrecisionExhaustedError):
        certified_floor(power_up)
    with pytest.raises(PrecisionExhaustedError):
        sign_of_real(power_up - lucas)


@settings(max_examples=60, deadline=None)
@given(st.integers(25, 120), st.sampled_from((1, -1)), st.integers(1, 12))
def test_near_integer_values_match_fraction_reference(k, sign, d):
    # from k = 25 on, a 64-bit enclosure of (1 + sqrt2)^k straddles an
    # integer, so these values need the ladder's higher rungs
    power_up, lucas = silver_power(k)
    x, L = power_up * sign, lucas * sign
    rx = ref.CycloNum(8, x.coeffs)
    g = Fraction(1, d)
    assert certified_floor(x, g) == ref.certified_floor(rx, g)
    assert sign_of_real(x - L) == ref.sign_of_real(rx - L)


def test_equal_values_from_different_denominators_are_canonical():
    z = CycloNum(12, (Fraction(1, 6), Fraction(-5, 4), Fraction(0), Fraction(7, 10)))
    sixth = CycloNum(12, (Fraction(1, 6), Fraction(1, 6), Fraction(0), Fraction(1, 6)))
    third = CycloNum(12, (Fraction(1, 3), Fraction(1, 3), Fraction(0), Fraction(1, 3)))
    half = CycloNum(12, (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(1, 2)))
    routes = [
        sixth + third,
        half * Fraction(7, 9) / Fraction(7, 9),
        (half * 6 - half * 2) / 4,
        (z + half) - z,
        half.conjugate().conjugate(),
    ]
    for value in routes:
        assert value == half
        assert hash(value) == hash(half)
        assert (value.num, value.den) == ((1, 1, 0, 1), 2)
    zero = z - z
    assert (zero.num, zero.den) == ((0, 0, 0, 0), 1)
    assert zero == 0 and hash(zero) == hash(CycloNum.from_rational(12, 0))
    assert z * 0 == zero and hash(z * 0) == hash(zero)


def test_kernel_stores_integers_and_builds_tables_once():
    numerics.cyclotomic_coeffs.cache_clear()
    numerics._power_row.cache_clear()
    numerics._phi_rad_tail.cache_clear()
    z = CycloNum(24, tuple(Fraction(j - 3, j + 1) for j in range(8)))
    for _ in range(3):
        w = z * z.conjugate() + CycloNum.zeta_pow(24, 5) - 1
        certified_floor(w.real_part())
        nearest_angle_index(z, 6)
    # phi_24 is built once; every later read, rows included, hits the cache
    info = numerics.cyclotomic_coeffs.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits > 0
    assert not hasattr(z, "__dict__")
    assert all(type(c) is int for c in w.num) and type(w.den) is int

"""The original Fraction-tuple cyclotomic kernel, kept as a test reference.

`roundreach.numerics` stores a field element as integer numerators over one
common denominator.  This module keeps the earlier representation, one
`Fraction` per power-basis coefficient, with the certified sign, floor,
square-root and angle functions written against it, so differential tests
can check the integer kernel against an independent exact implementation.
Its cyclotomic polynomials come from the original divisor recursion, which
divides x^n - 1 by phi_d for every proper divisor d, not from the kernel's
prime-by-prime construction.  Only the tests import it.  One change from
the original: `certified_floor` reads interval endpoints at the interval's
own precision, not at mpmath's default 53 bits, which rounded them and could
return a wrong floor above 2^53.  `round_real` keeps the original recursive
rounding (a sign pass, then a floor or ceiling) on top of this kernel's
floor and sign.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

import mpmath

from roundreach.errors import (
    NotRealError,
    OrderMismatchError,
    PrecisionExhaustedError,
    UnsupportedAngleError,
)
from roundreach.numerics import totient
from roundreach.rounding import RoundingKind

Rational = Union[int, Fraction]

_PREC_START = 64
_PREC_CAP = 1 << 16


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n <= 0:
        raise ValueError("cyclotomic polynomials are indexed by positive integers")
    # x^n - 1 divided by the cyclotomic polynomials of all proper divisors.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_coeffs(d)))
    return tuple(poly)


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        coef = num[i + len(den) - 1]
        if coef % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        coef //= den[-1]
        out[i] = coef
        for j, d in enumerate(den):
            num[i + j] -= coef * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _zeta_power_table(order: int) -> tuple[tuple[Fraction, ...], ...]:
    """Vectors of zeta^k over the power basis 1..zeta^(deg-1), for k in [0, order)."""
    deg = totient(order)
    phi = cyclotomic_coeffs(order)
    # phi is monic; zeta^deg = -(phi[0] + phi[1] zeta + ... + phi[deg-1] zeta^(deg-1))
    table: list[tuple[Fraction, ...]] = []
    current = [Fraction(0)] * deg
    current[0] = Fraction(1)
    for _ in range(order):
        table.append(tuple(current))
        shifted = [Fraction(0)] + current[:-1]
        overflow = current[-1]
        if overflow:
            for j in range(deg):
                shifted[j] -= overflow * phi[j]
        current = shifted
    return tuple(table)


@lru_cache(maxsize=None)
def _unit_root_table(order: int) -> tuple[complex, ...]:
    angles = [2.0 * math.pi * j / order for j in range(totient(order))]
    return tuple(complex(math.cos(t), math.sin(t)) for t in angles)


class CycloNum:
    """An element of the cyclotomic field of the given order, over the power basis.

    Coefficient vectors have length totient(order) and are reduced modulo the
    order-th cyclotomic polynomial, so equality of vectors is equality in the
    field. Orders are expected to be multiples of 4 so that i is in the field.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]) -> None:
        deg = totient(order)
        if len(coeffs) != deg:
            raise ValueError(f"need {deg} coefficients for order {order}")
        self.order = order
        self.coeffs = coeffs

    def __setattr__(self, name: str, value) -> None:
        if hasattr(self, "coeffs") and name in ("order", "coeffs"):
            raise AttributeError("CycloNum is immutable")
        super().__setattr__(name, value)

    @staticmethod
    def from_rational(order: int, value: Rational) -> "CycloNum":
        deg = totient(order)
        coeffs = [Fraction(0)] * deg
        coeffs[0] = Fraction(value)
        return CycloNum(order, tuple(coeffs))

    @staticmethod
    def zeta_pow(order: int, exponent: int) -> "CycloNum":
        table = _zeta_power_table(order)
        return CycloNum(order, table[exponent % order])

    @staticmethod
    def i_unit(order: int) -> "CycloNum":
        if order % 4 != 0:
            raise UnsupportedAngleError("imaginary unit needs an order divisible by 4")
        return CycloNum.zeta_pow(order, order // 4)

    def _coerce(self, other) -> "CycloNum":
        if isinstance(other, CycloNum):
            if other.order != self.order:
                raise OrderMismatchError(
                    f"orders differ: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.from_rational(self.order, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "CycloNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycloNum(self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other) -> "CycloNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycloNum(self.order, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other) -> "CycloNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> "CycloNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        deg = len(self.coeffs)
        prod = [Fraction(0)] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    prod[i + j] += a * b
        table = _zeta_power_table(self.order)
        out = [Fraction(0)] * deg
        for k, c in enumerate(prod):
            if not c:
                continue
            if k < deg:
                out[k] += c
            else:
                vec = table[k]
                for j, v in enumerate(vec):
                    if v:
                        out[j] += c * v
        return CycloNum(self.order, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("division of a cyclotomic number by zero")
            return CycloNum(self.order, tuple(a / q for a in self.coeffs))
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(self.order, other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def conjugate(self) -> "CycloNum":
        table = _zeta_power_table(self.order)
        deg = len(self.coeffs)
        out = [Fraction(0)] * deg
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            vec = table[(self.order - j) % self.order]
            for k, v in enumerate(vec):
                if v:
                    out[k] += c * v
        return CycloNum(self.order, tuple(out))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return self.coeffs[0]

    def is_real_symbolic(self) -> bool:
        return self == self.conjugate()

    def real_part(self) -> "CycloNum":
        return (self + self.conjugate()) / 2

    def imag_part(self) -> "CycloNum":
        w = -CycloNum.i_unit(self.order) * self
        return (w + w.conjugate()) / 2

    def approx_complex(self) -> complex:
        roots = _unit_root_table(self.order)
        return sum(
            float(c) * roots[j] for j, c in enumerate(self.coeffs) if c
        )

    def __repr__(self) -> str:
        terms = [
            f"{c}*z^{j}" if j else f"{c}"
            for j, c in enumerate(self.coeffs)
            if c
        ]
        body = " + ".join(terms) if terms else "0"
        return f"Cyclo[{self.order}]({body})"


CycloLike = Union[CycloNum, Fraction, int]


@lru_cache(maxsize=None)
def _float_cos_table(order: int) -> tuple[float, ...]:
    return tuple(
        math.cos(2.0 * math.pi * j / order) for j in range(totient(order))
    )


def _float_real_estimate(z: CycloNum) -> Union[tuple[float, float], None]:
    """Double-precision estimate of the real value of z with a rigorous slack.

    Conversions, table cosines, products, and the running sum are each
    correctly rounded to within a couple of ulps, so the combined error is
    far below (magnitude+1)*(terms+1)*2^-46; None when floats overflow.
    """
    table = _float_cos_table(z.order)
    total = 0.0
    magnitude = 0.0
    terms = 0
    try:
        for j, c in enumerate(z.coeffs):
            if not c:
                continue
            f = float(c)
            total += f * table[j]
            magnitude += abs(f)
            terms += 1
    except OverflowError:
        return None
    slack = (magnitude + 1.0) * (terms + 1) * 2.0**-46
    if not (math.isfinite(total) and math.isfinite(slack)):
        return None
    return total, slack


@lru_cache(maxsize=None)
def _interval_cos(order: int, j: int, prec: int):
    saved = mpmath.iv.prec
    mpmath.iv.prec = prec
    try:
        return mpmath.iv.cos(2 * mpmath.iv.pi * j / order)
    finally:
        mpmath.iv.prec = saved


def _interval_real_value(z: CycloNum):
    """Certified mpmath interval for the (real) value of z at current iv precision."""
    prec = mpmath.iv.prec
    total = mpmath.iv.mpf(0)
    for j, c in enumerate(z.coeffs):
        if not c:
            continue
        coef = mpmath.iv.mpf(c.numerator) / mpmath.iv.mpf(c.denominator)
        if j == 0:
            total += coef
        else:
            total += coef * _interval_cos(z.order, j, prec)
    return total


def _refined_sign(z: CycloNum) -> int:
    """Sign of a value already known to be symbolically real."""
    est = _float_real_estimate(z)
    if est is not None:
        approx, slack = est
        if approx > slack:
            return 1
        if approx < -slack:
            return -1
    prec = _PREC_START
    saved = mpmath.iv.prec
    try:
        while prec <= _PREC_CAP:
            mpmath.iv.prec = prec
            box = _interval_real_value(z)
            if box > 0:
                return 1
            if box < 0:
                return -1
            prec *= 2
    finally:
        mpmath.iv.prec = saved
    # A nonzero field element has a nonzero value, so refinement must decide.
    raise PrecisionExhaustedError("sign refinement exceeded the precision cap")


def _sign_symmetric(z: CycloNum) -> int:
    """Sign for values that are symmetric by construction (w + conj(w) shapes)."""
    if z.is_rational():
        q = z.coeffs[0]
        return (q > 0) - (q < 0)
    return _refined_sign(z)


def sign_of_real(z: CycloLike) -> int:
    """Certified sign of a symbolically real cyclotomic number."""
    if isinstance(z, (int, Fraction)):
        q = Fraction(z)
        return (q > 0) - (q < 0)
    if z.is_rational():
        q = z.as_rational()
        return (q > 0) - (q < 0)
    if not z.is_real_symbolic():
        raise NotRealError("sign_of_real needs a real value")
    return _refined_sign(z)


def certified_floor(z: CycloLike, granularity: Rational = 1) -> int:
    """floor(z / granularity) for a symbolically real z, decided exactly."""
    g = Fraction(granularity)
    if g <= 0:
        raise ValueError("granularity must be positive")
    if isinstance(z, (int, Fraction)):
        return math.floor(Fraction(z) / g)
    if z.is_rational():
        return math.floor(z.as_rational() / g)
    if not z.is_real_symbolic():
        raise NotRealError("certified_floor needs a real value")
    w = z / g
    if w.is_rational():
        return math.floor(w.as_rational())
    est = _float_real_estimate(w)
    if est is not None:
        approx, slack = est
        f_lo = math.floor(approx - slack)
        if f_lo == math.floor(approx + slack):
            return f_lo
    prec = _PREC_START
    saved = mpmath.iv.prec
    try:
        while prec <= _PREC_CAP:
            mpmath.iv.prec = prec
            box = _interval_real_value(w)
            with mpmath.workprec(prec):
                f_lo = int(mpmath.floor(mpmath.mpf(box.a)))
                f_hi = int(mpmath.floor(mpmath.mpf(box.b)))
            if f_lo == f_hi:
                return f_lo
            prec *= 2
    finally:
        mpmath.iv.prec = saved
    # An irrational w is never an integer, so the interval eventually resolves.
    raise PrecisionExhaustedError("floor refinement exceeded the precision cap")


def modulus_sq(z: CycloNum) -> CycloNum:
    return z * z.conjugate()


def floor_sqrt(value: CycloLike) -> int:
    """floor(sqrt(value)) for a nonnegative real value; exact."""
    f = certified_floor(value, 1)
    if f < 0:
        raise ValueError("floor_sqrt needs a nonnegative value")
    return math.isqrt(f)


def half_up_sqrt(value: CycloLike) -> int:
    """Nearest integer to sqrt(value), half ties rounded up; exact."""
    if isinstance(value, CycloNum):
        scaled: CycloLike = value * 4
    else:
        scaled = Fraction(value) * 4
    f = certified_floor(scaled, 1)
    if f < 0:
        raise ValueError("half_up_sqrt needs a nonnegative value")
    return (math.isqrt(f) + 1) // 2


def ceil_sqrt(value: CycloLike) -> int:
    s = floor_sqrt(value)
    if isinstance(value, CycloNum):
        exact = value == Fraction(s * s)
    else:
        exact = Fraction(value) == s * s
    return s if exact else s + 1


def nearest_angle_index(z: CycloNum, resolution: int) -> int:
    """Index k in [0, 2*resolution) of the grid angle k*pi/resolution nearest to z.

    Adjacent ties resolve counterclockwise (to the larger index, cyclically).
    The order of z must be divisible by 2*resolution.
    """
    if resolution < 2:
        raise ValueError("angle resolution must be at least 2")
    if z.order % (2 * resolution) != 0:
        raise UnsupportedAngleError(
            f"order {z.order} lacks the pi/{resolution} grid"
        )
    if z.is_zero():
        raise ValueError("the zero value has no angle")
    count = 2 * resolution
    stride = z.order // count

    def score(k: int) -> CycloNum:
        w = z * CycloNum.zeta_pow(z.order, (-k * stride) % z.order)
        return w + w.conjugate()

    approx = z.approx_complex()
    if approx != 0:
        guess = round(cmath.phase(approx) / (math.pi / resolution)) % count
        s0 = score(guess)
        d_prev = _sign_symmetric(s0 - score((guess - 1) % count))
        d_next = _sign_symmetric(s0 - score((guess + 1) % count))
        if d_prev > 0 and d_next > 0:
            return guess
        if d_prev > 0 and d_next == 0:
            # exact midpoint between guess and guess+1: counterclockwise wins
            return (guess + 1) % count
        if d_prev == 0 and d_next > 0:
            return guess
    # fall back to an exact tournament over all candidate indices
    best = 0
    for k in range(1, count):
        if _sign_symmetric(score(k) - score(best)) > 0:
            best = k
    ties = [
        k for k in range(count) if _sign_symmetric(score(k) - score(best)) == 0
    ]
    if len(ties) == 1:
        return ties[0]
    if len(ties) == 2:
        a, b = ties
        if (a + 1) % count == b:
            return b
        if (b + 1) % count == a:
            return a
    raise ValueError("angle scores tied on non-adjacent indices")


def round_real(value: CycloLike, kind: RoundingKind, granularity: Rational = 1) -> Fraction:
    """Round a real value to the g-grid with the given kind; exact."""
    g = Fraction(granularity)
    if g <= 0:
        raise ValueError("granularity must be positive")
    if kind is RoundingKind.FLOOR:
        return certified_floor(value, g) * g
    if kind is RoundingKind.CEIL:
        neg = -value if isinstance(value, CycloNum) else -Fraction(value)
        return -certified_floor(neg, g) * g
    if kind is RoundingKind.MINIMAL_ERROR_UP:
        shifted = value + g / 2
        return certified_floor(shifted, g) * g
    sign = sign_of_real(value)
    if sign == 0:
        return Fraction(0)
    if kind is RoundingKind.TRUNCATE:
        toward = RoundingKind.FLOOR if sign > 0 else RoundingKind.CEIL
    elif kind is RoundingKind.EXPAND:
        toward = RoundingKind.CEIL if sign > 0 else RoundingKind.FLOOR
    else:
        raise ValueError(f"unknown rounding kind: {kind}")
    return round_real(value, toward, g)

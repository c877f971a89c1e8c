"""Exact angles and cyclotomic field arithmetic with certified sign decisions."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .errors import (
    NotRealError,
    OrderMismatchError,
    PrecisionExhaustedError,
    UnsupportedAngleError,
)

Rational = Union[int, Fraction]

_PREC_START = 64
_PREC_CAP = 1 << 16
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def _primes(n: int) -> tuple[int, ...]:
    """The distinct prime factors of n > 0, ascending."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def totient(n: int) -> int:
    if n <= 0:
        raise ValueError("totient is defined for positive integers")
    primes = _primes(n)
    return n // math.prod(primes) * math.prod(p - 1 for p in primes)


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first.

    Prime by prime from phi_1 = x - 1 by phi_mp(x) = phi_m(x^p) / phi_m(x),
    p prime to m, up to phi_rad with rad the product of n's distinct primes;
    then phi_n(x) = phi_rad(x^(n/rad)), which is sparse.
    """
    if n <= 0:
        raise ValueError("cyclotomic polynomials are indexed by positive integers")
    poly = [-1, 1]
    for p in _primes(n):
        poly = _poly_div_exact(_spread(poly, p), poly)
    return tuple(_spread(poly, n // math.prod(_primes(n))))


def _spread(poly: Sequence[int], k: int) -> list[int]:
    """poly(x^k)."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return out


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """num / den for a monic den that divides num."""
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        coef = out[i] = num[i + len(den) - 1]
        if coef:
            for j, d in enumerate(den):
                num[i + j] -= coef * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _phi_rad_tail(order: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """(s, deg, tail) for phi_order = phi_rad(x^s): the spread s = order/rad,
    the degree of phi_rad, and its nonzero (j, c) below the leading term."""
    s = order // math.prod(_primes(order))
    base = cyclotomic_coeffs(order)[::s]
    return s, len(base) - 1, tuple((j, c) for j, c in enumerate(base[:-1]) if c)


@lru_cache(maxsize=None)
def _power_row(order: int, k: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (j, c) of zeta^k over the power basis 1..zeta^(deg-1).

    The remainder of x^k by the monic phi_order = phi_rad(x^s), s = order/rad,
    has only exponents congruent to k mod s, so x^(k div s) is divided by
    phi_rad and the remainder spread back.  Every entry is an integer.
    """
    s, deg, tail = _phi_rad_tail(order)
    q, r = divmod(k, s)
    rem = [0] * q + [1]
    for e in range(q, deg - 1, -1):
        c = rem[e]
        if c:  # c x^e = -c x^(e-deg) (phi_rad - x^deg) modulo phi_rad
            for j, v in tail:
                rem[e - deg + j] -= c * v
    return tuple((j * s + r, c) for j, c in enumerate(rem[:deg]) if c)


def unit_point(j: int, order: int) -> tuple[float, float]:
    """Entry j of `unit_circle(order)`, without building the table."""
    angle = 2.0 * math.pi * j / order
    return math.cos(angle), math.sin(angle)


@lru_cache(maxsize=None)
def unit_circle(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Float cos and sin of 2*pi*j/order for j in [0, order); built on first use."""
    angles = [2.0 * math.pi * j / order for j in range(order)]
    return tuple(map(math.cos, angles)), tuple(map(math.sin, angles))


@dataclass(frozen=True)
class Angle:
    """An exact angle p/q * pi, reduced, with p/q in [0, 2)."""

    pi_multiple: Fraction

    def __init__(self, numerator: Rational, denominator: int = 1) -> None:
        if (denominator == 1 and isinstance(numerator, Fraction)
                and 0 <= numerator.numerator < 2 * numerator.denominator):
            frac = numerator  # already reduced and in [0, 2)
        else:
            frac = Fraction(numerator, denominator) % 2
        object.__setattr__(self, "pi_multiple", frac)

    @property
    def numerator(self) -> int:
        return self.pi_multiple.numerator

    @property
    def denominator(self) -> int:
        return self.pi_multiple.denominator

    def __add__(self, other: "Angle") -> "Angle":
        return Angle(self.pi_multiple + other.pi_multiple)

    def is_zero(self) -> bool:
        return self.pi_multiple == 0

    def __str__(self) -> str:
        return f"{self.pi_multiple} pi"


class CycloNum:
    """An element of the cyclotomic field of the given order, over the power basis.

    The value is sum(num[j] * zeta^j) / den with zeta = e^(2*pi*i/order):
    `num` holds totient(order) integers reduced modulo the order-th
    cyclotomic polynomial and `den` is a positive integer with
    gcd(den, *num) == 1.  That form is canonical, so equality of
    (order, num, den) is equality in the field.  Orders are expected to be
    multiples of 4 so that i is in the field.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs: Sequence[Rational]) -> None:
        deg = len(cyclotomic_coeffs(order)) - 1
        if len(coeffs) != deg:
            raise ValueError(f"need {deg} coefficients for order {order}")
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in fracs))
        # with each coefficient in lowest terms, the lcm leaves gcd(den, *num) == 1
        self.order = order
        self.num = tuple(c.numerator * (den // c.denominator) for c in fracs)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as rationals."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @staticmethod
    def from_rational(order: int, value: Rational) -> "CycloNum":
        # an int or a Fraction is already in lowest terms with den > 0
        deg = len(cyclotomic_coeffs(order)) - 1
        return _cyclo(order, (value.numerator,) + (0,) * (deg - 1), value.denominator)

    @staticmethod
    def zeta_pow(order: int, exponent: int) -> "CycloNum":
        num = [0] * (len(cyclotomic_coeffs(order)) - 1)
        for j, c in _power_row(order, exponent % order):
            num[j] = c
        return _cyclo(order, tuple(num), 1)

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

    def _combine(self, o: "CycloNum", sign: int) -> "CycloNum":
        """self + sign * o over the least common denominator."""
        da, db = self.den, o.den
        if da == db:
            num = [a + sign * b for a, b in zip(self.num, o.num)]
            return _reduced(self.order, num, da)
        g = math.gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        num = [a * fa + b * fb for a, b in zip(self.num, o.num)]
        return _reduced(self.order, num, da * fa)

    def __add__(self, other) -> "CycloNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._combine(o, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "CycloNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._combine(o, -1)

    def __rsub__(self, other) -> "CycloNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self) -> "CycloNum":
        return _cyclo(self.order, tuple([-a for a in self.num]), self.den)

    def _scaled(self, p: int, q: int) -> "CycloNum":
        """self * p / q for integers p and q > 0."""
        return _reduced(self.order, [a * p for a in self.num], self.den * q)

    def __mul__(self, other) -> "CycloNum":
        if not isinstance(other, CycloNum):
            if isinstance(other, int):
                return self._scaled(other, 1)
            if isinstance(other, Fraction):
                return self._scaled(other.numerator, other.denominator)
            return NotImplemented
        if other.order != self.order:
            raise OrderMismatchError(f"orders differ: {self.order} vs {other.order}")
        order, deg = self.order, len(self.num)
        # integer convolution, then zeta^k for k >= deg folded back in
        prod = [0] * (2 * deg - 1)
        right = [(j, b) for j, b in enumerate(other.num) if b]
        for i, a in enumerate(self.num):
            if a:
                for j, b in right:
                    prod[i + j] += a * b
        out = prod[:deg]
        for k, c in enumerate(prod[deg:], deg):
            if c:
                for j, v in _power_row(order, k):
                    out[j] += c * v
        return _reduced(order, out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CycloNum":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        p, q = other.numerator, other.denominator
        if p == 0:
            raise ZeroDivisionError("division of a cyclotomic number by zero")
        if p < 0:
            return self._scaled(-q, -p)
        return self._scaled(q, p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloNum):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycloNum.from_rational(self.order, other)
        return self.order == other.order and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.order, self.num, self.den))

    def conjugate(self) -> "CycloNum":
        order = self.order
        out = [0] * len(self.num)
        for j, c in enumerate(self.num):
            if c:
                # conj(zeta^j) = zeta^(-j)
                for k, v in _power_row(order, -j % order):
                    out[k] += c * v
        # conjugation is an integer involution, so it keeps gcd(den, *num) == 1
        return _cyclo(self.order, tuple(out), self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def is_real_symbolic(self) -> bool:
        return self == self.conjugate()

    def real_part(self) -> "CycloNum":
        return (self + self.conjugate()) / 2

    def imag_part(self) -> "CycloNum":
        w = -CycloNum.i_unit(self.order) * self
        return (w + w.conjugate()) / 2

    def approx_complex(self) -> complex:
        """The float value over `unit_circle`; uncertified, a start guess only."""
        cos, sin = unit_circle(self.order)
        den = self.den
        return sum(c / den * complex(cos[j], sin[j]) for j, c in enumerate(self.num) if c)

    def __repr__(self) -> str:
        terms = [
            f"{c}*z^{j}" if j else f"{c}"
            for j, c in enumerate(self.coeffs)
            if c
        ]
        body = " + ".join(terms) if terms else "0"
        return f"Cyclo[{self.order}]({body})"


def _cyclo(order: int, num: tuple[int, ...], den: int) -> CycloNum:
    """A CycloNum from integer numerators already in lowest terms over den > 0."""
    z = object.__new__(CycloNum)
    z.order = order
    z.num = num
    z.den = den
    return z


def _reduced(order: int, num: list[int], den: int) -> CycloNum:
    """A CycloNum from integer numerators over den > 0, brought to lowest terms."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
    return _cyclo(order, tuple(num), den)


CycloLike = Union[CycloNum, Fraction, int]


@lru_cache(maxsize=1 << 14)
def embed_polar(modulus: Rational, angle: Angle, order: int) -> CycloNum:
    """The value modulus * e^(i*angle) as an element of the order-th field."""
    modulus = Fraction(modulus)
    if modulus < 0:
        raise ValueError("modulus must be nonnegative")
    num = angle.pi_multiple * order
    if num.denominator != 1 or num.numerator % 2 != 0:
        raise UnsupportedAngleError(
            f"angle {angle} does not embed into the order-{order} field"
        )
    return modulus * CycloNum.zeta_pow(order, num.numerator // 2)


@lru_cache(maxsize=None)
def _interval_cos(order: int, j: int, prec: int):
    import mpmath

    saved = mpmath.iv.prec
    mpmath.iv.prec = prec
    try:
        return mpmath.iv.cos(2 * mpmath.iv.pi * j / order)
    finally:
        mpmath.iv.prec = saved


def _interval_real_value(z: CycloNum):
    """Certified mpmath interval for the (real) value of z at current iv precision."""
    import mpmath

    prec = mpmath.iv.prec
    total = mpmath.iv.mpf(0)
    for j, c in enumerate(z.num):
        if not c:
            continue
        coef = mpmath.iv.mpf(c)
        if j == 0:
            total += coef
        else:
            total += coef * _interval_cos(z.order, j, prec)
    return total / mpmath.iv.mpf(z.den)


def refine(enclose, cap: int, decide):
    """Decide a question about a real value from certified enclosures of it.

    `enclose()` returns an mpmath interval at the current iv precision; the
    ladder reads its endpoints at that precision (a read at mpmath's default
    53 bits would round them and could move a floor) and calls
    `decide(floor(lo), floor(hi))`.  The first verdict that is not None is
    returned.  The precision doubles from _PREC_START up to `cap`; past the
    cap the answer is None.  mpmath is imported here, on the first
    refinement, so a run that never refines never loads it.
    """
    import mpmath

    prec = _PREC_START
    saved = mpmath.iv.prec
    try:
        while prec <= cap:
            mpmath.iv.prec = prec
            box = enclose()
            with mpmath.workprec(prec):
                lo = int(mpmath.floor(mpmath.mpf(box.a)))
                hi = int(mpmath.floor(mpmath.mpf(box.b)))
            verdict = decide(lo, hi)
            if verdict is not None:
                return verdict
            prec *= 2
    finally:
        mpmath.iv.prec = saved
    return None


# 4*cos(pi*m/12) over the basis (1, sqrt2, sqrt3, sqrt6): for m in [0, 6],
# and by cos(pi - x) = -cos(x) and cos(2pi - x) = cos(x) for m in [0, 24)
_COS_FIRST = ((4, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 0), (0, 2, 0, 0),
              (2, 0, 0, 0), (0, -1, 0, 1), (0, 0, 0, 0))
_COS_TWELFTHS = tuple(
    _COS_FIRST[m] if m <= 6 else tuple(-v for v in _COS_FIRST[12 - m])
    for m in (min(k, 24 - k) for k in range(24))
)


def _sign_sqrt2(x: int, y: int) -> int:
    """Sign of x + y*sqrt2 for integers x, y."""
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx == sy or not sy:
        return sx
    if not sx:
        return sy
    n = x * x - 2 * y * y
    return sx * ((n > 0) - (n < 0))


def _sign_biquadratic(a: int, b: int, c: int, d: int) -> int:
    """Sign of p + q*sqrt3 with p = a + b*sqrt2 and q = c + d*sqrt2: where
    p and q have opposite signs it is p's sign times that of
    p^2 - 3q^2 = (a^2 + 2b^2 - 3c^2 - 6d^2) + 2(ab - 3cd)*sqrt2."""
    sp, sq = _sign_sqrt2(a, b), _sign_sqrt2(c, d)
    if sp == sq or not sq:
        return sp
    if not sp:
        return sq
    return sp * _sign_sqrt2(a * a + 2 * b * b - 3 * c * c - 6 * d * d, 2 * (a * b - 3 * c * d))


def _floor_root(y: int, k: int) -> int:
    """floor(y*sqrt(k)) for a k that is not a square."""
    s = math.isqrt(k * y * y)
    return s if y >= 0 else -s - 1


def _biquadratic_floor(z: CycloNum) -> Union[int, None]:
    """The floor of a non-rational real z in integers, when its field order
    divides 24, so that z is (a + b*sqrt2 + c*sqrt3 + d*sqrt6)/D with
    D = 4*den; None for other orders.  Flooring each root term puts the
    numerator S in [S_lo, S_lo + 3), which leaves at most two candidate
    floors for D >= 4, and one exact sign picks between them."""
    if 24 % z.order:
        return None
    step = 24 // z.order
    a = b = c = d = 0
    for j, coef in enumerate(z.num):
        if coef:
            ca, cb, cc, cd = _COS_TWELFTHS[j * step]
            a, b, c, d = a + coef * ca, b + coef * cb, c + coef * cc, d + coef * cd
    den = 4 * z.den
    low = a + _floor_root(b, 2) + _floor_root(c, 3) + _floor_root(d, 6)
    lo, hi = low // den, (low + 2) // den
    if lo == hi or _sign_biquadratic(a - hi * den, b, c, d) < 0:
        return lo
    return hi


def _decide_real(z: CycloNum, decide):
    """`refine` on the real value of a non-rational z, up to `_PREC_CAP`;
    in fields of order dividing 24, decide(f, f) on the floor f that
    `_biquadratic_floor` reads in integers, so mpmath is not needed there.

    An irrational value sits strictly inside some unit interval and is never
    zero, so the decisions asked here settle at some finite precision.
    """
    f = _biquadratic_floor(z)
    if f is not None:
        return decide(f, f)
    verdict = refine(lambda: _interval_real_value(z), _PREC_CAP, decide)
    if verdict is None:
        raise PrecisionExhaustedError("refinement exceeded the precision cap")
    return verdict


def _sign_decision(lo: int, hi: int) -> Union[int, None]:
    # sound only for a value that is never zero
    if lo >= 0:
        return 1
    if hi < 0:
        return -1
    return None


def settled_floor(lo: int, hi: int) -> Union[int, None]:
    """The floor, once both ends of an enclosure share it."""
    return lo if lo == hi else None


def _real_sign(z: CycloNum) -> int:
    """Sign of a value that is symbolically real by construction."""
    if z.is_rational():
        q = z.num[0]
        return (q > 0) - (q < 0)
    return _decide_real(z, _sign_decision)


def sign_of_real(z: CycloLike) -> int:
    """Certified sign of a symbolically real cyclotomic number."""
    if not isinstance(z, CycloNum):
        q = Fraction(z)
        return (q > 0) - (q < 0)
    if not z.is_rational() and not z.is_real_symbolic():
        raise NotRealError("sign_of_real needs a real value")
    return _real_sign(z)


def certified_floor(z: CycloLike, granularity: Rational = _ONE) -> int:
    """floor(z / granularity) for a symbolically real z, decided exactly."""
    g = granularity if isinstance(granularity, Fraction) else Fraction(granularity)
    if g.numerator <= 0:
        raise ValueError("granularity must be positive")
    if not isinstance(z, CycloNum):
        q = z if isinstance(z, Fraction) else Fraction(z)
        return q.numerator * g.denominator // (q.denominator * g.numerator)
    if z.is_rational():
        return z.num[0] * g.denominator // (z.den * g.numerator)
    if not z.is_real_symbolic():
        raise NotRealError("certified_floor needs a real value")
    return _decide_real(z._scaled(g.denominator, g.numerator), settled_floor)


def modulus_sq(z: CycloNum) -> CycloNum:
    return z * z.conjugate()


def floor_sqrt(value: CycloLike) -> int:
    """floor(sqrt(value)) for a nonnegative real value; exact."""
    f = certified_floor(value)
    if f < 0:
        raise ValueError("floor_sqrt needs a nonnegative value")
    return math.isqrt(f)


def half_up_sqrt(value: CycloLike) -> int:
    """Nearest integer to sqrt(value), half ties rounded up; exact."""
    f = certified_floor(value * 4)
    if f < 0:
        raise ValueError("half_up_sqrt needs a nonnegative value")
    return (math.isqrt(f) + 1) // 2


def ceil_sqrt(value: CycloLike) -> int:
    s = floor_sqrt(value)
    return s if value == s * s else s + 1


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

    # score(k) = 2|z|cos(arg z - k*pi/R) is unimodal around the circle, and
    # neighbours tie only at the midpoints of the top pair and of the bottom
    # pair; so climbing while a neighbour scores strictly higher ends at the
    # top.  The float guess is usually the top already: three scores, two signs.
    try:
        k = round(cmath.phase(z.approx_complex()) / (math.pi / resolution)) % count
    except (OverflowError, ValueError):
        k = 0  # past float range there is no guess
    s, nxt, prv = score(k), score((k + 1) % count), score((k - 1) % count)
    up, down = _real_sign(nxt - s), _real_sign(prv - s)
    while up > 0 or down > 0:
        if up > 0:
            k = (k + 1) % count
            s, down = nxt, -1
            nxt = score((k + 1) % count)
            up = _real_sign(nxt - s)
        else:
            k = (k - 1) % count
            s, up = prv, -1
            prv = score((k - 1) % count)
            down = _real_sign(prv - s)
    # an exact tie with the next index: counterclockwise wins
    return (k + 1) % count if up == 0 else k

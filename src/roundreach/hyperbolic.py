"""Deciders for blocks whose eigenvalue modulus differs from one."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from .errors import (
    InternalInvariantError,
    ModulusOneSpectrumError,
    NonRationalSpectrumError,
)
from .numerics import Angle, Rational
from .rounding import (
    RULES,
    PolarRounding,
    RoundingKind,
    RoundingSpec,
    effect_bound,
    kbox_count,
    modulus_effect_bound,
)
from .system import (
    BlockAnalyzer,
    Certificate,
    EscapedRadius,
    IntegerMatrix,
    JnfSystem,
    JordanBlock,
    RationalSystem,
    Reached,
    Verdict,
    iterate,
    run_lock_step,
)

RationalMatrix = tuple[tuple[Fraction, ...], ...]


# sqrt(num/den) rounded up to whole grid steps: the ceiling rule's modulus
_modulus_up = RULES[RoundingKind.CEIL].modulus


@dataclass(frozen=True)
class RadiusTable:
    """Per-dimension escape radii for one block, held as integer numerators
    over one denominator: radius j is nums[j]/den.  Index 0 is the fed-most
    coordinate, the last index the autonomous one."""

    eigen_modulus: Fraction
    delta: Rational
    ell: Rational
    nums: tuple[int, ...]
    den: int

    @property
    def size(self) -> int:
        return len(self.nums)

    @property
    def radii(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    def step_bound(self, spec: RoundingSpec) -> int:
        """States available to this block: the product of the box counts."""
        product = 1
        for c in self.nums:
            product *= kbox_count(c, self.den, spec)
        return product


def _larger(a: Rational, b: Rational) -> Rational:
    """The larger of two rationals, compared on numerators."""
    return b if b.numerator * a.denominator > a.numerator * b.denominator else a


def radii(block: JordanBlock, delta: Rational, modulus: Rational) -> RadiusTable:
    """Escape radii from the eigenvalue modulus, the rounding effect bound,
    and an upper bound on the moduli of the block's start and target.

    The chain and its envelope check run on integer numerators over one
    common denominator, which the table keeps.
    """
    if delta.numerator <= 0:
        raise ValueError("the rounding effect bound must be positive")
    lam = block.eigen_modulus
    if lam.numerator == lam.denominator:
        raise ModulusOneSpectrumError("escape radii need |eigenvalue| != 1")
    ell = _larger(_larger(1, delta), modulus)
    # the chain out[j] = (delta + out[j + 1])/|lam - 1| + ell from
    # out[size] = 0, on numerators over den = dd*ed*u^size with
    # |lam - 1| = u/q: out[j]*den is a multiple of u^j, so each // is exact
    q, u = lam.denominator, abs(lam.numerator - lam.denominator)
    size = block.size
    dd, ed = delta.denominator, ell.denominator
    u_size = u**size
    den = dd * ed * u_size
    delta_num = delta.numerator * ed * u_size
    ell_num = ell.numerator * dd * u_size
    # the proved envelope ell*(size + 1)*(1 + (2/|lam - 1|)^size)
    cap_num = ell.numerator * dd * (size + 1) * (u_size + (2 * q) ** size)
    out = [0] * size
    c = 0
    for j in range(size - 1, -1, -1):
        c = (delta_num + c) * q // u + ell_num
        if not ell_num < c <= cap_num:
            raise InternalInvariantError("radius chain left its proved envelope")
        out[j] = c
    return RadiusTable(lam, delta, ell, tuple(out), den)


class HyperbolicBlockAnalyzer:
    """Emits an escape certificate once any coordinate meets its radius.

    A coordinate in grid units, (a, b) or (k, i), has squared modulus
    (a^2 + b^2)*g^2 or k^2*g^2, so it meets radius c exactly when the
    integer a^2 + b^2 (or k^2) reaches (c/g)^2, that is its ceiling.
    """

    def __init__(self, offset: int, table: RadiusTable, spec: RoundingSpec) -> None:
        self.offset = offset
        self.table = table
        self.polar = isinstance(spec, PolarRounding)
        g = spec.granularity
        # (coordinate, its bound on the integer squared modulus, numerator),
        # the bound ceil((n/d)^2) for n/d = c/g
        d = table.den * g.numerator
        watch = []
        for j, c in enumerate(table.nums):
            n = c * g.denominator
            watch.append((offset + j, -(-n * n // (d * d)), c))
        self._watch = tuple(watch)

    def _check(self, state: Sequence[tuple[int, int]]) -> Optional[Certificate]:
        polar = self.polar
        for at, bound, c in self._watch:
            a, b = state[at]
            if (a * a if polar else a * a + b * b) >= bound:
                return EscapedRadius(at, Fraction(c, self.table.den))
        return None

    def observe_initial(self, state: Sequence[tuple[int, int]]) -> Optional[Certificate]:
        return self._check(state)

    def observe(self, step_index, prev, new) -> Optional[Certificate]:
        return self._check(new)


def escape_table(system: JnfSystem, index: int) -> RadiusTable:
    """Escape radii of one block of a Jordan-form system.

    The moduli are read off the kernel's integer coordinates in whole grid
    steps: k for (k, i), and for (a, b) isqrt(a^2 + b^2), plus one unless
    exact.  The effect bound is the modulus effect bound, the real-only one
    for a real block under componentwise rounding.
    """
    block = system.blocks[index]
    start, end = system.block_slices()[index]
    kernel = system.kernel
    points = (*kernel.target[start:end], *kernel.initial[start:end])
    if isinstance(system.rounding, PolarRounding):
        steps = [k for k, _ in points]
        real_only = False
    else:
        steps = [_modulus_up(a * a + b * b, 1) for a, b in points]
        angle = block.eigen_angle
        real_only = (angle.is_zero() or angle.pi_multiple == 1) and not any(
            b for _, b in points
        )
    delta = modulus_effect_bound(system.rounding, real_only=real_only)
    g = system.rounding.granularity
    return radii(block, delta, Fraction(max(steps) * g.numerator, g.denominator))


@dataclass(frozen=True)
class UnitTable:
    """Modulus and step budgets for one block whose eigenvalue has modulus
    one, in whole grid steps of the granularity g; index 0 is the top of
    the block.

    The block settles bottom-up: modulus_steps[k]*g bounds coordinate k's
    modulus while it is watched and settle_bounds[k] the step by which it
    has resolved.  initial_steps*g is an upper bound on the summed moduli
    of the block's starting coordinates, and growth the growth base as a
    (numerator, denominator) pair.  The rational views below are for
    output.

    The block's part of the step cap: it is done within settle_steps, and
    from then on it has at most `states` states.
    """

    granularity: Fraction
    initial_steps: int
    growth: tuple[int, int]
    exponent: int
    modulus_steps: tuple[int, ...]
    settle_bounds: tuple[int, ...]
    settle_steps: int
    states: int

    @property
    def initial_size(self) -> Fraction:
        return self.initial_steps * self.granularity

    @property
    def growth_base(self) -> Fraction:
        return Fraction(*self.growth)

    @property
    def modulus_bounds(self) -> tuple[Fraction, ...]:
        return tuple(u * self.granularity for u in self.modulus_steps)

    def doubly_exponential_ceiling(self, j: int) -> Fraction:
        """Closed-form ceiling for modulus_bounds[size - 1 - j]."""
        clamped = max(self.initial_size, Fraction(1))
        return (self.growth_base * clamped) ** (self.exponent**j)


def unit_table(
    size: int,
    granularity: Fraction,
    initial_steps: int,
    last: int,
    settle: Callable[[int], int],
    growth: tuple[int, int],
    exponent: int,
    count: Callable[[tuple[int, ...]], tuple[int, int]],
) -> UnitTable:
    """Evaluate the budget recurrence of a unit-modulus block in grid steps:
    the bottom coordinate settles by step `last`, and coordinate k, watched
    once the one below has settled, stays within
    initial_steps + size*t[k+1]*u[k+1] steps and resolves within
    settle(u[k]) more.  count(u) gives, from the modulus table, the steps
    the block may take past t[0] and its state count.  Checks the modulus
    table against doubly_exponential_ceiling on integer numerators: with
    g = gn/gd, the clamped initial size C = max(initial_steps*gn, gd)/gd
    and the growth base G = Gn/Gd, u*g <= (G*C)^e reads
    u*gn*(Gd*gd)^e <= gd*(Gn*Cn)^e."""
    u = [initial_steps] * size
    t = [last] * size
    for k in range(size - 2, -1, -1):
        u[k] = initial_steps + size * t[k + 1] * u[k + 1]
        t[k] = settle(u[k]) + t[k + 1]
    gn, gd = granularity.numerator, granularity.denominator
    base_num = growth[0] * max(initial_steps * gn, gd)
    base_den = growth[1] * gd
    for j in range(size):
        e = exponent**j
        if u[size - 1 - j] * gn * base_den**e > gd * base_num**e:
            raise InternalInvariantError(
                f"modulus table exceeds its closed-form ceiling at height {j}"
            )
    u, t = tuple(u), tuple(t)
    slack, states = count(u)
    return UnitTable(granularity, initial_steps, growth, exponent, u, t, t[0] + slack, states)


def step_cap(system: JnfSystem, tables: Sequence) -> int:
    """The pigeonhole cap of a Jordan-form decider, read off every block's
    table: the product of the tables' state counts, a RadiusTable's boxes
    or a UnitTable's states.  With no modulus-one block that product bounds
    the distinct states the orbit can visit.  Otherwise the cap is a
    safety net: every unit block's settle steps, plus the product, plus 2."""
    spec = system.rounding
    settle, states = 0, 1
    for table in tables:
        if isinstance(table, RadiusTable):
            states *= table.step_bound(spec)
        else:
            settle += table.settle_steps
            states *= table.states
    return states if system.is_hyperbolic else settle + states + 2


@dataclass(frozen=True)
class Fragment:
    """What a Jordan-form decider runs on: unit_tables(system, index) builds
    the UnitTable of a block whose eigenvalue has modulus one, and
    unit_analyzer(offset, block, the system's StepKernel) watches such a
    block, reading the rounding, the field order and the encoded target
    from the kernel.  With no unit_tables the fragment covers no
    modulus-one block; step_cap reads the cap off the tables."""

    unit_tables: Optional[Callable[[JnfSystem, int], Any]] = None
    unit_analyzer: Optional[Callable[..., BlockAnalyzer]] = None

    def tables(self, system: JnfSystem) -> list:
        """Every block's table, each built once: escape radii where the
        eigenvalue modulus is not one, unit_tables where it is (without
        unit_tables, ModulusOneSpectrumError)."""
        return [
            self.unit_tables(system, i)
            if self.unit_tables is not None and block.eigen_modulus == 1
            else escape_table(system, i)
            for i, block in enumerate(system.blocks)
        ]


HYPERBOLIC = Fragment()


def block_tables(system: JnfSystem) -> list[RadiusTable]:
    """Escape radii for every block of a system without modulus-one eigenvalues."""
    return HYPERBOLIC.tables(system)


def decide_by_blocks(system: JnfSystem, fragment: Fragment) -> Verdict:
    """Run the lock-step driver over the fragment's tables: the escape-radius
    analyzer on every block with a radius table, the fragment's unit
    analyzer on the others, and the cap read off the same tables.  A start
    on the target is Reached(0), as iterate would answer, before any table
    is built: a large unit block's settle budgets cost seconds."""
    kernel = system.kernel
    if kernel.initial == kernel.target:
        return Reached(0)
    tables = fragment.tables(system)
    analyzers = [
        HyperbolicBlockAnalyzer(start, table, system.rounding)
        if isinstance(table, RadiusTable)
        else fragment.unit_analyzer(start, block, kernel)
        for block, (start, _end), table in zip(
            system.blocks, system.block_slices(), tables
        )
    ]
    return run_lock_step(
        system,
        analyzers,
        step_cap=step_cap(system, tables),
        cap_is_state_bound=system.is_hyperbolic,
    )


def decide_hyperbolic_jnf(system: JnfSystem) -> Verdict:
    """Decide reachability when every eigenvalue has modulus != 1.

    Orbit coordinates either meet their escape radius (a permanent no) or stay
    confined, where exact repeat detection and the box-count pigeonhole bound
    conclude.  A modulus-one block raises ModulusOneSpectrumError.
    """
    return decide_by_blocks(system, HYPERBOLIC)


# ---------------------------------------------------------------------------
# Rational matrices: exact linear algebra, Jordan form, the Jordan basis


def mat_vec(m: RationalMatrix, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(sum((c * x for c, x in zip(row, v)), Fraction(0)) for row in m)


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """The exact product; the tests and the benchmark build matrices with it."""
    n = len(a)
    k = len(b)
    cols = len(b[0])
    return tuple(
        tuple(
            sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
            for j in range(cols)
        )
        for i in range(n)
    )


def mat_inv(m: RationalMatrix) -> RationalMatrix:
    """The inverse read off the RREF of [M | I]; ValueError when M is
    singular.  The tests and the benchmark build matrices with it."""
    n = len(m)
    rows, pivots = _echelon(
        _integer_rows([[*row, *(int(i == j) for j in range(n))]
                       for i, row in enumerate(m)])
    )
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(Fraction(x, row[k]) for x in row[n:]) for k, row in enumerate(rows))


# Exact Jordan form.  M is scaled to the integer matrix A = D M, D the least
# common denominator of its entries.  The characteristic polynomial of A is
# monic with integer coefficients, so its rational roots are integers r,
# and M's eigenvalues are the r / D.  The Jordan basis is built on the
# integer matrices A - r I = D (M - r/D I), which have the kernels of
# M - r/D I, in one fixed convention (below, at jnf_rational), so that P
# and the Jordan blocks are a function of M alone.

IntMatrix = list[list[int]]


def _int_mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _charpoly(a: IntMatrix) -> list[int]:
    """det(x I - A), coefficients highest degree first, by Faddeev-LeVerrier:
    B_k = A B_(k-1) + c_(k-1) I and c_k = -tr(A B_k) / k, each division exact."""
    n = len(a)
    coeffs = [1]
    ab = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            ab[i][i] += coeffs[-1]
        ab = _int_mat_mul(a, ab)
        coeffs.append(-sum(ab[i][i] for i in range(n)) // k)
    return coeffs


def _primitive(f: list[int]) -> list[int]:
    """f over the gcd of its coefficients ([0] stays [0])."""
    g = math.gcd(*f)
    return [c // g for c in f] if g > 1 else f


def _remainder(f: list[int], g: list[int]) -> list[int]:
    """The remainder of f by g times a positive rational, primitive; [0]
    when g divides f.  Each step scales by |lead(g)| and cancels the
    leading term, so every coefficient stays an integer."""
    lead = abs(g[0])
    sign = 1 if g[0] > 0 else -1
    rest = list(f)
    while len(rest) >= len(g):
        c = rest[0] * sign
        rest = [lead * x - c * y for x, y in zip(rest[1:], g[1:])] + [
            lead * x for x in rest[len(g):]
        ]
    while rest and rest[0] == 0:
        rest = rest[1:]
    return _primitive(rest) if rest else [0]


def _divide(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by g, for g with leading coefficient 1
    or -1 (so both stay integer)."""
    rest = list(f)
    quotient = []
    while len(rest) >= len(g):
        c = rest[0] * g[0]
        quotient.append(c)
        rest = [x - c * y for x, y in zip(rest[1:], g[1:])] + rest[len(g):]
    return quotient, rest


def _derivative(f: list[int]) -> list[int]:
    k = len(f) - 1
    return [c * (k - i) for i, c in enumerate(f[:-1])]


def _square_free(p: list[int]) -> list[int]:
    """p / gcd(p, p') for a monic integer p: the monic polynomial with p's
    roots, each once.  The gcd is monic with integer coefficients (Gauss's
    lemma), so its primitive form, which Euclid's algorithm on primitive
    remainders ends at, has leading coefficient 1 or -1."""
    f, g = p, _primitive(_derivative(p))
    while (rest := _remainder(f, g)) != [0]:
        f, g = g, rest
    q = _divide(p, g)[0]
    return q if q[0] > 0 else [-c for c in q]


def _value(f: Sequence[int], x: int) -> int:
    value = 0
    for c in f:
        value = value * x + c
    return value


def _sign_changes(sturm: Sequence[Sequence[int]], x: int) -> int:
    changes = 0
    last = 0
    for poly in sturm:
        value = _value(poly, x)
        if value:
            if last and (last > 0) != (value > 0):
                changes += 1
            last = value
    return changes


def _integer_roots(f: list[int]) -> list[int]:
    """The integer roots of a square-free monic integer polynomial, ascending.

    Sturm's theorem counts the roots in (lo, hi] as V(lo) - V(hi); bisection
    over integers splits every interval holding a root down to (r - 1, r],
    and r is then tested exactly.  Every root has modulus below 2^(e + 1),
    with 2^e above each |c_k|^(1/k) (Fujiwara's bound).
    """
    sturm = [f, _derivative(f)]
    while len(sturm[-1]) > 1:
        sturm.append([-c for c in _remainder(sturm[-2], sturm[-1])])
    e = max((abs(c).bit_length() + k - 1) // k for k, c in enumerate(f[1:], 1))
    bound = 2 ** (e + 1)
    roots = []
    pending = [(-bound, bound, _sign_changes(sturm, -bound), _sign_changes(sturm, bound))]
    while pending:
        lo, hi, v_lo, v_hi = pending.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if _value(f, hi) == 0:
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = _sign_changes(sturm, mid)
        pending += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return sorted(roots)


def _deflated(p: list[int], r: int) -> tuple[list[int], int]:
    """p with every factor x - r divided out, and how many there were."""
    count = 0
    while len(p) > 1:
        quotient, rest = _divide(p, [1, -r])
        if rest[0]:
            break
        p = quotient
        count += 1
    return p, count


def _poly_str(coeffs: Sequence[Fraction]) -> str:
    """x^2 - 3/2*x + 1: highest degree first, zero terms left out."""
    top = len(coeffs) - 1
    text = ""
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        power = {0: "", 1: "x"}.get(top - i, f"x^{top - i}")
        term = str(abs(c)) if not power else power if abs(c) == 1 else f"{abs(c)}*{power}"
        sign = "-" if c < 0 else "+"
        text = f"{text} {sign} {term}" if text else ("-" if c < 0 else "") + term
    return text


def _rational_spectrum(a: IntMatrix, d: int) -> list[tuple[int, int]]:
    """(r, algebraic multiplicity) for each eigenvalue r / d of M = A / d,
    ascending.  When the multiplicities sum to less than the dimension,
    NonRationalSpectrumError names the factor of M's characteristic
    polynomial that is left."""
    p = _charpoly(a)
    spectrum = []
    for r in _integer_roots(_square_free(p)):
        p, count = _deflated(p, r)
        spectrum.append((r, count))
    if len(p) > 1:
        rest = [Fraction(c, d**i) for i, c in enumerate(p)]
        raise NonRationalSpectrumError(
            f"the characteristic polynomial has the factor {_poly_str(rest)} "
            "with no rational root"
        )
    return spectrum


def _echelon(rows: IntMatrix) -> tuple[IntMatrix, list[int]]:
    """A reduced row echelon form of an integer matrix with each row left
    at an integer multiple (rows are cross-multiplied, then divided by
    their content), and its pivot columns; row k over its pivot entry is
    row k of the RREF."""
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    for c in range(len(rows[0])):
        k = len(pivots)
        found = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[k], rows[found] = rows[found], rows[k]
        top = rows[k]
        for i, row in enumerate(rows):
            f = row[c]
            if i != k and f:
                new = [top[c] * x - f * y for x, y in zip(row, top)]
                g = math.gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots


def _nullspace(m: IntMatrix) -> list[list[Fraction]]:
    """The nullspace basis read off the RREF: one vector per free column,
    1 there, minus the RREF's entries in that column at the pivots, 0 else."""
    rows, pivots = _echelon(m)
    basis = []
    for free in range(len(m[0])):
        if free in pivots:
            continue
        vec = [Fraction(0)] * len(m[0])
        vec[free] = Fraction(1)
        for row, c in zip(rows, pivots):
            vec[c] = Fraction(-row[free], row[c])
        basis.append(vec)
    return basis


def _integer_rows(vectors: Sequence[Sequence[Fraction]]) -> IntMatrix:
    """Each vector times the least common denominator of its entries."""
    out = []
    for vec in vectors:
        lcm = math.lcm(*(x.denominator for x in vec))
        out.append([x.numerator * (lcm // x.denominator) for x in vec])
    return out


def _rank(m: IntMatrix) -> int:
    return len(_echelon(m)[1])


def _pick_vec(small: list[list[Fraction]], big: list[list[Fraction]]) -> list[Fraction]:
    """The first vector of big outside the span of small."""
    if not small:
        return big[0]
    rows = _integer_rows(small)
    base = _rank(rows)
    for v in big:
        if _rank(rows + _integer_rows([v])) > base:
            return v
    raise InternalInvariantError("no Jordan chain head outside the span so far")


def _block_structure(spectrum, eig_power, n: int) -> list[tuple[int, int]]:
    """(r, size) for every Jordan block, eigenvalues ascending and, for
    each, sizes largest first, read off the nullities of the powers of
    A - r I (there are 2 d_k - d_(k-1) - d_(k+1) blocks of size k, d_k
    the nullity of the k-th power)."""
    structure = []
    for r, multiplicity in spectrum:
        chain = [0]
        nullity = n - _rank(eig_power(r, 1))
        power = 2
        while nullity != chain[-1]:
            chain.append(nullity)
            if nullity == multiplicity:
                break
            nullity = n - _rank(eig_power(r, power))
            power += 1
            if nullity < chain[-1] or nullity > multiplicity:
                raise InternalInvariantError("inconsistent nullity chain")
        counts = [
            2 * chain[k] - chain[k - 1] - chain[k + 1] for k in range(1, len(chain) - 1)
        ] + [chain[-1] - chain[-2]]
        structure += [
            (r, size) for size in range(len(counts), 0, -1) for _ in range(counts[size - 1])
        ]
    if sum(size for _, size in structure) != n:
        raise InternalInvariantError("Jordan blocks do not fill the dimension")
    return structure


def jnf_rational(
    matrix: RationalMatrix,
) -> tuple[IntMatrix, tuple[int, ...], tuple[JordanBlock, ...]]:
    """Exact Jordan decomposition M = P J P^-1 over the rationals, checked
    exactly as M P = P J with P of full rank: (columns, scales, blocks),
    column i of P being the integer vector columns[i] over scales[i], one
    scale per block (the least common denominator of its columns), and
    the blocks of J.

    The eigenvalues come in ascending order, the blocks of one eigenvalue
    largest first.  Each block of size s takes as v the first nullspace
    vector of (M - lambda I)^s outside the span of the nullspace of
    (M - lambda I)^(s-1) and the chains already built, and adds its chain
    (M - lambda I)^i v, last power first.  Nullspace vectors are read off
    the reduced row echelon form, one per free column.  M P = P J holds
    exactly when, in every block, each column p_i of P has
    M p_i = lambda p_i + p_(i-1), with p_(i-1) = 0 at the block's start.

    Raises NonRationalSpectrumError, naming the factor of the characteristic
    polynomial that is left, when the rational eigenvalues' multiplicities
    sum to less than the dimension.
    """
    n = len(matrix)
    d = math.lcm(*(v.denominator for row in matrix for v in row))
    a = [[v.numerator * (d // v.denominator) for v in row] for row in matrix]
    spectrum = _rational_spectrum(a, d)
    powers: dict[int, list[IntMatrix]] = {}

    def eig_power(r: int, k: int) -> IntMatrix:
        """(A - r I)^k = d^k (M - r/d I)^k, each power built once."""
        cache = powers.setdefault(r, [[[int(i == j) for j in range(n)] for i in range(n)]])
        while len(cache) <= k:
            if len(cache) == 1:
                cache.append([[v - r * (i == j) for j, v in enumerate(row)] for i, row in enumerate(a)])
            else:
                cache.append(_int_mat_mul(cache[-1], cache[1]))
        return cache[k]

    structure = _block_structure(spectrum, eig_power, n)
    basis = []
    for r, _ in spectrum:
        eig_basis: list[list[Fraction]] = []
        for block_r, size in structure:
            if block_r != r:
                continue
            vec = _pick_vec(
                _nullspace(eig_power(r, size - 1)) + eig_basis,
                _nullspace(eig_power(r, size)),
            )
            chain = [vec]
            for _ in range(1, size):
                chain.append([x / d for x in mat_vec(eig_power(r, 1), chain[-1])])
            eig_basis += chain
            basis += reversed(chain)
    # M p_i = lambda p_i + p_(i-1) is A q_i = r q_i + d q_(i-1) on the
    # block's columns q_i = L p_i, L their least common denominator
    blocks = []
    columns: IntMatrix = []
    scales: list[int] = []
    start = 0
    for r, size in structure:
        cols = basis[start:start + size]
        lcm = math.lcm(*(x.denominator for col in cols for x in col))
        prev = [0] * n
        for col in cols:
            q = [x.numerator * (lcm // x.denominator) for x in col]
            if [sum(c * x for c, x in zip(row, q)) for row in a] != [
                    r * x + d * y for x, y in zip(q, prev)]:
                raise InternalInvariantError("Jordan reconstruction mismatch")
            prev = q
            columns.append(q)
        scales += [lcm] * size
        blocks.append(JordanBlock(size, Fraction(abs(r), d), Angle(0) if r >= 0 else Angle(1)))
        start += size
    if _rank(columns) < n:
        raise InternalInvariantError("Jordan reconstruction mismatch")
    return columns, tuple(scales), tuple(blocks)


@dataclass(frozen=True)
class Eigenbasis:
    """Where a rational-matrix system is watched: its Jordan basis
    z = P^-1 x, with P^-1 held as the integer matrix B = E*P^-1, the blocks
    of its Jordan form, delta, the rounding's effect bound there (the
    grid's scaled by the maximum absolute row sum of P^-1), and start and
    target in z as the integer vectors B k, for the state x = k*g in grid
    units: z = (B k)*g/E."""

    b: IntegerMatrix
    delta: Fraction
    blocks: tuple[JordanBlock, ...]
    granularity: Fraction
    initial_bk: tuple[int, ...]
    target_bk: tuple[int, ...]

    @property
    def initial(self) -> tuple[Fraction, ...]:
        return self._z(self.initial_bk)

    @property
    def target(self) -> tuple[Fraction, ...]:
        return self._z(self.target_bk)

    def _z(self, bk: Sequence[int]) -> tuple[Fraction, ...]:
        scale = self.granularity / self.b.den
        return tuple(v * scale for v in bk)


def _scaled_inverse(columns: IntMatrix, scales: Sequence[int]) -> IntegerMatrix:
    """P^-1 as B = E*P^-1 with E least, for P with column i the integer
    vector columns[i] over scales[i]: with Q the integer matrix of the
    columns, P^-1 = diag(scales) Q^-1, and row k of Q^-1 is row k of the
    echelon of [Q | I] over its pivot."""
    n = len(columns)
    rows, _ = _echelon([[*(col[i] for col in columns), *(int(i == j) for j in range(n))]
                        for i in range(n)])
    parts = []
    for k, (s, row) in enumerate(zip(scales, rows)):
        num = [s * x for x in row[n:]]
        pivot = row[k]
        common = math.gcd(pivot, *num) * (1 if pivot > 0 else -1)
        parts.append(([x // common for x in num], pivot // common))
    e = math.lcm(*(d for _, d in parts))
    return IntegerMatrix.of_integers([[x * (e // d) for x in num] for num, d in parts], e)


def eigenbasis(system: RationalSystem) -> tuple[Eigenbasis, list[RadiusTable], int]:
    """The system's Jordan basis, every block's escape radii there, and a
    proved bound on the number of distinct states.

    The state x = k*g is the kernel's integer vector k, so z = (B k)*g/E:
    start and target in z are one integer product each.  A block's radii
    read the largest |z| of its start and target.  The bound counts grid
    points x = P z in the box the radii span: coordinate i stays within
    floor(sum_d |p_id| c_d / g) grid steps, summed on integer numerators
    over one denominator.  A modulus-one eigenvalue raises
    ModulusOneSpectrumError, a non-rational one NonRationalSpectrumError.
    """
    columns, scales, blocks = jnf_rational(system.matrix)
    b = _scaled_inverse(columns, scales)
    kernel = system.kernel
    spec = system.rounding
    g = spec.granularity
    effect = effect_bound(spec)
    row_sum = max(sum(abs(c) for _, c in row) for row in b.rows)
    basis = Eigenbasis(
        b,
        Fraction(effect.numerator * row_sum, effect.denominator * b.den),
        blocks,
        g,
        tuple(b.times(kernel.initial)),
        tuple(b.times(kernel.target)),
    )
    tables = []
    start = 0
    for block in blocks:
        end = start + block.size
        # the largest |z| of the block's start and target, top*g/E
        top = max(map(abs, (*basis.initial_bk[start:end], *basis.target_bk[start:end])))
        modulus = Fraction(top * g.numerator, b.den * g.denominator)
        tables.append(radii(block, basis.delta, modulus))
        start = end
    # |p_id| c_d = |Q_id| c_d/s_d; with radius c_d = nums/den, c_d/s_d is
    # reach[d]/over on the common denominator over
    radius_parts = [(table.den, c) for table in tables for c in table.nums]
    over = math.lcm(*(den * s for (den, _), s in zip(radius_parts, scales)))
    reach = [c * (over // (den * s)) for (den, c), s in zip(radius_parts, scales)]
    over *= g.numerator
    cap = 1
    for i in range(len(columns)):
        steps = sum(abs(col[i]) * r for col, r in zip(columns, reach)) * g.denominator // over
        cap *= 2 * steps + 1
    return basis, tables, cap


class _EigenbasisEscape:
    """Certifies NO once a coordinate of z = P^-1 x meets its escape radius.

    The state is x = k*g in grid units.  With E the least common
    denominator of P^-1's entries and B = E*P^-1 an integer matrix,
    z_d = g*(B k)_d/E, so |z_d| >= c_d exactly when the integer |(B k)_d|
    reaches c_d*E/g, that is its ceiling.
    """

    def __init__(self, b: IntegerMatrix, tables: Sequence[RadiusTable],
                 granularity: Fraction) -> None:
        self.b = b
        # (numerator, denominator) of each coordinate's radius
        self.radii = tuple((c, table.den) for table in tables for c in table.nums)
        over = b.den * granularity.denominator
        self.bounds = tuple(-(-c * over // (den * granularity.numerator))
                            for c, den in self.radii)

    def observe_initial(self, state: Sequence[int]) -> Optional[Certificate]:
        for d, (v, bound) in enumerate(zip(self.b.times(state), self.bounds)):
            if abs(v) >= bound:
                return EscapedRadius(d, Fraction(*self.radii[d]))
        return None

    def observe(self, step_index, prev, new) -> Optional[Certificate]:
        return self.observe_initial(new)


def decide_hyperbolic_general(system: RationalSystem) -> Verdict:
    """Decide a rational-matrix system on its own orbit, watched in its
    Jordan basis.

    The update matrix must have a rational spectrum with no modulus-one
    eigenvalue.  The orbit x(i+1) = [M x(i)] is stepped exactly, on the
    integer coordinates of the system's kernel; each state's z = P^-1 x is
    checked against escape radii that use the effect bound of the rounding
    seen in that basis.
    """
    basis, tables, cap = eigenbasis(system)
    escape = _EigenbasisEscape(basis.b, tables, system.rounding.granularity)
    kernel = system.kernel
    return iterate(
        kernel.step,
        kernel.initial,
        kernel.target,
        [escape],
        cap=cap,
        cap_is_state_bound=True,
    )

"""Acceptance battery: one timed criterion per test, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Complexity claims (which decision fragments fit in which space budget) are
represented by the bound computations these tests exercise, not asserted
empirically.
"""

import collections
import contextlib
import functools
import itertools
import math
import random
import time
from fractions import Fraction

import mpmath

from corpora import argand_corpus, hyperbolic_corpus, polar_corpus
from dense_hardness import hardness_simulate
from rational_rotator import RationalRotator
from roundreach.numerics import (
    Angle,
    CycloNum,
    certified_floor,
    sign_of_real,
)
from roundreach.rounding import (
    ArgandPoint,
    ArgandRounding,
    PolarPoint,
    PolarRounding,
    RoundingKind,
    round_real,
)
from roundreach.system import (
    JnfSystem,
    JordanBlock,
    Reached,
    brute_force_decide,
    orbit_shape,
    simulate,
    step,
)
from roundreach.hyperbolic import block_tables, decide_hyperbolic_jnf
from roundreach.polar_decider import (
    decide_polar,
    polar_step_cap,
    resource_bounds,
)
from roundreach.argand_decider import (
    _ArgandBlockAnalyzer,
    decide_expansion,
    decide_truncation,
    niven_classify,
)
from roundreach.qbf_compiler import (
    And,
    Const,
    GadgetFamily,
    Not,
    Operand,
    Or,
    QbfFormula,
    Var,
    and_row,
    canonicalize,
    compile_qbf,
    copy_row,
    decide_hardness,
    evaluate_qbf,
    not_row,
    op_count,
    or_row,
    perturb,
)
from roundreach.rotation_lab import (
    _IntervalRotator,
    disk_points,
    grid_csv,
    rotate_round,
    run_disk,
)

FAMILIES = list(GadgetFamily)
FL, MU, TR = (RoundingKind.FLOOR, RoundingKind.MINIMAL_ERROR_UP,
              RoundingKind.TRUNCATE)


@contextlib.contextmanager
def criterion(number, label, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {label}")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= budget_seconds:
        print(f"\nACCEPTANCE {number} FAIL: {label} "
              f"(took {elapsed:.1f}s, budget {budget_seconds}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget "
            f"({elapsed:.1f}s)")
    print(f"\nACCEPTANCE {number} PASS: {label} ({elapsed:.2f}s)")


# -- criterion 1: gadget rows reproduce the boolean tables exactly ----------

ONE = 9  # the column that holds 1 in criterion 1's rows


def _eval_row(row, family, values):
    terms, denominator = row
    total = Fraction(0)
    for column, numerator in terms:
        total += Fraction(numerator, denominator) * (
            1 if column == ONE else values[column])
    return int(round_real(total, family.rounding_kind))


def test_criterion_1_gadget_truth_tables():
    with criterion(1, "gadget truth tables exact for every family", 1.0):
        for family in FAMILIES:
            for a, b in itertools.product((0, 1), repeat=2):
                values = {7: a, 8: b}
                x, y = Operand.of(7), Operand.of(8)
                assert _eval_row(and_row(family, x, y, ONE), family,
                                 values) == (a and b)
                assert _eval_row(or_row(family, x, y, ONE), family,
                                 values) == (a or b)
                assert _eval_row(and_row(family, Operand.neg(7), y, ONE),
                                 family, values) == ((1 - a) and b)
            for a in (0, 1):
                values = {7: a}
                assert _eval_row(not_row(Operand.of(7), ONE), family,
                                 values) == 1 - a
                assert _eval_row(copy_row(Operand.of(7), ONE), family,
                                 values) == a


# -- criteria 2 and 3 share one compiled corpus -----------------------------

def _exhaustive_two_var_matrices():
    atoms = [Var(1), Var(2), Const(True), Const(False)]
    yield from atoms
    for a in atoms:
        yield Not(a)
    for node in (And, Or):
        for a in atoms:
            for b in atoms:
                yield node(a, b)


def _random_matrix(rng, n, max_ops):
    def build(budget):
        if budget <= 0 or rng.random() < 0.3:
            return Var(rng.randint(1, n)), 0
        kind = rng.choice(("and", "or", "not"))
        if kind == "not":
            sub, used = build(budget - 1)
            return Not(sub), used + 1
        left, lu = build(budget - 1)
        right, ru = build(budget - 1 - lu)
        node = And(left, right) if kind == "and" else Or(left, right)
        return node, lu + ru + 1
    matrix, _ = build(max_ops)
    return matrix


def _alternating_prefix(n):
    return tuple(("a" if i % 2 == 1 else "e", i) for i in range(1, n + 1))


@functools.lru_cache(maxsize=1)
def hardness_corpus():
    """Formulas with canonical 2 and 4 quantifiers and at most 6 operators:
    the full one-operator slice on two variables plus a seeded deeper
    sample, compiled under the canonical gadget family.  (The alternate
    families get their truth-table and decide coverage elsewhere; a ceiling
    copy row cannot absorb any scale factor above one, so the perturbation
    criterion is tied to this corpus.)"""
    formulas = []
    for matrix in _exhaustive_two_var_matrices():
        formulas.append(QbfFormula(_alternating_prefix(2), matrix))
    rng = random.Random(20260824)
    for _ in range(20):
        formulas.append(
            QbfFormula(_alternating_prefix(2), _random_matrix(rng, 2, 6)))
    for _ in range(6):
        formulas.append(
            QbfFormula(_alternating_prefix(4), _random_matrix(rng, 4, 6)))
    family = GadgetFamily.MINIMAL_ERROR
    return [(formula, family, compile_qbf(formula, family))
            for formula in formulas]


def test_criterion_2_qbf_end_to_end():
    with criterion(2, "compiled orbits decide the quantified formulas", 120.0):
        truths = {True: 0, False: 0}
        for formula, family, instance in hardness_corpus():
            canon = canonicalize(formula)
            n, ops = len(canon.prefix), op_count(canon.matrix)
            assert n in (2, 4) and ops <= 6
            assert instance.dimension == (3 * n + 1 + ops) * (4 * n + 15 + ops)
            expected = evaluate_qbf(formula)
            bound = instance.program.step_count * 2 ** (n + 2)
            decided, hit = decide_hardness(instance, bound)
            assert decided == expected, (formula, family)
            if decided:
                assert hit is not None and 0 < hit <= bound
            truths[expected] += 1
        assert truths[True] and truths[False]


def test_criterion_3_perturbation_preserves_orbits():
    with criterion(3, "scaling gadgets by 11/10 leaves every orbit unchanged",
                   120.0):
        for formula, family, instance in hardness_corpus():
            scaled = perturb(instance, Fraction(11, 10))
            assert scaled.factor == Fraction(11, 10)
            steps = instance.program.step_count * 8
            assert (hardness_simulate(instance, steps)
                    == hardness_simulate(scaled, steps)), (formula, family)


# -- criterion 4: hyperbolic decisions against brute force ------------------

def test_criterion_4_hyperbolic_randomized():
    with criterion(4, "escape-radius decisions match brute force (200 runs)",
                   300.0):
        for system in hyperbolic_corpus():
            tables = block_tables(system)
            for block, table in zip(system.blocks, tables):
                margin = abs(block.eigen_modulus - 1)
                cap = table.ell * (block.size + 1) * (
                    1 + (2 / margin) ** block.size)
                assert all(table.ell < c <= cap for c in table.radii)
            mine = decide_hyperbolic_jnf(system)
            ball = max(r for t in tables for r in t.radii)
            ref = brute_force_decide(system, ball_bound=ball,
                                     step_bound=1_000_000)
            assert isinstance(mine, Reached) == isinstance(ref, Reached), (
                system, mine, ref)
            if isinstance(mine, Reached):
                assert mine == ref


# -- criterion 5: the right-angle tower with minimal-error rounding ---------

def test_criterion_5_rotation_tower_growth():
    label = "tower orbits settle at modulus 4^(2^(d-k)) per dimension"
    with criterion(5, label, 60.0):
        spec = PolarRounding(MU, 2)
        for moduli, transient in (((5, 4), 11), ((6, 5, 4), 204)):
            d = len(moduli)
            blocks = (JordanBlock(d, Fraction(1), Angle(Fraction(1, 2))),)
            start = tuple(PolarPoint(Fraction(m), 0) for m in moduli)
            s = JnfSystem(blocks, start, start, spec)
            run = orbit_shape(lambda state: step(s, state), start, 10_000)
            assert (run.transient, run.period) == (transient, 4)
            states = simulate(s, run.transient + run.period)
            largest = tuple(max(state[k].modulus for state in states)
                            for k in range(d))
            assert largest == tuple(4 ** 2 ** (d - 1 - k) for k in range(d))


# -- criterion 6: polar decisions against budgeted brute force --------------

def test_criterion_6_polar_randomized():
    with criterion(6, "polar decisions match brute force (100 runs)", 600.0):
        for system in polar_corpus():
            bounds = resource_bounds(system, 0)
            assert all(u >= 0 for u in bounds.modulus_bounds)
            mine = decide_polar(system)
            ref = brute_force_decide(system,
                                     step_bound=polar_step_cap(system))
            assert isinstance(mine, Reached) == isinstance(ref, Reached), (
                system, mine, ref)
            if isinstance(mine, Reached):
                assert mine == ref


# -- criterion 7: truncation and expansion against brute force --------------

def test_criterion_7_argand_randomized():
    label = "truncation/expansion match brute force; fixpoints imply axis angles"
    with criterion(7, label, 600.0):
        for system in argand_corpus():
            kind = system.rounding.kind
            angle = system.blocks[0].eigen_angle
            decide = decide_truncation if kind is TR else decide_expansion
            mine = decide(system)
            ref = brute_force_decide(
                system, step_bound=2000,
                ball_bound=Fraction(1000) if kind is not TR else None)
            assert isinstance(mine, Reached) == isinstance(ref, Reached), (
                system, mine, ref)
            if isinstance(mine, Reached):
                assert mine == ref
            # walk the orbit to its cycle: a nonzero fixpoint can only
            # happen when the rotation is a multiple of a right angle
            seen = {}
            state = system.initial
            while state not in seen and len(seen) < 2000:
                seen[state] = len(seen)
                state = step(system, state)
            if state in seen and step(system, state) == state:
                if any(p.re or p.im for p in state):
                    assert niven_classify(angle).axis_multiple_90, (
                        angle, state)


# -- criteria 6 and 7 on near misses: targets turned off the orbit ----------

NEAR_MISS_STEPS = (1, 3, 6, 12)


def _turned(point, spec):
    """The point turned with its modulus kept: a polar point one grid
    angle on (the origin stays), an Argand point a quarter turn."""
    if isinstance(spec, ArgandRounding):
        return ArgandPoint(-point.im, point.re)
    if not point.modulus:
        return point
    return PolarPoint(point.modulus,
                      (point.angle_index + 1) % (2 * spec.angle_resolution))


def _verdict_name(verdict):
    return type(getattr(verdict, "certificate", verdict)).__name__


def test_criteria_6_and_7_near_miss_targets(monkeypatch):
    # a random target's modulus almost never matches the orbit's, so the
    # criteria's runs rarely reach the unit analyzers' exact checks; a
    # target turned off an orbit state keeps its modulus and reaches them
    checks = []
    assert_no_rounding = _ArgandBlockAnalyzer._assert_no_rounding

    def counted(self, prev, new):
        checks.append(prev)
        assert_no_rounding(self, prev, new)

    monkeypatch.setattr(_ArgandBlockAnalyzer, "_assert_no_rounding", counted)
    polar, argand = collections.Counter(), collections.Counter()
    disagreements = 0
    label = "near-miss targets decide as brute force (800 runs)"
    with criterion("6/7", label, 600.0):
        for corpus, counts in ((polar_corpus(), polar), (argand_corpus(), argand)):
            for system in corpus:
                spec = system.rounding
                if isinstance(spec, PolarRounding):
                    decide, step_bound, ball_bound = decide_polar, None, None
                elif spec.kind is TR:
                    decide, step_bound, ball_bound = decide_truncation, 2000, None
                else:
                    decide, step_bound, ball_bound = decide_expansion, 2000, Fraction(1000)
                states = simulate(system, max(NEAR_MISS_STEPS))
                for k in NEAR_MISS_STEPS:
                    target = tuple(_turned(p, spec) for p in states[k])
                    near = JnfSystem(system.blocks, system.initial, target, spec)
                    mine = decide(near)
                    ref = brute_force_decide(
                        near, step_bound=step_bound or polar_step_cap(near),
                        ball_bound=ball_bound)
                    counts[_verdict_name(mine)] += 1
                    if (isinstance(mine, Reached) != isinstance(ref, Reached)
                            or isinstance(mine, Reached) and mine != ref):
                        disagreements += 1
    print(f"polar {dict(polar)}; argand {dict(argand)}; "
          f"{len(checks)} exact no-rounding checks; {disagreements} disagreements")
    assert disagreements == 0
    assert polar["DivergedPastTarget"] >= 157
    assert polar["CycleDetected"] >= 56
    assert polar["Reached"] >= 187
    assert argand["DivergedPastTarget"] >= 196
    assert argand["StabilizedMismatch"] >= 97
    assert argand["Reached"] >= 107
    assert len(checks) >= 504


# -- criterion 8: angle classification table --------------------------------

# sine/cosine/tangent rationality and axis membership by reduced
# denominator, generated once from symbolic evaluation
NIVEN_TABLE = {
    1: (True, True, True, True),
    2: (True, True, None, True),
    3: (False, True, False, False),
    4: (False, False, True, False),
    5: (False, False, False, False),
    6: (True, False, False, False),
    7: (False, False, False, False),
    8: (False, False, False, False),
    9: (False, False, False, False),
    10: (False, False, False, False),
    11: (False, False, False, False),
    12: (False, False, False, False),
    13: (False, False, False, False),
    14: (False, False, False, False),
    15: (False, False, False, False),
    16: (False, False, False, False),
    17: (False, False, False, False),
    18: (False, False, False, False),
    19: (False, False, False, False),
    20: (False, False, False, False),
    21: (False, False, False, False),
    22: (False, False, False, False),
    23: (False, False, False, False),
    24: (False, False, False, False),
}


def test_criterion_8_angle_classification():
    with criterion(8, "rationality classification over all p/q pi, q <= 24",
                   1.0):
        for q in range(1, 25):
            for p in range(0, 2 * q):
                angle = Angle(Fraction(p, q))
                reduced = angle.pi_multiple.denominator
                got = niven_classify(angle)
                sin_r, cos_r, tan_r, axis = NIVEN_TABLE[reduced]
                assert (got.sin_rational, got.cos_rational,
                        got.tan_rational, got.axis_multiple_90) == (
                            sin_r, cos_r, tan_r, axis), angle


# -- criterion 9: rotation experiments resolve and replay -------------------

class _RationalAsInterval:
    def __init__(self, num, den):
        self.num, self.den = num, den
        self.descriptor = f"{num}/{den} pi (interval shim)"

    def interval(self):
        return mpmath.iv.pi * self.num / self.den


def test_criterion_9_rotation_experiments():
    label = ("every disk orbit resolves; output is deterministic; "
             "intervals agree with exact arithmetic")
    with criterion(9, label, 300.0):
        report = run_disk(10, "1/42 pi", budget=10**6)
        assert len(report.orbits) == 317
        assert not report.unresolved
        assert all(o.period is not None for o in report.orbits)
        wide = run_disk(20, "1/14 pi", budget=10**6)
        assert not wide.unresolved
        assert all(o.period is not None for o in wide.orbits)
        assert grid_csv(report) == grid_csv(run_disk(10, "1/42 pi",
                                                     budget=10**6))
        exact = RationalRotator(Angle(Fraction(1, 7)))
        boxed = _IntervalRotator(_RationalAsInterval(1, 7))
        for point in disk_points(5):
            assert exact.step(point) == boxed.step(point), point
            assert rotate_round(point, "1/7 pi") == exact.step(point), point


# -- criterion 10: exact numeric substrate ----------------------------------

def test_criterion_10_numeric_substrate():
    with criterion(10, "field laws, certified floors, real signs "
                       "(10^4 trials each)", 60.0):
        rng = random.Random(20260828)

        def small_fraction():
            return Fraction(rng.randint(-999, 999), rng.randint(1, 99))

        for _ in range(10_000):
            order = rng.choice([4, 8, 12])
            a = (CycloNum.from_rational(order, small_fraction())
                 * CycloNum.zeta_pow(order, rng.randrange(order)))
            b = (CycloNum.from_rational(order, small_fraction())
                 * CycloNum.zeta_pow(order, rng.randrange(order)))
            c = CycloNum.from_rational(order, small_fraction())
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()

        for _ in range(10_000):
            value = small_fraction()
            granularity = rng.choice(
                [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
            floored = certified_floor(value, granularity)
            assert floored * granularity <= value < (floored + 1) * granularity
            assert certified_floor(floored * granularity,
                                   granularity) == floored
            kind = rng.choice([FL, MU, TR])
            rounded = round_real(value, kind, granularity)
            assert round_real(rounded, kind, granularity) == rounded

        sqrt2 = CycloNum.zeta_pow(8, 1) + CycloNum.zeta_pow(8, 7)
        for _ in range(10_000):
            a, b = rng.randint(-99, 99), rng.randint(-99, 99)
            value = CycloNum.from_rational(8, Fraction(a)) + sqrt2 * Fraction(b)
            expected = a + b * math.sqrt(2)
            if a == b == 0:
                assert sign_of_real(value) == 0
            else:
                assert sign_of_real(value) == (1 if expected > 0 else -1)

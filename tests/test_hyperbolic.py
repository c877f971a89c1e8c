"""Escape-radius analysis away from the unit circle, plus exact linear algebra."""

import itertools
import random
from fractions import Fraction

import pytest

from corpora import rational_corpus, rational_matrices
from roundreach import hyperbolic
from roundreach.errors import ModulusOneSpectrumError, NonRationalSpectrumError
from roundreach.hyperbolic import (
    decide_hyperbolic_general,
    decide_hyperbolic_jnf,
    eigenbasis,
    jnf_rational,
    mat_inv,
    mat_mul,
    mat_vec,
    max_abs_row_sum,
    modulus_upper,
    parse_jordan_blocks,
    radii,
)
from roundreach.numerics import Angle
from roundreach.rounding import (
    ArgandPoint,
    ArgandRounding,
    RoundingKind,
    effect_bound,
    modulus_effect_bound,
    round_real,
)
from roundreach.system import (
    CycleDetected,
    EscapedRadius,
    JnfSystem,
    JordanBlock,
    NotReached,
    RationalSystem,
    Reached,
    brute_force_decide,
)

FL, MU, TR = RoundingKind.FLOOR, RoundingKind.MINIMAL_ERROR_UP, RoundingKind.TRUNCATE

# oracle runs of rational_corpus that conclude within 200 steps, as measured
CONCLUSIVE_FLOOR = 24


def A(re, im=0):
    return ArgandPoint(Fraction(re), Fraction(im))


def test_modulus_upper():
    assert modulus_upper(A(3, 4)) == 5
    assert modulus_upper(A(1, 1)) == 2
    assert modulus_upper(Fraction(-7, 2)) == Fraction(7, 2)
    assert modulus_upper(A(1, 1), Fraction(1, 2)) == Fraction(3, 2)


def test_radii_frozen_table():
    spec = ArgandRounding(FL, Fraction(1))
    block = JordanBlock(2, Fraction(2), Angle(Fraction(0)))
    t = radii(block, modulus_effect_bound(spec), (A(1), A(0)), (A(3), A(2)), Fraction(1))
    assert t.radii == (Fraction(9), Fraction(9, 2))
    assert t.ell == 3
    assert t.step_bound(spec) == 17457


def test_radii_rejects_unit_modulus():
    block = JordanBlock(1, Fraction(1), Angle(Fraction(0)))
    with pytest.raises(ModulusOneSpectrumError):
        radii(block, Fraction(1), (A(0),))


def test_radii_within_proved_envelope_randomized():
    rng = random.Random(23)
    for _ in range(200):
        lam = rng.choice([Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(3)])
        size = rng.randint(1, 4)
        delta = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        pts = [A(rng.randint(-10, 10), rng.randint(-10, 10)) for _ in range(2 * size)]
        block = JordanBlock(size, lam, Angle(Fraction(0)))
        t = radii(block, delta, pts[:size], pts[size:], Fraction(1))
        denom = abs(lam - 1)
        cap = t.ell * (size + 1) * (1 + (Fraction(2) / denom) ** size)
        for c in t.radii:
            assert t.ell < c <= cap
        # radii grow toward the fed end of the chain
        assert all(a >= b for a, b in zip(t.radii, t.radii[1:]))


def test_decide_jnf_contracting_and_growing():
    spec = ArgandRounding(FL, Fraction(1))
    grow = JordanBlock(2, Fraction(2), Angle(Fraction(0)))
    system = JnfSystem((grow,), (A(3), A(2)), (A(0), A(0)), spec)
    verdict = decide_hyperbolic_jnf(system)
    assert isinstance(verdict, NotReached)
    assert isinstance(verdict.certificate, EscapedRadius)

    shrink = JordanBlock(2, Fraction(1, 2), Angle(Fraction(0)))
    system = JnfSystem((shrink,), (A(9), A(7)), (A(0), A(0)), spec)
    assert decide_hyperbolic_jnf(system) == Reached(6)


def test_decide_jnf_agrees_with_brute_force():
    rng = random.Random(31)
    spec_kinds = [FL, MU, TR]
    for _ in range(40):
        lam = rng.choice([Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(3)])
        spec = ArgandRounding(rng.choice(spec_kinds), Fraction(1))
        size = rng.randint(1, 2)
        block = JordanBlock(size, lam, Angle(Fraction(0)))
        initial = tuple(A(rng.randint(-6, 6)) for _ in range(size))
        target = tuple(A(rng.randint(-6, 6)) for _ in range(size))
        system = JnfSystem((block,), initial, target, spec)
        mine = decide_hyperbolic_jnf(system)
        ref = brute_force_decide(system, step_bound=3000)
        assert isinstance(mine, Reached) == isinstance(ref, Reached), (system, mine, ref)
        if isinstance(mine, Reached):
            assert mine == ref


def test_matrix_helpers():
    m = ((Fraction(2), Fraction(1)), (Fraction(0), Fraction(3)))
    ident = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert mat_mul(m, mat_inv(m)) == ident
    assert mat_vec(m, (Fraction(1), Fraction(1))) == (Fraction(3), Fraction(3))
    assert max_abs_row_sum(m) == 3


def test_mat_inv_rejects_singular():
    m = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)))
    with pytest.raises(ValueError):
        mat_inv(m)


def test_jnf_rational_reconstructs():
    for m, eigs in itertools.islice(rational_matrices(), 20):
        p2, j2 = jnf_rational(m)
        assert mat_mul(mat_mul(p2, j2), mat_inv(p2)) == m
        blocks = parse_jordan_blocks(j2)
        assert sorted(abs(b.eigen_modulus) for b in blocks for _ in range(b.size)) == \
            sorted(abs(e) for e in eigs)


def test_jnf_rational_rejects_irrational_spectrum():
    m = ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0)))  # eigenvalues ±sqrt 2
    with pytest.raises(NonRationalSpectrumError):
        jnf_rational(m)


def test_parse_jordan_blocks_shapes():
    j = (
        (Fraction(2), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(-3)),
    )
    blocks = parse_jordan_blocks(j)
    assert [(b.size, b.eigen_modulus, str(b.eigen_angle)) for b in blocks] == [
        (2, Fraction(2), "0 pi"),
        (1, Fraction(3), "1 pi"),
    ]


def _conjugated_step(p, p_inverse, j, spec, z):
    """Reference: the orbit stepped in the Jordan basis itself,
    z' = J z + P^-1 (round(P J z) - P J z)."""
    jz = mat_vec(j, z)
    pjz = mat_vec(p, jz)
    err = [round_real(x, spec.kind, spec.granularity) - x for x in pjz]
    return tuple(a + b for a, b in zip(jz, mat_vec(p_inverse, err)))


def test_decider_orbit_is_the_conjugated_orbit_through_p(monkeypatch):
    runs = []

    def capture(step, start, target, observers, *, cap, cap_is_state_bound):
        runs.append((step, start))
        return NotReached(CycleDetected(cap))

    monkeypatch.setattr(hyperbolic, "iterate", capture)
    for system in rational_corpus():
        p, j = jnf_rational(system.matrix)
        p_inverse = mat_inv(p)
        basis = eigenbasis(system)[0]
        assert basis.delta == effect_bound(system.rounding) * max_abs_row_sum(p_inverse)
        decide_hyperbolic_general(system)
        (step, x), = runs
        runs.clear()
        assert x == system.initial
        z = basis.initial
        for _ in range(8):
            x = step(x)[0]
            z = _conjugated_step(p, p_inverse, j, system.rounding, z)
            assert mat_vec(basis.p_inverse, x) == z, system


def test_decide_general_agrees_with_brute_force():
    bound = 200
    conclusive = 0
    for system in rational_corpus():
        mine = decide_hyperbolic_general(system)
        ref = brute_force_decide(system, step_bound=bound)
        if ref == NotReached(CycleDetected(bound)):
            # the oracle ran out of steps: no hit within them
            assert not (isinstance(mine, Reached) and mine.step <= bound), (system, mine)
            continue
        conclusive += 1
        assert isinstance(mine, Reached) == isinstance(ref, Reached), (system, mine, ref)
        if isinstance(mine, Reached):
            assert mine == ref
    print(f"rational corpus: {conclusive} of 200 oracle runs conclusive")
    assert conclusive >= CONCLUSIVE_FLOOR


def test_decide_general_matches_diagonal_case():
    m = ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(2)))
    rs = RationalSystem(m, (Fraction(9), Fraction(1)), (Fraction(0), Fraction(4)),
                        ArgandRounding(FL, Fraction(1)))
    verdict = decide_hyperbolic_general(rs)
    ref = brute_force_decide(rs, step_bound=2000)
    assert isinstance(verdict, Reached) == isinstance(ref, Reached)


def test_decide_general_rejects_unit_modulus():
    m = ((Fraction(1),),)
    rs = RationalSystem(m, (Fraction(1),), (Fraction(0),), ArgandRounding(FL, Fraction(1)))
    with pytest.raises(ModulusOneSpectrumError):
        decide_hyperbolic_general(rs)


def test_decide_general_nontrivial_basis():
    # conjugated dynamics: eigenvalues 2 and 3, non-diagonal in the given basis
    m = ((Fraction(2), Fraction(1)), (Fraction(0), Fraction(3)))
    rs = RationalSystem(m, (Fraction(1), Fraction(1)), (Fraction(0), Fraction(0)),
                        ArgandRounding(FL, Fraction(1)))
    verdict = decide_hyperbolic_general(rs)
    assert isinstance(verdict, NotReached)
    assert isinstance(verdict.certificate, EscapedRadius)

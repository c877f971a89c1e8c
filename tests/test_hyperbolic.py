"""Escape-radius analysis away from the unit circle, plus exact linear algebra."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sympy_jordan
from corpora import rational_corpus, rational_matrices
from roundreach import hyperbolic
from roundreach.errors import ModulusOneSpectrumError, NonRationalSpectrumError
from roundreach.hyperbolic import (
    HyperbolicBlockAnalyzer,
    RadiusTable,
    _EigenbasisEscape,
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
    PolarRounding,
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
GRANULARITIES = [Fraction(1), Fraction(1, 2), Fraction(3, 2)]

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


def _det(m) -> Fraction:
    """Laplace expansion along the first row."""
    if not m:
        return Fraction(1)
    return sum((-1) ** c * m[0][c] * _det([row[:c] + row[c + 1:] for row in m[1:]])
               for c in range(len(m)))


@st.composite
def square_matrix(draw):
    """A 1-4-dimensional rational matrix; about half of them have a last
    row that is a rational combination of the others, so are singular."""
    n = draw(st.integers(1, 4))
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        coeffs = [draw(entry) for _ in range(n - 1)]
        rows[-1] = [sum((c * row[k] for c, row in zip(coeffs, rows)), Fraction(0))
                    for k in range(n)]
    return tuple(tuple(row) for row in rows)


@settings(max_examples=300, deadline=None)
@given(square_matrix())
def test_mat_inv_inverts_or_rejects_singular(m):
    n = len(m)
    if _det([list(row) for row in m]) == 0:
        with pytest.raises(ValueError, match="singular"):
            mat_inv(m)
        return
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    assert mat_mul(m, mat_inv(m)) == ident


def test_jnf_rational_reconstructs():
    for m, eigs in itertools.islice(rational_matrices(), 20):
        p2, j2 = jnf_rational(m)
        assert mat_mul(mat_mul(p2, j2), mat_inv(p2)) == m
        blocks = parse_jordan_blocks(j2)
        assert sorted(abs(b.eigen_modulus) for b in blocks for _ in range(b.size)) == \
            sorted(abs(e) for e in eigs)


def matrix(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


IRRATIONAL = [
    ([[0, 1], [2, 0]], "x^2 - 2"),                       # ±sqrt 2
    ([[2, 1], [1, 1]], "x^2 - 3*x + 1"),                 # the cat map
    ([[1, -1], [1, 1]], "x^2 - 2*x + 2"),                # sqrt 2 times a rotation
    ([[0, -1], [1, 0]], "x^2 + 1"),                      # the quarter turn
    ([[2, 1, 0], [0, 0, 1], [0, 2, 0]], "x^2 - 2"),      # 2, then ±sqrt 2
]


def test_jnf_rational_rejects_irrational_spectrum():
    for rows, factor in IRRATIONAL:
        m = matrix(rows)
        message = f"the characteristic polynomial has the factor {factor} with no rational root"
        with pytest.raises(NonRationalSpectrumError, match=re.escape(message)):
            jnf_rational(m)
        with pytest.raises(NonRationalSpectrumError):
            sympy_jordan.jnf_rational(m)


def test_jnf_rational_names_a_rational_leftover_factor():
    # eigenvalues 3/2 and (1 ± sqrt 3)/2: the factor is given in M's variable
    m = matrix([["3/2", 0, 0], [1, "1/2", "1/2"], [0, "3/2", "1/2"]])
    with pytest.raises(NonRationalSpectrumError, match=re.escape("x^2 - x - 1/2 ")):
        jnf_rational(m)


def test_jnf_rational_matches_sympy_on_the_corpus():
    # rational_corpus() runs on exactly these 200 matrices
    matrices = [m for m, _ in itertools.islice(rational_matrices(), 200)]
    assert [system.matrix for system in rational_corpus()] == matrices
    for m in matrices:
        assert jnf_rational(m) == sympy_jordan.jnf_rational(m), m


def conjugated(p_rows, j_rows):
    p = matrix(p_rows)
    return mat_mul(mat_mul(p, matrix(j_rows)), mat_inv(p))


@pytest.mark.parametrize("m", [
    conjugated([[1, 2], [3, 4]], [[0, 0], [0, 2]]),                 # singular: 0 and 2
    conjugated([[1, 1], [0, 1]], [["1000/999", 0], [0, 3]]),        # a large denominator
    matrix([["1000/999"]]),
    conjugated([[1, 1], [1, 2]], [[10**30, 0], [0, -10**30 + 7]]),  # entries near 10^30
    conjugated([[2, 1], [1, 1]], [[10**30 + 1, 1], [0, 10**30 + 1]]),
    conjugated([[1, 1, 0], [0, 1, 1], [1, 0, 2]], [[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
    conjugated([[1, 1, 0], [0, 1, 1], [1, 0, 2]], [[2, 1, 0], [0, 2, 1], [0, 0, 2]]),
    conjugated([[1, 1, 0], [0, 1, 1], [1, 0, 2]], [[2, 1, 0], [0, 2, 0], [0, 0, 2]]),
    conjugated([[1, 1, 0, 1], [0, 1, 1, 0], [1, 0, 2, 0], [0, 0, 1, 1]],
               [[-3, 1, 0, 0], [0, -3, 1, 0], [0, 0, -3, 0], [0, 0, 0, "1/2"]]),
    matrix([[0]]),
    matrix([[5]]),
    matrix([["-7/3"]]),
])
def test_jnf_rational_exact_corners(m):
    p, j = jnf_rational(m)
    assert (p, j) == sympy_jordan.jnf_rational(m)
    assert mat_mul(mat_mul(p, j), mat_inv(p)) == m


EIGENVALUES = [Fraction(v) for v in ("-1/3", "1/3", "-1/2", "1/2", "-1", "1", "-2", "2",
                                     "-3", "3", "5/2")]


@st.composite
def conjugated_jordan(draw):
    """P J P^-1 in dimensions 1 to 5: blocks of size up to 3 with their
    eigenvalues drawn from a palette of at most three, so eigenvalues
    repeat and blocks of one eigenvalue sit side by side, and P with
    entries of denominator up to 3."""
    n = draw(st.integers(1, 5))
    palette = draw(st.lists(st.sampled_from(EIGENVALUES), min_size=1, max_size=3))
    j = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    while start < n:
        size = draw(st.integers(1, min(3, n - start)))
        eigenvalue = draw(st.sampled_from(palette))
        for i in range(start, start + size):
            j[i][i] = eigenvalue
            if i + 1 < start + size:
                j[i][i + 1] = Fraction(1)
        start += size
    entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
    p = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    try:
        p_inverse = mat_inv(p)
    except ValueError:
        assume(False)
    return mat_mul(mat_mul(p, tuple(map(tuple, j))), p_inverse)


@settings(max_examples=120, deadline=None)
@given(conjugated_jordan())
def test_jnf_rational_matches_sympy(m):
    assert jnf_rational(m) == sympy_jordan.jnf_rational(m)


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
        (step, k), = runs
        runs.clear()
        # the decider steps integer coordinates in grid units
        decode = system.kernel.decode
        assert decode(k) == system.initial
        z = basis.initial
        for _ in range(8):
            k = step(k)
            z = _conjugated_step(p, p_inverse, j, system.rounding, z)
            assert mat_vec(basis.p_inverse, decode(k)) == z, system


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


def _escape_analyzer(spec, radii_over_g):
    g = spec.granularity
    table = RadiusTable(Fraction(2), g, g, tuple(r * g for r in radii_over_g))
    return HyperbolicBlockAnalyzer(1, table, spec)


@pytest.mark.parametrize("g", GRANULARITIES)
def test_escape_analyzer_edge_in_grid_units(g):
    # coordinates are pairs in grid units; a coordinate escapes once its
    # modulus reaches the radius, and one grid unit inside it does not
    spec = ArgandRounding(FL, g)
    cases = [
        # (radius / g, pairs that escape, pairs that stay)
        (Fraction(3), [(3, 0), (0, -3), (-3, 1)], [(2, 2), (-2, -2), (0, 2)]),
        (Fraction(5), [(3, 4), (-4, 3), (5, 0)], [(4, 2), (3, -3), (0, 4)]),
        (Fraction(1), [(1, 0), (0, -1)], [(0, 0)]),
        # off the grid: 3/2 lies between sqrt(2) and 2
        (Fraction(3, 2), [(2, 0), (0, -2)], [(1, 1), (-1, 1), (1, 0)]),
    ]
    for radius, escape, stay in cases:
        analyzer = _escape_analyzer(spec, (Fraction(100), radius))
        for x in escape:
            cert = EscapedRadius(2, radius * g)
            assert analyzer.observe_initial(((0, 0), (0, 0), x)) == cert, (radius, x)
            assert analyzer.observe(0, None, ((0, 0), (0, 0), x)) == cert
        for x in stay:
            assert analyzer.observe_initial(((0, 0), (0, 0), x)) is None, (radius, x)
    # the first coordinate of the block is checked first
    analyzer = _escape_analyzer(spec, (Fraction(1), Fraction(1)))
    assert analyzer.observe_initial(((9, 9), (0, 1), (1, 0))) == EscapedRadius(1, g)


@pytest.mark.parametrize("g", GRANULARITIES)
def test_polar_escape_analyzer_edge_in_grid_units(g):
    spec = PolarRounding(FL, 3, g)
    for radius, escape, stay in [(Fraction(3), 3, 2), (Fraction(1), 1, 0),
                                 (Fraction(3, 2), 2, 1)]:
        analyzer = _escape_analyzer(spec, (radius,))
        cert = EscapedRadius(1, radius * g)
        for i in range(6):
            assert analyzer.observe_initial(((7, 0), (escape, i))) == cert
        assert analyzer.observe_initial(((7, 0), (stay, 0))) is None


@pytest.mark.parametrize("g", GRANULARITIES)
def test_eigenbasis_escape_edge_in_grid_units(g):
    # z = P^-1 x with x = k*g; with E = 6 and B = 6 P^-1, z_0 = g*(3a + 2b)/6
    p_inverse = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(0), Fraction(1)))
    wide = Fraction(10**6)
    # the radius z_0 reaches at k = (1, 1) exactly, and one off the grid
    for radius in (Fraction(5, 6) * g, Fraction(3, 4) * g):
        escape = _EigenbasisEscape(p_inverse, (radius, wide), g)
        for k in ((1, 1), (-1, -1), (3, -2), (5, -5)):
            assert escape.observe_initial(k) == EscapedRadius(0, radius), (radius, k)
            assert escape.observe(0, None, k) == EscapedRadius(0, radius)
        # (B k)_0 = 4 and -4: one unit of g/6 inside
        for k in ((0, 2), (-2, 1), (2, -1), (0, -2)):
            assert escape.observe_initial(k) is None, (radius, k)
    # every small state against the exact test |z_d| >= c_d
    radii_flat = (Fraction(5, 6) * g, Fraction(2) * g)
    escape = _EigenbasisEscape(p_inverse, radii_flat, g)
    for k in itertools.product(range(-4, 5), repeat=2):
        z = mat_vec(p_inverse, [v * g for v in k])
        expected = next((EscapedRadius(d, c) for d, (v, c) in enumerate(zip(z, radii_flat))
                         if abs(v) >= c), None)
        assert escape.observe_initial(k) == expected, k

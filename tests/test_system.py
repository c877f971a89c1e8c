"""Orbit stepping, verdicts, the lock-step driver, and the brute-force oracle."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import argand_corpus, hyperbolic_corpus, polar_corpus
from cyclo_step import reference_step
from disk_reference import reference_disk
from rational_step import reference_rational_step
from roundreach import system as system_module
from roundreach.argand_decider import (
    ExpansionBlockAnalyzer,
    TruncationBlockAnalyzer,
    decide_expansion,
    decide_truncation,
)
from roundreach.errors import InternalInvariantError, UndecidableTieError
from roundreach.hyperbolic import decide_hyperbolic_general, decide_hyperbolic_jnf
from roundreach.numerics import Angle
from roundreach.polar_decider import PolarBlockAnalyzer, decide_polar
from roundreach.rounding import (
    ArgandPoint,
    ArgandRounding,
    PolarPoint,
    PolarRounding,
    RoundingKind,
)
from roundreach.system import (
    CycleDetected,
    EscapedRadius,
    JnfSystem,
    JordanBlock,
    NotReached,
    RationalSystem,
    Reached,
    StabilizedMismatch,
    StepKernel,
    brute_force_decide,
    iterate,
    orbit_shape,
    orbit_shapes,
    rational_simulate,
    run_lock_step,
    simulate,
    step,
    step_with_intermediates,
)

MU, FL, TR = RoundingKind.MINIMAL_ERROR_UP, RoundingKind.FLOOR, RoundingKind.TRUNCATE
GRANULARITIES = [Fraction(1), Fraction(1, 2), Fraction(3, 2)]


def P(m, a=0):
    return PolarPoint(Fraction(m), a)


def A(re, im=0):
    return ArgandPoint(Fraction(re), Fraction(im))


def rotation_system(initial, target):
    spec = PolarRounding(MU, 2, Fraction(1))
    blocks = (JordanBlock(2, Fraction(1), Angle(Fraction(1, 2))),)
    return JnfSystem(blocks, initial, target, spec)


def test_jnf_validation():
    spec = PolarRounding(MU, 2, Fraction(1))
    blocks = (JordanBlock(2, Fraction(1), Angle(Fraction(1, 2))),)
    with pytest.raises(ValueError):
        JnfSystem(blocks, (P(1),), (P(1), P(0)), spec)
    with pytest.raises(ValueError):
        JnfSystem(blocks, (PolarPoint(Fraction(1, 3), 0), P(0)), (P(1), P(0)), spec)
    with pytest.raises(ValueError):
        JordanBlock(0, Fraction(1), Angle(Fraction(0)))


@pytest.mark.parametrize("size", [2.0, True, "2", Fraction(2)])
def test_jordan_block_size_must_be_an_int(size):
    # parse_instance rejects these; the constructor must too
    with pytest.raises(ValueError, match="block size must be an integer"):
        JordanBlock(size, Fraction(1), Angle(Fraction(0)))


def test_field_order_accounts_for_angles_and_resolution():
    spec = PolarRounding(MU, 3, Fraction(1))
    blocks = (JordanBlock(1, Fraction(1), Angle(Fraction(1, 3))),)
    system = JnfSystem(blocks, (P(1),), (P(1),), spec)
    order = system.field_order()
    assert order % 4 == 0 and order % 6 == 0


def test_block_slices():
    spec = ArgandRounding(TR, Fraction(1))
    blocks = (
        JordanBlock(2, Fraction(1), Angle(Fraction(1, 2))),
        JordanBlock(1, Fraction(2), Angle(Fraction(0))),
    )
    system = JnfSystem(blocks, (A(1), A(1), A(1)), (A(1), A(1), A(1)), spec)
    assert system.block_slices() == [(0, 2), (2, 3)]
    assert system.dimension == 3


def test_simulate_length_and_step_consistency():
    system = rotation_system((P(5), P(4)), (P(5), P(4)))
    states = simulate(system, 6)
    assert len(states) == 7
    for a, b in zip(states, states[1:]):
        assert step(system, a) == b
    new, unrounded = step_with_intermediates(system, states[0])
    assert new == states[1]
    assert len(unrounded) == system.dimension


def test_example_orbit_first_steps():
    # (5,4) at angle 0: top picks up the lower value after rotating
    system = rotation_system((P(5), P(4)), (P(5), P(4)))
    states = simulate(system, 2)
    assert states[1] == (P(6, 1), P(4, 1))
    assert states[2] == (P(7, 2), P(4, 2))


def test_rational_system_step_and_simulate():
    m = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    rs = RationalSystem(m, (Fraction(2), Fraction(5)), (Fraction(5), Fraction(2)),
                        ArgandRounding(FL, Fraction(1)))
    assert step(rs, rs.initial) == (Fraction(5), Fraction(2))
    states = rational_simulate(rs, 3)
    assert len(states) == 4 and states[2] == rs.initial


@st.composite
def rational_case(draw):
    """A 1-3 dimensional rational matrix, any rounding kind and granularity,
    and a start of any size up to 2^70 grid units per coordinate."""
    n = draw(st.integers(1, 3))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    matrix = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    g = draw(st.sampled_from(GRANULARITIES))
    kind = draw(st.sampled_from(list(RoundingKind)))
    coordinate = st.integers(0, 70).flatmap(lambda bits: st.integers(-2**bits, 2**bits))
    state = tuple(draw(coordinate) * g for _ in range(n))
    return RationalSystem(matrix, state, state, ArgandRounding(kind, g))


@settings(max_examples=400, deadline=None)
@given(rational_case())
def test_rational_step_matches_fraction_reference(system):
    expected = [system.initial]
    for _ in range(4):
        expected.append(reference_rational_step(system, expected[-1]))
    for state, new in zip(expected, expected[1:]):
        assert step(system, state) == new, (system, state)
    assert rational_simulate(system, 4) == expected


@pytest.mark.parametrize("turn", [Fraction(p, t) for t in (3, 4, 6) for p in range(1, 2 * t)
                                  if Fraction(p, t).denominator == t])
def test_niven_turns_step_like_the_cyclotomic_reference(turn):
    # every angle off the axes where a*cos - b*sin can be rational; the
    # kernel reads those values in integers
    rng = random.Random(str(turn))
    for kind in RoundingKind:
        for g in GRANULARITIES:
            for _ in range(20):
                size = rng.randint(1, 2)
                state = tuple(A(rng.choice([0, rng.randint(-9, 9)]) * g,
                                rng.choice([0, rng.randint(-9, 9)]) * g) for _ in range(size))
                blocks = (JordanBlock(size, Fraction(rng.choice([1, 1, 1, 2])), Angle(turn)),)
                system = JnfSystem(blocks, state, state, ArgandRounding(kind, g))
                assert step(system, state) == reference_step(system, state)[0], system


def test_rational_system_validation():
    m = ((Fraction(1),),)
    with pytest.raises(ValueError):
        RationalSystem(m, (Fraction(1), Fraction(2)), (Fraction(0),),
                       ArgandRounding(FL, Fraction(1)))
    with pytest.raises(ValueError):
        RationalSystem(m, (Fraction(1, 3),), (Fraction(0),),
                       ArgandRounding(FL, Fraction(1)))
    # a polar rounding used to build, then fail at the first step
    with pytest.raises(ValueError, match="needs componentwise rounding"):
        RationalSystem(m, (Fraction(1),), (Fraction(0),), PolarRounding(FL, 2))


def test_rational_system_entries_become_fractions():
    # a float entry used to build, then fail in the decider
    system = RationalSystem(((Fraction(1, 2),),), (0.5,), (Fraction(1),),
                            ArgandRounding(FL, Fraction(1, 2)))
    assert system.initial == (Fraction(1, 2),)
    for v in (*system.matrix[0], *system.initial, *system.target):
        assert type(v) is Fraction
    assert decide_hyperbolic_general(system) == NotReached(CycleDetected(2))
    # an int matrix and points are the same system as their Fractions
    assert RationalSystem(((2,),), (1,), (4,), ArgandRounding(FL)) == RationalSystem(
        ((Fraction(2),),), (Fraction(1),), (Fraction(4),), ArgandRounding(FL))


def test_brute_force_reached_at_zero():
    system = rotation_system((P(5), P(4)), (P(5), P(4)))
    assert brute_force_decide(system) == Reached(0)


def test_brute_force_cycle():
    system = rotation_system((P(5), P(4)), (P(16, 1), P(4, 2)))
    verdict = brute_force_decide(system, step_bound=500)
    assert verdict == NotReached(CycleDetected(15))


def test_brute_force_ball_bound():
    spec = ArgandRounding(FL, Fraction(1))
    blocks = (JordanBlock(1, Fraction(2), Angle(Fraction(0))),)
    system = JnfSystem(blocks, (A(3),), (A(0),), spec)
    verdict = brute_force_decide(system, ball_bound=Fraction(100), step_bound=500)
    assert isinstance(verdict, NotReached)
    assert isinstance(verdict.certificate, EscapedRadius)


@pytest.mark.parametrize("g", GRANULARITIES)
def test_polar_ball_edge_in_grid_units(g):
    # two quarter-turn rotators keep every modulus, so from angle index 1
    # the orbit repeats its start at step 4 unless a coordinate lies outside
    # the ball; a polar coordinate is outside when its modulus k*g exceeds
    # the radius, whatever its angle index
    spec = PolarRounding(MU, 2, g)
    quarter = JordanBlock(1, Fraction(1), Angle(Fraction(1, 2)))

    def oracle(x, radius):
        system = JnfSystem((quarter, quarter), x, (P(100 * g), P(100 * g)), spec)
        return brute_force_decide(system, ball_bound=radius, step_bound=10)

    for units in (1, 4):
        radius = units * g
        on, past = P(units * g, 1), P((units + 1) * g, 3)
        assert oracle((on, on), radius) == NotReached(CycleDetected(4))
        assert oracle((on, past), radius) == NotReached(EscapedRadius(1, radius))
        assert oracle((past, on), radius) == NotReached(EscapedRadius(0, radius))


def test_brute_force_rational_path():
    m = ((Fraction(1, 2),),)
    rs = RationalSystem(m, (Fraction(9),), (Fraction(0),), ArgandRounding(FL, Fraction(1)))
    assert brute_force_decide(rs, step_bound=100) == Reached(4)


@pytest.mark.parametrize("g", GRANULARITIES)
def test_rational_ball_edge_in_grid_units(g):
    # under the identity every orbit repeats its start at step 1 unless
    # the start lies outside the ball; the test is |x| > R, so a start on
    # the sphere stays in and one grid unit past it leaves
    identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

    def oracle(x, radius):
        rs = RationalSystem(identity, x, (100 * g, -100 * g),
                            ArgandRounding(FL, g))
        return brute_force_decide(rs, ball_bound=radius, step_bound=10)

    for units in (0, 1, 4):
        radius = units * g
        for sign in (1, -1):
            on = sign * units * g
            past = sign * (units + 1) * g
            assert oracle((on, on), radius) == NotReached(CycleDetected(1))
            assert oracle((on, past), radius) == NotReached(EscapedRadius(1, radius))
            assert oracle((past, on), radius) == NotReached(EscapedRadius(0, radius))
    # a radius off the grid: 4 grid units stay in, 5 leave
    radius = Fraction(9, 2) * g
    assert oracle((4 * g, -4 * g), radius) == NotReached(CycleDetected(1))
    assert oracle((4 * g, -5 * g), radius) == NotReached(EscapedRadius(1, radius))


class _EagerAnalyzer:
    """Certifies NO on every observation; for driver-priority tests."""

    def __init__(self, certificate):
        self.certificate = certificate

    def observe_initial(self, state):
        return self.certificate

    def observe(self, step_index, prev, new):
        return self.certificate


def test_driver_target_hit_beats_certificate():
    system = rotation_system((P(5), P(4)), (P(5), P(4)))
    analyzer = _EagerAnalyzer(StabilizedMismatch(0))
    verdict = run_lock_step(system, [analyzer], step_cap=10, cap_is_state_bound=True)
    assert verdict == Reached(0)


def test_driver_certificate_stops_run():
    system = rotation_system((P(5), P(4)), (P(16, 1), P(4, 2)))
    analyzer = _EagerAnalyzer(StabilizedMismatch(1))
    verdict = run_lock_step(system, [analyzer], step_cap=10, cap_is_state_bound=True)
    assert verdict == NotReached(StabilizedMismatch(1))


class _SilentAnalyzer:
    def observe_initial(self, state):
        return None

    def observe(self, step_index, prev, new):
        return None


def test_driver_repeat_detection():
    system = rotation_system((P(5), P(4)), (P(16, 1), P(4, 2)))
    verdict = run_lock_step(system, [_SilentAnalyzer()], step_cap=10_000,
                            cap_is_state_bound=True)
    assert verdict == NotReached(CycleDetected(15))


def test_driver_cap_semantics():
    system = rotation_system((P(5), P(4)), (P(16, 1), P(4, 2)))
    verdict = run_lock_step(system, [_SilentAnalyzer()], step_cap=3,
                            cap_is_state_bound=True)
    assert verdict == NotReached(CycleDetected(3))
    with pytest.raises(InternalInvariantError):
        run_lock_step(system, [_SilentAnalyzer()], step_cap=3,
                      cap_is_state_bound=False)


def test_driver_observe_indices():
    seen = []

    class Recorder:
        def observe_initial(self, state):
            seen.append(("init", state))
            return None

        def observe(self, step_index, prev, new):
            seen.append((step_index, prev, new))
            return None

    system = rotation_system((P(5), P(4)), (P(16, 1), P(4, 2)))
    # the driver runs on the kernel's integer coordinates in grid units
    states = [system.kernel.encode(state) for state in simulate(system, 3)]
    assert states[0] == ((5, 0), (4, 0))
    run_lock_step(system, [Recorder()], step_cap=3, cap_is_state_bound=True)
    assert seen[0] == ("init", states[0])
    # observation i carries the transition x^(i) -> x^(i+1)
    assert seen[1][0] == 0 and seen[1][1] == states[0] and seen[1][2] == states[1]
    assert seen[2][0] == 1 and seen[2][1] == states[1] and seen[2][2] == states[2]


def test_brute_force_zero_bound_takes_no_step(monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("the oracle stepped past a zero bound")

    # the oracle steps a Jordan-form system by its integer kernel
    monkeypatch.setattr(system_module.StepKernel, "step", no_step)
    system = rotation_system((P(5), P(4)), (P(16, 1), P(4, 2)))
    assert brute_force_decide(system, step_bound=0) == NotReached(CycleDetected(0))


def test_driver_detects_repeats_past_the_state_store(monkeypatch):
    # four stored states are used up at step 4, long before the first
    # repeat at step 15; Brent's check must still end the run in a cycle
    monkeypatch.setattr(system_module, "STATE_STORE_LIMIT", 4)
    system = rotation_system((P(5), P(4)), (P(16, 1), P(4, 2)))
    verdict = run_lock_step(system, [_SilentAnalyzer()], step_cap=10_000,
                            cap_is_state_bound=False)
    assert isinstance(verdict, NotReached)
    assert isinstance(verdict.certificate, CycleDetected)
    assert 15 <= verdict.certificate.step_bound < 10_000


def test_iterate_brent_phase_is_exact(monkeypatch):
    # a tail 0..9 into the cycle 10..15; the dict holds two states
    monkeypatch.setattr(system_module, "STATE_STORE_LIMIT", 2)

    def step_fn(x):
        return x + 1 if x < 15 else 10

    def run(target):
        return iterate(step_fn, 0, target, (), cap=1000, cap_is_state_bound=False)

    # every state of the orbit is still hit at its first step
    for target in range(16):
        assert run(target) == Reached(target)
    verdict = run(99)
    repeat = verdict.certificate.step_bound
    orbit = [0]
    for _ in range(repeat):
        orbit.append(step_fn(orbit[-1]))
    # the concluding state really was seen before
    assert orbit[-1] in orbit[:-1] and repeat < 1000


def _unit_block_cases():
    """Criteria 6 and 7: each corpus system with the decider it goes to."""
    cases = [(decide_polar, s) for s in polar_corpus()]
    cases += [(decide_truncation if s.rounding.kind is TR else decide_expansion, s)
              for s in argand_corpus()]
    return cases


def test_brent_from_the_first_step_keeps_every_decider_verdict(monkeypatch):
    # the paper's PSPACE bound keeps only polynomially many states: with no
    # state store Brent's check runs from the first step, finds repeats
    # later, and must still reach the same verdicts within every cap
    cases = [(decide_hyperbolic_jnf, s) for s in hyperbolic_corpus()] + _unit_block_cases()
    stored = [decide(s) for decide, s in cases]
    monkeypatch.setattr(system_module, "STATE_STORE_LIMIT", 0)
    for (decide, s), verdict in zip(cases, stored):
        if isinstance(verdict, Reached):
            assert decide(s) == verdict, s
        else:
            assert isinstance(verdict, NotReached), s
            assert isinstance(decide(s), NotReached), s


def _turned_target(system):
    """The system with its start, each point turned one grid angle (polar)
    or mirrored across the diagonal (Argand), as the target: every modulus
    matches, so no analyzer stops at a mismatch before it reads an exact
    value."""
    if isinstance(system.rounding, PolarRounding):
        count = 2 * system.rounding.angle_resolution
        target = tuple(PolarPoint(p.modulus, (p.angle_index + 1) % count if p.modulus else 0)
                       for p in system.initial)
    else:
        target = tuple(ArgandPoint(p.im, p.re) for p in system.initial)
    return JnfSystem(system.blocks, system.initial, target, system.rounding)


def test_analyzers_read_the_exact_values_of_prev(monkeypatch):
    # an analyzer asks the kernel for the exact pre-rounding values of the
    # step it observes: those of prev, as the cyclotomic reference forms them
    reads = []
    observing = []  # the prev of each observe call in progress
    exact = StepKernel.exact

    def exact_spy(kernel, state, j):
        value = exact(kernel, state, j)
        if observing:
            reads.append((kernel, observing[-1], state, j, value))
        return value

    def observe_spy(observe):
        def spy(self, step_index, prev, new):
            observing.append(prev)
            try:
                return observe(self, step_index, prev, new)
            finally:
                observing.pop()
        return spy

    monkeypatch.setattr(StepKernel, "exact", exact_spy)
    for cls in (PolarBlockAnalyzer, TruncationBlockAnalyzer, ExpansionBlockAnalyzer):
        monkeypatch.setattr(cls, "observe", observe_spy(cls.observe))
    counts = dict.fromkeys((decide_polar, decide_truncation, decide_expansion), 0)
    # the corpora alone stop almost every run at a modulus mismatch
    cases = _unit_block_cases()
    cases += [(decide, _turned_target(s)) for decide, s in cases]
    for decide, system in cases:
        decide(system)
        kernel = system.kernel
        reference = {}
        for read_kernel, prev, state, j, value in reads:
            assert read_kernel is kernel
            assert state == prev, (system, prev, state, j)
            if prev not in reference:
                reference[prev] = reference_step(system, kernel.decode(prev))[1]
            assert value == reference[prev][j], (system, prev, j)
        counts[decide] += len(reads)
        reads.clear()
    # the polar growth tests and both Argand no-rounding checks all ran
    assert all(counts.values()), counts


def test_lock_step_and_orbit_shape_agree_on_one_step():
    # the decision loop and the orbit-shape loop take the same state -> state
    # step, so a silent run ends where the orbit's shape says it must
    budget = 2000
    for system in itertools.chain(polar_corpus(), argand_corpus()):
        kernel = system.kernel
        verdict = run_lock_step(system, [_SilentAnalyzer()], step_cap=budget,
                                cap_is_state_bound=True)
        shape = orbit_shape(kernel.step, kernel.initial, budget)
        hits = [i for state, i in shape.visited if state == kernel.target]
        if hits:
            expected = Reached(hits[0])
        elif shape.period is None:
            expected = NotReached(CycleDetected(budget))
        else:
            expected = NotReached(CycleDetected(shape.transient + shape.period))
        assert verdict == expected, system


def test_orbit_shape_ends_unresolved_at_an_undecidable_tie():
    calls = []

    def step_fn(x):
        calls.append(x)
        if len(calls) == 3:
            raise UndecidableTieError("tie at the precision cap")
        return x + 1

    run = orbit_shape(step_fn, 0, 100)
    assert run.period is None
    assert run.transient == 2
    assert run.visited == ((0, 0), (1, 1), (2, 2))


def _graph_step(successor, ties, calls):
    # a stub step on a finite functional graph that raises at chosen states
    def step_fn(x):
        calls.append(x)
        if x in ties:
            raise UndecidableTieError(f"tie at {x}")
        return successor[x]
    return step_fn


def _assert_matches_reference(successor, ties, starts, budget):
    calls, reference_calls = [], []
    cells, orbits = orbit_shapes(_graph_step(successor, ties, calls), starts, budget)
    ref_cells, ref_unresolved, ref_shapes = reference_disk(
        _graph_step(successor, ties, reference_calls), starts, budget)
    assert cells == ref_cells
    assert tuple(o.start for o in orbits if o.period is None) == ref_unresolved
    assert tuple((o.start, o.transient, o.period, o.visited) for o in orbits) == ref_shapes
    # each state is stepped once, and only if some start's own orbit steps it
    assert len(calls) == len(set(calls))
    assert set(calls) == set(reference_calls)
    return orbits


def test_orbit_shapes_share_ties_and_cycles_between_starts():
    # 0 -> 1 -> 2 -> 3 (tie), 4 -> 2; 5 -> 6 -> 5, 7 -> 5; 8 -> 8
    successor = [1, 2, 3, None, 2, 6, 5, 5, 8]
    starts = [0, 4, 5, 7, 3, 8, 0]
    for budget in range(1, 6):
        _assert_matches_reference(successor, {3}, starts, budget)
    orbits = _assert_matches_reference(successor, {3}, starts, 10)
    assert [(o.transient, o.period) for o in orbits] == [
        (3, None), (2, None), (0, 2), (1, 2), (0, None), (0, 1), (3, None)]


def test_orbit_shapes_close_a_cycle_at_the_walk_start():
    # 0 -> 1 -> 2 -> 0: the walk from 0 meets its own first index
    orbits = _assert_matches_reference([1, 2, 0], set(), [0, 2], 10)
    assert [(o.transient, o.period) for o in orbits] == [(0, 3), (0, 3)]


def test_orbit_shapes_self_loops():
    # 0 -> 0 alone; 1 -> 2 -> 2 behind a tail
    orbits = _assert_matches_reference([0, 2, 2], set(), [0, 1, 2], 10)
    assert [(o.transient, o.period) for o in orbits] == [(0, 1), (1, 1), (0, 1)]


def test_orbit_shapes_start_on_a_cycle_labelled_by_an_earlier_walk():
    # 0 -> 1 -> 2 -> 3 -> 1: the walk from 0 labels the cycle that 2 and 3 start on
    orbits = _assert_matches_reference([1, 2, 3, 1], set(), [0, 2, 3], 10)
    assert [(o.transient, o.period) for o in orbits] == [(1, 3), (0, 3), (0, 3)]


def test_orbit_shapes_later_walks_join_a_walk_that_ended_at_a_tie():
    # 0 -> 1 -> 2 -> 3 (tie); 4 -> 5 -> 3 and 6 -> 1 join it; 7 -> 8 -> 9 -> 8
    # joins a cycle first; no start is the tie state
    successor = [1, 2, 3, None, 5, 3, 1, 8, 9, 8]
    starts = [0, 7, 4, 6]
    for budget in range(1, 6):
        _assert_matches_reference(successor, {3}, starts, budget)
    orbits = _assert_matches_reference(successor, {3}, starts, 10)
    assert [(o.transient, o.period) for o in orbits] == [
        (3, None), (1, 2), (2, None), (3, None)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_orbit_shapes_match_per_start_reference(data):
    n = data.draw(st.integers(1, 24))
    successor = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    ties = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
    starts = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    budget = data.draw(st.integers(1, 2 * n + 1))
    _assert_matches_reference(successor, ties, starts, budget)

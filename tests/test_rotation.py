"""Grid rotation experiments: rotate by theta, round to nearest."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disk_reference import reference_disk
from rational_rotator import RationalRotator
from rational_value import as_rational
from roundreach.errors import UndecidableTieError
from roundreach import rotation_lab
from roundreach.numerics import Angle
from roundreach.rotation_lab import (
    IrrationalTheta,
    _IntervalRotator,
    _rotation_step,
    disk_points,
    emit_grid,
    grid_csv,
    parse_theta,
    rotate_round,
    run_disk,
    run_orbit,
)
from roundreach.system import StepKernel, orbit_shapes


def test_rotate_round_frozen():
    assert rotate_round((1, 0), "1/2 pi") == (0, 1)
    assert rotate_round((0, 1), "1/2 pi") == (-1, 0)
    assert rotate_round((10, 0), "1/42 pi") == (10, 1)
    assert rotate_round((0, 0), "1/42 pi") == (0, 0)
    # ties round up: (1,1) by a quarter turn hits (-1, 1) exactly
    assert rotate_round((1, 1), "1/2 pi") == (-1, 1)
    # half-tie case: rotating (1,0) by pi/3 lands re exactly on 1/2
    assert rotate_round((1, 0), "1/3 pi") == (1, 1)
    # and im: (0, 1) by pi/3 is (-sqrt(3)/2, 1/2)
    assert rotate_round((0, 1), "1/3 pi") == (-1, 1)
    # a field of order 4000004: one float entry, no table and no exact cos
    assert rotate_round((3, 4), "1/1000001 pi") == (3, 4)


def test_rotate_round_builds_one_step_per_angle(monkeypatch):
    built = []
    init = StepKernel.__init__

    def counting(self, system):
        built.append(system.blocks[0].eigen_angle)
        init(self, system)

    monkeypatch.setattr(StepKernel, "__init__", counting)
    rotation_lab._memo_rotation_step.cache_clear()
    point = (10, 0)
    for _ in range(200):
        point = rotate_round(point, "1/42 pi")
    # a parsed angle and its text share the one step
    rotate_round((3, 4), Angle(Fraction(1, 42)))
    assert built == [Angle(Fraction(1, 42))]
    assert rotate_round((1, 0), "1/3 pi") == (1, 1)
    assert len(built) == 2
    # run_disk builds its step afresh on every call
    run_disk(2, "1/42 pi")
    run_disk(2, "1/42 pi")
    assert len(built) == 4


def test_parse_theta_grammar():
    assert parse_theta("1/2 pi") == Angle(Fraction(1, 2))
    assert parse_theta("1/42 pi") == Angle(Fraction(1, 42))
    assert parse_theta("3 pi") == Angle(Fraction(1))
    assert parse_theta("-1/2 pi") == Angle(Fraction(3, 2))
    # an integral exponent collapses to a rational multiple
    assert parse_theta("2^(4/2)/3 pi") == Angle(Fraction(4, 3))
    t = parse_theta("2^(2/5)/10 pi")
    assert isinstance(t, IrrationalTheta)
    assert t.exponent == Fraction(2, 5) and t.divisor == 10
    assert t.descriptor == "2^(2/5)/10 pi"
    for bad in ("1/2", "pi/2", "two pi", "2^(2/5/10 pi", ""):
        with pytest.raises(ValueError):
            parse_theta(bad)


def test_irrational_theta_rejects_integer_exponent():
    with pytest.raises(ValueError):
        IrrationalTheta(Fraction(2), 10)
    with pytest.raises(ValueError):
        IrrationalTheta(Fraction(1, 2), 0)


def test_disk_points_count_and_order():
    pts = disk_points(10)
    assert len(pts) == 317
    assert pts == sorted(pts)
    assert all(x * x + y * y <= 100 for x, y in pts)
    assert disk_points(1) == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]


def test_disk_points_by_rows_match_the_square_scan():
    for radius in range(0, 61):
        r_sq = radius * radius
        square = [(a, b) for a in range(-radius, radius + 1)
                  for b in range(-radius, radius + 1) if a * a + b * b <= r_sq]
        assert disk_points(radius) == square


def test_disk_records_compare_by_shape_not_by_successor_map():
    first, second = run_disk(10, "1/42 pi"), run_disk(10, "1/42 pi")
    assert first.orbits[0].successors is not second.orbits[0].successors
    assert first.orbits == second.orbits
    record = first.orbits[0]
    assert repr(record) == (f"OrbitRecord(start={record.start!r}, "
                            f"transient={record.transient}, period={record.period})")


def test_quarter_turn_disk_report():
    report = run_disk(1, "1/2 pi")
    assert report.theta == "1/2 pi"
    assert not report.unresolved
    assert set(report.cells) == {(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)}
    # every start is already on its cycle
    for orbit in report.orbits:
        assert orbit.transient == 0
        assert orbit.period in (1, 4)
    assert report.max_modulus_sq() == 1


def test_large_disk_occupies_cut_corner_square():
    report = run_disk(10, "1/42 pi")
    assert not report.unresolved
    disk = set(disk_points(10))
    cells = set(report.cells)
    assert disk < cells
    assert all(abs(x) <= 10 and abs(y) <= 10 for x, y in cells)
    assert report.max_modulus_sq() > 100
    corners = {(10, 10), (10, -10), (-10, 10), (-10, -10)}
    assert not (cells & corners)


def test_orbit_replay():
    report = run_disk(3, "1/3 pi")
    assert not report.unresolved
    for orbit in report.orbits[:8]:
        state = orbit.start
        for _ in range(orbit.transient):
            state = rotate_round(state, "1/3 pi")
        entry = state
        for _ in range(orbit.period):
            state = rotate_round(state, "1/3 pi")
        assert state == entry
        assert orbit.visited[0] == (orbit.start, 0)
        steps = [s for _, s in orbit.visited]
        assert steps == list(range(len(steps)))


# the disks of the rotation-disk benchmark workload
BENCHMARK_DISKS = [(radius, theta) for radius in (10, 20)
                   for theta in ("1/42 pi", "1/7 pi", "1/4 pi", "1/3 pi", "1/6 pi",
                                 "2^(2/5)/10 pi")]


def _assert_disk_matches_reference(radius, theta, budget):
    report = run_disk(radius, theta, budget)
    cells, unresolved, shapes = reference_disk(_rotation_step(theta), disk_points(radius),
                                               budget)
    assert report.cells == cells
    assert report.unresolved == unresolved
    assert tuple((o.start, o.transient, o.period, o.visited) for o in report.orbits) == shapes


@pytest.mark.parametrize("radius, theta", BENCHMARK_DISKS)
def test_run_disk_matches_per_start_reference(radius, theta):
    _assert_disk_matches_reference(radius, theta, 1_000_000)


@pytest.mark.parametrize("theta", ["1/42 pi", "1/3 pi", "2^(2/5)/10 pi"])
def test_run_disk_matches_per_start_reference_at_small_budgets(theta):
    for budget in range(1, 6):
        _assert_disk_matches_reference(3, theta, budget)


def test_disk_steps_each_cell_once():
    rotate = _rotation_step("1/42 pi")
    calls = []

    def counting(p):
        calls.append(p)
        return rotate(p)

    cells, orbits = orbit_shapes(counting, disk_points(20), 1_000_000)
    assert len(calls) == len(set(calls)) == len(cells) == 1373
    # walking each start alone steps once per orbit state
    assert sum(o.transient + o.period for o in orbits) == 95461


def test_budget_exhaustion_marks_unresolved():
    record = run_orbit((10, 0), "1/42 pi", budget=1)
    assert record.period is None
    assert record.transient == 1
    report = run_disk(10, "1/42 pi", budget=1)
    assert (10, 0) in report.unresolved
    with pytest.raises(ValueError):
        run_orbit((1, 0), "1/2 pi", budget=0)


def test_grid_csv_deterministic_and_sorted():
    report = run_disk(2, "1/2 pi")
    text = grid_csv(report)
    assert text == grid_csv(run_disk(2, "1/2 pi"))
    lines = text.splitlines()
    assert lines[0] == "x,y,first_generation"
    assert len(lines) == len(report.cells) + 1
    assert text.endswith("\n")
    rows = [tuple(map(int, ln.split(",")[:2])) for ln in lines[1:]]
    assert rows == sorted(rows)


def test_emit_grid_writes_csv(tmp_path):
    report = run_disk(1, "1/2 pi")
    path = tmp_path / "grid.csv"
    emit_grid(report, path)
    assert path.read_text() == grid_csv(report)


class _RationalAsInterval:
    """Feed a rational multiple of pi through the interval machinery."""

    def __init__(self, num, den):
        self.num, self.den = num, den
        self.descriptor = f"{num}/{den} pi (interval shim)"

    def interval(self):
        return mpmath.iv.pi * self.num / self.den


def test_irrational_angle_runs_and_matches_float_picture():
    record = run_orbit((10, 0), "2^(2/5)/10 pi", budget=2000)
    assert record.period is not None
    first = rotate_round((10, 0), "2^(2/5)/10 pi")
    assert first == (9, 4)


def test_interval_rotator_reads_endpoints_at_working_precision():
    # past 2^53 a read of the interval endpoints at 53 bits moves the floor;
    # the expected pair is the rounding computed at 300 bits
    assert rotate_round((10**17 + 3, 7), "2^(2/5)/10 pi") == (
        91530344875848829,
        40276493974875402,
    )


def _rounding_at_4000_bits(p, theta: str):
    a, b = p
    with mpmath.workprec(4000):
        parsed = parse_theta(theta)
        if isinstance(parsed, Angle):
            turn = parsed.pi_multiple
            t = mpmath.pi * turn.numerator / turn.denominator
        else:
            e = parsed.exponent
            t = mpmath.pi * mpmath.mpf(2) ** (mpmath.mpf(e.numerator) / e.denominator)
            t /= parsed.divisor
        c, s = mpmath.cos(t), mpmath.sin(t)
        half = mpmath.mpf(1) / 2
        return (int(mpmath.floor(a * c - b * s + half)),
                int(mpmath.floor(a * s + b * c + half)))


@pytest.mark.parametrize("theta", ["1/7 pi", "1/3 pi", "2^(2/5)/10 pi"])
def test_rotate_round_past_float_range(theta):
    # 10^400 has no float, so the prefilter has no answer and both
    # coordinates take the certified fallback
    p = (10**400, 3)
    assert rotate_round(p, theta) == _rounding_at_4000_bits(p, theta)


def test_interval_ladder_gives_up_at_its_cap():
    # (1, 0) rotated by pi/3 has real part exactly 1/2, so re + 1/2 is the
    # integer 1 and no interval around it settles its floor
    rotator = _IntervalRotator(_RationalAsInterval(1, 3))
    with pytest.raises(UndecidableTieError, match="4096 bits"):
        rotator.step((1, 0))


def _near_power(low: int, high: int):
    return st.builds(lambda sign, e, d: sign * ((1 << e) + d), st.sampled_from((1, -1)),
                     st.integers(low, high), st.integers(-3, 3))


coordinates = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-(2**70), 2**70),
    _near_power(50, 70),      # past 2^53 an int converts with rounding
    _near_power(1020, 1100),  # past float range there is no float bracket
)
RATIONAL_ANGLES = ("1/42 pi", "1/7 pi", "2/5 pi", "1/4 pi", "1/3 pi", "1/6 pi")
_REFERENCES = {theta: RationalRotator(parse_theta(theta)) for theta in RATIONAL_ANGLES}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RATIONAL_ANGLES + ("2^(2/5)/10 pi",)), coordinates, coordinates)
def test_float_prefilter_agrees_with_exact_rounding(theta, a, b):
    # the step answers from the float bracket wherever its slack allows,
    # then from Niven's rational parts, then exactly; the reference rounds
    # exactly every time (at 4000 bits for the irrational angle)
    reference = _REFERENCES.get(theta)
    expected = (_rounding_at_4000_bits((a, b), theta) if reference is None
                else reference.step((a, b)))
    assert rotate_round((a, b), theta) == expected


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(1, 7), (2, 5), (1, 42)]), coordinates, coordinates)
def test_interval_rotator_agrees_with_exact_on_rational_angle(turn, a, b):
    num, den = turn
    reference = _REFERENCES[f"{num}/{den} pi"]
    interval = _IntervalRotator(_RationalAsInterval(num, den))
    try:
        assert interval.step((a, b)) == reference.step((a, b))
    except UndecidableTieError:
        # only a genuine half-integer tie can defeat intervals
        half = Fraction(1, 2)
        assert any((v + half).is_rational() and
                   as_rational(v + half).denominator == 1
                   for v in reference.parts(a, b))

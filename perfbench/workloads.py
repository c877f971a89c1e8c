"""The benchmark's seeded workloads: input generators, one op each, output checks.

The instance families reproduce the acceptance-test generators (criteria
4, 6 and 7 of tests/test_acceptance.py, and test_jnf_rational_reconstructs
of tests/test_hyperbolic.py): seed 0 gives the tests' own streams, any other
seed an independent stream per family.  A workload yields an endless seeded
sequence of inputs and a run takes a prefix of it, so nothing is
hand-picked.  Where a workload departs from its generator to keep a
25-second run steady, the code says why (ORACLE_STEP_BUDGET,
orbit_oracle_inputs, qbf_formulas).

The program only ever sees the generated inputs: each op calls public
`roundreach` functions, and each check runs after the op, outside its
timing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

from roundreach import cli
from roundreach.argand_decider import decide_expansion, decide_truncation
from roundreach.numerics import Angle
from roundreach.polar_decider import decide_polar, polar_step_cap
from roundreach.qbf_compiler import (
    And,
    Const,
    GadgetFamily,
    Not,
    Or,
    QbfFormula,
    Var,
    compile_qbf,
    decide_hardness,
    evaluate_qbf,
    perturb,
)
from roundreach.rotation_lab import grid_csv, run_disk
from roundreach.rounding import (
    ArgandPoint,
    ArgandRounding,
    PolarPoint,
    PolarRounding,
    RoundingKind,
)
from roundreach.system import (
    CycleDetected,
    JnfSystem,
    JordanBlock,
    NotReached,
    RationalSystem,
    Reached,
    brute_force_decide,
    rational_simulate,
    simulate,
)
from roundreach.hyperbolic import mat_inv, mat_mul

REFS = Path(__file__).resolve().parent / "refs"

FL, MU, TR, EX = (RoundingKind.FLOOR, RoundingKind.MINIMAL_ERROR_UP,
                  RoundingKind.TRUNCATE, RoundingKind.EXPAND)

# Seeds of the acceptance generators each family reproduces.
SEED_HYPERBOLIC = 20260825  # criterion 4
SEED_POLAR = 20260826      # criterion 6
SEED_ARGAND = 20260827     # criterion 7
SEED_RATIONAL = 37         # test_jnf_rational_reconstructs

# Oracle step budget per orbit-oracle op.  The tests run the oracle to
# polar_step_cap (up to 45k steps, tens of seconds per instance) or 2000
# steps; a 25-second run of such ops sees a handful of instances, and its
# numbers depend on which.  Stopping every oracle call at 50 steps keeps all
# generated instances at about 30 ms each; system.oracle_capped_share
# counts the calls that ran out of steps.
ORACLE_STEP_BUDGET = 50


class CheckFailed(Exception):
    """An op returned, but its output failed the workload's check."""


def family_rng(base: int, seed: int) -> random.Random:
    """The family's test seed for seed 0; an independent stream otherwise."""
    return random.Random(base if seed == 0 else f"{base}:{seed}")


# ---------------------------------------------------------------------------
# Instance families (one per acceptance generator)


def hyperbolic_systems(seed: int) -> Iterator[JnfSystem]:
    """Criterion 4: Jordan blocks of modulus 1/3, 1/2, 2 or 3, Argand rounding."""
    rng = family_rng(SEED_HYPERBOLIC, seed)
    moduli = [Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(3)]
    shapes = [(1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1)]
    angles = [Angle(Fraction(0)), Angle(Fraction(1)), Angle(Fraction(1, 2))]
    kinds = [FL, MU, TR]
    for trial in itertools.count():
        shape = rng.choice(shapes)
        blocks = tuple(JordanBlock(size, rng.choice(moduli), rng.choice(angles))
                       for size in shape)
        dim = sum(shape)
        initial = tuple(ArgandPoint(Fraction(rng.randint(-10, 10)),
                                    Fraction(rng.randint(-10, 10)))
                        for _ in range(dim))
        target = tuple(ArgandPoint(Fraction(rng.randint(-10, 10)),
                                   Fraction(rng.randint(-10, 10)))
                       for _ in range(dim))
        yield JnfSystem(blocks, initial, target, ArgandRounding(kinds[trial % 3]))


def polar_systems(seed: int) -> Iterator[JnfSystem]:
    """Criterion 6: one unit-modulus block of size 1 or 2, polar rounding."""
    rng = family_rng(SEED_POLAR, seed)
    angles = [Angle(Fraction(1, 2)), Angle(Fraction(1, 3)), Angle(Fraction(1, 4))]
    for trial in itertools.count():
        size = rng.randint(1, 2)
        resolution = rng.choice([2, 3, 4])
        spec = PolarRounding([FL, MU, TR][trial % 3], resolution)
        blocks = (JordanBlock(size, Fraction(1), rng.choice(angles)),)

        def point():
            modulus = Fraction(rng.randint(0, 8))
            index = rng.randint(0, 2 * resolution - 1) if modulus else 0
            return PolarPoint(modulus, index)

        initial = tuple(point() for _ in range(size))
        target = tuple(point() for _ in range(size))
        yield JnfSystem(blocks, initial, target, spec)


def argand_systems(seed: int) -> Iterator[JnfSystem]:
    """Criterion 7: one unit-modulus block, truncation or expansion."""
    rng = family_rng(SEED_ARGAND, seed)
    angles = [Angle(Fraction(1, 4)), Angle(Fraction(1, 3)), Angle(Fraction(1, 2))]
    for trial in itertools.count():
        size = rng.randint(1, 2)
        kind = TR if trial % 2 == 0 else EX
        angle = rng.choice(angles)
        blocks = (JordanBlock(size, Fraction(1), angle),)
        initial = tuple(ArgandPoint(Fraction(rng.randint(-5, 5)),
                                    Fraction(rng.randint(-5, 5)))
                        for _ in range(size))
        target = tuple(ArgandPoint(Fraction(rng.randint(-5, 5)),
                                   Fraction(rng.randint(-5, 5)))
                       for _ in range(size))
        yield JnfSystem(blocks, initial, target, ArgandRounding(kind))


def rational_systems(seed: int) -> Iterator[RationalSystem]:
    """test_jnf_rational_reconstructs: P D P^-1 with eigenvalues in
    {1/2, 2, 3, -2}.  That test builds matrices only; the start and target
    points are drawn like criterion 4's and the rounding kind cycles the
    same way."""
    rng = family_rng(SEED_RATIONAL, seed)
    kinds = [FL, MU, TR]
    for trial in itertools.count():
        n = rng.randint(1, 3)
        eigs = [rng.choice([Fraction(1, 2), Fraction(2), Fraction(3), Fraction(-2)])
                for _ in range(n)]
        while True:
            p = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
                      for _ in range(n))
            try:
                p_inv = mat_inv(p)
                break
            except ValueError:
                continue
        d = tuple(tuple(eigs[i] if i == j else Fraction(0) for j in range(n))
                  for i in range(n))
        m = mat_mul(mat_mul(p, d), p_inv)
        initial = tuple(Fraction(rng.randint(-10, 10)) for _ in range(n))
        target = tuple(Fraction(rng.randint(-10, 10)) for _ in range(n))
        yield RationalSystem(m, initial, target, ArgandRounding(kinds[trial % 3]))


def oracle_bound(system: JnfSystem) -> tuple[int, Fraction | None]:
    """The acceptance tests' oracle step and ball bounds for this system."""
    if isinstance(system.rounding, PolarRounding):
        return polar_step_cap(system), None
    return 2000, (Fraction(1000) if system.rounding.kind is EX else None)


# ---------------------------------------------------------------------------
# QBF formulas (criterion 2)


def exhaustive_two_var_matrices() -> list:
    atoms = [Var(1), Var(2), Const(True), Const(False)]
    out = list(atoms) + [Not(a) for a in atoms]
    for node in (And, Or):
        out.extend(node(a, b) for a in atoms for b in atoms)
    return out


def alternating_prefix(n: int) -> tuple:
    return tuple(("a" if i % 2 == 1 else "e", i) for i in range(1, n + 1))


def qbf_formulas(seed: int) -> Iterator[QbfFormula]:
    """The false formulas of criterion 2's exhaustive slice (every matrix
    with at most one operator over two variables), round after round in
    seeded order.

    A false formula's orbit runs the whole test bound, so its cost is what
    its hardness steps cost.  True formulas stop at the hit, three to four
    times sooner, and with both kinds near half the ops the median is the
    slowest true one, set by a single op.  Criterion 2's seeded deeper
    formulas (up to six operators, dimension up to 703) are left out:
    single ones cost up to 15 s, and a few per run would set its
    throughput."""
    rng = random.Random(f"qbf:{seed}")
    formulas = [QbfFormula(alternating_prefix(2), m) for m in exhaustive_two_var_matrices()]
    false = [f for f in formulas if not evaluate_qbf(f)]
    while True:
        rng.shuffle(false)
        yield from false


# ---------------------------------------------------------------------------
# Rotation disks


DISKS = tuple((radius, theta) for radius in (10, 20) for theta in (
    "1/42 pi", "1/7 pi", "1/4 pi",    # the float prefilter settles every step
    "1/3 pi", "1/6 pi",               # exact half-ties fall back to certified_floor
    "2^(2/5)/10 pi",                  # irrational: interval refinement
))


def disk_sequence(seed: int) -> Iterator[tuple[int, str]]:
    """The fixed disk list, each round in a fresh seeded order."""
    rng = random.Random(f"disks:{seed}")
    while True:
        batch = list(DISKS)
        rng.shuffle(batch)
        yield from batch


def csv_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Workload:
    """inputs(seed) yields op inputs; op(x) is the timed call;
    checker(seed)(x, out) raises CheckFailed on a wrong answer; op_tail_ms
    is the latency at tail_pct (stats.tail_percentile picked it for the
    op count of a 25-second run); the traced run takes the first trace_ops
    inputs."""

    name: str
    inputs: Callable[[int], Iterator]
    op: Callable
    checker: Callable
    tail_pct: float
    trace_ops: int


def _round_robin(*streams: Iterator) -> Iterator:
    for group in zip(*streams):
        yield from group


def decide_mix_inputs(seed: int) -> Iterator[tuple[int, str]]:
    """(index, instance JSON) round-robin over four families."""
    mix = _round_robin(hyperbolic_systems(seed), polar_systems(seed),
                       argand_systems(seed), rational_systems(seed))
    return enumerate(cli.serialize_instance(s) for s in mix)


def decide_mix_op(item: tuple[int, str]) -> str:
    system = cli.parse_instance(item[1])
    return json.dumps(cli.verdict_json(cli.dispatch(system), system))


class DecideMixChecker:
    """Replays every reached step; for seed 0 also compares the outcome with
    the brute-force reference list stored in refs/decide_mix_seed0.json."""

    def __init__(self, seed: int) -> None:
        self.reference: list = []
        if seed == 0:
            self.reference = json.loads((REFS / "decide_mix_seed0.json").read_text())

    def __call__(self, item: tuple[int, str], out: str) -> None:
        index, text = item
        verdict = json.loads(out)
        outcome = verdict["outcome"]
        if outcome == "undecided-by-this-tool":
            raise CheckFailed(f"instance {index} undecided: {verdict['reason']}")
        system = cli.parse_instance(text)
        if outcome == "reached":
            step = verdict["step"]
            orbit = (rational_simulate(system, step) if isinstance(system, RationalSystem)
                     else simulate(system, step))
            if orbit[-1] != system.target or system.target in orbit[:-1]:
                raise CheckFailed(f"instance {index}: step {step} is not the first hit")
        if index < len(self.reference):
            expected = self.reference[index]
            got = verdict.get("step") if outcome == "reached" else None
            if (outcome, got) != (expected["outcome"], expected.get("step")):
                raise CheckFailed(f"instance {index}: {verdict} differs from "
                                  f"reference {expected}")


def orbit_oracle_inputs(seed: int) -> Iterator[JnfSystem]:
    """Criterion 6 and 7 instances in turn, two-dimensional blocks only:
    one-dimensional orbits conclude within ten steps, and their millisecond
    ops would put the median in the gap between short and long orbits."""
    return _round_robin(*((s for s in family(seed) if len(s.initial) == 2)
                          for family in (polar_systems, argand_systems)))


def orbit_oracle_op(system: JnfSystem):
    """The decider, then the budgeted oracle, then criterion 6/7's agreement
    check; returns both verdicts and the oracle's step bound."""
    if isinstance(system.rounding, PolarRounding):
        mine = decide_polar(system)
    elif system.rounding.kind is TR:
        mine = decide_truncation(system)
    else:
        mine = decide_expansion(system)
    bound, ball = oracle_bound(system)
    bound = min(bound, ORACLE_STEP_BUDGET)
    ref = brute_force_decide(system, ball_bound=ball, step_bound=bound)
    return mine, ref, bound


def orbit_oracle_check(system: JnfSystem, out) -> None:
    """Where the oracle concluded, verdicts agree exactly (criteria 6 and 7).
    Where it stopped at its step budget, no hit within the budget was
    missed: the decider may not report one there."""
    mine, ref, bound = out
    capped = ref == NotReached(CycleDetected(bound))
    if capped:
        if isinstance(mine, Reached) and mine.step <= bound:
            raise CheckFailed(f"{system}: decider {mine}, oracle saw no hit by {bound}")
        return
    if isinstance(mine, Reached) != isinstance(ref, Reached) or (
            isinstance(mine, Reached) and mine != ref):
        raise CheckFailed(f"{system}: decider {mine}, oracle {ref}")


def qbf_inputs(seed: int) -> Iterator[tuple[QbfFormula, bool]]:
    """Each formula twice: as compiled, then scaled by 11/10."""
    for formula in qbf_formulas(seed):
        yield formula, False
        yield formula, True


def qbf_op(item: tuple[QbfFormula, bool]) -> bool:
    """Compile under the canonical gadget family, perturb when asked, and
    decide at criterion 2's bound.  Splitting the plain and the perturbed
    decision into two ops doubles the op count, so a 25-second run has at
    least ten ops beyond its 75th percentile."""
    formula, perturbed = item
    instance = compile_qbf(formula, GadgetFamily.MINIMAL_ERROR)
    if perturbed:
        instance = perturb(instance, Fraction(11, 10))
    bound = instance.program.step_count * 2 ** (len(formula.prefix) + 2)
    return decide_hardness(instance, bound)[0]


def qbf_check(item: tuple[QbfFormula, bool], decided: bool) -> None:
    expected = evaluate_qbf(item[0])
    if decided != expected:
        raise CheckFailed(f"{item}: decided {decided}, evaluate_qbf says {expected}")


def disk_op(item: tuple[int, str]):
    return run_disk(*item)


class DiskChecker:
    """No unresolved start, 317 orbits at (10, 1/42 pi), CSV digests equal
    refs/disk_digests.json."""

    def __init__(self, seed: int) -> None:
        self.digests = json.loads((REFS / "disk_digests.json").read_text())

    def __call__(self, item: tuple[int, str], report) -> None:
        radius, theta = item
        if report.unresolved:
            raise CheckFailed(f"{item}: {len(report.unresolved)} unresolved starts")
        if item == (10, "1/42 pi") and len(report.orbits) != 317:
            raise CheckFailed(f"{item}: {len(report.orbits)} orbits, expected 317")
        if csv_digest(grid_csv(report)) != self.digests[f"{radius} {theta}"]:
            raise CheckFailed(f"{item}: CSV digest differs from the reference")


WORKLOADS = {
    "decide-mix": Workload("decide-mix", decide_mix_inputs, decide_mix_op,
                           DecideMixChecker, tail_pct=99.5, trace_ops=1000),
    "orbit-oracle": Workload("orbit-oracle", orbit_oracle_inputs, orbit_oracle_op,
                             lambda seed: orbit_oracle_check, tail_pct=95.0,
                             trace_ops=120),
    "qbf-hardness": Workload("qbf-hardness", qbf_inputs, qbf_op,
                             lambda seed: qbf_check, tail_pct=75.0, trace_ops=12),
    "rotation-disk": Workload("rotation-disk", disk_sequence, disk_op,
                              DiskChecker, tail_pct=95.0, trace_ops=24),
}

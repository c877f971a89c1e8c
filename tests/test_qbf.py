"""Gadget rows, formula plumbing, program lowering, and the matrix explosion."""

import dataclasses
import functools
import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_hardness
from dense_hardness import hardness_simulate, program_initial_state, run_program_sweep
from roundreach import qbf_compiler
from roundreach.cli import hardness_json
from roundreach.errors import GadgetBrokenError
from roundreach.qbf_compiler import (
    And,
    Const,
    GadgetFamily,
    HardnessInstance,
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
    eval_expr,
    evaluate_qbf,
    expr_vars,
    hardness_step,
    lower_qbf_to_program,
    not_row,
    op_count,
    or_row,
    parse_prefix_formula,
    parse_qdimacs,
    perturb,
    scaled_row,
    zero_row,
)
from roundreach.rounding import round_real
from test_acceptance import hardness_corpus

FAMILIES = list(GadgetFamily)
ONE = 2  # the column that holds 1 in the gadget rows built here


def eval_row(row, family, values):
    """Apply one gadget row to 0/1 inputs: affine form summed in `Fraction`s,
    then the family's rounding."""
    terms, den = row
    acc = Fraction(0)
    for col, num in terms:
        acc += Fraction(num, den) * (1 if col == ONE else values[col])
    return int(round_real(acc, family.rounding_kind, Fraction(1)))


@pytest.mark.parametrize("family", FAMILIES)
def test_and_or_truth_tables(family):
    for a, b in itertools.product((0, 1), repeat=2):
        values = {0: a, 1: b}
        assert eval_row(and_row(family, Operand.of(0), Operand.of(1), ONE), family, values) == (a & b)
        assert eval_row(or_row(family, Operand.of(0), Operand.of(1), ONE), family, values) == (a | b)
        # negated operands fold into the same row shape
        assert eval_row(
            and_row(family, Operand.neg(0), Operand.of(1), ONE), family, values
        ) == ((1 - a) & b)
        assert eval_row(
            or_row(family, Operand.neg(0), Operand.neg(1), ONE), family, values
        ) == ((1 - a) | (1 - b))


@pytest.mark.parametrize("family", FAMILIES)
def test_and_or_with_constant_operands(family):
    for a in (0, 1):
        values = {0: a}
        assert eval_row(and_row(family, Operand.of(0), Operand.true(), ONE), family, values) == a
        assert eval_row(and_row(family, Operand.of(0), Operand.false(), ONE), family, values) == 0
        assert eval_row(or_row(family, Operand.of(0), Operand.false(), ONE), family, values) == a
        assert eval_row(or_row(family, Operand.of(0), Operand.true(), ONE), family, values) == 1


@pytest.mark.parametrize("family", FAMILIES)
def test_not_copy_zero_rows(family):
    for a in (0, 1):
        values = {0: a}
        assert eval_row(not_row(Operand.of(0), ONE), family, values) == 1 - a
        assert eval_row(copy_row(Operand.of(0), ONE), family, values) == a
        assert eval_row(zero_row(), family, values) == 0


def test_expr_helpers():
    e = And(Or(Var(1), Not(Var(2))), Var(3))
    assert expr_vars(e) == {1, 2, 3}
    assert op_count(e) == 3
    assert op_count(Const(True)) == 0
    assert eval_expr(e, {1: False, 2: False, 3: True}) is True
    assert eval_expr(e, {1: False, 2: True, 3: True}) is False


def random_formula(rng, n, max_ops):
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
    prefix = tuple(("a" if i % 2 == 1 else "e", i) for i in range(1, n + 1))
    return QbfFormula(prefix, matrix)


def qbf_oracle(formula):
    """Quantifier expansion written independently with itertools."""
    names = [v for _, v in formula.prefix]

    def value(assignment):
        return eval_expr(formula.matrix, dict(zip(names, assignment)))

    def solve(i, fixed):
        if i == len(names):
            return value(fixed)
        quant = formula.prefix[i][0]
        branches = (solve(i + 1, fixed + (b,)) for b in (False, True))
        return all(branches) if quant == "a" else any(branches)

    return solve(0, ())


def test_evaluate_qbf_matches_oracle():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 4)
        f = random_formula(rng, n, rng.randint(0, 6))
        assert evaluate_qbf(f) == qbf_oracle(f)


def test_evaluate_qbf_refuses_huge_prefix():
    prefix = tuple(("a", i) for i in range(1, 18))
    with pytest.raises(ValueError):
        evaluate_qbf(QbfFormula(prefix, Const(True)))


def test_canonicalize_shape_and_truth():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(1, 3)
        f = random_formula(rng, n, 4)
        # knock the prefix out of shape: random quantifier kinds, no alternation
        broken = QbfFormula(
            tuple((rng.choice("ae"), v) for _, v in f.prefix), f.matrix
        )
        canon = canonicalize(broken)
        quants = [q for q, _ in canon.prefix]
        assert quants[0] == "a" and quants[-1] == "e"
        assert all(a != b for a, b in zip(quants, quants[1:]))
        assert [v for _, v in canon.prefix] == list(range(1, len(quants) + 1))
        assert evaluate_qbf(canon) == qbf_oracle(broken)
        assert canonicalize(canon) == canon


def test_parse_prefix_formula():
    f = parse_prefix_formula("forall x1 exists x2 : (x1 | x2) & !x1")
    assert f.prefix == (("a", 1), ("e", 2))
    assert op_count(f.matrix) == 3
    assert parse_prefix_formula("true").matrix == Const(True)
    with pytest.raises(ValueError):
        parse_prefix_formula("forall x1 (x1)")  # missing ':'
    with pytest.raises(ValueError):
        parse_prefix_formula("exists y1 : y1")


def test_parse_qdimacs():
    text = "c comment\np cnf 2 2\ne 1 0\na 2 0\n1 2 0\n-1 -2 0\n"
    f = parse_qdimacs(text)
    assert f.prefix == (("e", 1), ("a", 2))
    # (x1 | x2) & (!x1 | !x2): exactly one true; exists-forall makes it false
    assert evaluate_qbf(f) is False


def test_lowered_program_counts():
    rng = random.Random(47)
    for _ in range(10):
        f = canonicalize(random_formula(rng, rng.randint(1, 3), rng.randint(0, 5)))
        n, l = len(f.prefix), op_count(f.matrix)
        program = lower_qbf_to_program(f, GadgetFamily.MINIMAL_ERROR)
        assert program.step_count == 3 * n + 1 + l
        assert program.var_count == 4 * n + 15 + l


def test_program_sweep_runs_boolean():
    f = canonicalize(parse_prefix_formula("forall x1 exists x2 : x1 | x2"))
    program = lower_qbf_to_program(f, GadgetFamily.FLOOR)
    state = program_initial_state(program)
    for _ in range(6):
        state = run_program_sweep(program, state)
        assert set(state) <= {0, 1}


def test_explosion_dimension_and_lock_step():
    f = canonicalize(parse_prefix_formula("forall x1 exists x2 : x1 & x2"))
    n, l = len(f.prefix), op_count(f.matrix)
    program = lower_qbf_to_program(f, GadgetFamily.MINIMAL_ERROR)
    instance = HardnessInstance(program)
    assert instance.dimension == (3 * n + 1 + l) * (4 * n + 15 + l)
    # one trip around the copies applies exactly one program sweep
    m = program.step_count
    t = program.var_count
    states = hardness_simulate(instance, m)
    swept = run_program_sweep(program, program_initial_state(program))
    assert states[m][:t] == swept
    assert all(v == 0 for v in states[m][t:])


@pytest.mark.parametrize("family", FAMILIES)
def test_compile_and_decide_small(family):
    cases = [
        ("exists x1 : x1", True),
        ("forall x1 : x1", False),
        ("forall x1 exists x2 : x1 | x2", True),
        ("exists x1 forall x2 : x1 & x2", False),
        ("forall x1 exists x2 : (x1 & x2) | (!x1 & !x2)", True),
    ]
    for text, expect in cases:
        f = parse_prefix_formula(text)
        assert evaluate_qbf(f) == expect
        instance = compile_qbf(f, family)
        canon = canonicalize(f)
        bound = instance.program.step_count * 2 ** (len(canon.prefix) + 2)
        decided, step = decide_hardness(instance, bound)
        assert decided == expect, (text, family)
        if decided:
            assert step is not None and 0 < step <= bound


def test_perturb_scales_rows_and_keeps_orbit():
    f = parse_prefix_formula("forall x1 exists x2 : x1 | x2")
    base = compile_qbf(f, GadgetFamily.MINIMAL_ERROR)
    scaled = perturb(base, Fraction(11, 10))
    assert scaled.factor == Fraction(11, 10)
    assert scaled.dimension == base.dimension
    steps = base.program.step_count * 8
    assert hardness_simulate(base, steps) == hardness_simulate(scaled, steps)


def test_perturb_rejects_breaking_factor():
    f = parse_prefix_formula("exists x1 : x1")
    base = compile_qbf(f, GadgetFamily.MINIMAL_ERROR)
    with pytest.raises(GadgetBrokenError):
        perturb(base, Fraction(3))


def test_decide_hardness_stops_at_the_first_repeat(monkeypatch):
    # a false formula of the two-variable one-operator slice: its orbit
    # cycles without the target, so the run ends before the step bound
    formula = QbfFormula((("a", 1), ("e", 2)), And(Var(1), Var(2)))
    assert not evaluate_qbf(formula)
    instance = compile_qbf(formula, GadgetFamily.MINIMAL_ERROR)
    bound = instance.program.step_count * 2 ** 4
    calls = []
    real_step = qbf_compiler.hardness_step

    def counting_step(inst, state):
        calls.append(state)
        return real_step(inst, state)

    monkeypatch.setattr(qbf_compiler, "hardness_step", counting_step)
    assert decide_hardness(instance, bound) == (False, None)
    assert 0 < len(calls) < bound


@functools.lru_cache(maxsize=None)
def _small_instance(text, family):
    return compile_qbf(parse_prefix_formula(text), family)


SMALL_FORMULAS = (
    "forall x1 exists x2 : x1 | !x2",
    "forall x1 exists x2 : x1 & x2",
    "exists x1 : !x1",
    # four canonical quantifiers: three ripple rounds, each resetting its carry
    "forall x1 exists x2 forall x3 : x1 & !x3 | x2",
)


@pytest.mark.parametrize("factor", [Fraction(1), Fraction(11, 10)], ids=["plain", "perturbed"])
@pytest.mark.parametrize("family", FAMILIES)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_hardness_step_matches_dense_reference(family, factor, data):
    # the factor is set directly: perturb rejects the ceiling family, whose
    # rows still have to scale exactly
    base = _small_instance(data.draw(st.sampled_from(SMALL_FORMULAS)), family)
    instance = dataclasses.replace(base, factor=factor)
    entries = data.draw(st.sampled_from([st.integers(-3, 3),
                                         st.sampled_from([0] * 7 + [-3, -1, 1, 2, 3])]))
    state = tuple(data.draw(st.lists(entries, min_size=instance.dimension,
                                     max_size=instance.dimension)))
    assert hardness_step(instance, state) == dense_hardness.dense_hardness_step(instance, state)


@pytest.mark.parametrize("factor", [Fraction(1), Fraction(11, 10)], ids=["plain", "perturbed"])
@pytest.mark.parametrize("family", FAMILIES)
def test_hardness_step_matches_dense_reference_on_two_nonzero_copies(family, factor):
    # copy m - 1 wraps around into copy 0 while copy 1 writes copy 2
    base = _small_instance(SMALL_FORMULAS[0], family)
    instance = dataclasses.replace(base, factor=factor)
    t, m = base.program.var_count, base.program.step_count
    state = [0] * instance.dimension
    for k, v in enumerate((1, 0, 2, -1, 1, 3, 0, 1, -2, 1, 1, 0, 1, 2, -3, 1, 0, 1, 1, 2, 1, 0, 1, 1)):
        state[t + k] = v
        state[(m - 1) * t + k] = -v if k % 3 else v
    state = tuple(state)
    stepped = hardness_step(instance, state)
    assert stepped == dense_hardness.dense_hardness_step(instance, state)
    nonzero = {i // t for i, v in enumerate(stepped) if v}
    assert nonzero == {0, 2}


@pytest.mark.parametrize("perturbed", [False, True], ids=["plain", "perturbed"])
def test_corpus_orbits_match_dense_reference(perturbed, monkeypatch):
    # criterion 2's corpus: the dense step must give the whole orbit that
    # decide_hardness walks, so it would reach the same decision
    steps_taken = [0]
    real_step = qbf_compiler.hardness_step

    def counting_step(inst, state):
        steps_taken[0] += 1
        return real_step(inst, state)

    monkeypatch.setattr(qbf_compiler, "hardness_step", counting_step)
    for formula, _family, instance in hardness_corpus():
        if perturbed:
            instance = perturb(instance, Fraction(11, 10))
        bound = instance.program.step_count * 2 ** (len(canonicalize(formula).prefix) + 2)
        steps_taken[0] = 0
        decided, _hit = decide_hardness(instance, bound)
        assert decided == evaluate_qbf(formula)
        steps = steps_taken[0]
        assert (hardness_simulate(instance, steps)
                == dense_hardness.dense_hardness_simulate(instance, steps)), formula


def test_exploded_rows_are_built_only_for_the_json_output():
    # compile, perturb and decide read the program; only the JSON output
    # (and the dense reference) build the exploded rows
    base = compile_qbf(parse_prefix_formula("forall x1 exists x2 : x1 | x2"),
                       GadgetFamily.MINIMAL_ERROR)
    scaled = perturb(base, Fraction(11, 10))
    for instance in (base, scaled):
        assert decide_hardness(instance, instance.program.step_count * 2 ** 4)[0]
        assert "rows" not in vars(instance) and "unscaled_rows" not in vars(instance)
    payload = hardness_json(scaled)
    assert "rows" in vars(scaled)
    assert len(payload["rows"]) == scaled.dimension == len(scaled.unscaled_rows)


def test_compile_leaves_no_cyclic_garbage():
    # each recursion in the compiler is a module-level function, so a
    # compile frees everything it made by reference counting alone
    formulas = [parse_prefix_formula(text) for text in (
        "forall x1 exists x2 : x1 | !x2",
        "exists x3 forall x1 : (x1 & x3) | !(x1 | x3)",  # not canonical
    )]
    gc.collect()
    gc.disable()
    try:
        for formula in formulas:
            evaluate_qbf(formula)
            for family in FAMILIES:
                instance = perturb(compile_qbf(formula, family), Fraction(1))
                decide_hardness(instance, instance.program.step_count * 2 ** 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_integer_row_folds_the_factor_over_one_denominator():
    row = (((3, 2), (5, -3), (7, 12)), 6)
    assert scaled_row(row, Fraction(1)) == row
    assert scaled_row(row, Fraction(11, 10)) == (((3, 22), (5, -33), (7, 132)), 60)
    assert scaled_row(zero_row(), Fraction(3)) == ((), 1)

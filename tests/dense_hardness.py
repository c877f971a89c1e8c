"""The original dense `Fraction` hardness step, kept as a test reference,
and the program interpreter the tests check the explosion against.

`roundreach.qbf_compiler.hardness_step` reads the program copy by copy:
it computes only the copies after a nonzero copy, in integer numerators
over one denominator with the scale factor folded into each ratio.  This
module keeps the earlier step over the exploded rows: every row of
`HardnessInstance.rows` summed in `Fraction` arithmetic, scaled by the
factor afterwards, and rounded by `round_real`, so differential tests can
check the copy-by-copy step against an independent exact implementation.
Only the tests import it.  `round_real` is memoized here: a step rounds
only a few distinct sums, and the tests run the reference over whole
orbits.

`run_program_sweep` runs a lowered program instruction by instruction, and
`hardness_simulate` steps an instance with `hardness_step`, so tests can
check that one trip around the copies is one sweep.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

from roundreach import qbf_compiler, rounding
from roundreach.errors import InternalInvariantError
from roundreach.qbf_compiler import HardnessInstance, Instruction, Program, round_row

round_real = functools.lru_cache(maxsize=None)(rounding.round_real)


def dense_hardness_step(instance: HardnessInstance, state: Sequence[int]) -> tuple[int, ...]:
    kind = instance.program.family.rounding_kind
    factor = instance.factor
    out = []
    for row in instance.rows:
        acc = Fraction(0)
        for col, coeff in row:
            if state[col]:
                acc += coeff * state[col]
        if factor != 1:
            acc *= factor
        value = round_real(acc, kind, 1)
        if value.denominator != 1:
            raise InternalInvariantError("non-integer state in hardness orbit")
        out.append(int(value))
    return tuple(out)


def dense_hardness_simulate(instance: HardnessInstance, steps: int) -> list[tuple[int, ...]]:
    out = [instance.initial]
    state = instance.initial
    for _ in range(steps):
        state = dense_hardness_step(instance, state)
        out.append(state)
    return out


def hardness_simulate(instance: HardnessInstance, steps: int) -> list[tuple[int, ...]]:
    out = [instance.initial]
    state = instance.initial
    for _ in range(steps):
        state = qbf_compiler.hardness_step(instance, state)
        out.append(state)
    return out


def program_initial_state(program: Program) -> tuple[int, ...]:
    state = [0] * program.var_count
    state[program.layout.const] = 1
    return tuple(state)


def program_step(program: Program, state: Sequence[int], instr: Instruction) -> tuple[int, ...]:
    new = list(state)
    ratio = rounding.RULES[program.family.rounding_kind].ratio
    for target, row in instr.items():
        value = round_row(row, state, ratio)
        if value not in (0, 1):
            raise InternalInvariantError(
                f"non-boolean value {value} written to slot {target}"
            )
        new[target] = value
    return tuple(new)


def run_program_sweep(program: Program, state: Sequence[int]) -> tuple[int, ...]:
    out = tuple(state)
    for instr in program.instructions:
        out = program_step(program, out, instr)
    return out

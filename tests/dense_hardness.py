"""The original dense `Fraction` hardness step, kept as a test reference.

`roundreach.qbf_compiler.hardness_step` stores each row as integer
numerators over one denominator, with the scale factor folded in, and
evaluates only the rows that read a nonzero state entry.  This module keeps
the earlier step: every row summed in `Fraction` arithmetic, scaled by the
factor afterwards, and rounded by `round_real`, so differential tests can
check the integer step against an independent exact implementation.  Only
the tests import it.  `round_real` is memoized here: a step rounds only a
few distinct sums, and the tests run the reference over whole orbits.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

from roundreach.errors import InternalInvariantError
from roundreach.qbf_compiler import HardnessInstance
from roundreach import rounding

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

"""The original cyclotomic orbit step, kept as a test reference.

`roundreach.system.step_with_intermediates` now runs each coordinate update
`lambda*x_j + x_(j+1)` through `StepKernel`, on integer coordinates in grid
units, with a float prefilter in front of the exact path.  This module keeps
the earlier step: every point embedded in the system's cyclotomic field, the
update formed by a `CycloNum` multiply and add, and the result rounded by
`round_value`, so differential tests can check the kernel against an
independent exact implementation.  Only the tests import it.
"""

from __future__ import annotations

from roundreach.numerics import CycloNum
from roundreach.rounding import GridPoint, point_value, round_value
from roundreach.system import JnfSystem


def reference_step(
    system: JnfSystem, state: tuple[GridPoint, ...]
) -> tuple[tuple[GridPoint, ...], tuple[CycloNum, ...]]:
    """One rounded step and the exact pre-rounding values."""
    order = system.field_order()
    eigen = [system.eigen_value(b, order) for b in system.blocks]
    values = [point_value(p, system.rounding, order) for p in state]
    unrounded: list[CycloNum] = [None] * len(values)  # type: ignore[list-item]
    for (start, end), lam in zip(system.block_slices(), eigen):
        for j in range(start, end):
            w = lam * values[j]
            if j + 1 < end:
                w = w + values[j + 1]
            unrounded[j] = w
    new_state = tuple(round_value(w, system.rounding) for w in unrounded)
    return new_state, tuple(unrounded)

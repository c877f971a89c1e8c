"""The per-start disk loop, kept as a test reference.

`roundreach.system.orbit_shapes` finds many orbits together on one
successor map, stepping each state once.  This module keeps the earlier
way on its own: every start's orbit is iterated alone until a state
repeats, the budget ends or a step raises `UndecidableTieError`, keeping
every visited state; a cell's first generation is the least step at which
any start's orbit visits it.  Differential tests compare the production
loop against it.  Only the tests import it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from roundreach.errors import UndecidableTieError

Shape = tuple[Any, int, Optional[int], tuple[tuple[Any, int], ...]]


def reference_orbit(step: Callable[[Any], Any], start: Any, budget: int) -> Shape:
    """(start, transient, period, visited) for one start, iterated alone."""
    seen = {start: 0}
    visited = [(start, 0)]
    state = start
    for i in range(1, budget + 1):
        try:
            state = step(state)
        except UndecidableTieError:
            return start, i - 1, None, tuple(visited)
        if state in seen:
            first = seen[state]
            return start, first, i - first, tuple(visited)
        seen[state] = i
        visited.append((state, i))
    return start, budget, None, tuple(visited)


def reference_disk(
    step: Callable[[Any], Any], starts, budget: int
) -> tuple[dict[Any, int], tuple[Any, ...], tuple[Shape, ...]]:
    """(cells, unresolved starts, shapes) with every start walked on its own."""
    cells: dict[Any, int] = {}
    shapes = []
    for start in starts:
        shape = reference_orbit(step, start, budget)
        shapes.append(shape)
        for point, i in shape[3]:
            old = cells.get(point)
            if old is None or i < old:
                cells[point] = i
    unresolved = tuple(start for start, _t, period, _v in shapes if period is None)
    return cells, unresolved, tuple(shapes)

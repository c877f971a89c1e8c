"""The deciders' set-up on grid-unit integers against its `Fraction`
reference: every table, budget and step cap a Jordan-form decider builds
before its first step, over the decider corpora moved onto coarser and
finer grids.  The eigenbasis set-up has its reference test in
test_hyperbolic.py, over the same grids."""

import pytest

import caps_reference
from corpora import GRIDS, argand_corpus, hyperbolic_corpus, on_grid, polar_corpus
from roundreach.argand_decider import EXPANSION, TRUNCATION
from roundreach.cli import route
from roundreach.hyperbolic import HYPERBOLIC, RadiusTable, step_cap
from roundreach.polar_decider import POLAR


def fields(table):
    """A table's values as the program prints and reads them."""
    if isinstance(table, (RadiusTable, caps_reference.RadiusTable)):
        return ("radii", table.eigen_modulus, table.delta, table.ell, table.radii)
    size = len(table.modulus_bounds)
    return ("unit", table.initial_size, table.growth_base, table.modulus_bounds,
            table.settle_bounds, tuple(table.doubly_exponential_ceiling(j) for j in range(size)))


@pytest.mark.parametrize("g", GRIDS)
def test_block_tables_and_step_caps_match_the_fraction_reference(g):
    checked = dict.fromkeys((HYPERBOLIC, TRUNCATION, EXPANSION, POLAR), 0)
    for corpus in (hyperbolic_corpus, polar_corpus, argand_corpus):
        for system in corpus():
            system = on_grid(system, g)
            fragment = route(system).fragment
            tables = fragment.tables(system)
            expected = caps_reference.tables(system)
            assert [fields(t) for t in tables] == [fields(t) for t in expected], system
            for index, (table, ref) in enumerate(zip(tables, expected)):
                if isinstance(table, RadiusTable):
                    spec = system.rounding
                    assert table.step_bound(spec) == caps_reference.step_bound(ref, spec)
                else:
                    count = caps_reference.unit_count(system, index, ref)
                    assert (table.settle_steps, table.states) == count, system
            assert step_cap(system, tables) == caps_reference.step_cap(system, expected), system
            checked[fragment] += 1
    # criterion 4 runs under the escape-radius and truncation fragments,
    # criterion 6 under polar, criterion 7 under truncation and expansion
    assert min(checked.values()) >= 50, checked

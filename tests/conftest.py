from functools import lru_cache

import pytest

from repairopt.fixtures import fixture_spec
from repairopt.flowgraph import repair_cuts
from repairopt.lpcore import solve_min_cost


@lru_cache(maxsize=None)
def solved_fixture(name):
    """(spec, constraint set, costs, solution) for a named fixture, cached
    so the suite solves each LP once."""
    spec = fixture_spec(name)
    cs, costs = repair_cuts(spec)
    return spec, cs, costs, solve_min_cost(cs, costs)


@pytest.fixture
def solved():
    return solved_fixture

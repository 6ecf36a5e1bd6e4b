import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    OracleError,
    brute_force_optimum,
    reference_dual_simplex,
    reference_verify_dual,
)

from repairopt import lpcore
from repairopt.fixtures import FIXTURES
from repairopt.flowgraph import ConstraintSet, check_feasible, repair_cuts
from repairopt.lpcore import LPError, solve_min_cost, verify_dual
from repairopt.netmodel import build_topology

EDGES2 = ((1, 3), (2, 3))


def make_cs(rows, rhs, edges=EDGES2):
    return ConstraintSet(edge_index=edges,
                         rows=tuple(tuple(r) for r in rows),
                         rhs=tuple(Fraction(b) for b in rhs))


class TestSolve:
    def test_trivial_box(self):
        cs = make_cs([(1, 0), (0, 1)], [2, 3])
        sol = solve_min_cost(cs, [1, 1])
        assert sol.status == "optimal"
        assert sol.value == 5
        assert sol.z_star == (Fraction(2), Fraction(3))

    def test_shared_constraint_picks_cheap_edge(self):
        cs = make_cs([(1, 1)], [4])
        sol = solve_min_cost(cs, [3, 1])
        assert sol.value == 4
        assert sol.z_star == (Fraction(0), Fraction(4))

    def test_fractional_vertex(self):
        # three pairwise constraints force the symmetric half-integral point
        cs = make_cs([(1, 1, 0), (0, 1, 1), (1, 0, 1)], [1, 1, 1],
                     edges=((1, 4), (2, 4), (3, 4)))
        sol = solve_min_cost(cs, [1, 1, 1])
        assert sol.value == Fraction(3, 2)
        assert check_feasible(cs, sol.z_star)

    def test_no_constraints_means_zero(self):
        cs = make_cs([], [])
        sol = solve_min_cost(cs, [1, 1])
        assert sol.status == "optimal" and sol.value == 0

    def test_infeasible_zero_row(self):
        cs = make_cs([(0, 0)], [1])
        sol = solve_min_cost(cs, [1, 1])
        assert sol.status == "infeasible"

    def test_infeasible_after_pivoting(self):
        # z1 + z2 >= 2 and z1 + z2 <= 1: the second row turns
        # all-nonnegative with a negative rhs only after the first pivot
        cs = make_cs([(1, 1), (-1, -1)], [2, -1])
        sol = solve_min_cost(cs, [1, 1])
        assert sol.status == "infeasible"
        assert sol.pivots == 1

    def test_negative_cost_rejected(self):
        cs = make_cs([(1, 1)], [1])
        with pytest.raises(LPError):
            solve_min_cost(cs, [1, -1])

    def test_cost_count_checked(self):
        cs = make_cs([(1, 1)], [1])
        with pytest.raises(LPError):
            solve_min_cost(cs, [1])

    def test_vertex_feasibility_on_fixtures(self, solved):
        for name in ("tandem-n4", "grid-2x3", "complete-n5-unit",
                     "complete-n5-cost3", "star-n6", "star-n6-M9"):
            spec, cs, costs, sol = solved(name)
            assert sol.status == "optimal"
            assert check_feasible(cs, sol.z_star), name
            assert sum(c * v for c, v in zip(costs, sol.z_star)) == sol.value


class TestDual:
    def test_certificate_on_fixtures(self, solved):
        for name in ("tandem-n4", "grid-2x3", "complete-n5-unit",
                     "complete-n5-cost3", "star-n6", "star-n6-M9"):
            spec, cs, costs, sol = solved(name)
            assert verify_dual(cs, costs, sol), name

    def test_tampered_dual_fails(self, solved):
        spec, cs, costs, sol = solved("tandem-n4")
        bad = sol.__class__(status="optimal", value=sol.value + 1,
                            z_star=sol.z_star, dual=sol.dual,
                            pivots=sol.pivots)
        assert not verify_dual(cs, costs, bad)


class TestScaleCovariance:
    def test_cost_scaling(self, solved):
        spec, cs, costs, sol = solved("star-n6")
        scaled = solve_min_cost(cs, [7 * c for c in costs])
        assert scaled.value == 7 * sol.value

    def test_random_cost_perturbations_stay_feasible(self, solved):
        spec, cs, _, _ = solved("grid-2x3")
        rng = random.Random(99)
        for _ in range(10):
            costs = [Fraction(rng.randrange(1, 6)) for _ in cs.edge_index]
            sol = solve_min_cost(cs, costs)
            assert sol.status == "optimal"
            assert check_feasible(cs, sol.z_star)
            assert verify_dual(cs, costs, sol)


# the scale ladder, up to 330 cut rows, with M = 2k and alpha = 2
LADDER = [
    pytest.param(("grid", 12, 12, dict(k=5, rows=3, cols=4)), Fraction(7),
                 id="grid-3x4-k5@12"),
    pytest.param(("grid", 12, 6, dict(k=5, rows=3, cols=4)), Fraction(11, 2),
                 id="grid-3x4-k5@6"),
    pytest.param(("complete", 9, 9, dict(k=4)), Fraction(16, 5),
                 id="complete-n9-k4@9"),
    pytest.param(("star", 12, 1, dict(k=5, center=1)), Fraction(22, 7),
                 id="star-n12-k5@centre"),
]


class TestScaleLadder:
    @pytest.mark.parametrize("net, value", LADDER)
    def test_large_lp_certifies(self, net, value):
        kind, n, failed, shape = net
        spec = build_topology(kind, n, failed=failed, M=str(2 * shape["k"]),
                              alpha="2", **shape)
        cs, costs = repair_cuts(spec)
        sol = solve_min_cost(cs, costs)
        assert sol.status == "optimal"
        assert sol.value == value
        assert verify_dual(cs, costs, sol)
        assert check_feasible(cs, sol.z_star)


# cut systems of at most three edges with 0/1 rows and integral rhs: every
# vertex lies on the half-integer grid (a 0/1 matrix of order <= 3 has
# determinant at most 2) and within max(rhs) of the origin
small_systems = st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.lists(st.tuples(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                       st.integers(1, 4)), max_size=5),
    st.lists(st.integers(0, 5), min_size=m, max_size=m),
    st.just(m)))


class TestRandomSystems:
    @settings(max_examples=150, deadline=None)
    @given(small_systems)
    def test_matches_brute_force_and_certifies(self, system):
        rows, costs, m = system
        cs = make_cs([r for r, _ in rows], [b for _, b in rows],
                     edges=tuple((i, m + 1) for i in range(1, m + 1)))
        sol = solve_min_cost(cs, costs)
        assert solve_min_cost(cs, costs) == sol
        if sol.status == "infeasible":
            assert any(not any(r) for r, _ in rows)
            with pytest.raises(OracleError):
                brute_force_optimum(cs, costs, granularity=2)
            return
        assert sol.status == "optimal"
        assert sol.value == brute_force_optimum(cs, costs, granularity=2)
        assert verify_dual(cs, costs, sol)
        assert check_feasible(cs, sol.z_star)


class TestDualAudit:
    """The integer audit gives the Fraction audit's verdict on every dual
    the solver returns and on near misses of it."""

    @settings(max_examples=150, deadline=None)
    @given(small_systems, st.data())
    def test_matches_fraction_audit(self, system, data):
        rows, costs, m = system
        cs = make_cs([r for r, _ in rows], [b for _, b in rows],
                     edges=tuple((i, m + 1) for i in range(1, m + 1)))
        sol = solve_min_cost(cs, costs)

        def verdict(dual, value=sol.value):
            probe = replace(sol, dual=tuple(dual), value=value)
            audit = verify_dual(cs, costs, probe)
            assert audit == reference_verify_dual(cs.rows, cs.rhs, costs, probe)
            return audit

        y = list(sol.dual)
        assert verdict(y) == (sol.status == "optimal")
        step = Fraction(1, math.lcm(*(v.denominator for v in y)))
        verdict(y[:-1])
        verdict(y + [Fraction(0)])
        verdict(y, sol.value + step)
        verdict(y, sol.value - step)
        if y:
            i, j = data.draw(st.lists(st.integers(0, len(y) - 1), min_size=2, max_size=2))
            verdict(y[:i] + [-y[i]] + y[i + 1:])
            for move in (step, -step):
                verdict(y[:i] + [y[i] + move] + y[i + 1:])
                moved = list(y)
                moved[i] += move
                moved[j] -= move
                verdict(moved)


class TestTieBreak:
    """Ratio-test ties go to the highest variable label, or under Bland's
    rule the lowest, wherever the tied columns sit. In z3 >= 1,
    z1 + z3 >= 2, z1 + z2 >= 2 at costs (1, 1, 2), either rule's first two
    pivots leave column 0 holding the second row's slack (label 4); the
    third ties it with z2 (label 1) in column 1. The slack wins by default
    and z2 under Bland's rule; ties by position would swap the vertices."""

    CS = make_cs([(0, 0, 1), (1, 0, 1), (1, 1, 0)], [1, 2, 2], edges=((1, 4), (2, 4), (3, 4)))
    COSTS = (1, 1, 2)

    @pytest.mark.parametrize("run, vertex", [(1, (2, 0, 1)), (0, (1, 1, 1))],
                             ids=["highest-label", "bland-lowest-label"])
    def test_tie_goes_by_label(self, run, vertex, monkeypatch):
        monkeypatch.setattr(lpcore, "_DEGENERATE_RUN_PER_ROW", run)
        sol = solve_min_cost(self.CS, self.COSTS)
        assert (sol.status, sol.value, sol.z_star, sol.dual, sol.pivots) == \
            reference_dual_simplex(self.CS.rows, self.CS.rhs, self.COSTS, run)
        assert sol.pivots == 3
        assert sol.z_star == vertex
        assert sol.dual == (2, 0, 1)


class TestBlandFallback:
    def test_bland_throughout_keeps_fixture_optima(self, solved, monkeypatch):
        # solve (and cache) under the default rule before switching it off
        reference = {name: solved(name) for name in FIXTURES}
        monkeypatch.setattr(lpcore, "_DEGENERATE_RUN_PER_ROW", 0)
        for name, (spec, cs, costs, sol) in reference.items():
            bland = solve_min_cost(cs, costs)
            assert bland.status == "optimal", name
            assert bland.value == sol.value, name
            assert bland.dual == sol.dual, name
            assert verify_dual(cs, costs, bland), name
            assert check_feasible(cs, bland.z_star), name


class TestBruteForce:
    def test_matches_simplex_on_integral_fixture(self, solved):
        spec, cs, costs, sol = solved("tandem-n4")
        assert brute_force_optimum(cs, costs, granularity=1) == sol.value == 4

    def test_matches_simplex_on_fractional_fixture(self, solved):
        spec, cs, costs, sol = solved("star-n6")
        assert brute_force_optimum(cs, costs, granularity=3) == Fraction(14, 3)

    def test_refusal_above_eight_edges(self, solved):
        spec, cs, costs, _ = solved("complete-n5-unit")
        with pytest.raises(OracleError):
            brute_force_optimum(cs, costs)

    def test_infeasible_within_cap(self):
        cs = make_cs([(0, 0)], [1])
        with pytest.raises(OracleError):
            brute_force_optimum(cs, [1, 1])

    def test_granularity_validation(self):
        cs = make_cs([(1, 0)], [1])
        with pytest.raises(OracleError):
            brute_force_optimum(cs, [1, 1], granularity=0)

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repairopt.flowgraph import (
    build_flow_graph,
    check_feasible,
    enumerate_cut_constraints,
    repair_cuts,
)
from repairopt.fixtures import FIXTURES, fixture_spec
from repairopt.lpcore import solve_min_cost
from repairopt.netmodel import CostMatrix, NetworkSpec, TopologyError, build_topology
from oracles import max_flow_value, msr_cut_rows


def rows_as_set(cs):
    return {(row, b) for row, b in zip(cs.rows, cs.rhs)}


def generated_shapes(n):
    """(kind, shape) of the generated topologies on n nodes: the tandem,
    the complete network, the stars centred on 1 and on n, and every
    grid."""
    return ([("tandem", {}), ("complete", {}), ("star", {"center": 1}),
             ("star", {"center": n})]
            + [("grid", {"rows": r, "cols": n // r}) for r in range(1, n + 1) if n % r == 0])


class TestBuildFlowGraph:
    def test_tandem_edges(self):
        fg = build_flow_graph(fixture_spec("tandem-n4"))
        assert fg.edge_index == ((1, 2), (2, 3), (3, 4))

    def test_grid_edges(self):
        fg = build_flow_graph(fixture_spec("grid-2x3"))
        assert fg.edge_index == ((1, 2), (1, 4), (2, 3), (2, 5), (3, 6),
                                 (4, 5), (5, 6))

    def test_star_keeps_only_paths_to_new_node(self):
        fg = build_flow_graph(fixture_spec("star-n6"))
        assert fg.edge_index == ((2, 1), (3, 2), (4, 2), (5, 2), (6, 2))

    def test_unreachable_edges_dropped(self):
        # helper 2 only reaches the failure through the non-helper node 4,
        # so the helper-to-helper link (1,2) is useless and pinned to zero
        cm = CostMatrix(5, {(1, 2): Fraction(1), (2, 4): Fraction(1),
                            (4, 5): Fraction(1), (1, 3): Fraction(1),
                            (3, 5): Fraction(1)})
        spec = NetworkSpec(n=5, k=2, d=3, alpha=Fraction(2), M=Fraction(4),
                           failed=5, helpers=(1, 2, 3), cost=cm)
        fg = build_flow_graph(spec)
        assert fg.edge_index == ((1, 3), (3, 5))

    def test_no_route_raises(self):
        # the only route runs through a non-helper, which may not relay
        cm = CostMatrix(3, {(1, 2): Fraction(1), (2, 3): Fraction(1)})
        spec = NetworkSpec(n=3, k=1, d=1, alpha=Fraction(2), M=Fraction(2), failed=3,
                           helpers=(1,), cost=cm)
        with pytest.raises(TopologyError, match="no helper can reach the new node"):
            build_flow_graph(spec)


class TestEnumeration:
    def test_tandem_pre_reduction_rows(self):
        fg = build_flow_graph(fixture_spec("tandem-n4"))
        cs = enumerate_cut_constraints(fg, reduce=False)
        # z order (z12, z23, z34); the dominated middle row is retained
        assert rows_as_set(cs) == {
            ((0, 0, 1), Fraction(2)),
            ((1, 0, 1), Fraction(2)),
            ((0, 1, 0), Fraction(2)),
        }

    def test_tandem_reduced_rows(self):
        fg = build_flow_graph(fixture_spec("tandem-n4"))
        cs = enumerate_cut_constraints(fg)
        assert rows_as_set(cs) == {
            ((0, 0, 1), Fraction(2)),
            ((0, 1, 0), Fraction(2)),
        }

    def test_tandem_general_active_rows(self):
        # line of 6, end failure: one singleton row per edge of the k-hop
        # tail, each at M - (k-1) alpha
        spec = build_topology("tandem", 6, k=3, M=6, alpha=2, failed=6)
        cs = enumerate_cut_constraints(build_flow_graph(spec))
        edges = {e: idx for idx, e in enumerate(cs.edge_index)}
        singleton = lambda e: tuple(1 if idx == edges[e] else 0
                                    for idx in range(len(edges)))
        assert rows_as_set(cs) == {
            (singleton((3, 4)), Fraction(2)),
            (singleton((4, 5)), Fraction(2)),
            (singleton((5, 6)), Fraction(2)),
        }

    def test_star_rows(self):
        cs = enumerate_cut_constraints(build_flow_graph(fixture_spec("star-n6")))
        assert cs.edge_index == ((2, 1), (3, 2), (4, 2), (5, 2), (6, 2))
        expected = {((1, 0, 0, 0, 0), Fraction(2))}
        for skipped in range(4):
            row = [0, 1, 1, 1, 1]
            row[1 + skipped] = 0
            expected.add((tuple(row), Fraction(2)))
        assert rows_as_set(cs) == expected

    def test_rhs_formula(self):
        # every surviving row of the grid enumeration has rhs M - 3 alpha
        spec = fixture_spec("grid-2x3")
        cs = enumerate_cut_constraints(build_flow_graph(spec))
        assert set(cs.rhs) == {spec.M - 3 * spec.alpha}

    def test_enumeration_capped(self):
        spec = build_topology("complete", 13, k=3, M=6, alpha=2, failed=13)
        fg = build_flow_graph(spec)
        with pytest.raises(TopologyError, match="capped at n <= 12"):
            enumerate_cut_constraints(fg)


class TestMsrOracle:
    @pytest.mark.parametrize("n", range(4, 13))
    def test_rows_equal_the_oracle(self, n):
        """At M = k alpha the raw enumeration is, as a set, one row per
        (k-1)-subset of helpers at rhs alpha (oracles.msr_cut_rows), over
        the same retained links: every generated kind and failure
        position, k in {2, n // 2, n - 2}, with the default d and d = k."""
        alpha = Fraction(2)
        for kind, shape in generated_shapes(n):
            for failed in range(1, n + 1):
                for k in sorted({2, n // 2, n - 2}):
                    for d in (None, k):
                        spec = build_topology(kind, n, k=k, d=d, M=k * alpha,
                                              failed=failed, **shape)
                        links, rows = msr_cut_rows(spec)
                        try:
                            fg = build_flow_graph(spec)
                        except TopologyError:
                            assert not any(j == failed for _, j in links)
                            continue
                        assert list(fg.edge_index) == links
                        cs = enumerate_cut_constraints(fg, reduce=False)
                        assert set(cs.rows) == set(rows) and len(cs.rows) == len(set(rows))
                        assert set(cs.rhs) == {alpha}


@st.composite
def collector_networks(draw):
    """(kind, n, shape, k, d, alpha) of a generated network on 4 to 8 nodes,
    any star centre, with 2 <= k <= d < n - 1, so that some survivors are
    not helpers, at the minimum-storage point (alpha = 2) or at alpha = 3;
    M = 2k."""
    n = draw(st.integers(4, 8))
    kind, shape = draw(st.sampled_from(
        [(kind, shape) for kind, shape in generated_shapes(n) if kind != "star"]
        + [("star", {"center": c}) for c in range(1, n + 1)]))
    k = draw(st.integers(2, n - 2))
    return kind, n, shape, k, draw(st.integers(k, n - 2)), draw(st.sampled_from((2, 3)))


class TestNonHelperCollectors:
    @settings(max_examples=60, deadline=None)
    @given(collector_networks())
    def test_every_survivor_subset_decodes(self, network):
        """The enumerator lists cuts only for data collectors that read
        k - 1 helpers, yet at an optimal repair every k - 1 survivors,
        helpers or not, with the new node carry the file (max flow >= M),
        at every failure position with a repair."""
        kind, n, shape, k, d, alpha = network
        for failed in range(1, n + 1):
            spec = build_topology(kind, n, k=k, d=d, M=2 * k, alpha=alpha,
                                  failed=failed, **shape)
            try:
                cs, costs = repair_cuts(spec)
            except TopologyError:
                continue
            sol = solve_min_cost(cs, costs)
            if sol.status != "optimal":
                # no repair exists, as at d = k with a helper that reaches
                # the new node only through a survivor that does not help
                # (grid 2x3, k = d = 4, failed 6): even links of capacity
                # M leave some k - 1 helpers short of the file
                unbounded = [spec.M] * len(cs.edge_index)
                assert any(max_flow_value(spec, unbounded, K) < spec.M
                           for K in combinations(spec.helpers, k - 1)), failed
                continue
            for T in combinations(spec.survivors, k - 1):
                assert max_flow_value(spec, sol.z_star, T) >= spec.M, (failed, T)


class TestCheckFeasible:
    def test_known_points(self):
        cs = enumerate_cut_constraints(build_flow_graph(fixture_spec("tandem-n4")))
        assert check_feasible(cs, (0, 2, 2))
        assert not check_feasible(cs, (0, 0, 0))
        assert not check_feasible(cs, (0, -1, 3))

    def test_grid_reference_point(self):
        cs = enumerate_cut_constraints(build_flow_graph(fixture_spec("grid-2x3")))
        assert check_feasible(cs, (0, 1, 0, 1, 1, 2, 2))

    def test_length_mismatch(self):
        cs = enumerate_cut_constraints(build_flow_graph(fixture_spec("tandem-n4")))
        with pytest.raises(ValueError):
            check_feasible(cs, (1, 2))


class TestProperties:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_max_flow_completeness(self, name):
        """check_feasible agrees with the numeric min-cut for every
        data-collector attachment (the independent oracle)."""
        spec = fixture_spec(name)
        cs = enumerate_cut_constraints(build_flow_graph(spec))
        rng = random.Random(20240811)
        for _ in range(25):
            z = [rng.randrange(4) for _ in cs.edge_index]
            by_cuts = check_feasible(cs, z)
            by_flow = all(
                max_flow_value(spec, z, K) >= spec.M
                for K in combinations(spec.helpers, spec.k - 1))
            assert by_cuts == by_flow, (name, z)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_reduction_soundness(self, name):
        spec = fixture_spec(name)
        fg = build_flow_graph(spec)
        raw = enumerate_cut_constraints(fg, reduce=False)
        reduced = enumerate_cut_constraints(fg)
        rng = random.Random(515)
        for _ in range(200):
            z = [Fraction(rng.randrange(13), rng.choice((1, 2, 3)))
                 for _ in fg.edge_index]
            assert check_feasible(raw, z) == check_feasible(reduced, z)

    def test_monotonicity_adding_links(self):
        """Opening an extra link can only keep or lower the optimum."""
        full = fixture_spec("complete-n5-unit")
        lp_full = solve_min_cost(*repair_cuts(full)).value

        entries = {e: Fraction(1) for e in full.cost.edges() if e != (1, 2)}
        pruned = NetworkSpec(n=5, k=3, d=4, alpha=Fraction(2), M=Fraction(6),
                             failed=5, helpers=(1, 2, 3, 4),
                             cost=CostMatrix(5, entries))
        lp_pruned = solve_min_cost(*repair_cuts(pruned)).value
        assert lp_full <= lp_pruned

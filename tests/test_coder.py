import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from oracles import reference_rcp

from repairopt import coder, gfalg
from repairopt.bounds import compare_lp_to_bounds
from repairopt.cli import main
from repairopt.coder import (
    CodeState,
    RepairPlan,
    RetryExhaustedError,
    code_field,
    init_code,
    make_plan,
    regenerate,
    run_repair,
    simulate_stages,
    verify_rcp,
)
from repairopt.fixtures import FIXTURES, fixture_spec
from repairopt.lpcore import LPError
from repairopt.netmodel import TopologyError, build_topology, spec_from_json

# worked 4-node line example, coefficient order (a1, b1, a2, b2)
NODE1 = [(1, 0, 0, 0), (0, 1, 0, 0)]
NODE2 = [(0, 0, 1, 0), (0, 0, 0, 1)]
NODE3 = [(1, 1, 1, 1), (1, 2, 1, 2)]
NODE4 = [(1, 2, 3, 1), (3, 2, 2, 3)]


def code_state(q, k, node_columns):
    """A CodeState over GF(q) from explicit per-node coefficient columns."""
    cols = tuple(tuple(tuple(c) for c in node) for node in node_columns)
    return CodeState(q=q, k=k, alpha_s=len(cols[0]), scale=1, columns=cols)


# minimum storage, but helper 2 reaches node 4 only through the non-helper
# 3, so the cut row for K = {1} is empty with a positive rhs: no LP optimum
STARVED_DOC = {"n": 4, "k": 2, "d": 2, "alpha": "2", "M": "4", "failed": 4, "helpers": [1, 2],
               "cost": [["0", "inf", "inf", "1"], ["inf", "0", "1", "inf"],
                        ["inf", "inf", "0", "1"], ["inf", "inf", "inf", "0"]]}


def unit_plan(edges, counts, new_node) -> RepairPlan:
    """A plan at scale 1 with unit link costs."""
    return RepairPlan(edges=edges, costs=(Fraction(1),) * len(edges), counts=counts,
                      scale=1, new_node=new_node, lp_value=Fraction(sum(counts)))


class TestEncodingDepth:
    def test_chain_depth(self):
        edges = ((1, 2), (2, 3), (3, 4))
        assert unit_plan(edges, (0, 2, 2), 4).n_nc == 3
        assert unit_plan(edges, (2, 2, 2), 4).n_nc == 4

    def test_direct_links_only(self):
        edges = ((1, 5), (2, 5), (3, 5))
        assert unit_plan(edges, (1, 1, 1), 5).n_nc == 2

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="empty repair plan"):
            unit_plan(((1, 2),), (0,), 2).n_nc

    def test_field_size_bound(self):
        assert code_field(4, 2, 4, 3) == (72, 73)
        with pytest.raises(ValueError):
            code_field(2, 3, 4, 2)

    def test_every_admitted_field_fits_one_lane(self):
        """Every code of n <= 12 nodes that the work budget admits, with
        the n_nc <= n bound that simulate uses, gets a field whose 64-bit
        lanes hold a row of M_s coordinates being reduced. The largest
        lane, M_s * q^2 = 1.3e14 (47 bits), is at n = 12, k = 6,
        alpha_s = 17."""
        largest = (0, None)
        for n in range(1, 13):
            for k in range(1, n + 1):
                alpha_s = 1
                while math.comb(n, k) * (k * alpha_s) ** 3 <= coder.WORK_BUDGET:
                    M_s = k * alpha_s
                    _, q = code_field(n, k, M_s, n)
                    assert len(gfalg.pack_rows([[q - 1] * M_s], q)) == 1, (n, k, alpha_s)
                    largest = max(largest, (M_s * q * q, (n, k, alpha_s, q)))
                    alpha_s += 1
        assert largest[1] == (12, 6, 17, 1_130_981)
        assert largest[0].bit_length() == 47


class TestPlans:
    def test_tandem_plan(self):
        spec = fixture_spec("tandem-n4")
        plan = make_plan(spec)
        assert plan.scale == 1
        assert plan.counts == (0, 2, 2)
        assert plan.n_nc == 3
        assert code_field(spec.n, spec.k, 4, plan.n_nc) == (72, 73)
        assert plan.achieved_cost == plan.lp_value == 4

    def test_grid_plan_scales_thirds(self):
        spec = fixture_spec("grid-2x3")
        plan = make_plan(spec)
        assert plan.lp_value == Fraction(20, 3)
        assert plan.scale == 3
        assert plan.achieved_cost == Fraction(20, 3)
        d0, q = code_field(spec.n, spec.k, int(spec.M * plan.scale), plan.n_nc)
        assert q > d0

    def test_achieved_cost_follows_the_counts(self):
        """A rescale that scales the counts but not the scale, or the other
        way round, shows as an achieved cost off the LP value."""
        plan = make_plan(fixture_spec("complete-n5-cost3"))
        assert plan.costs == tuple(3 if j == 5 else 1 for _, j in plan.edges)
        doubled = tuple(2 * c for c in plan.counts)
        assert replace(plan, counts=doubled, scale=2).achieved_cost == plan.lp_value == 9
        assert replace(plan, counts=doubled).achieved_cost == 18
        assert replace(plan, scale=2).achieved_cost == Fraction(9, 2)

    def test_plan_requires_optimal(self):
        with pytest.raises(LPError, match="LP did not solve: infeasible"):
            make_plan(spec_from_json(STARVED_DOC))

    @pytest.mark.parametrize("alpha", [1, 3])
    def test_plan_requires_minimum_storage(self, alpha):
        spec = build_topology("tandem", 4, k=2, M=4, alpha=alpha, failed=4)
        with pytest.raises(TopologyError, match="minimum-storage"):
            make_plan(spec)


class TestPlanCost:
    """The LP vertex sets the subfragment scale, and with it the field size
    and the cost of coding; a different vertex at a degenerate optimum must
    not raise it."""

    FIXTURE_SCALES = {"tandem-n4": 1, "grid-2x3": 3, "complete-n5-unit": 1,
                      "complete-n5-cost3": 1, "star-n6": 3, "star-n6-M9": 1}
    # grid 3x3 k4 (M=8, alpha=2), failure positions 1..9
    GRID3X3_MAX_SCALES = (3, 3, 3, 3, 5, 3, 5, 3, 3)

    def test_fixture_scales_unchanged(self):
        assert set(self.FIXTURE_SCALES) == set(FIXTURES)
        for name in FIXTURES:
            plan = make_plan(fixture_spec(name))
            assert plan.scale == self.FIXTURE_SCALES[name], name

    @pytest.mark.parametrize("failed", range(1, 10))
    def test_grid3x3_scale_not_above_reference(self, failed):
        spec = build_topology("grid", 9, k=4, M="8", alpha="2", rows=3,
                              cols=3, failed=failed)
        plan = make_plan(spec)
        assert plan.scale <= self.GRID3X3_MAX_SCALES[failed - 1]


class TestVerifyRcp:
    def test_worked_initial_code(self):
        state = code_state(11, 2, [NODE1, NODE2, NODE3, NODE4])
        ok, witness = verify_rcp(state)
        assert ok and witness is None

    def test_worked_repair_large_field(self):
        new = [(5, 7, 8, 7), (6, 9, 6, 6)]
        ok, _ = verify_rcp(code_state(11, 2, [NODE1, NODE2, NODE3, new]))
        assert ok

    def test_worked_repair_small_field_with_cooperation(self):
        # relayed combination chain over GF(5): node 1 sends a1+2b1, node 2
        # folds in its fragments, node 3 finishes; result keeps the
        # any-2-of-4 property
        new = [(2, 3, 3, 2), (3, 1, 3, 3)]
        nodes = [[[c % 5 for c in col] for col in node]
                 for node in (NODE1, NODE2, NODE3, new)]
        ok, _ = verify_rcp(code_state(5, 2, nodes))
        assert ok

    def test_detects_degenerate_subset(self):
        state = code_state(11, 2, [NODE1, NODE1, NODE3, NODE4])
        ok, witness = verify_rcp(state)
        assert not ok and witness == (1, 2)

    def test_through_ignores_subsets_without_the_node(self):
        # (1, 2) fails, but no subset that holds node 3 or 4 does
        state = code_state(11, 2, [NODE1, NODE1, NODE3, NODE4])
        assert verify_rcp(state, 3) == verify_rcp(state, 4) == (True, None)
        assert verify_rcp(state, 2) == (False, (1, 2))

    # k = 3 over GF(13), alpha_s = 2: six nodes whose every 3-subset spans
    # GF(13)^6, since node v stores the Vandermonde columns of the points
    # 2v - 1 and 2v, twelve distinct points in all
    HEALTHY = [[tuple(pow(x, e, 13) for e in range(6)) for x in (2 * v - 1, 2 * v)]
               for v in range(1, 7)]

    @pytest.mark.parametrize("edit, through, expected", [
        # node 4 repeats node 2: the leaf (1, 2, 4) is the first to fail
        ("copy 2 to 4", None, (1, 2, 4)),
        # node 2 repeats node 1: the prefix (1, 2) fails, so all of its
        # completions do
        ("copy 1 to 2", None, (1, 2, 3)),
        # node 1 has a zero vector: the prefix (1) fails
        ("zero 1", None, (1, 2, 3)),
        # node 5 has a zero vector: the walk through it fails at its root
        ("zero 5", 5, (1, 2, 5)),
        ("zero 2", 2, (1, 2, 3)),
        # node 4 repeats node 2: through node 6 or 3, the only failing
        # subset holds 2, 4 and that node
        ("copy 2 to 4", 6, (2, 4, 6)),
        ("copy 2 to 4", 3, (2, 3, 4)),
        (None, 5, None),
    ])
    def test_failure_at_leaf_prefix_and_root(self, edit, through, expected):
        nodes = [list(node) for node in self.HEALTHY]
        if edit is not None and edit.startswith("copy"):
            _, src, _, dst = edit.split()
            nodes[int(dst) - 1] = nodes[int(src) - 1]
        elif edit is not None:
            nodes[int(edit.split()[1]) - 1][0] = (0,) * 6
        state = code_state(13, 3, nodes)
        assert verify_rcp(state, through) == (expected is None, expected)
        assert reference_rcp(state.columns, 6, 3, 6, 13, through) == (expected is None,
                                                                      expected)

    @staticmethod
    @st.composite
    def small_states(draw):
        """A code state of one or two vectors a node, often near-singular:
        a node block repeated or a vector zeroed, so subsets fail at a
        leaf, at a prefix and at the root of a walk through a node. With
        k = 4 a reduced block is carried through three levels, at one
        vector a node; wide_states takes larger blocks. The field is
        small, or the largest whose 64-bit lanes hold a row of 6 being
        reduced (6 * q^2 has 63 bits), or 2^31 - 1, the largest for rows
        of 2."""
        n = draw(st.integers(1, 7))
        k = draw(st.integers(1, min(4, n)))
        alpha = draw(st.integers(1, 2 if k < 4 else 1))
        q = draw(st.sampled_from([2, 3, 5, 7, 1_239_850_223]
                                 + [2**31 - 1] * (k * alpha <= 2)))
        vector = st.tuples(*[st.integers(0, q - 1)] * (k * alpha))
        nodes = draw(st.lists(st.lists(vector, min_size=alpha, max_size=alpha),
                              min_size=n, max_size=n))
        node, other = st.integers(0, n - 1), st.integers(0, n - 1)
        for dst, src in draw(st.lists(st.tuples(node, other), max_size=2)):
            nodes[dst] = list(nodes[src])
        for dst, j in draw(st.lists(st.tuples(node, st.integers(0, alpha - 1)),
                                    max_size=2)):
            nodes[dst][j] = (0,) * (k * alpha)
        return code_state(q, k, nodes), draw(st.integers(1, n))

    @staticmethod
    def walk_equals_scan(state, t):
        args = state.columns, state.n, state.k, state.M_s, state.q
        assert verify_rcp(state) == reference_rcp(*args)
        assert verify_rcp(state, t) == reference_rcp(*args, through=t)

    @settings(max_examples=300, deadline=None)
    @given(small_states())
    def test_walk_equals_subset_scan(self, state_and_node):
        self.walk_equals_scan(*state_and_node)

    @staticmethod
    @st.composite
    def wide_states(draw):
        """A code state of 3 to 10 vectors a node and files of up to 40
        subfragments, which the oracle's eliminations reach and its Leibniz
        sums do not: a block repeated, vectors zeroed, or a low lane
        zeroed in every vector of some nodes, so that block pivots below
        a prefix skip the lowest lanes and the walk repacks. The field is
        small, mid-sized, or the largest whose lanes hold a row of M_s."""
        n = draw(st.integers(1, 7))
        k = draw(st.integers(1, min(4, n)))
        alpha = draw(st.integers(3, 10))
        M_s = k * alpha
        limit = math.isqrt((2**63 - 1) // M_s)
        while not gfalg.is_prime(limit):
            limit -= 1
        q = draw(st.sampled_from([2, 3, 5, 1087, 15121, limit]))
        rnd = draw(st.randoms(use_true_random=False))
        nodes = [[[rnd.randrange(q) for _ in range(M_s)] for _ in range(alpha)]
                 for _ in range(n)]
        node, other = st.integers(0, n - 1), st.integers(0, n - 1)
        for dst, src in draw(st.lists(st.tuples(node, other), max_size=2)):
            nodes[dst] = [list(v) for v in nodes[src]]
        for dst, j in draw(st.lists(st.tuples(node, st.integers(0, alpha - 1)), max_size=2)):
            nodes[dst][j] = [0] * M_s
        lane = draw(st.integers(0, 2))
        for dst in draw(st.sets(node, max_size=n)):
            for v in nodes[dst]:
                v[lane] = 0
        return code_state(q, k, nodes), draw(st.integers(1, n))

    @settings(max_examples=150, deadline=None)
    @given(wide_states())
    def test_wide_walk_equals_subset_scan(self, state_and_node):
        self.walk_equals_scan(*state_and_node)

    def test_pivots_past_lane_0_below_a_prefix(self, monkeypatch):
        """Nodes 1 and 2 read 0 in coordinate 0 and node 4 repeats node 3.
        Pivots are recorded in the order found, each counted in the lanes
        still left: node 1's are lanes 1 and 1 (coordinates 1 and 2), and
        below it node 2's reduced block, 4 lanes wide, still reads 0 in
        lane 0, so its pivots are lanes 1 and 1 too and the walk cuts
        lanes past lane 0 there; node 3's block below (1, 2) pivots on
        lane 0 twice. It returns the scan's witness, (1, 3, 4)."""
        nodes = [list(node) for node in self.HEALTHY]
        for v in (0, 1):
            nodes[v] = [(0,) + col[1:] for col in nodes[v]]
        nodes[3] = nodes[2]
        state = code_state(13, 3, nodes)
        real, seen = gfalg.quotient, []
        monkeypatch.setattr(gfalg, "quotient", lambda basis, vectors, q: (
            seen.append([p for p, _ in basis]) or real(basis, vectors, q)))
        assert verify_rcp(state) == reference_rcp(state.columns, 6, 3, 6, 13) \
            == (False, (1, 3, 4))
        assert seen[:3] == [[1, 1], [1, 1], [0, 0]]


class TestInitCode:
    def test_init_holds_rcp(self):
        state, attempts = init_code(fixture_spec("tandem-n4"), 73, rng=random.Random(7))
        assert verify_rcp(state)[0]
        assert attempts >= 1

    def test_requires_minimum_storage(self):
        # alpha != M/k
        spec = build_topology("star", 6, k=3, M=9, alpha=2, center=2, failed=1)
        with pytest.raises(TopologyError, match="minimum-storage"):
            init_code(spec, 73, rng=random.Random(0))

    def test_retry_exhaustion(self):
        class ZeroRandom(random.Random):
            def getrandbits(self, k):
                return 0

        with pytest.raises(RetryExhaustedError):
            init_code(fixture_spec("tandem-n4"), 73, rng=ZeroRandom(), retries=3)

    def test_work_budget(self, monkeypatch):
        """C(n, k) * M_s^3 against the budget, in code_field before any
        prime search, and so before a code is drawn: tandem n4 is refused
        at M_s = 1000 (6e9) and runs at 500 (7.5e8), and grid 3x3 k4 at
        scale 5, the largest code the benchmark draws, is far below it
        (126 * 40^3, about 8.1e6). A field bound past the Miller-Rabin
        bound gets the budget's message, not a primality refusal."""
        assert coder.WORK_BUDGET == 10**9
        real, searched = gfalg.smallest_prime_geq, []
        monkeypatch.setattr(gfalg, "smallest_prime_geq",
                            lambda x: searched.append(x) or real(x))
        with pytest.raises(ValueError, match=r"^code too large to check: C\(4, 2\) = 6 subsets "
                           r"of nodes that store 500 subfragments each of a file of 1000 take "
                           r"about 6\.0e\+09 lane operations, past the budget of 1e\+09$"):
            code_field(4, 2, 1000, 4)
        big = build_topology("tandem", 4, k=2, M=10**25, failed=4)
        with pytest.raises(ValueError, match=r"code too large to check: .* 6\.0e\+75"):
            run_repair(big, seed=0)
        with pytest.raises(ValueError, match="code too large to check"):
            simulate_stages(big, 1, seed=0)
        assert searched == []
        assert code_field(4, 2, 500, 4) == (12_000, 12_007)
        assert code_field(9, 4, 40, 9) == (45_360, 45_361)
        assert searched == [12_001, 45_361]


class TestRegenerate:
    def test_plan_state_mismatches(self):
        spec = fixture_spec("tandem-n4")
        plan = make_plan(spec)
        state, _ = init_code(spec, 73, rng=random.Random(1))
        with pytest.raises(ValueError, match="granularity"):
            regenerate(state, replace(plan, scale=2), rng=random.Random(1))

    def test_underfed_plan_rejected(self):
        spec = fixture_spec("tandem-n4")
        plan = make_plan(spec)
        state, _ = init_code(spec, 73, rng=random.Random(1))
        with pytest.raises(ValueError, match="plan delivers 1 subfragments"):
            regenerate(state, replace(plan, counts=(0, 2, 1)), rng=random.Random(1))

    @pytest.mark.parametrize("name", ["tandem-n4", "grid-2x3"])
    def test_plan_runs_at_the_state_scale(self, name):
        """A plan at scale s on a state at scale 2s repairs exactly as the
        same plan restated at 2s: the same state in as many attempts."""
        spec = fixture_spec(name)
        plan = make_plan(spec)
        scale = 2 * plan.scale
        doubled = replace(plan, counts=tuple(2 * c for c in plan.counts), scale=scale)
        _, q = code_field(spec.n, spec.k, int(spec.M * scale), plan.n_nc)
        state, _ = init_code(spec, q, rng=random.Random(7), scale=scale)
        for seed in range(3):
            assert regenerate(state, plan, rng=random.Random(seed)) == \
                regenerate(state, doubled, rng=random.Random(seed))


class TestPipeline:
    def test_run_repair_deterministic(self):
        a = run_repair(fixture_spec("tandem-n4"), seed=5)
        b = run_repair(fixture_spec("tandem-n4"), seed=5)
        assert a == b
        assert a["rcp_ok"] and a["achieved_cost"] == a["lp_value"] == 4

    def test_run_repair_nonunit_costs(self):
        report = run_repair(fixture_spec("complete-n5-cost3"), seed=3)
        assert report["rcp_ok"]
        assert report["achieved_cost"] == report["lp_value"] == 9

    def test_fractional_optimum_is_executable(self):
        report = run_repair(fixture_spec("star-n6"), seed=2)
        assert report["rcp_ok"]
        assert report["scale"] == 3
        assert report["achieved_cost"] == Fraction(14, 3)


def planner_networks(n):
    """Every generated network on n nodes: each kind, star centres 1 and n,
    every grid shape, k in {2, n - 2}, d in {n - 1, k}, at alpha 2, M 2k."""
    shapes = [("tandem", {}), ("complete", {}), ("star", {"center": 1}),
              ("star", {"center": n})]
    shapes += [("grid", {"rows": r, "cols": n // r}) for r in range(1, n + 1) if n % r == 0]
    for kind, shape in shapes:
        for k in sorted({2, n - 2}):
            for d in sorted({n - 1, k}):
                yield kind, dict(shape, k=k, d=d, M=2 * k, alpha=2)


def planned(fn, spec):
    """fn(spec), or the type and message of the refusal it raises."""
    try:
        return fn(spec)
    except (TopologyError, LPError) as exc:
        return type(exc), str(exc)


def assert_plans_agree(kind, n, options):
    """bounds reads make_plan's optimum or gives its refusal; simulate skips
    exactly the positions make_plan refuses, and with none left gives the
    refusal at the spec's own failure, as code does. Returns the refused
    positions."""
    specs = {f: build_topology(kind, n, failed=f, **options) for f in range(1, n + 1)}
    plans = {f: planned(lambda s: make_plan(s).lp_value, spec) for f, spec in specs.items()}
    for f, spec in specs.items():
        assert planned(lambda s: compare_lp_to_bounds(s).sigma_opt, spec) == plans[f]
    refused = {f: plan for f, plan in plans.items() if isinstance(plan, tuple)}
    if len(refused) == n:
        error, message = refused[n]
        with pytest.raises(error) as info:
            simulate_stages(specs[n], 1, seed=0)
        assert str(info.value) == message
    else:
        _, skipped = simulate_stages(specs[n], 1, seed=0)
        assert skipped == {f: message for f, (_, message) in refused.items()}, (kind, options)
    return refused


@pytest.mark.parametrize("n", [4, 5, 6])
def test_bounds_and_simulate_plan_as_make_plan_does(n):
    for kind, options in planner_networks(n):
        assert_plans_agree(kind, n, options)


@pytest.mark.parametrize("n, options", [(4, {"alpha": 1}), (13, {"alpha": 2})])
def test_simulate_refused_everywhere_gives_codes_error(n, options):
    """Off the minimum-storage point, or past the enumerator's cap, every
    position is refused."""
    assert len(assert_plans_agree("tandem", n, dict(options, k=2, M=4))) == n


class TestSimulation:
    def test_stage_count_and_rcp(self):
        reports, _ = simulate_stages(fixture_spec("tandem-n4"), 5, seed=11)
        assert len(reports) == 5
        assert all(r["rcp_ok"] for r in reports)
        assert all(r["achieved_cost"] == r["lp_value"] for r in reports)

    def test_fractional_stages_share_one_field(self):
        reports, _ = simulate_stages(fixture_spec("grid-2x3"), 3, seed=4)
        assert len({r["q"] for r in reports}) == 1
        assert all(r["rcp_ok"] for r in reports)

    def test_one_field_search_for_all_stages(self, monkeypatch):
        """Plans choose no field; simulate chooses one, from n_nc <= n."""
        real, searched = gfalg.smallest_prime_geq, []
        monkeypatch.setattr(gfalg, "smallest_prime_geq",
                            lambda x: searched.append(x) or real(x))
        spec = build_topology("grid", 6, k=3, M=6, alpha=2, rows=2, cols=3)
        reports, _ = simulate_stages(spec, 10, seed=0)
        assert searched == [reports[0]["d0"] + 1]

    def test_needs_a_stage(self):
        with pytest.raises(ValueError, match="at least one stage"):
            simulate_stages(fixture_spec("tandem-n4"), 0, seed=0)


class TestRetryContract:
    """regenerate redraws until verify_rcp passes, so no caller checks the
    state it returns again."""

    @staticmethod
    def fail_after(monkeypatch, passes, failures):
        """Let the first `passes` RCP checks run, fail the next `failures`."""
        real, calls = coder.verify_rcp, []

        def verify(state, *rest):
            calls.append(state)
            if passes < len(calls) <= passes + failures:
                return False, (1, 2)
            return real(state)

        monkeypatch.setattr(coder, "verify_rcp", verify)
        return calls

    def test_regenerate_retries_until_rcp_holds(self, monkeypatch):
        spec = fixture_spec("tandem-n4")
        plan = make_plan(spec)
        state, _ = init_code(spec, 73, rng=random.Random(1))
        calls = self.fail_after(monkeypatch, 0, 2)
        repaired, attempts = regenerate(state, plan, rng=random.Random(1))
        assert attempts == 3 and len(calls) == 3
        assert verify_rcp(repaired) == (True, None)

    def test_regenerate_gives_up_after_retries(self, monkeypatch):
        spec = fixture_spec("tandem-n4")
        plan = make_plan(spec)
        state, _ = init_code(spec, 73, rng=random.Random(1))
        self.fail_after(monkeypatch, 0, 2)
        with pytest.raises(RetryExhaustedError):
            regenerate(state, plan, rng=random.Random(1), retries=2)

    def test_code_exits_1_when_repair_retries_run_out(self, monkeypatch):
        passes = run_repair(fixture_spec("tandem-n4"), seed=5)["init_attempts"]
        self.fail_after(monkeypatch, passes, 2)
        result = CliRunner().invoke(main, [
            "code", "--topology", "tandem", "--n", "4", "--k", "2", "--M", "4",
            "--alpha", "2", "--failed", "4", "--seed", "5", "--retries", "2"])
        assert result.exit_code == 1
        assert "repair failed RCP in 2 attempts" in result.stderr
        assert result.stdout == ""

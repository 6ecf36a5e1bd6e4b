"""The integer cut enumerator, the integer feasibility check and the
fraction-free dual simplex against the Fraction code they replaced (kept
in `oracles.py`): equal constraint sets, raw and reduced, in the same row
order, equal verdicts on every point, and equal LP solutions, pivots and
duals included."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from repairopt import lpcore
from repairopt.fixtures import FIXTURES, fixture_spec
from repairopt.flowgraph import (
    ConstraintSet,
    build_flow_graph,
    check_feasible,
    enumerate_cut_constraints,
)
from repairopt.lpcore import LPError, LPSolution, solve_min_cost
from repairopt.netmodel import TopologyError, build_topology, format_rational, spec_from_json
from oracles import reference_cuts, reference_dual_simplex, reference_feasible, reference_reduce


def assert_matches_reference(spec, raw_lp=True):
    """Raw and reduced cut sets equal the reference's, and so do the LP
    solutions over the reduced set and, with raw_lp, over the raw one."""
    fg = build_flow_graph(spec)
    raw_rows, raw_rhs = reference_cuts(fg)
    raw = ConstraintSet(fg.edge_index, raw_rows, raw_rhs)
    reduced = ConstraintSet(fg.edge_index, *reference_reduce(raw_rows, raw_rhs))
    assert enumerate_cut_constraints(fg, reduce=False) == raw
    assert enumerate_cut_constraints(fg) == reduced
    costs = [spec.cost.cost(i, j) for (i, j) in fg.edge_index]
    for cs in (reduced, raw) if raw_lp else (reduced,):
        assert solve_min_cost(cs, costs) == LPSolution(
            *reference_dual_simplex(cs.rows, cs.rhs, costs))


def net(kind, n, k, M, alpha, **shape):
    return dict(kind=kind, n=n, k=k, M=M, alpha=alpha, **shape)


# the benchmark's networks, as its solve-ladder and cuts-n12 workloads run
# them: (network, failure positions)
NETWORKS = {
    "tandem-n4": (net("tandem", 4, 2, 4, 2), None),
    "grid-2x3": (net("grid", 6, 4, 8, 2, rows=2, cols=3), None),
    "complete-n5": (net("complete", 5, 3, 6, 2), None),
    "star-n6": (net("star", 6, 3, 6, 2, center=2), None),
    "star-n6-M9": (net("star", 6, 3, 9, 3, center=2), None),
    "grid-3x3-k4": (net("grid", 9, 4, 8, 2, rows=3, cols=3), None),
    "tandem-n6-k3": (net("tandem", 6, 3, 6, 2), None),
    "complete-n6-k3": (net("complete", 6, 3, 6, 2), None),
    "tandem-n8-k4": (net("tandem", 8, 4, 8, 2), None),
    "complete-n9-k4": (net("complete", 9, 4, 8, 2), (9,)),
    "grid-3x4-k5": (net("grid", 12, 5, 10, 2, rows=3, cols=4), None),
    "tandem-n12-k5": (net("tandem", 12, 5, 10, 2), None),
    "star-n12-k5": (net("star", 12, 5, 10, 2, center=1), None),
}
POSITIONS = [pytest.param(name, f, id=f"{name}@{f}")
             for name, (shape, fails) in NETWORKS.items()
             for f in (fails or range(1, shape["n"] + 1))]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixtures(name):
    assert_matches_reference(fixture_spec(name))


@pytest.mark.parametrize("name, failed", POSITIONS)
def test_benchmark_positions(name, failed):
    shape = dict(NETWORKS[name][0])
    spec = build_topology(shape.pop("kind"), shape.pop("n"), failed=failed, **shape)
    # the reference LP over raw n = 12 cut sets takes about a second each
    assert_matches_reference(spec, raw_lp=spec.n < 12)


def test_fixtures_under_blands_rule_throughout(monkeypatch):
    monkeypatch.setattr(lpcore, "_DEGENERATE_RUN_PER_ROW", 0)
    for name in sorted(FIXTURES):
        spec = fixture_spec(name)
        cs = enumerate_cut_constraints(build_flow_graph(spec))
        costs = [spec.cost.cost(i, j) for (i, j) in cs.edge_index]
        assert solve_min_cost(cs, costs) == LPSolution(*reference_dual_simplex(
            cs.rows, cs.rhs, costs, degenerate_run_per_row=0)), name


@st.composite
def small_specs(draw):
    kind = draw(st.sampled_from(("tandem", "star", "grid", "complete")))
    rows = cols = center = None
    if kind == "grid":
        rows, cols = draw(st.sampled_from(((2, 2), (2, 3), (3, 2), (2, 4))))
        n = rows * cols
    else:
        n = draw(st.integers(3, 7))
    if kind == "star":
        center = draw(st.integers(1, n))
    k = draw(st.integers(1, n - 1))
    d = draw(st.integers(k, n - 1))
    M = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 3)))
    alpha = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 3)))
    try:
        return build_topology(kind, n, k=k, d=d, M=M, alpha=alpha,
                              failed=draw(st.integers(1, n)), center=center,
                              rows=rows, cols=cols)
    except TopologyError:
        assume(False)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(small_specs())
# alpha > M/k; fractional alpha; M/alpha not an integer; d < n-1
@example(build_topology("complete", 6, k=3, M=6, alpha=3, failed=6))
@example(build_topology("grid", 6, k=3, M=7, alpha="5/2", rows=2, cols=3, failed=2))
@example(build_topology("star", 7, k=3, M="13/2", alpha="3/2", center=1, failed=7))
@example(build_topology("complete", 7, k=3, d=4, M=6, alpha=2, failed=7))
# k = 1: the collector holds no helper, and the only row is the link into nu
@example(build_topology("tandem", 3, k=1, M=1, alpha=1, failed=1))
# alpha < M/k: raw rows at four crossing counts, reduced to the empty row at
# c = k and the rows at c = k - 1
@example(build_topology("grid", 6, k=3, M=6, alpha=1, rows=2, cols=3, failed=6))
# d = k on the grid: the rows reduce to one empty row at c = k - 1
@example(build_topology("grid", 6, k=4, d=4, M=8, alpha=2, rows=2, cols=3, failed=6))
def test_small_specs(spec):
    try:
        build_flow_graph(spec)
    except TopologyError:
        assume(False)
    assert_matches_reference(spec)


@st.composite
def custom_documents(draw):
    """`--spec` documents no generator writes: an acyclic digraph on n <= 7
    nodes in any orientation (each pair linked or not, along a drawn
    order), link costs 0 to 4 in halves, any helpers among the survivors
    that reach the failed node, at the minimum-storage point or off it."""
    n = draw(st.integers(3, 7))
    order = draw(st.permutations(range(1, n + 1)))
    cost = [["0" if i == j else "inf" for j in range(1, n + 1)] for i in range(1, n + 1)]
    links = []
    for a, b in combinations(order, 2):
        if draw(st.booleans()):
            links.append((a, b))
            cost[a - 1][b - 1] = format_rational(Fraction(draw(st.integers(0, 8)), 2))
    # a failed node that no link enters has no helper
    receivers = sorted({j for _, j in links})
    assume(receivers)
    failed = draw(st.sampled_from(receivers))
    reach = {failed}
    for v in reversed(order):
        if any(i == v and j in reach for i, j in links):
            reach.add(v)
    helpers = draw(st.lists(st.sampled_from(sorted(reach - {failed})), min_size=1,
                            max_size=len(reach) - 1, unique=True))
    k = draw(st.integers(1, len(helpers)))
    alpha = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 2)))
    M = k * alpha if draw(st.booleans()) else Fraction(draw(st.integers(1, 12)),
                                                      draw(st.integers(1, 3)))
    return {"n": n, "k": k, "d": len(helpers), "alpha": format_rational(alpha),
            "M": format_rational(M), "failed": failed, "helpers": helpers, "cost": cost}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(custom_documents())
# a zero-cost link into the failed node and a helper that relays for another
@example({"n": 4, "k": 2, "d": 3, "alpha": "2", "M": "4", "failed": 4, "helpers": [3, 1, 2],
          "cost": [["0", "1/2", "inf", "3"], ["inf", "0", "inf", "0"],
                   ["inf", "inf", "0", "2"], ["inf", "inf", "inf", "0"]]})
def test_custom_specs(doc):
    spec = spec_from_json(doc)
    assert spec.kind == "custom"
    try:
        build_flow_graph(spec)
    except TopologyError:
        assume(False)
    assert_matches_reference(spec)


integer_systems = st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.lists(st.tuples(st.lists(st.integers(-1, 2), min_size=m, max_size=m),
                       st.fractions(-3, 6, max_denominator=4)), max_size=6),
    st.lists(st.fractions(0, 5, max_denominator=3), min_size=m, max_size=m),
    st.just(m)))


@settings(max_examples=150, deadline=None)
@given(integer_systems, st.sampled_from((0, 1)))
def test_integer_systems(system, run_per_row):
    """Rows with negative entries, fractional rhs and costs, and Bland's
    rule from the first pivot or after a degenerate run."""
    rows, costs, m = system
    cs = ConstraintSet(tuple((i, m + 1) for i in range(1, m + 1)),
                       tuple(tuple(r) for r, _ in rows), tuple(b for _, b in rows))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lpcore, "_DEGENERATE_RUN_PER_ROW", run_per_row)
        assert solve_min_cost(cs, costs) == LPSolution(*reference_dual_simplex(
            cs.rows, cs.rhs, costs, degenerate_run_per_row=run_per_row))


def test_fractional_row_entries_rejected():
    cs = ConstraintSet(((1, 2),), ((Fraction(1, 2),),), (Fraction(1),))
    with pytest.raises(LPError):
        solve_min_cost(cs, [1])


@st.composite
def feasibility_cases(draw):
    """(rows, rhs, z): rows with negative integer entries, z with zero,
    negative and fractional entries given as ints or as Fractions, and
    each rhs either drawn freely or offset from its row's value at z by a
    small step, so the verdict often turns on a tie or on a sixth."""
    m = draw(st.integers(0, 5))
    z = draw(st.lists(st.fractions(-1, 4, max_denominator=6), min_size=m, max_size=m))
    if draw(st.booleans()):
        z = [v.numerator // v.denominator for v in z]   # all ints
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m), max_size=6))
    rhs = []
    for row in rows:
        if draw(st.booleans()):
            rhs.append(draw(st.fractions(-4, 6, max_denominator=6)))
        else:
            at_z = sum((c * Fraction(v) for c, v in zip(row, z)), Fraction(0))
            rhs.append(at_z + draw(st.sampled_from((0, 0, Fraction(1, 6), Fraction(-1, 6), 1))))
    return tuple(map(tuple, rows)), tuple(rhs), z


@settings(max_examples=400, deadline=None)
@given(feasibility_cases())
@example(((), (), []))
@example(((), (), [Fraction(1, 2), 3]))
@example((((1, -1),), (Fraction(1, 3),), [Fraction(1, 2), Fraction(1, 6)]))
@example((((1, -1),), (Fraction(1, 3),), [Fraction(1, 2), Fraction(1, 5)]))
@example((((1, 1),), (Fraction(-1),), [0, -1]))
def test_check_feasible(case):
    rows, rhs, z = case
    cs = ConstraintSet(tuple((i, len(z) + 1) for i in range(1, len(z) + 1)), rows, rhs)
    assert check_feasible(cs, z) == reference_feasible(rows, rhs, z)

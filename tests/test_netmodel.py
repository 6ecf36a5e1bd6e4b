import copy
import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repairopt.fixtures import FIXTURES, fixture_spec
from repairopt.netmodel import (
    CostMatrix,
    NetworkSpec,
    TopologyError,
    baseline_cost,
    build_topology,
    format_rational,
    parse_rational,
    respec_failure,
    spec_from_json,
    spec_to_json,
    topological_order,
)
from oracles import all_paths_min_cost


class TestRationals:
    def test_parse_basic(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational(5) == Fraction(5)
        assert parse_rational("inf") is None
        assert parse_rational(None) is None

    def test_parse_rejects_garbage(self):
        with pytest.raises(TopologyError):
            parse_rational("three")
        with pytest.raises(TopologyError):
            parse_rational("1/0")

    @given(st.fractions())
    def test_roundtrip(self, x):
        assert parse_rational(format_rational(x)) == x

    def test_format_inf(self):
        assert format_rational(None) == "inf"


class TestCostMatrix:
    def test_rejects_cycle(self):
        with pytest.raises(TopologyError):
            CostMatrix(3, {(1, 2): Fraction(1), (2, 3): Fraction(1),
                           (3, 1): Fraction(1)})

    def test_rejects_negative(self):
        with pytest.raises(TopologyError):
            CostMatrix(2, {(1, 2): Fraction(-1)})

    def test_rejects_out_of_range(self):
        with pytest.raises(TopologyError):
            CostMatrix(2, {(1, 3): Fraction(1)})

    def test_diagonal_is_zero(self):
        cm = CostMatrix(3, {(1, 2): Fraction(2)})
        assert cm.cost(2, 2) == 0
        assert cm.cost(2, 1) is None
        assert cm.cost(1, 2) == 2

    def test_neighbour_queries(self):
        cm = CostMatrix(4, {(1, 2): Fraction(1), (3, 2): Fraction(1),
                            (2, 4): Fraction(1)})
        assert cm.edges() == [(1, 2), (2, 4), (3, 2)]
        assert sorted(i for (i, j) in cm.edges() if j == 2) == [1, 3]

    def test_to_rows_uses_inf(self):
        cm = CostMatrix(2, {(1, 2): Fraction(1, 2)})
        assert cm.to_rows() == [["0", "1/2"], ["inf", "0"]]


class TestTopologies:
    def test_tandem_orientation(self):
        spec = build_topology("tandem", 4, k=2, M=4, alpha=2, failed=4)
        assert spec.cost.edges() == [(1, 2), (2, 3), (3, 4)]

    def test_tandem_interior_failure_orients_both_ways(self):
        spec = build_topology("tandem", 4, k=2, M=4, alpha=2, failed=2)
        assert spec.cost.edges() == [(1, 2), (3, 2), (4, 3)]

    def test_star_excludes_outward_center_links(self):
        spec = build_topology("star", 6, k=3, M=6, alpha=2, center=2, failed=1)
        assert spec.cost.edges() == [(2, 1), (3, 2), (4, 2), (5, 2), (6, 2)]

    def test_grid_edges(self):
        spec = build_topology("grid", 6, k=4, M=8, alpha=2, rows=2, cols=3,
                              failed=6)
        assert spec.cost.edges() == [(1, 2), (1, 4), (2, 3), (2, 5), (3, 6),
                                     (4, 5), (5, 6)]

    def test_complete_edge_count(self):
        spec = build_topology("complete", 5, k=3, M=6, alpha=2, failed=5)
        assert len(spec.cost.edges()) == 10
        # every edge oriented toward the failure or by id among survivors
        for (i, j) in spec.cost.edges():
            assert j == 5 or i < j

    # (kind, n, params, undirected links) of every generator with n <= 12
    NETWORKS = ([("tandem", n, {}, n - 1) for n in range(3, 13)]
                + [("star", n, {"center": c}, n - 1)
                   for n in range(3, 13) for c in range(1, n + 1)]
                + [("grid", r * c, {"rows": r, "cols": c}, r * (c - 1) + c * (r - 1))
                   for r, c in ((2, 3), (3, 3), (3, 4))]
                + [("complete", n, {}, n * (n - 1) // 2) for n in range(3, 13)])

    def test_every_link_oriented_at_every_failure(self):
        """Each generated network is connected, so orienting it toward any
        failed node keeps every link and lets every node reach that node."""
        for kind, n, params, links in self.NETWORKS:
            for failed in range(1, n + 1):
                spec = build_topology(kind, n, k=1, M=1, failed=failed, **params)
                assert len(spec.cost.edges()) == links, (kind, params, failed)
                assert len(spec.cost.costs_to(failed)) == n, (kind, params, failed)

    def test_overrides_apply_either_endpoint_order(self):
        spec = build_topology("complete", 5, k=3, M=6, alpha=2, failed=5,
                              overrides={(5, 1): Fraction(3)})
        assert spec.cost.cost(1, 5) == 3

    def test_grid_needs_dimensions(self):
        with pytest.raises(TopologyError):
            build_topology("grid", 6, k=4, M=8, rows=2, cols=2, failed=6)

    @pytest.mark.parametrize("kind, shape, message", [
        ("tandem", {"rows": 7}, "only a grid"),
        ("complete", {"cols": 2}, "only a grid"),
        ("star", {"center": 1, "rows": 2, "cols": 2}, "only a grid"),
        ("tandem", {"center": 2}, "only a star"),
        ("grid", {"center": 1, "rows": 2, "cols": 2}, "only a star")])
    def test_shape_options_of_another_kind_are_refused(self, kind, shape, message):
        with pytest.raises(TopologyError, match=message):
            build_topology(kind, 4, k=2, M=4, **shape)
        own = {key: value for key, value in shape.items()
               if kind == ("star" if key == "center" else "grid")}
        assert build_topology(kind, 4, k=2, M=4, **own).params == tuple(own.items())

    def test_unknown_kind(self):
        with pytest.raises(TopologyError):
            build_topology("ring", 5, k=3, M=6)

    def test_alpha_defaults_to_msr(self):
        spec = build_topology("tandem", 4, k=2, M=4, failed=4)
        assert spec.alpha == 2
        spec.require_msr()


class TestSpecValidation:
    def test_helper_count_must_match_d(self):
        spec = build_topology("tandem", 4, k=2, M=4, alpha=2, failed=4)
        with pytest.raises(TopologyError):
            replace(spec, helpers=(1, 2), d=3)

    def test_failed_cannot_help(self):
        spec = build_topology("tandem", 4, k=2, M=4, alpha=2, failed=4)
        with pytest.raises(TopologyError):
            replace(spec, helpers=(2, 3, 4))

    def test_k_bounds(self):
        with pytest.raises(TopologyError):
            build_topology("tandem", 4, k=5, M=4, alpha=2, failed=4)

    def test_unreachable_helper_rejected(self):
        cm = CostMatrix(3, {(1, 3): Fraction(1)})
        with pytest.raises(TopologyError):
            NetworkSpec(n=3, k=2, d=2, alpha=Fraction(1), M=Fraction(2),
                        failed=3, helpers=(1, 2), cost=cm)


@st.composite
def dags(draw):
    """A random cost digraph: edges run from earlier to later positions of
    a random ordering of the nodes, with small rational costs."""
    n = draw(st.integers(1, 7))
    label = draw(st.permutations(range(1, n + 1)))
    costs = st.fractions(min_value=0, max_value=6, max_denominator=4)
    entries = {}
    for a in range(n):
        for b in range(a + 1, n):
            if draw(st.booleans()):
                entries[(label[a], label[b])] = draw(costs)
    return n, entries


def least_ready_order(n, edges):
    """Brute force: repeatedly place the least node whose predecessors are
    all placed."""
    order = []
    while len(order) < n:
        order.append(min(v for v in range(1, n + 1) if v not in order
                         and all(i in order for (i, j) in edges if j == v)))
    return order


class TestWalk:
    """topological_order, CostMatrix.costs_to and CostMatrix.reaching
    against brute force."""

    @settings(max_examples=200, deadline=None)
    @given(dags(), st.data())
    def test_costs_to_matches_path_enumeration(self, dag, data):
        n, entries = dag
        target = data.draw(st.integers(1, n))
        cm = CostMatrix(n, entries)
        got = cm.costs_to(target)
        for v in range(1, n + 1):
            assert got.get(v) == all_paths_min_cost(cm, v, target)  # missing exactly when no path

    @settings(max_examples=200, deadline=None)
    @given(dags(), st.data())
    def test_reaching_matches_path_enumeration(self, dag, data):
        """Over all links, or over a subset of them: the nodes with a path."""
        n, entries = dag
        target = data.draw(st.integers(1, n))
        links = [e for e in sorted(entries) if data.draw(st.booleans())]
        cm = CostMatrix(n, entries)
        sub = CostMatrix(n, {e: entries[e] for e in links})
        for got, graph in ((cm.reaching(target), cm), (cm.reaching(target, links), sub)):
            assert got == {v for v in range(1, n + 1)
                           if all_paths_min_cost(graph, v, target) is not None}

    @settings(max_examples=200, deadline=None)
    @given(dags())
    def test_order_is_least_ready_first(self, dag):
        n, entries = dag
        assert topological_order(range(1, n + 1), entries) == least_ready_order(n, entries)

    @settings(max_examples=200, deadline=None)
    @given(dags(), st.data())
    def test_back_edge_is_a_cycle(self, dag, data):
        n, entries = dag
        cm = CostMatrix(n, entries)
        paths = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
                 if u != v and all_paths_min_cost(cm, u, v) is not None]
        assume(paths)
        u, v = data.draw(st.sampled_from(paths))
        with pytest.raises(TopologyError):
            CostMatrix(n, {**entries, (v, u): Fraction(1)})

    def test_topology_costs_match_path_enumeration(self):
        for spec in map(fixture_spec, FIXTURES):
            dist = spec.cost.costs_to(spec.failed)
            for v in range(1, spec.n + 1):
                assert dist.get(v) == all_paths_min_cost(spec.cost, v, spec.failed)

    def test_unreachable_node_is_missing(self):
        spec = build_topology("tandem", 4, k=2, M=4, alpha=2, failed=4)
        assert spec.cost.costs_to(1) == {1: 0}
        assert spec.cost.costs_to(4) == {1: 3, 2: 2, 3: 1, 4: 0}


class TestBaseline:
    def test_tandem_baseline(self):
        spec = build_topology("tandem", 4, k=2, M=4, alpha=2, failed=4)
        assert baseline_cost(spec) == 6

    def test_grid_baseline(self):
        spec = build_topology("grid", 6, k=4, M=8, alpha=2, rows=2, cols=3,
                              failed=6)
        assert baseline_cost(spec) == 9

    def test_complete_cost3_baseline(self):
        spec = build_topology("complete", 5, k=3, M=6, alpha=2, failed=5,
                              overrides={(i, 5): Fraction(3) for i in range(1, 5)})
        assert baseline_cost(spec) == 12

    def test_needs_msr(self):
        spec = build_topology("tandem", 4, k=2, M=4, alpha=3, failed=4)
        with pytest.raises(TopologyError):
            baseline_cost(spec)


class TestRespecAndJson:
    def test_respec_moves_failure(self):
        spec = build_topology("tandem", 4, k=2, M=4, alpha=2, failed=4)
        moved = respec_failure(spec, 2)
        assert moved.failed == 2
        assert moved.cost.edges() == [(1, 2), (3, 2), (4, 3)]

    def test_respec_preserves_overridden_costs(self):
        spec = build_topology("complete", 5, k=3, M=6, alpha=2, failed=5,
                              overrides={(i, 5): Fraction(3) for i in range(1, 5)})
        moved = respec_failure(spec, 2)
        assert moved.cost.cost(5, 2) == 3
        assert moved.cost.cost(1, 2) == 1

    @pytest.mark.parametrize("kind, shape", [
        ("tandem", {}), ("star", {"center": 2}), ("grid", {"rows": 2, "cols": 3}),
        ("complete", {})])
    def test_respec_at_own_failure_is_the_spec(self, kind, shape):
        """At its own failure a spec keeps its helpers, even ones the
        generator would not choose."""
        spec = replace(build_topology(kind, 6, k=2, M=4, alpha=2, failed=3, **shape),
                       d=2, helpers=(5, 6))
        assert respec_failure(spec, spec.failed) is spec

    # (kind, n, shape) of every generator with 3 <= n <= 8: star centres 1
    # and n, every grid shape
    SHAPES = ([("tandem", n, {}) for n in range(3, 9)]
              + [("star", n, {"center": c}) for n in range(3, 9) for c in (1, n)]
              + [("grid", n, {"rows": r, "cols": n // r})
                 for n in range(3, 9) for r in range(1, n + 1) if n % r == 0]
              + [("complete", n, {}) for n in range(3, 9)])

    def test_respec_equals_the_generator_at_every_failure(self):
        """Moved to any failure, a generated spec with random link costs,
        and the same spec read back from its JSON, equal what the
        generator builds there."""
        rng = random.Random(25)
        costs = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
        for kind, n, shape in self.SHAPES:
            for d in sorted({2, n - 1}):
                overrides = {pair: rng.choice(costs) for pair in combinations(range(1, n + 1), 2)}
                at = dict(kind=kind, n=n, k=2, M=4, d=d, overrides=overrides, **shape)
                spec = build_topology(**at, failed=rng.randint(1, n))
                back = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
                assert back == spec
                for failed in range(1, n + 1):
                    built = build_topology(**at, failed=failed)
                    assert respec_failure(spec, failed) == built, (kind, n, shape, d, failed)
                    assert respec_failure(back, failed) == built, (kind, n, shape, d, failed)

    def test_respec_custom_only_in_place(self):
        cm = CostMatrix(3, {(1, 3): Fraction(1), (2, 3): Fraction(1)})
        spec = NetworkSpec(n=3, k=2, d=2, alpha=Fraction(1), M=Fraction(2),
                           failed=3, helpers=(1, 2), cost=cm)
        assert respec_failure(spec, 3) is spec
        with pytest.raises(TopologyError):
            respec_failure(spec, 1)

    def test_json_roundtrip(self):
        spec = build_topology("grid", 6, k=4, M=8, alpha=2, rows=2, cols=3,
                              failed=6)
        doc = json.loads(json.dumps(spec_to_json(spec)))
        back = spec_from_json(doc)
        assert back.n == spec.n and back.k == spec.k and back.d == spec.d
        assert back.alpha == spec.alpha and back.M == spec.M
        assert back.failed == spec.failed and back.helpers == spec.helpers
        assert back.cost == spec.cost
        assert back.kind == "grid" and back.params == (("rows", 2), ("cols", 3))
        assert back == spec

    def test_json_without_kind_reads_as_custom(self):
        doc = spec_to_json(build_topology("star", 5, k=2, M=4, center=2, failed=1))
        del doc["kind"], doc["params"]
        back = spec_from_json(doc)
        assert back.kind == "custom" and back.params == ()
        assert back.cost.cost(2, 1) == 1 and back.helpers == (2, 3, 4, 5)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_json_keeps_kind_of_every_fixture(self, name):
        # non-unit link costs (complete-n5-cost3) carry over as overrides
        spec = fixture_spec(name)
        assert spec_from_json(json.loads(json.dumps(spec_to_json(spec)))) == spec

    @pytest.mark.parametrize("edit", ["added link", "flipped link", "dropped link",
                                      "wrong center", "extra param", "no params"])
    def test_json_whose_kind_does_not_generate_its_costs_reads_as_custom(self, edit):
        if edit == "flipped link":
            spec = build_topology("grid", 6, k=3, M=6, rows=2, cols=3, failed=6)
        else:
            spec = build_topology("star", 5, k=2, M=4, center=2, failed=1)
        doc = spec_to_json(spec)
        cost = doc["cost"]
        if edit == "added link":
            cost[2][0] = "1"           # 3 -> 1 besides 3 -> 2 -> 1
        elif edit == "flipped link":
            cost[2][1], cost[1][2] = "1", "inf"    # 2 -> 3 becomes 3 -> 2
        elif edit == "dropped link":
            cost[4][1] = "inf"         # 5 -> 2 removed; 5 cannot help
            doc.update(d=3, helpers=[2, 3, 4])
        elif edit == "wrong center":
            doc["params"] = {"center": 3}
        elif edit == "extra param":
            doc["params"] = {"center": 2, "rows": 1}
        else:
            del doc["params"]
        back = spec_from_json(doc)
        assert back.kind == "custom" and back.params == ()
        assert back.cost.to_rows() == cost

    def test_json_of_two_nodes_reads_as_custom(self):
        """The generator refuses n < 3, so a two-node line is no tandem."""
        doc = {"n": 2, "k": 1, "d": 1, "alpha": "1", "M": "1", "failed": 2, "helpers": [1],
               "cost": [["0", "1"], ["inf", "0"]], "kind": "tandem", "params": {}}
        back = spec_from_json(doc)
        assert back.kind == "custom" and back.params == ()

    def test_json_grid_params_in_any_order_keep_the_kind(self):
        doc = spec_to_json(build_topology("grid", 6, k=3, M=6, rows=2, cols=3, failed=6))
        doc["params"] = {"cols": 3, "rows": 2}
        back = spec_from_json(doc)
        assert back.kind == "grid" and dict(back.params) == {"rows": 2, "cols": 3}

    @pytest.mark.parametrize("change", [
        {"cost": 5}, {"helpers": None}, {"alpha": "inf"}, {"n": None},
        {"params": [1]}, {"kind": "ring"}, {"n": float("inf")}, {"failed": 3.5},
        {"helpers": [1, 2, True]}, {"alpha": True}, {"M": False},
        {"cost": [["0", True, "inf", "inf"], ["inf", "0", "1", "inf"],
                  ["inf", "inf", "0", "1"], ["inf", "inf", "inf", "0"]]},
        {"helpers": "123"}, {"helpers": {"1": 0, "2": 0, "3": 0}}, {"params": []}])
    def test_json_malformed_field(self, change):
        doc = spec_to_json(build_topology("tandem", 4, k=2, M=4, failed=4))
        with pytest.raises(TopologyError):
            spec_from_json({**doc, **change})

    def test_json_not_an_object(self):
        doc = spec_to_json(build_topology("tandem", 4, k=2, M=4, failed=4))
        with pytest.raises(TopologyError):
            spec_from_json([doc])

    def test_json_missing_field(self):
        with pytest.raises(TopologyError):
            spec_from_json({"n": 3})


# JSON values, with the numbers json.loads also reads (NaN, Infinity) and
# strings that parse_rational treats specially
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.floats() | st.text(max_size=4)
    | st.sampled_from([float("inf"), float("nan"), 2.5, "inf", "1/0", "2/3", "-1",
                       "1e400", "0", "5"]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)

DOCUMENTS = [spec_to_json(spec) for spec in (
    build_topology("tandem", 4, k=2, M=4, failed=4),
    build_topology("star", 5, k=2, M=4, center=2, failed=1),
    build_topology("grid", 6, k=3, M=6, rows=2, cols=3, failed=6),
    build_topology("complete", 4, k=2, M=4, failed=2))]


@st.composite
def spec_documents(draw):
    """A generated document with some fields, cost cells, helpers or
    params dropped or replaced by other JSON values; or any JSON value."""
    if draw(st.booleans()):
        return draw(JSON_VALUES)
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(sorted(doc) + ["cell", "helper", "param"]))
        value = draw(JSON_VALUES)
        if target == "cell" and isinstance(doc.get("cost"), list) and doc["cost"]:
            row = draw(st.sampled_from(doc["cost"]))
            if isinstance(row, list) and row:
                row[draw(st.integers(0, len(row) - 1))] = value
        elif target == "helper" and isinstance(doc.get("helpers"), list):
            doc["helpers"].append(value)
        elif target == "param" and isinstance(doc.get("params"), dict):
            doc["params"][draw(st.sampled_from(["center", "rows", "cols", "d"]))] = value
        elif target in doc and draw(st.booleans()):
            del doc[target]
        else:
            doc[target] = value
    return doc


class TestSpecDocumentFuzz:
    @settings(max_examples=400, deadline=None)
    @given(spec_documents())
    def test_document_reads_or_raises_topology_error(self, doc):
        try:
            spec = spec_from_json(doc)
        except TopologyError:
            return
        assert isinstance(spec, NetworkSpec)
        assert spec_from_json(json.loads(json.dumps(spec_to_json(spec)))) == spec

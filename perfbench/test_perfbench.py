"""Tests of the benchmark's own logic: percentile selection, self time of
nested spans, the answer gate's failure count, and the metric lists."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Span  # noqa: E402
from workloads import LINE_K, LINE_N, LINE_Q, Op, build_ops  # noqa: E402


def test_percentile_nearest_rank_and_samples_beyond():
    assert run.percentile(list(range(1, 101)), 0.9) == (90, 10)
    assert run.percentile(list(range(100, 0, -1)), 0.9) == (90, 10)
    assert run.percentile(list(range(99)), 0.9) == (89, 9)
    assert run.percentile([7.0], 0.9) == (7.0, 0)


def nested_spans():
    # cli [0,100] > coder.run_repair [10,60] > gfalg.mat_rank [20,30]
    #             > coder.verify_rcp [70,90]
    return [
        Span("cli", 0, 100, -1, 0),
        Span("coder.run_repair", 10, 60, 0, 0),
        Span("gfalg.mat_rank", 20, 30, 1, 0),
        Span("coder.verify_rcp", 70, 90, 0, 0),
    ]


def test_self_time_subtracts_direct_children_only():
    assert tracer.self_times(nested_spans()) == [30, 40, 10, 20]


def test_layer_metrics_sum_self_time_per_module():
    got = tracer.layer_metrics(nested_spans(), ["cli.self_s", "coder.self_s",
                                                "gfalg.mat_rank.calls",
                                                "coder.verify_rcp.self_s"])
    assert got == {"cli.self_s": 30e-9, "coder.self_s": 60e-9,
                   "gfalg.mat_rank.calls": 1, "coder.verify_rcp.self_s": 20e-9}


def exact_doc(t, message):
    value = sum(m * pow(t, e, LINE_Q) for e, m in enumerate(message)) % LINE_Q
    return json.dumps({"n": LINE_N, "k": LINE_K, "q": LINE_Q, "failed": t,
                       "k1": LINE_K // 2, "k2": LINE_K // 2, "message": message,
                       "restored": value, "expected": value, "exact": True,
                       "hop_count": LINE_K})


def test_fail_frac_counts_wrong_answers_and_unexpected_exit_codes():
    expected = {"bounds": {"net@1": "header\nrow"},
                "verify": {"net@1:empty": {"exit": 1, "feasible": False, "cost": "0"}}}
    infeasible = json.dumps({"feasible": False, "cost": "0"})
    ops = [Op("bounds", (), "net@1"), Op("bounds", (), "net@1"),
           Op("verify", (), "net@1:empty"), Op("verify", (), "net@1:empty"),
           Op("exact-repair", (), "line@3"), Op("exact-repair", (), "line@3")]
    outputs = [(0, "header\nrow\n"),                # right
               (0, "header\nother\n"),              # wrong answer
               (1, infeasible),                     # exits 1 by design
               (0, infeasible),                     # unexpected exit code
               (0, exact_doc(3, [1] * LINE_K)),     # right
               (1, exact_doc(3, [1] * LINE_K))]     # unexpected exit code
    failures = run.check_pass(ops, outputs, expected, audit=None)
    assert [index for index, _ in failures] == [1, 3, 5]
    assert len(failures) / len(ops) == 0.5


def test_malformed_output_is_a_failure():
    ops = [Op("exact-repair", (), "line@3")]
    failures = run.check_pass(ops, [(0, "{}")], {"verify": {}}, audit=None)
    assert len(failures) == 1 and "malformed" in failures[0][1]


def test_same_seed_same_ops():
    edges = json.loads((HERE / "expected.json").read_text())["edges"]
    for workload in ("solve-ladder", "cuts-n12", "code-sim"):
        ops = build_ops(workload, 3, edges)
        assert ops == build_ops(workload, 3, edges)
        assert len(ops) >= 100
    assert build_ops("code-sim", 3, edges) != build_ops("code-sim", 4, edges)


def test_every_op_has_an_expected_answer():
    expected = json.loads((HERE / "expected.json").read_text())
    section = {"solve": "lp", "code": "lp", "bounds": "bounds", "fixtures": "fixtures",
               "constraints": "cuts", "raw": "raw", "verify": "verify"}
    for workload in run.WORKLOADS:
        for op in build_ops(workload, 3, expected["edges"]):
            if op.kind in section:
                assert op.key in expected[section[op.kind]], (workload, op.key)
    verdicts = {(op.key.split("@")[0], op.key.split(":")[1])
                for op in build_ops("cuts-n12", 3, expected["edges"]) if op.kind == "verify"}
    nets = {net for net, _ in verdicts}
    assert verdicts == {(net, tag) for net in nets for tag in ("all-M", "empty")}


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tracer_wraps_every_binding_and_restores_it():
    sys.path.insert(0, str(HERE.parent / "src"))
    from repairopt import cli, coder, lpcore
    from repairopt.netmodel import build_topology

    original = lpcore.solve_min_cost
    spec = build_topology("tandem", 4, k=2, M=4, alpha=2, failed=4)
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.solve_min_cost is coder.solve_min_cost is lpcore.solve_min_cost
        assert lpcore.solve_min_cost is not original
        with t.op(0):
            report = coder.run_repair(spec, seed=1)
    finally:
        t.uninstall()
    assert cli.solve_min_cost is coder.solve_min_cost is lpcore.solve_min_cost is original
    names = {s.name for s in t.spans}
    assert {"cli", "coder.run_repair", "lpcore.solve_min_cost", "coder.verify_rcp",
            "gfalg.mat_rank", "flowgraph.enumerate_cut_constraints"} <= names
    [init] = [s for s in t.spans if s.name == "coder.init_code"]
    assert init.info["attempts"] == report["init_attempts"] and init.op == 0

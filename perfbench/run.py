"""Run one benchmark workload of the `repairopt` CLI and print its metrics.

    python3 perfbench/run.py --workload solve-ladder --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout: it imports the package from `src/`
and refuses to run without it. Each op is one CLI command, invoked in this
process through click's CliRunner with the argv a user would type. A pass
runs every op of the workload once; passes repeat until `--seconds` is
used up, and every op's answer is checked after each pass, outside the
timed region. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the metrics are
the end-to-end ones with `--trace 0` and the per-layer ones of a traced
run with `--trace 1`. A run record goes to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import answers
import tracer as tracing
from workloads import WORKLOADS, build_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
EXPECTED = HERE / "expected.json"
PROBES_PER_PASS = 6

# name -> unit; must match BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.ops": "count",
    "cli.self_s": "s",
    "netmodel.build_topology.calls": "count",
    "netmodel.build_topology.self_s": "s",
    "netmodel.baseline_cost.self_s": "s",
    "flowgraph.build_flow_graph.self_s": "s",
    "flowgraph.check_feasible.self_s": "s",
    "flowgraph.enumerate.calls": "count",
    "flowgraph.enumerate.self_s": "s",
    "flowgraph.partitions": "count",
    "flowgraph.rows_out": "count",
    "flowgraph.rows_per_partition": "ratio",
    "lpcore.solve.calls": "count",
    "lpcore.solve.self_s": "s",
    "lpcore.pivots": "count",
    "lpcore.rows_in": "count",
    "gfalg.mat_rank.calls": "count",
    "gfalg.mat_rank.self_s": "s",
    "gfalg.mat_solve.calls": "count",
    "gfalg.mat_solve.self_s": "s",
    "gfalg.smallest_prime_geq.self_s": "s",
    "coder.make_plan.self_s": "s",
    "coder.init_code.self_s": "s",
    "coder.init_code.attempts": "count",
    "coder.regenerate.self_s": "s",
    "coder.regenerate.attempts": "count",
    "coder.verify_rcp.calls": "count",
    "coder.verify_rcp.self_s": "s",
    "coder.rank_checks_per_rcp": "ratio",
    "coder.attempt_yield": "ratio",
    "coder.q_max": "elements",
    "coder.scale_max": "ratio",
    "exacttandem.init_vandermonde.self_s": "s",
    "exacttandem.exact_repair.calls": "count",
    "exacttandem.exact_repair.self_s": "s",
    "exacttandem.hops_per_repair": "count",
    "bounds.compare_lp_to_bounds.self_s": "s",
    "fixtures.run_fixture_suite.self_s": "s",
    "netmodel.self_s": "s",
    "flowgraph.self_s": "s",
    "lpcore.self_s": "s",
    "gfalg.self_s": "s",
    "coder.self_s": "s",
    "exacttandem.self_s": "s",
    "bounds.self_s": "s",
    "fixtures.self_s": "s",
    "trace.overhead_frac": "ratio",
}
# the per-layer metrics read from spans; trace.overhead_frac compares walls
SPAN_METRICS = [name for name in PER_LAYER if not name.startswith("trace.")]


def add_package() -> None:
    """Put the checkout's `src/` first on the import path."""
    if not (SRC / "repairopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no repairopt package under {SRC}")
    sys.path.insert(0, str(SRC))


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def set_up(workload: str, seed: int):
    """What every run pays before its first op: import click and the
    package, and generate the argv list."""
    add_package()
    from click.testing import CliRunner
    from repairopt.cli import main

    expected = json.loads(EXPECTED.read_text())
    ops = build_ops(workload, seed, expected["edges"])
    return CliRunner(env={"REPAIROPT_SEED": None}), main, expected, ops


def probe_setup(workload: str, seed: int) -> float:
    """Wall time of one fresh process that only sets up, in seconds.

    No timeout: waiting with one polls the child every 50 ms, which would
    round the measurement up to that step."""
    argv = [sys.executable, str(Path(__file__)), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank p-quantile of `values` and the number of samples ranked
    above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_pass(runner, cli, ops, tracer=None, probe=None):
    """Run every op once; returns (wall seconds, per-op seconds, outputs,
    set-up samples).

    With `probe`, a fresh set-up process runs before every
    len(ops)/PROBES_PER_PASS-th op, so the set-up samples spread over the
    run like the ops do. The pass wall is the sum of the op latencies,
    which leaves the probes out."""
    latencies, outputs, setups = [], [], []
    stride = math.ceil(len(ops) / PROBES_PER_PASS)
    for index, op in enumerate(ops):
        if probe is not None and index % stride == 0:
            setups.append(probe())
        start = time.perf_counter()
        if tracer is None:
            result = runner.invoke(cli, op.argv)
        else:
            with tracer.op(index):
                result = runner.invoke(cli, op.argv)
        latencies.append(time.perf_counter() - start)
        outputs.append((result.exit_code, result.stdout))
    return sum(latencies), latencies, outputs, setups


def check_pass(ops, outputs, expected, audit) -> list[tuple[int, str]]:
    """(op index, reason) for every op whose exit code or answer is wrong."""
    failures = []
    for index, (op, (exit_code, stdout)) in enumerate(zip(ops, outputs)):
        try:
            why = answers.check(op, exit_code, stdout, expected, audit)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            why = f"malformed output: {exc!r}"
        if why:
            failures.append((index, why))
    return failures


def write_spans(path: Path, passes: list[list]) -> None:
    """All traced spans as JSON lines: name, start, end, parent, op id."""
    origin = min((s.start for spans in passes for s in spans), default=0)
    with path.open("w") as fh:
        for number, spans in enumerate(passes):
            for ident, s in enumerate(spans):
                fh.write(json.dumps({
                    "pass": number, "id": ident, "name": s.name,
                    "start_ns": s.start - origin, "end_ns": s.end - origin,
                    "parent": s.parent if s.parent >= 0 else None, "op": s.op,
                    **s.info}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        set_up(args.workload, args.seed)
        return 0

    runner, cli, expected, ops = set_up(args.workload, args.seed)
    audit = answers.DualAudit()
    tracer = tracing.Tracer() if args.trace else None

    def probe() -> float:
        return probe_setup(args.workload, args.seed)

    walls = {False: [], True: []}   # pass wall times, untraced and traced
    pass_latencies: list[list[float]] = []  # per-op, untraced passes only
    setup_samples: list[float] = []
    failures: list[tuple[int, str]] = []
    mismatches: list[str] = []
    traced_spans: list[list] = []
    layer_runs: list[dict] = []
    attempted = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install()
        try:
            wall, lat, outputs, setups = run_pass(
                runner, cli, ops, tracer if traced else None,
                probe=None if args.trace else probe)
        finally:
            if traced:
                tracer.uninstall()
        pass_seconds = time.perf_counter() - pass_start
        walls[traced].append(wall)
        setup_samples += setups
        attempted += len(ops)
        pass_failures = check_pass(ops, outputs, expected, audit)
        failures += pass_failures
        if traced:
            spans = list(tracer.spans)
            tracer.spans.clear()
            traced_spans.append(spans)
            layer_runs.append(tracing.layer_metrics(spans, SPAN_METRICS))
            if not pass_failures:
                mismatches += tracing.cross_checks(spans, ops, outputs)
        else:
            pass_latencies.append(lat)
        del outputs
        # stop unless another pass like this one, with its probes, still
        # ends within --seconds. The check is left out of the estimate:
        # the first one enumerates the cut sets the dual audit needs (about
        # 2 s on solve-ladder), and later ones reuse them.
        now = time.perf_counter()
        done = bool(walls[True]) or not args.trace
        if done and (now - start) + pass_seconds > args.seconds:
            break

    latencies = [x for lat in pass_latencies for x in lat]
    p90, beyond = percentile(latencies, 0.9)
    if args.trace:
        untraced = statistics.median(walls[False])
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in SPAN_METRICS}
        metrics["trace.overhead_frac"] = (statistics.median(walls[True]) - untraced) / untraced
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(walls[False]),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": p90 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        write_spans(RESULTS / f"{stem}.spans.jsonl", traced_spans)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "ops_per_pass": len(ops), "passes": len(walls[False]) + len(walls[True]),
        "pass_walls_s": walls[False], "traced_pass_walls_s": walls[True],
        "setup_samples_s": setup_samples,
        "op_latencies_s": pass_latencies,
        "op_samples": len(latencies), "op_p90_samples_beyond": beyond,
        "attempted": attempted, "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": [f"{' '.join(ops[i].argv)}: {why}" for i, why in failures[:50]],
        "cross_check_mismatches": mismatches,
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for index, why in failures[:10]:
        print(f"FAIL {' '.join(ops[index].argv)}: {why}")
    for line in mismatches:
        print(f"CROSS-CHECK {line}")
    print(f"{args.workload} seed={args.seed} commit={record['commit'][:12]} "
          f"python={record['python']} nproc={record['nproc']} "
          f"passes={record['passes']} ops/pass={len(ops)}")
    print(f"op samples={len(latencies)}, {beyond} above op_p90_ms; "
          f"fail_frac={record['fail_frac']:.4f} ({len(failures)}/{attempted})")
    correct = not failures and not mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The answer gate: every op's output is checked against an expected answer.

Expected answers live in `expected.json`, written once by `record.py` from a
known-good commit. Seed-dependent ops (`code`, `simulate`, `exact-repair`)
are checked against seed-independent facts: the recorded LP value of the
network, and invariants of the report itself. Nothing here gates on LP
pivots or on the optimal vertex, which a correct solver may change.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from workloads import LINE_K, LINE_N, LINE_Q, NETS, SIM_STAGES, Op


def rows_digest(doc: dict) -> str:
    """Order-independent digest of a `constraints` output: its edge index
    plus the set of (row, rhs) pairs."""
    pairs = sorted(json.dumps([row, b]) for row, b in zip(doc["L"], doc["b"]))
    return hashlib.sha256(json.dumps([doc["edge_index"], pairs]).encode()).hexdigest()[:16]


def build_spec(key: str):
    """The NetworkSpec behind a `net@failed` key, built through the package."""
    from repairopt.netmodel import build_topology

    net, failed = key.split("@")
    kwargs = dict(NETS[net])
    kind, n = kwargs.pop("topology"), kwargs.pop("n")
    kwargs["M"], kwargs["alpha"] = str(kwargs["M"]), str(kwargs["alpha"])
    return build_topology(kind, n, failed=int(failed), **kwargs)


class DualAudit:
    """Checks a `solve` output with the package's independent audits:
    `verify_dual` on the dual, `check_feasible` and the cost on z. The cut
    set of each network is enumerated once and cached."""

    def __init__(self):
        self._cuts: dict[str, tuple] = {}

    def __call__(self, key: str, doc: dict) -> str | None:
        from repairopt.flowgraph import build_flow_graph, check_feasible, enumerate_cut_constraints
        from repairopt.lpcore import LPSolution, verify_dual

        if key not in self._cuts:
            spec = build_spec(key)
            cs = enumerate_cut_constraints(build_flow_graph(spec))
            costs = [spec.cost.cost(i, j) for (i, j) in cs.edge_index]
            self._cuts[key] = (cs, costs)
        cs, costs = self._cuts[key]
        if list(doc["z"]) != [f"{i}->{j}" for (i, j) in cs.edge_index]:
            return "z edge order differs from the cut set"
        z = [Fraction(v) for v in doc["z"].values()]
        value = Fraction(doc["value"])
        sol = LPSolution(doc["status"], value, tuple(z),
                         tuple(Fraction(y) for y in doc["dual"]), doc["pivots"])
        if not verify_dual(cs, costs, sol):
            return "dual certificate fails verify_dual"
        if not check_feasible(cs, z):
            return "z violates a cut"
        if sum(c * v for c, v in zip(costs, z)) != value:
            return "cost of z differs from the value"
        return None


def _stage_ok(stage: dict, lp: str | None) -> str | None:
    if stage.get("rcp_ok") is not True:
        return "rcp_ok is not true"
    if stage["achieved_cost"] != stage["lp_value"]:
        return f"achieved_cost {stage['achieved_cost']} != lp_value {stage['lp_value']}"
    if stage["lp_value"] != lp:
        return f"lp_value {stage['lp_value']} != recorded {lp}"
    return None


def _exact_ok(doc: dict, t: int) -> str | None:
    if not (doc["exact"] is True and doc["restored"] == doc["expected"]):
        return "repair is not exact"
    if doc["hop_count"] != LINE_K or doc["k1"] + doc["k2"] != LINE_K:
        return f"hop_count {doc['hop_count']} != k {LINE_K}"
    if (doc["n"], doc["k"], doc["q"], doc["failed"]) != (LINE_N, LINE_K, LINE_Q, t):
        return "report echoes other parameters"
    # node t stores the message polynomial evaluated at point t
    lost = sum(m * pow(t, e, LINE_Q) for e, m in enumerate(doc["message"])) % LINE_Q
    if doc["expected"] != lost:
        return "expected symbol is not the stored polynomial value"
    return None


def check(op: Op, exit_code: int, stdout: str, expected: dict,
          audit: DualAudit) -> str | None:
    """None if the op's exit code and output match its expected answer,
    else the reason it does not."""
    want_exit = expected["verify"][op.key]["exit"] if op.kind == "verify" else 0
    if exit_code != want_exit:
        return f"exit code {exit_code}, expected {want_exit}"
    if op.kind == "bounds":
        return None if stdout.strip() == expected["bounds"][op.key] else "bounds row differs"
    if op.kind == "fixtures":
        return None if stdout.strip() == expected["fixtures"][op.key] else "fixture table differs"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if op.kind == "solve":
        if doc["status"] != "optimal" or doc["value"] != expected["lp"][op.key]:
            return f"value {doc['value']} != recorded {expected['lp'][op.key]}"
        return audit(op.key, doc)
    if op.kind == "constraints":
        want = expected["cuts"][op.key]
        if len(doc["L"]) != want["rows"] or rows_digest(doc) != want["digest"]:
            return f"reduced rows differ ({len(doc['L'])} rows, recorded {want['rows']})"
        return None
    if op.kind == "raw":
        want = expected["raw"][op.key]
        return None if len(doc["L"]) == want else f"{len(doc['L'])} raw rows, recorded {want}"
    if op.kind == "verify":
        want = expected["verify"][op.key]
        if doc["feasible"] != want["feasible"] or doc["cost"] != want["cost"]:
            return "verdict or cost differs"
        return None
    if op.kind == "code":
        if doc["failed"] != int(op.key.split("@")[1]):
            return "report names another failed node"
        return _stage_ok(doc, expected["lp"][op.key])
    if op.kind == "simulate":
        if len(doc["stages"]) != SIM_STAGES:
            return f"{len(doc['stages'])} stages, expected {SIM_STAGES}"
        for stage in doc["stages"]:
            why = _stage_ok(stage, expected["lp"].get(f"{op.key}@{stage['failed']}"))
            if why:
                return f"stage {stage['stage']}: {why}"
        return None
    if op.kind == "exact-repair":
        return _exact_ok(doc, int(op.key.split("@")[1]))
    return f"unknown op kind {op.kind}"

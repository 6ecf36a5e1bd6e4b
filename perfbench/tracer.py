"""Spans around the package's public functions, placed from outside it.

`Tracer.install()` wraps every public function of every `repairopt`
module at every module binding that callers look it up through: the
defining module's own globals, the `from x import f` copies in other
modules, and the package's re-exports. `uninstall()` restores the
originals. Nothing in the package changes. Each CLI command run under
`Tracer.op()` is one `cli` span, the root of that op's spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("netmodel", "flowgraph", "lpcore", "gfalg", "coder", "exacttandem",
          "bounds", "fixtures")

# metric prefixes that shorten a function name
ALIASES = {
    "flowgraph.enumerate": "flowgraph.enumerate_cut_constraints",
    "lpcore.solve": "lpcore.solve_min_cost",
}


@dataclass
class Span:
    name: str
    start: int            # perf_counter_ns
    end: int
    parent: int           # index of the enclosing span, -1 at the root
    op: int | None        # index of the op in its pass
    info: dict = field(default_factory=dict)


def partitions(spec) -> int:
    """Vertex partitions the cut enumerator visits: C(d, k-1) * 2^(n-k) * 2."""
    return math.comb(len(spec.helpers), spec.k - 1) * 2 ** (spec.n - spec.k) * 2


def _enumerate_info(args, kwargs, result) -> dict:
    spec = (args[1] if len(args) > 1 else kwargs.get("spec")) or args[0].spec
    return {"rows_out": len(result.rows), "partitions": partitions(spec)}


# what a span keeps from its call's arguments and result, by function
INFO = {
    "lpcore.solve_min_cost":
        lambda a, kw, r: {"pivots": r.pivots, "rows_in": len(a[0].rows)},
    "flowgraph.enumerate_cut_constraints": _enumerate_info,
    "coder.init_code":
        lambda a, kw, r: {"attempts": r[1], "q": r[0].q, "scale": r[0].scale},
    "coder.regenerate": lambda a, kw, r: {"attempts": r[1]},
    "exacttandem.exact_repair": lambda a, kw, r: {"hops": r.hop_count},
}


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        info = INFO.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = Span(name, 0, 0, stack[-1] if stack else -1, self._op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap the public functions of every layer module at every binding."""
        import repairopt  # noqa: F401  (loads every module)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"repairopt.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != "repairopt" and not modname.startswith("repairopt."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    @contextmanager
    def op(self, index: int):
        """One CLI command: a root `cli` span whose descendants carry `index`."""
        self._op = index
        span = Span("cli", 0, 0, -1, index)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        try:
            yield
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
            self._op = None


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children, in ns.
    Spans of one thread nest, so the children never overlap."""
    child = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [span.end - span.start - child[i] for i, span in enumerate(spans)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], names: list[str]) -> dict[str, float]:
    """The per-layer metrics named in `names`, from one traced pass.

    `<module>.<function>.calls` and `.self_s` read the function's spans,
    `<module>.self_s` sums the self time of the module's functions, and the
    remaining names are counters and ratios taken from span info.
    """
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    totals: dict[str, int] = {}
    maxima: dict[str, int] = {}
    for span, own in zip(spans, self_times(spans)):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_ns[span.name] = self_ns.get(span.name, 0) + own
        module = span.name.split(".")[0]
        self_ns[module + ".*"] = self_ns.get(module + ".*", 0) + own
        for key, value in span.info.items():
            tag = f"{span.name}.{key}"
            totals[tag] = totals.get(tag, 0) + value
            maxima[tag] = max(maxima.get(tag, 0), value)
    rank_in_rcp = sum(1 for s in spans if s.name == "gfalg.mat_rank"
                      and s.parent >= 0 and spans[s.parent].name == "coder.verify_rcp")
    enum = ALIASES["flowgraph.enumerate"]
    solve = ALIASES["lpcore.solve"]
    coder_calls = calls.get("coder.init_code", 0) + calls.get("coder.regenerate", 0)
    coder_attempts = (totals.get("coder.init_code.attempts", 0)
                      + totals.get("coder.regenerate.attempts", 0))
    derived = {
        "cli.ops": calls.get("cli", 0),
        "cli.self_s": self_ns.get("cli", 0) / 1e9,
        "flowgraph.partitions": totals.get(f"{enum}.partitions", 0),
        "flowgraph.rows_out": totals.get(f"{enum}.rows_out", 0),
        "flowgraph.rows_per_partition": _ratio(totals.get(f"{enum}.rows_out", 0),
                                               totals.get(f"{enum}.partitions", 0)),
        "lpcore.pivots": totals.get(f"{solve}.pivots", 0),
        "lpcore.rows_in": totals.get(f"{solve}.rows_in", 0),
        "coder.init_code.attempts": totals.get("coder.init_code.attempts", 0),
        "coder.regenerate.attempts": totals.get("coder.regenerate.attempts", 0),
        "coder.rank_checks_per_rcp": _ratio(rank_in_rcp, calls.get("coder.verify_rcp", 0)),
        "coder.attempt_yield": _ratio(coder_calls, coder_attempts),
        "coder.q_max": maxima.get("coder.init_code.q", 0),
        "coder.scale_max": maxima.get("coder.init_code.scale", 0),
        "exacttandem.hops_per_repair": _ratio(totals.get("exacttandem.exact_repair.hops", 0),
                                              calls.get("exacttandem.exact_repair", 0)),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
            continue
        base, _, stat = name.rpartition(".")
        base = ALIASES.get(base, base)
        if stat == "calls":
            out[name] = calls.get(base, 0)
        elif stat == "self_s":
            out[name] = self_ns.get(base if "." in base else base + ".*", 0) / 1e9
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return out


def cross_checks(spans: list[Span], ops, outputs) -> list[str]:
    """Counters that must equal what the program itself reports: LP pivots
    against `solve` outputs, enumerated rows against `constraints` outputs,
    and coding attempts against `code` and `simulate` reports. Run it only
    on a pass whose ops all passed the answer gate."""

    def traced(name: str, key: str, kinds: tuple[str, ...]) -> int:
        return sum(s.info[key] for s in spans
                   if s.name == name and s.op is not None and ops[s.op].kind in kinds)

    def reported(kinds: tuple[str, ...], read) -> int:
        return sum(read(json.loads(out)) for op, (_, out) in zip(ops, outputs)
                   if op.kind in kinds)

    pairs = [
        ("lpcore.pivots vs solve pivots",
         traced(ALIASES["lpcore.solve"], "pivots", ("solve",)),
         reported(("solve",), lambda d: d["pivots"])),
        ("flowgraph.rows_out vs constraints rows",
         traced(ALIASES["flowgraph.enumerate"], "rows_out", ("constraints", "raw")),
         reported(("constraints", "raw"), lambda d: len(d["L"]))),
        ("coder.init_code.attempts vs code init_attempts",
         traced("coder.init_code", "attempts", ("code",)),
         reported(("code",), lambda d: d["init_attempts"])),
        ("coder.regenerate.attempts vs code repair_attempts",
         traced("coder.regenerate", "attempts", ("code",)),
         reported(("code",), lambda d: d["repair_attempts"])),
        ("coder.regenerate.attempts vs simulate repair_attempts",
         traced("coder.regenerate", "attempts", ("simulate",)),
         reported(("simulate",),
                  lambda d: sum(s["repair_attempts"] for s in d["stages"]))),
    ]
    return [f"{label}: traced {a}, reported {b}" for label, a, b in pairs if a != b]

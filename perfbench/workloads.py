"""The three benchmark workloads as fixed lists of `repairopt` CLI commands.

Every op is the argv a user would type after `repairopt`. Topologies are
given inline (`--topology ...`), never through `--spec`. The workload seed
fixes the op order and every per-op seed; the network list does not
depend on it, so every seed does the same amount of LP and cut work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("solve-ladder", "cuts-n12", "code-sim")


def _net(topology: str, n: int, k: int, M: int, alpha: int, **shape) -> dict:
    return dict(topology=topology, n=n, k=k, M=M, alpha=alpha, **shape)


# name -> the inline CLI flags of a network, without --failed
NETS = {
    # the five fixture topologies that inline flags can express
    "tandem-n4": _net("tandem", 4, 2, 4, 2),
    "grid-2x3": _net("grid", 6, 4, 8, 2, rows=2, cols=3),
    "complete-n5": _net("complete", 5, 3, 6, 2),
    "star-n6": _net("star", 6, 3, 6, 2, center=2),
    "star-n6-M9": _net("star", 6, 3, 9, 3, center=2),
    # the scale ladder
    "grid-3x3-k4": _net("grid", 9, 4, 8, 2, rows=3, cols=3),
    "grid-3x4-k5": _net("grid", 12, 5, 10, 2, rows=3, cols=4),
    "complete-n9-k4": _net("complete", 9, 4, 8, 2),
    # further small networks
    "tandem-n6-k3": _net("tandem", 6, 3, 6, 2),
    "complete-n6-k3": _net("complete", 6, 3, 6, 2),
    "tandem-n8-k4": _net("tandem", 8, 4, 8, 2),
    # near the enumerator's n <= 12 cap
    "tandem-n12-k5": _net("tandem", 12, 5, 10, 2),
    "star-n12-k5": _net("star", 12, 5, 10, 2, center=1),
    # simulate target: grid-2x3 in the minimum-storage regime for k=3
    "grid-2x3-k3": _net("grid", 6, 3, 6, 2, rows=2, cols=3),
}

FIXTURE_NETS = ("tandem-n4", "grid-2x3", "complete-n5", "star-n6", "star-n6-M9")

# exact-repair line network
LINE_N, LINE_K, LINE_Q = 200, 40, 211
EXACT_REPAIRS = 40
SIM_STAGES = 10


@dataclass(frozen=True)
class Op:
    """One CLI command. `key` names its seed-independent expected answer."""

    kind: str
    argv: tuple[str, ...]
    key: str


def spec_key(net: str, failed: int) -> str:
    return f"{net}@{failed}"


def spec_argv(net: str, failed: int) -> list[str]:
    argv = []
    for name, value in NETS[net].items():
        argv += [f"--{name}", str(value)]
    return argv + ["--failed", str(failed)]


def positions(net: str) -> range:
    return range(1, NETS[net]["n"] + 1)


def _spec_op(kind: str, net: str, failed: int, *extra: str) -> Op:
    head = ["constraints", "--raw"] if kind == "raw" else [kind]
    return Op(kind, tuple(head + spec_argv(net, failed) + list(extra)),
              spec_key(net, failed))


SCHEDULES = ("all-M", "empty")


def verify_ops(net: str, failed: int, edge_counts: dict,
               tags: tuple[str, ...] = SCHEDULES) -> list[Op]:
    """`verify` with the schedules in `tags`: "all-M" puts M fragments on
    every link, which meets every cut (each cut row asks for at most M);
    "empty" sends nothing and meets no cut with a positive right-hand
    side."""
    m = edge_counts[spec_key(net, failed)]
    value = {"all-M": str(NETS[net]["M"]), "empty": "0"}
    return [Op("verify", tuple(["verify"] + spec_argv(net, failed)
                               + ["--z", ",".join([value[tag]] * m)]),
               f"{spec_key(net, failed)}:{tag}")
            for tag in tags]


def solve_ladder() -> list[Op]:
    ops = []
    for net in FIXTURE_NETS + ("grid-3x3-k4", "tandem-n6-k3", "complete-n6-k3"):
        for f in positions(net):
            ops.append(_spec_op("solve", net, f))
            ops.append(_spec_op("bounds", net, f))
    ops.append(_spec_op("solve", "grid-3x4-k5", 12))
    ops.append(_spec_op("solve", "complete-n9-k4", 9))
    ops.append(Op("fixtures", ("fixtures",), "text"))
    ops.append(Op("fixtures", ("fixtures", "--format", "json"), "json"))
    return ops


CUT_BIG = {"grid-3x4-k5": (12, 6, 2), "tandem-n12-k5": (12, 6, 3), "star-n12-k5": (1, 7, 12)}
CUT_SMALL = ("grid-3x3-k4", "complete-n5", "complete-n6-k3", "tandem-n8-k4")
# small nets whose `verify` runs one schedule per position instead of both
ONE_SCHEDULE = ("grid-3x3-k4",)


def cut_targets() -> list[tuple[str, int, bool]]:
    """(net, failed, both) for `cuts-n12`. Every target runs `constraints`,
    `constraints --raw` and `verify`; `verify` gets both schedules where
    `both` is set and one schedule elsewhere, chosen by `verify_tags`.

    The counts place the percentiles inside groups of ops of like cost, not
    on the gap between two groups, where one op more or less below the rank
    moves the value by the size of the gap: the 30 n = 12 ops (0.5-1.3 s
    each, both schedules only at the first position) are a quarter of the
    pass, so op_p90_ms falls among them, and the 32 tandem n8 ops (about
    10-15 ms) hold the median, with 44 cheaper ops below them and the 27
    grid 3x3 ops (25-100 ms) above."""
    big = [(net, f, f == fails[0]) for net, fails in CUT_BIG.items() for f in fails]
    return big + [(net, f, net not in ONE_SCHEDULE)
                  for net in CUT_SMALL for f in positions(net)]


def verify_tags(failed: int, both: bool) -> tuple[str, ...]:
    """The schedules `verify` runs at a target: both, or all-M at odd and
    empty at even failure positions, so each network sees both verdicts."""
    if both:
        return SCHEDULES
    return ("empty",) if failed % 2 == 0 else ("all-M",)


def cuts_n12(edge_counts: dict) -> list[Op]:
    ops = []
    for net, f, both in cut_targets():
        ops.append(_spec_op("constraints", net, f))
        ops.append(_spec_op("raw", net, f))
        ops.extend(verify_ops(net, f, edge_counts, verify_tags(f, both)))
    return ops


CODE_GRID_POSITIONS = (9, 1, 5)
# three seeds per fixture position put op_p90_ms inside the 30 `code` ops of
# grid-2x3 and star-n6 (60-150 ms, close together), below the six
# multi-second ops, not on the step between the two
CODE_SEEDS = 3


def code_sim(rng: random.Random) -> list[Op]:
    def seed() -> str:
        return str(rng.randrange(2**31))

    ops = []
    for net in FIXTURE_NETS:
        for f in positions(net):
            for _ in range(CODE_SEEDS):
                ops.append(_spec_op("code", net, f, "--seed", seed()))
    for f in CODE_GRID_POSITIONS:
        ops.append(_spec_op("code", "grid-3x3-k4", f, "--seed", seed()))
    for _ in range(3):
        ops.append(Op("simulate",
                      tuple(["simulate"] + spec_argv("grid-2x3-k3", 6)
                            + ["--stages", str(SIM_STAGES), "--seed", seed()]),
                      "grid-2x3-k3"))
    for t in sorted(rng.sample(range(1, LINE_N + 1), EXACT_REPAIRS)):
        ops.append(Op("exact-repair",
                      ("exact-repair", "--n", str(LINE_N), "--k", str(LINE_K),
                       "--q", str(LINE_Q), "-t", str(t), "--seed", seed()),
                      f"line@{t}"))
    return ops


def build_ops(workload: str, seed: int, edge_counts: dict) -> list[Op]:
    """The op list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "solve-ladder":
        ops = solve_ladder()
    elif workload == "cuts-n12":
        ops = cuts_n12(edge_counts)
    elif workload == "code-sim":
        ops = code_sim(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops

"""The worked repair scenarios used as the built-in verification suite.

Two of the published reference optima differ from what the cut-set LP
actually yields. For the 2x3 grid the LP reaches 20/3 (the published 7 is
the best integral subgraph, and the published vertex stays feasible at
cost 7); for the fully connected network with cost-3 links into the new
node it reaches 9 (one fragment from each of three survivors relayed
through the fourth). Both fractional-or-cheaper optima are certified by a
dual solution, confirmed by an independent max-flow check on every
(k-1)-subset of helpers, and achieved by an executable code that keeps
the any-k reconstruction property, so the suite tracks the computed and
the published values separately.
"""

from __future__ import annotations

from fractions import Fraction

from .bounds import compare_lp_to_bounds
from .netmodel import NetworkSpec, build_topology

# name -> (build_topology arguments, certified LP optimum, published value).
# The certified optimum is what the LP provably yields: dual-certified and
# max-flow checked. The published value is the one originally reported.
FIXTURES = {
    # four-node line, end node fails; optimum 4 against baseline 6
    "tandem-n4": (dict(kind="tandem", n=4, k=2, M=4, alpha=2, failed=4),
                  Fraction(4), Fraction(4)),
    # 2x3 grid, corner node 6 fails; LP optimum 20/3, best integral 7
    "grid-2x3": (dict(kind="grid", n=6, k=4, M=8, alpha=2, rows=2, cols=3, failed=6),
                 Fraction(20, 3), Fraction(7)),
    # fully connected 5 nodes, unit costs; direct transmission is optimal
    "complete-n5-unit": (dict(kind="complete", n=5, k=3, M=6, alpha=2, failed=5),
                         Fraction(4), Fraction(4)),
    # fully connected 5 nodes with cost-3 links into the new node
    "complete-n5-cost3": (dict(kind="complete", n=5, k=3, M=6, alpha=2, failed=5,
                               overrides={(i, 5): 3 for i in range(1, 5)}),
                          Fraction(9), Fraction(10)),
    # six-node star, center 2, non-central node 1 fails
    "star-n6": (dict(kind="star", n=6, k=3, M=6, alpha=2, center=2, failed=1),
                Fraction(14, 3), Fraction(14, 3)),
    "star-n6-M9": (dict(kind="star", n=6, k=3, M=9, alpha=3, center=2, failed=1),
                   Fraction(7), Fraction(7)),
}


def fixture_spec(name: str) -> NetworkSpec:
    """The network of the FIXTURES row `name`."""
    args = dict(FIXTURES[name][0])
    overrides = args.pop("overrides", None)
    return build_topology(**args, overrides=overrides)


def run_fixture_suite() -> list[dict]:
    """One record per fixture, as `repairopt fixtures --format json` prints it."""
    records = []
    for name, (_, expected, published) in FIXTURES.items():
        report = compare_lp_to_bounds(fixture_spec(name))
        records.append({"name": name, "lp": report.sigma_opt, "expected": expected,
                        "published": published, "baseline": report.sigma_non_opt,
                        "gain": report.g_c, "ok": report.sigma_opt == expected})
    return records

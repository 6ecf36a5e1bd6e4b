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

from dataclasses import dataclass
from fractions import Fraction

from .bounds import compare_lp_to_bounds
from .netmodel import NetworkSpec, build_topology


def tandem4() -> NetworkSpec:
    """Four-node line, end node fails; optimum 4 against baseline 6."""
    return build_topology("tandem", 4, k=2, M=4, alpha=2, failed=4)


def grid2x3() -> NetworkSpec:
    """2x3 grid, corner node 6 fails; LP optimum 20/3, best integral 7."""
    return build_topology("grid", 6, k=4, M=8, alpha=2, rows=2, cols=3, failed=6)


def complete5_unit() -> NetworkSpec:
    """Fully connected 5 nodes, unit costs; direct transmission is optimal."""
    return build_topology("complete", 5, k=3, M=6, alpha=2, failed=5)


def complete5_cost3() -> NetworkSpec:
    """Fully connected 5 nodes with cost-3 links into the new node."""
    overrides = {(i, 5): Fraction(3) for i in range(1, 5)}
    return build_topology("complete", 5, k=3, M=6, alpha=2, failed=5,
                          overrides=overrides)


def star6(M=6, alpha=2) -> NetworkSpec:
    """Six-node star, center 2, non-central node 1 fails."""
    return build_topology("star", 6, k=3, M=M, alpha=alpha, center=2, failed=1)


@dataclass(frozen=True)
class FixtureRow:
    name: str
    lp_value: Fraction
    expected_lp: Fraction
    published_lp: Fraction
    baseline: Fraction
    gain: Fraction
    ok: bool


# What the LP provably yields (dual-certified, max-flow checked).
EXPECTED = {
    "tandem-n4": Fraction(4),
    "grid-2x3": Fraction(20, 3),
    "complete-n5-unit": Fraction(4),
    "complete-n5-cost3": Fraction(9),
    "star-n6": Fraction(14, 3),
    "star-n6-M9": Fraction(7),
}

# The reference values as originally reported; see the module docstring
# for where and why the two sets differ.
PUBLISHED = {
    "tandem-n4": Fraction(4),
    "grid-2x3": Fraction(7),
    "complete-n5-unit": Fraction(4),
    "complete-n5-cost3": Fraction(10),
    "star-n6": Fraction(14, 3),
    "star-n6-M9": Fraction(7),
}

BUILDERS = {
    "tandem-n4": tandem4,
    "grid-2x3": grid2x3,
    "complete-n5-unit": complete5_unit,
    "complete-n5-cost3": complete5_cost3,
    "star-n6": star6,
    "star-n6-M9": lambda: star6(M=9, alpha=3),
}


def run_fixture_suite() -> list[FixtureRow]:
    rows = []
    for name, builder in BUILDERS.items():
        spec = builder()
        report = compare_lp_to_bounds(spec)
        expected = EXPECTED[name]
        rows.append(FixtureRow(
            name=name,
            lp_value=report.sigma_opt,
            expected_lp=expected,
            published_lp=PUBLISHED[name],
            baseline=report.sigma_non_opt,
            gain=report.g_c,
            ok=report.sigma_opt == expected,
        ))
    return rows

"""Exact rational dual simplex for the minimum-cost repair LP.

Minimizes c.z subject to Lz >= b, z >= 0, entirely in Fraction
arithmetic. Costs are nonnegative, so the all-slack basis of
-Lz + s = -b is already dual feasible and the dual simplex (Lemke 1954)
starts there, with no phase 1 and no artificial columns.

Each pivot removes the row with the most negative right-hand side (ties:
lowest row) and enters the column with the smallest ratio
cbar_j / -a_rj (ties: highest column). After as many consecutive
degenerate pivots (ratio 0) as there are rows, Bland's rule takes over
until the objective rises, so the pivot sequence is deterministic and
cannot cycle. At the optimum the reduced costs of the slacks form a dual
certificate y >= 0 with y'L <= c' and y'b equal to the optimum, so every
solve is self-auditing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .flowgraph import ConstraintSet

# consecutive degenerate pivots, per row, before Bland's rule takes over
_DEGENERATE_RUN_PER_ROW = 1


class LPError(ValueError):
    pass


@dataclass(frozen=True)
class LPSolution:
    status: str  # optimal | infeasible (costs >= 0 rule out unbounded)
    value: Fraction
    z_star: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]
    pivots: int


def _entering_column(row, cbar, bland: bool):
    """Dual ratio test over the negative entries of the leaving row; None
    if there are none. Ties go to the highest column, or under Bland's
    rule to the lowest. Returns (column, ratio)."""
    enter = best = None
    for j, a in enumerate(row):
        if a < 0:
            ratio = cbar[j] / -a
            if best is None or ratio < best or (ratio == best and not bland):
                enter, best = j, ratio
    return enter, best


def solve_min_cost(cs: ConstraintSet, costs) -> LPSolution:
    """Solve min c.z over the cut polytope with deterministic pivoting."""
    m = len(cs.edge_index)
    costs = [Fraction(c) for c in costs]
    if len(costs) != m:
        raise LPError(f"got {len(costs)} costs for {m} edges")
    if any(c < 0 for c in costs):
        raise LPError("negative cost entry")
    r = len(cs.rows)
    if r == 0:
        return LPSolution("optimal", Fraction(0), (Fraction(0),) * m, (), 0)

    # tableau of -Lz + s = -b over columns z_0..z_{m-1}, s_0..s_{r-1}
    rows = [[-c for c in row] + [int(k == i) for k in range(r)]
            for i, row in enumerate(cs.rows)]
    rhs = [-Fraction(b) for b in cs.rhs]
    basis = list(range(m, m + r))
    cbar = costs + [Fraction(0)] * r
    pivots = degenerate = 0
    while True:
        short = [i for i in range(r) if rhs[i] < 0]
        if not short:
            break
        bland = degenerate >= _DEGENERATE_RUN_PER_ROW * r
        # min keeps the first of equal keys, so rhs ties go to the lowest row
        leave = min(short, key=(basis if bland else rhs).__getitem__)
        enter, ratio = _entering_column(rows[leave], cbar, bland)
        if enter is None:
            # row reads (nonnegative terms) = rhs < 0: no z >= 0 meets it
            return LPSolution("infeasible", Fraction(0), (), (), pivots)
        degenerate = degenerate + 1 if ratio == 0 else 0

        inv = 1 / Fraction(rows[leave][enter])
        prow = rows[leave] = [x * inv for x in rows[leave]]
        rhs[leave] *= inv
        nonzero = [(j, x) for j, x in enumerate(prow) if x]
        for i, row in enumerate(rows):
            f = row[enter]
            if f and i != leave:
                for j, x in nonzero:
                    row[j] -= f * x
                rhs[i] -= f * rhs[leave]
        f = cbar[enter]
        if f:
            for j, x in nonzero:
                cbar[j] -= f * x
        basis[leave] = enter
        pivots += 1

    z = [Fraction(0)] * m
    for i, bi in enumerate(basis):
        if bi < m:
            z[bi] = rhs[i]
    value = sum(c * v for c, v in zip(costs, z))
    return LPSolution("optimal", value, tuple(z), tuple(cbar[m:]), pivots)


def verify_dual(cs: ConstraintSet, costs, sol: LPSolution) -> bool:
    """Weak-duality audit: y >= 0, y'L <= c', y'b = primal value, exactly."""
    if sol.status != "optimal":
        return False
    y = sol.dual
    if len(y) != len(cs.rows):
        return len(cs.rows) == 0 and sol.value == 0
    if any(v < 0 for v in y):
        return False
    for j in range(len(cs.edge_index)):
        if sum(y[i] * cs.rows[i][j] for i in range(len(y))) > Fraction(costs[j]):
            return False
    return sum(yi * bi for yi, bi in zip(y, cs.rhs)) == sol.value

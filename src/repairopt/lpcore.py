"""Exact fraction-free dual simplex for the minimum-cost repair LP.

Minimizes c.z subject to Lz >= b, z >= 0 exactly, in integers. Costs are
nonnegative, so the all-slack basis of -Lz + s = -b is already dual
feasible and the dual simplex (Lemke 1954) starts there, with no phase 1
and no artificial columns.

Each pivot removes the row with the most negative right-hand side (ties:
lowest row) and enters the column with the smallest ratio
cbar_j / -a_rj (ties: highest column). After as many consecutive
degenerate pivots (ratio 0) as there are rows, Bland's rule takes over
until the objective rises, so the pivot sequence is deterministic and
cannot cycle. At the optimum the reduced costs of the slacks form a dual
certificate y >= 0 with y'L <= c' and y'b equal to the optimum, so every
solve is self-auditing.

The tableau holds integers over one common denominator D, the |det| of
the current basis (Edmonds 1967, Bareiss 1968): b and c are scaled to
integers once, which scales z and the reduced costs but not the pivots;
a pivot on p makes p the next D, and every row it touches becomes
(x * p - f * y) / d, an exact division by the row's denominator d. A
row whose entering entry f is 0 is left alone and keeps the D of the
pivot that last touched it, so it is rescaled only when a pivot next
uses it. Ratios and right-hand sides compare by cross
multiplication; Fractions appear only in the returned solution.
"""

from __future__ import annotations

import math
import operator
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
    rule to the lowest. Each ratio cbar_j / -a_j is compared by cross
    multiplication; the rows' own denominators scale every ratio alike.
    Returns (column, whether its ratio is 0)."""
    enter = None
    for j, a in enumerate(row):
        if a < 0:
            if enter is None:
                enter = j
                continue
            lhs, rhs = cbar[j] * -row[enter], cbar[enter] * -a
            if lhs < rhs or (lhs == rhs and not bland):
                enter = j
    return enter, enter is not None and cbar[enter] == 0


def _integer_scale(values) -> tuple[int, list[int]]:
    """(s, s * values) with s the least common multiple of the values'
    denominators, so the scaled values are integers."""
    values = [Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in values)) if values else 1
    return scale, [v.numerator * (scale // v.denominator) for v in values]


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
    try:
        rows = [[-operator.index(x) for x in row] for row in cs.rows]
    except TypeError as exc:
        raise LPError("constraint rows must be integers") from exc

    # b and c scaled to integers scale z and the reduced costs, not the pivots
    b_scale, b_int = _integer_scale(cs.rhs)
    c_scale, c_int = _integer_scale(costs)
    # rows 0..r-1 hold -Lz + s = -b with the rhs as their last entry; row r
    # holds the reduced costs. Row i stands for rows[i] / den[i].
    for i, row in enumerate(rows):
        row += [int(k == i) for k in range(r)]
        row.append(-b_int[i])
    rows.append(c_int + [0] * (r + 1))
    den = [1] * (r + 1)
    common = 1  # |det| of the basis: every tableau entry times it is an integer
    basis = list(range(m, m + r))
    pivots = degenerate = 0
    while True:
        short = [i for i in range(r) if rows[i][-1] < 0]
        if not short:
            break
        bland = degenerate >= _DEGENERATE_RUN_PER_ROW * r
        if bland:
            leave = min(short, key=basis.__getitem__)
        else:
            # the most negative rhs; ties go to the lowest row
            leave = short[0]
            for i in short[1:]:
                if rows[i][-1] * den[leave] < rows[leave][-1] * den[i]:
                    leave = i
        enter, zero_ratio = _entering_column(rows[leave][:-1], rows[r], bland)
        if enter is None:
            # row reads (nonnegative terms) = rhs < 0: no z >= 0 meets it
            return LPSolution("infeasible", Fraction(0), (), (), pivots)
        degenerate = degenerate + 1 if zero_ratio else 0

        # bring the pivot row to the common denominator and negate it, so
        # the pivot p is positive; p is the next common denominator
        prow = [x * -common // den[leave] for x in rows[leave]]
        p = prow[enter]
        for i, row in enumerate(rows):
            f = row[enter]
            if f and i != leave:
                # exact (Edmonds 1967, Bareiss 1968); rows with f = 0 keep
                # their old denominator until a pivot touches them
                d = den[i]
                rows[i] = [(x * p - f * y) // d for x, y in zip(row, prow)]
                den[i] = p
        rows[leave], den[leave] = prow, p
        common = p
        basis[leave] = enter
        pivots += 1

    z = [Fraction(0)] * m
    for i, bi in enumerate(basis):
        if bi < m:
            z[bi] = Fraction(rows[i][-1], den[i] * b_scale)
    value = sum(c * v for c, v in zip(costs, z))
    dual = tuple(Fraction(y, den[r] * c_scale) for y in rows[r][m:m + r])
    return LPSolution("optimal", value, tuple(z), dual, pivots)


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

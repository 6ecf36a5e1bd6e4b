"""Exact fraction-free dual simplex for the minimum-cost repair LP.

Minimizes c.z subject to Lz >= b, z >= 0 exactly, in integers. Costs are
nonnegative, so the all-slack basis of -Lz + s = -b is already dual
feasible and the dual simplex (Lemke 1954) starts there, with no phase 1
and no artificial columns.

Each pivot removes the row with the most negative right-hand side (ties:
lowest row) and enters the column with the smallest ratio
cbar_j / -a_rj (ties: the highest label). After as many consecutive
degenerate pivots (ratio 0) as there are rows, Bland's rule takes over
until the objective rises, so the pivot sequence is deterministic and
cannot cycle. At the optimum the reduced costs of the slacks form a dual
certificate y >= 0 with y'L <= c' and y'b equal to the optimum, and
solve_min_cost audits that certificate (verify_dual) before it returns an
optimum, so every optimum it returns certifies itself.

The tableau is condensed (Tucker 1960; Chvatal 1983): the identity
columns of the basic variables are never stored. Each of the r
constraint rows and the cost row holds one entry per nonbasic variable
and the rhs. A row is labelled by its basic variable and a column by its
nonbasic one (z_j is j, slack i is m + i); a pivot swaps the two labels.
z is read from the rhs of the rows labelled by edges, y_i from the cost
row in the column labelled by slack i (0 while slack i is basic), and
the optimum from the cost row's rhs, which holds -c.z.

The entries are integers over one common denominator D, the |det| of
the current basis (Edmonds 1967, Bareiss 1968): b and c are scaled to
integers once, which scales z and the reduced costs but not the pivots;
a pivot on p makes p the next D, and every row it touches becomes
(x * p - f * y) / d, an exact division by the row's denominator d, with
f * D / d in the pivot column, now the leaving variable's. A row whose
entering entry f is 0 is left alone and keeps the D of the pivot that
last touched it, so it is rescaled only when a pivot next uses it.
Ratios and right-hand sides compare by cross multiplication; Fractions
appear only in the returned solution.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .flowgraph import ConstraintSet, _integer_scale

# consecutive degenerate pivots, per row, before Bland's rule takes over
_DEGENERATE_RUN_PER_ROW = 1
_ZERO = Fraction(0)


class LPError(ValueError):
    pass


@dataclass(frozen=True)
class LPSolution:
    status: str  # optimal | infeasible (costs >= 0 rule out unbounded)
    value: Fraction
    z_star: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]
    pivots: int


def _entering_column(row, cbar, cols, bland: bool):
    """Dual ratio test over the negative entries of the leaving row; None
    if there are none. Ties go to the column of the highest label, or
    under Bland's rule the lowest. Each ratio cbar_j / -a_j is compared by
    cross multiplication; the rows' own denominators scale every ratio
    alike. Returns (column, whether its ratio is 0)."""
    enter = None
    for j, a in enumerate(row):
        if a < 0:
            if enter is None:
                enter = j
                continue
            lhs, rhs = cbar[j] * -row[enter], cbar[enter] * -a
            if lhs < rhs or (lhs == rhs and (cols[j] < cols[enter]) == bland):
                enter = j
    return enter, enter is not None and cbar[enter] == 0


def solve_min_cost(cs: ConstraintSet, costs) -> LPSolution:
    """Solve min c.z over the cut polytope with deterministic pivoting;
    an optimum whose dual certificate fails its audit raises LPError."""
    m = len(cs.edge_index)
    c_scale, c_int = _integer_scale(costs)
    if len(c_int) != m:
        raise LPError(f"got {len(c_int)} costs for {m} edges")
    if any(c < 0 for c in c_int):
        raise LPError("negative cost entry")
    r = len(cs.rows)
    if r == 0:
        return LPSolution("optimal", _ZERO, (_ZERO,) * m, (), 0)
    try:
        rows = [[-operator.index(x) for x in row] for row in cs.rows]
    except TypeError as exc:
        raise LPError("constraint rows must be integers") from exc

    # rows 0..r-1 hold -Lz + s = -b, rhs last, and row r the reduced costs;
    # row i stands for rows[i] / den[i]. basis labels the rows, cols the columns
    b_scale, b_int = _integer_scale(cs.rhs)
    for row, b in zip(rows, b_int):
        row.append(-b)
    rows.append(c_int + [0])
    den = [1] * (r + 1)
    common = 1  # |det| of the basis: every tableau entry times it is an integer
    basis = list(range(m, m + r))
    cols = list(range(m))
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
        enter, zero_ratio = _entering_column(rows[leave][:-1], rows[r], cols, bland)
        if enter is None:
            # row reads (nonnegative terms) = rhs < 0: no z >= 0 meets it
            return LPSolution("infeasible", _ZERO, (), (), pivots)
        degenerate = degenerate + 1 if zero_ratio else 0

        # bring the pivot row to the common denominator and negate it, so
        # the pivot p is positive; p is the next common denominator. The
        # pivot column takes the leaving variable's unit column: -D in the
        # pivot row and 0 elsewhere, which the update turns into f * D / d.
        prow = [x * -common // den[leave] for x in rows[leave]]
        p = prow[enter]
        prow[enter] = -common
        for i, row in enumerate(rows):
            f = row[enter]
            if f and i != leave:
                # exact (Edmonds 1967, Bareiss 1968); rows with f = 0 keep
                # their old denominator until a pivot touches them
                d = den[i]
                row[enter] = 0
                rows[i] = [(x * p - f * y) // d for x, y in zip(row, prow)]
                den[i] = p
        rows[leave], den[leave] = prow, p
        common = p
        basis[leave], cols[enter] = cols[enter], basis[leave]
        pivots += 1

    z = [_ZERO] * m
    for i, label in enumerate(basis):
        if label < m and rows[i][-1]:
            z[label] = Fraction(rows[i][-1], den[i] * b_scale)
    cbar, c_den = rows[r], den[r] * c_scale
    dual = [_ZERO] * r
    for j, label in enumerate(cols):
        if label >= m and cbar[j]:
            dual[label - m] = Fraction(cbar[j], c_den)
    value = Fraction(-cbar[-1], c_den * b_scale)
    sol = LPSolution("optimal", value, tuple(z), tuple(dual), pivots)
    if not verify_dual(cs, costs, sol):
        raise LPError("the optimum failed its dual certificate audit")
    return sol


def verify_dual(cs: ConstraintSet, costs, sol: LPSolution) -> bool:
    """Weak-duality audit: y >= 0, y'L <= c', y'b = primal value, exactly.

    y and c are scaled by one lcm of their denominators, b and the value
    by another, so every comparison is between integers."""
    if sol.status != "optimal":
        return False
    r = len(cs.rows)
    if len(sol.dual) != r:
        return r == 0 and sol.value == 0
    scale, yc = _integer_scale([*sol.dual, *costs])
    y, c = yc[:r], yc[r:]
    yL = [0] * len(cs.edge_index)
    for yi, row in zip(y, cs.rows):
        if yi:
            yL = [a + yi * x for a, x in zip(yL, row)]
    _, bv = _integer_scale([*cs.rhs, sol.value])
    return (all(v >= 0 for v in y) and all(a <= cj for a, cj in zip(yL, c, strict=True))
            and sum(map(operator.mul, y, bv[:r])) == bv[r] * scale)

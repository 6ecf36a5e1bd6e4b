"""First-stage information flow graph and cut-set constraint enumeration.

Every storage node splits into an in/out vertex pair joined by a
storage-capacity edge. Relay traffic between survivors enters at the
receiver's out vertex, so forwarding never consumes storage capacity;
only links into the new node terminate at its in vertex. Each retained
network link carries one symbolic variable z_(ij), and the cut analysis
produces the linear constraint region the repair subgraph must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .netmodel import NetworkSpec, format_rational


class FlowGraphError(ValueError):
    """The repair scenario admits no usable flow graph."""


@dataclass(frozen=True)
class FlowGraph:
    """Symbolic flow graph for one repair stage.

    edge_index lists the retained network links in lexicographic order;
    an edge (i, failed) enters the new node's in vertex, every other edge
    joins out_i to out_j.
    """

    spec: NetworkSpec
    edge_index: tuple[tuple[int, int], ...]


def build_flow_graph(spec: NetworkSpec) -> FlowGraph:
    """Retain the finite-cost links among helpers that can still reach the
    new node; everything else is pinned to zero and dropped from the LP."""
    helper_set = set(spec.helpers)
    candidate = [
        (i, j)
        for (i, j) in spec.cost.edges()
        if i in helper_set and (j in helper_set or j == spec.failed)
    ]
    # reverse reachability to the new node over candidate edges only
    preds: dict[int, list[int]] = {}
    for i, j in candidate:
        preds.setdefault(j, []).append(i)
    reach = {spec.failed}
    stack = [spec.failed]
    while stack:
        v = stack.pop()
        for u in preds.get(v, ()):
            if u not in reach:
                reach.add(u)
                stack.append(u)
    retained = tuple(sorted((i, j) for (i, j) in candidate if i in reach and j in reach))
    if not any(j == spec.failed for (_, j) in retained):
        raise FlowGraphError("no helper can reach the new node")
    return FlowGraph(spec=spec, edge_index=retained)


@dataclass(frozen=True)
class ConstraintSet:
    """Cut constraints L z >= b over the symbolic edges of a flow graph."""

    edge_index: tuple[tuple[int, int], ...]
    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[Fraction, ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.edge_index):
                raise ValueError("constraint row width does not match edge index")
        if len(self.rows) != len(self.rhs):
            raise ValueError("row/rhs count mismatch")

    def to_json(self) -> dict:
        return {
            "edge_index": [list(e) for e in self.edge_index],
            "L": [list(r) for r in self.rows],
            "b": [format_rational(b) for b in self.rhs],
        }


def check_feasible(cs: ConstraintSet, z) -> bool:
    """Exact membership test for the constraint polytope (z >= 0, Lz >= b)."""
    z = tuple(Fraction(v) for v in z)
    if len(z) != len(cs.edge_index):
        raise ValueError(f"z has {len(z)} entries, expected {len(cs.edge_index)}")
    if any(v < 0 for v in z):
        return False
    for row, b in zip(cs.rows, cs.rhs):
        if sum(c * v for c, v in zip(row, z)) < b:
            return False
    return True


def enumerate_cut_constraints(fg: FlowGraph, *, reduce: bool = True) -> ConstraintSet:
    """Enumerate every source/DC vertex partition for every (k-1)-subset of
    helpers and emit its cut inequality.

    For a chosen subset K the DC side always contains out_nu and out_K;
    the remaining out vertices and in_nu vary freely. Infinite edges
    (source attachments) pin all in vertices of survivors to the source
    side. Each cut yields sum(crossing z) >= M - alpha * (crossing
    storage edges). Duplicate rows and rows with nonpositive rhs are
    always dropped (they constrain nothing); reduce=True additionally
    removes dominated rows.
    """
    spec = fg.spec
    if spec.n > 12:
        raise FlowGraphError("cut enumeration is exponential; capped at n <= 12")
    nu = spec.failed
    edge_pos = {e: idx for idx, e in enumerate(fg.edge_index)}
    survivors = spec.survivors
    rows: set[tuple[tuple[int, ...], Fraction]] = set()

    for K in combinations(spec.helpers, spec.k - 1):
        kset = set(K)
        others = [s for s in survivors if s not in kset]
        for mask in range(1 << len(others)):
            T = {others[t] for t in range(len(others)) if mask >> t & 1}
            dc_outs = kset | T
            for nu_in_on_dc_side in (False, True):
                alpha_edges = len(dc_outs) + (0 if nu_in_on_dc_side else 1)
                coeffs = [0] * len(fg.edge_index)
                for (i, j), idx in edge_pos.items():
                    tail_on_dc = i in dc_outs
                    head_on_dc = nu_in_on_dc_side if j == nu else j in dc_outs
                    if head_on_dc and not tail_on_dc:
                        coeffs[idx] = 1
                b = spec.M - spec.alpha * alpha_edges
                rows.add((tuple(coeffs), b))

    ordered = [(r, b) for (r, b) in sorted(rows) if b > 0]
    if reduce:
        kept: list[tuple[tuple[int, ...], Fraction]] = []
        for r, b in ordered:
            dominated = False
            for r2, b2 in ordered:
                if (r2, b2) == (r, b):
                    continue
                # (r2, b2) implies (r, b) when r2 <= r elementwise and b2 >= b
                if b2 >= b and all(x2 <= x for x2, x in zip(r2, r)):
                    dominated = True
                    break
            if not dominated:
                kept.append((r, b))
        ordered = kept
    return ConstraintSet(
        edge_index=fg.edge_index,
        rows=tuple(r for r, _ in ordered),
        rhs=tuple(b for _, b in ordered),
    )


def repair_cuts(spec: NetworkSpec) -> tuple[ConstraintSet, list[Fraction]]:
    """The reduced cut constraints of a repair stage and the link cost of
    each of their edges: the input of the repair LP."""
    cs = enumerate_cut_constraints(build_flow_graph(spec))
    return cs, [spec.cost.cost(i, j) for (i, j) in cs.edge_index]

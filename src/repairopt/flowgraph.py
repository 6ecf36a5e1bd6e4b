"""First-stage information flow graph and cut-set constraint enumeration.

Every storage node splits into an in/out vertex pair joined by a
storage-capacity edge. Relay traffic between survivors enters at the
receiver's out vertex, so forwarding never consumes storage capacity;
only links into the new node terminate at its in vertex. Each retained
network link carries one symbolic variable z_(ij), and the cut analysis
produces the linear constraint region the repair subgraph must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .netmodel import NetworkSpec, TopologyError


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
    reach = spec.cost.reaching(spec.failed, candidate)
    retained = tuple((i, j) for (i, j) in candidate if i in reach and j in reach)
    if not any(j == spec.failed for (_, j) in retained):
        raise TopologyError("no helper can reach the new node")
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


# private, though lpcore uses it too, so that tracers wrapping the public
# functions of each module do not time it as a call of its own
def _integer_scale(values) -> tuple[int, list[int]]:
    """(s, s * values) with s the least common multiple of the values'
    denominators, so the scaled values are integers. Only values that are
    neither ints nor Fractions are converted: a Fraction's copy costs more
    than its scaling."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def check_feasible(cs: ConstraintSet, z) -> bool:
    """Exact membership test for the constraint polytope (z >= 0, Lz >= b).

    z and b are scaled by the lcm of their denominators, so every row is
    an integer sum compared with an integer."""
    z = list(z)
    if len(z) != len(cs.edge_index):
        raise ValueError(f"z has {len(z)} entries, expected {len(cs.edge_index)}")
    _, ints = _integer_scale([*z, *cs.rhs])
    z_int, b_int = ints[:len(z)], ints[len(z):]
    if any(v < 0 for v in z_int):
        return False
    return all(sum(map(mul, row, z_int)) >= b for row, b in zip(cs.rows, b_int))


_BITS = bytes.maketrans(b"01", b"\0\1")
# (x, x without one of its bits) for every 4-bit value x and bit it holds,
# ordered bit by bit: OR-ing along these pairs turns a table of the rows with
# each chunk value into a table of the rows whose chunk is a submask of each
_SUBMASK_STEPS = tuple((x, x ^ b) for b in (1, 2, 4, 8) for x in range(16) if x & b)


def enumerate_cut_constraints(fg: FlowGraph, *, reduce: bool = True) -> ConstraintSet:
    """Enumerate the source/DC vertex partitions, for every (k-1)-subset
    of helpers, whose cut inequality has a positive right-hand side.

    The DC side always contains out_nu and the out vertices of the
    data collector's k-1 helpers; the out vertices of any other survivors
    and in_nu may join it. Infinite edges (source attachments) pin all in
    vertices of survivors to the source side. So a partition is a set S
    of survivors whose out vertices are on the DC side, holding at least
    k-1 helpers, and the side of in_nu. Its cut crosses c = |S| + [in_nu
    on the source side] storage edges and yields sum(crossing z) >=
    M - alpha * c, which constrains nothing unless c <= c_max =
    ceil(M/alpha) - 1. Only those partitions are visited: each set S
    with k-1 <= |S| <= c_max once, C(n-1, k-1) of them at the
    minimum-storage point. Each set is its prefix set plus one later
    survivor, so its masks cost one OR each, and a prefix that can no
    longer gather k-1 helpers is not extended.

    Rows are integer masks whose bits follow the edge order, so masks
    compare as the row tuples do: a crossing set is the head mask of the
    DC side with its tail mask cleared. Duplicates are dropped; reduce=True
    additionally removes dominated rows. A row (r, c) joins c, in unary,
    to its mask, so (r2, c2) dominates (r, c) exactly when its joint mask
    is a strict submask of the row's. Dominance makes no pairwise
    compares: the rows are taken by bit count, and per 4-bit chunk of the
    joint mask a table gives, for each chunk value, the kept rows whose
    chunk lies inside it, as a bit set. The AND of a row's lookups is the
    kept rows that are submasks of it. Rows become tuples only on output,
    and each rhs Fraction is built once per crossing count c.

    Below alpha = M/k the reduced rows hold an empty row with a positive
    rhs, so no repair exists; from M/(k-1) on (k >= 2) there are none;
    in between every rhs is M - (k-1) alpha.
    """
    spec = fg.spec
    if spec.n > 12:
        raise TopologyError("cut enumeration is exponential; capped at n <= 12")
    nu = spec.failed
    m = len(fg.edge_index)
    # masks of the edges out_i -> out_v into and out of each survivor v,
    # and of the edges into in_nu; edge idx is bit m-1-idx
    head = dict.fromkeys(spec.survivors, 0)
    tail = dict.fromkeys(spec.survivors, 0)
    into_nu = 0
    for idx, (i, j) in enumerate(fg.edge_index):
        bit = 1 << (m - 1 - idx)
        tail[i] |= bit
        if j == nu:
            into_nu |= bit
        else:
            head[j] |= bit
    c_max = math.ceil(spec.M / spec.alpha) - 1
    need = spec.k - 1
    helpers = set(spec.helpers)
    slots = [(head[v], tail[v], v in helpers) for v in spec.survivors]
    top = min(c_max, len(slots))
    # (crossing mask, -c): sorted plainly, masks come in row order and, of
    # one mask, the fewest storage edges (the largest rhs) last
    rows: set[tuple[int, int]] = set()
    # the sets S of one size, each as (head mask, tail mask, helpers in S,
    # the slot after its last member); the walk starts at the empty set,
    # the data collector of k = 1
    sets = [(0, 0, 0, 0)]
    for size in range(top + 1):
        if size >= need:
            for h, t, held, _ in sets:
                if held >= need:
                    rows.add(((h | into_nu) & ~t, -size))  # in_nu on the DC side
                    if size < c_max:
                        rows.add((h & ~t, -size - 1))  # in_nu on the source side
        if size == top:
            break
        # a set of size+1 holding fewer than short_of helpers cannot reach
        # k-1 of them by size top
        short_of = need - (top - size - 1)
        sets = [(h | sh, t | st, held + sv, nxt)
                for h, t, held, first in sets
                for nxt, (sh, st, sv) in enumerate(slots[first:], first + 1)
                if held + sv >= short_of]

    if reduce:
        # (r2, c2) implies (r, c) when r2 is a submask of r and c2 <= c.
        # Under the mask, c is written in unary, c - (k-1) ones in w bits,
        # so c2 <= c exactly when unary(c2) is a submask of unary(c): the
        # rule is one strict-submask test on e = r << w | unary(c), and of
        # one mask only the least c survives. A strict submask has fewer
        # bits, and implication is transitive, so a row need only be
        # checked against the rows kept at lower bit counts. Every c lies
        # in need..min(c_max, top + 1); w < 0 only when there are no rows.
        w = max(min(c_max, top + 1) - need, 0)
        by_bits: dict[int, list[int]] = {}
        for r, nc in rows:
            e = r << w | (1 << (-nc - need)) - 1
            by_bits.setdefault(e.bit_count(), []).append(e)
        shifts = range(0, m + w, 4)
        # per chunk and chunk value: the kept rows, kept[i] as bit i
        with_value = [[0] * 16 for _ in shifts]
        kept: list[int] = []
        levels = sorted(by_bits)
        for bits in levels:
            inside = [values.copy() for values in with_value]
            for table in inside:
                for x, y in _SUBMASK_STEPS:
                    table[x] |= table[y]
            tables = list(zip(shifts, inside))
            level = []
            for e in by_bits[bits]:
                below = -1
                for shift, table in tables:
                    below &= table[(e >> shift) & 15]
                    if not below:
                        level.append(e)
                        break
            if bits != levels[-1]:  # no later level looks the last one up
                for i, e in enumerate(level, len(kept)):
                    for shift, values in zip(shifts, with_value):
                        values[(e >> shift) & 15] |= 1 << i
            kept += level
        low = (1 << w) - 1
        ordered = sorted((e >> w, -need - (e & low).bit_count()) for e in kept)
    else:
        ordered = sorted(rows)
    # a row's entries are the mask's m binary digits, as bytes 0 and 1
    digits = f"0{m}b"
    # one rhs per crossing count; a cut crosses at most n storage edges
    rhs = {-c: spec.M - spec.alpha * c for c in range(spec.k - 1, min(c_max, spec.n) + 1)}
    return ConstraintSet(
        edge_index=fg.edge_index,
        rows=tuple(tuple(format(r, digits).encode().translate(_BITS)) for r, _ in ordered),
        rhs=tuple(rhs[nc] for _, nc in ordered),
    )


def repair_cuts(spec: NetworkSpec) -> tuple[ConstraintSet, list[Fraction]]:
    """The reduced cut constraints of a repair stage and the link cost of
    each of their edges: the input of the repair LP."""
    cs = enumerate_cut_constraints(build_flow_graph(spec))
    return cs, [spec.cost.cost(i, j) for (i, j) in cs.edge_index]

"""Independent reference implementations used only by the tests.

These deliberately share no code with the package: max-flow instead of
cut enumeration, exhaustive path enumeration instead of Dijkstra, an
exhaustive grid search instead of the simplex, and the Leibniz formula
instead of elimination.
"""

from collections import deque
from fractions import Fraction
from itertools import permutations

from repairopt.flowgraph import build_flow_graph

INF = Fraction(10**12)


class OracleError(ValueError):
    """An oracle refused its input or found no answer."""


def max_flow_value(spec, z, K):
    """Edmonds-Karp on the stage-1 flow graph with z as numeric capacities,
    data collector attached to K and the new node."""
    nu = spec.failed
    cap: dict[tuple, Fraction] = {}

    def add(u, v, c):
        cap[(u, v)] = cap.get((u, v), Fraction(0)) + c
        cap.setdefault((v, u), Fraction(0))

    for s in spec.survivors:
        add("S", ("in", s), INF)
        add(("in", s), ("out", s), Fraction(spec.alpha))
    add(("in", nu), ("out", nu), Fraction(spec.alpha))
    fg = build_flow_graph(spec)
    for (i, j), v in zip(fg.edge_index, z):
        head = ("in", nu) if j == nu else ("out", j)
        add(("out", i), head, Fraction(v))
    for i in K:
        add(("out", i), "DC", INF)
    add(("out", nu), "DC", INF)

    adj: dict = {}
    for (u, v) in cap:
        adj.setdefault(u, []).append(v)
    flow = Fraction(0)
    while True:
        parent = {"S": None}
        queue = deque(["S"])
        while queue:
            u = queue.popleft()
            if u == "DC":
                break
            for v in adj.get(u, []):
                if v not in parent and cap[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if "DC" not in parent:
            return flow
        bottleneck = INF
        v = "DC"
        path = []
        while parent[v] is not None:
            u = parent[v]
            bottleneck = min(bottleneck, cap[(u, v)])
            path.append((u, v))
            v = u
        for (u, v) in path:
            cap[(u, v)] -= bottleneck
            cap[(v, u)] += bottleneck
        flow += bottleneck


def all_paths_min_cost(cost, i, j, _seen=None):
    """Minimum path cost by exhaustive DFS over the acyclic cost digraph."""
    if i == j:
        return Fraction(0)
    best = None
    for nxt in cost.successors(i):
        sub = all_paths_min_cost(cost, nxt, j)
        if sub is None:
            continue
        total = cost.cost(i, nxt) + sub
        if best is None or total < best:
            best = total
    return best


def brute_force_optimum(cs, costs, granularity: int = 1,
                        cap=None, node_limit: int = 20_000_000) -> Fraction:
    """Exhaustive minimum of c.z over the 1/granularity grid.

    Independent oracle for the simplex: agrees with solve_min_cost
    whenever the LP optimum lies on the grid. Coordinates range over
    {0, 1/g, ..., cap}; branches are pruned once the partial cost can no
    longer beat the incumbent.
    """
    m = len(cs.edge_index)
    if m > 8:
        raise OracleError("brute force restricted to at most 8 edges")
    g = int(granularity)
    if g < 1:
        raise OracleError("granularity must be a positive integer")
    costs = [Fraction(c) for c in costs]
    if cap is None:
        cap = max(cs.rhs, default=Fraction(0))
    cap_units = int(Fraction(cap) * g)  # z_i in units of 1/g
    if (cap_units + 1) ** max(m, 1) > node_limit * 1000:
        raise OracleError("search space above configured limit")

    rows = [list(row) for row in cs.rows]
    rhs_units = [b * g for b in cs.rhs]
    best: list[Fraction | None] = [None]
    z = [0] * m
    visited = [0]

    def feasible() -> bool:
        for row, b in zip(rows, rhs_units):
            if sum(c * v for c, v in zip(row, z)) < b:
                return False
        return True

    def dfs(idx: int, cost_so_far: Fraction) -> None:
        visited[0] += 1
        if visited[0] > node_limit:
            raise OracleError("search space above configured limit")
        if best[0] is not None and cost_so_far >= best[0]:
            return
        if idx == m:
            if feasible():
                best[0] = cost_so_far
            return
        for v in range(cap_units + 1):
            z[idx] = v
            dfs(idx + 1, cost_so_far + costs[idx] * Fraction(v, g))
        z[idx] = 0

    dfs(0, Fraction(0))
    if best[0] is None:
        raise OracleError("no feasible grid point within the cap")
    return best[0]


def leibniz_det(m, q):
    """Determinant over GF(q) as the signed sum over all permutations."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                         if perm[a] > perm[b])
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total % q

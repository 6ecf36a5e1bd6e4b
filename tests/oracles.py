"""Independent reference implementations used only by the tests.

These deliberately share no code with the package: max-flow instead of
cut enumeration, one row per helper subset at the minimum-storage point
instead of the partition walk, a depth-first search back from the new
node instead of the flow graph's pass over a topological order for the
links a repair may use, exhaustive path enumeration instead of
the one-pass least-cost walk over a topological order, an exhaustive
grid search instead of the simplex, the Leibniz formula
instead of elimination, and a scan of every k-subset, each a determinant
by elimination on plain lists of residues (checked against the Leibniz
formula), instead of the prefix-sharing walk of the any-k check on
packed rows.

Five of them are earlier versions of package code, kept as references
for its faster replacements: the cut enumerator that walks every vertex
partition and every edge, the row-by-row Fraction feasibility check, the
Fraction-tableau dual simplex, the Fraction audit of its dual
certificate, and the trial-division primality test. The package's
results must equal theirs exactly.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations, permutations

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
    for (i, j), v in zip(retained_links(spec), z):
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


def all_paths_min_cost(cost, i, j):
    """Minimum path cost by exhaustive DFS over the acyclic cost digraph;
    None if no path leads from i to j."""
    if i == j:
        return Fraction(0)
    best = None
    for nxt in [b for (a, b) in cost.edges() if a == i]:
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


def trial_division_is_prime(x):
    """Primality by trial division with odd factors up to sqrt(x)."""
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


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


def elimination_det(m, q):
    """Determinant over GF(q) by Gaussian elimination on a copy of the
    rows, swapping in the first row with a nonzero entry in each column."""
    rows = [[x % q for x in row] for row in m]
    size, det = len(rows), 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col] % q
        inv = pow(rows[col][col], -1, q)
        for r in range(col + 1, size):
            f = rows[r][col] * inv % q
            if f:
                rows[r] = [(a - f * b) % q for a, b in zip(rows[r], rows[col])]
    return det % q


def reference_rcp(columns, n, k, M_s, q, through=None):
    """(ok, witness) of the any-k reconstruction check: the first k-subset
    of nodes in lexicographic order, among those holding `through` if it
    is given, whose stacked M_s x M_s coefficient matrix has determinant 0
    over GF(q). columns[node - 1] holds the node's coefficient vectors."""
    for subset in combinations(range(1, n + 1), k):
        if through is not None and through not in subset:
            continue
        vectors = [v for node in subset for v in columns[node - 1]]
        if len(vectors) != M_s or any(len(v) != M_s for v in vectors):
            raise OracleError("subsets do not stack to square matrices")
        if elimination_det(vectors, q) == 0:
            return False, subset
    return True, None


def retained_links(spec):
    """The links between helpers or from a helper into the new node nu
    whose ends both reach nu over such links, in lexicographic order: the
    edges of the stage-1 flow graph, found by a depth-first search back
    from nu."""
    nu, helpers = spec.failed, set(spec.helpers)
    candidate = sorted((i, j) for (i, j) in spec.cost.edges()
                       if i in helpers and (j in helpers or j == nu))
    senders: dict = {}
    for i, j in candidate:
        senders.setdefault(j, []).append(i)
    reach, stack = {nu}, [nu]
    while stack:
        for i in senders.get(stack.pop(), ()):
            if i not in reach:
                reach.add(i)
                stack.append(i)
    return [(i, j) for (i, j) in candidate if i in reach and j in reach]


def msr_cut_rows(spec):
    """(links, rows) of the cut inequalities at the minimum-storage point,
    M = k alpha, where every cut has one form: for each (k-1)-subset K of
    helpers, the links entering K and the new node nu from outside carry
    at least alpha. links are retained_links(spec); rows holds one 0/1
    row over them per K, in the order of combinations(spec.helpers, k - 1),
    duplicates kept."""
    nu, links = spec.failed, retained_links(spec)
    rows = []
    for K in combinations(spec.helpers, spec.k - 1):
        inside = set(K) | {nu}
        rows.append(tuple(int(j in inside and i not in inside) for i, j in links))
    return links, rows


def reference_cuts(fg):
    """(rows, rhs) of the cut inequalities with a positive rhs, over every
    source/DC vertex partition, one partition and one edge at a time: the
    package's cut enumerator before rhs pruning and integer masks, without
    its dominance reduction (reference_reduce)."""
    spec = fg.spec
    nu = spec.failed
    edge_pos = {e: idx for idx, e in enumerate(fg.edge_index)}
    # the rhs of a cut crossing c storage edges, c <= n
    rhs = [spec.M - spec.alpha * c for c in range(spec.n + 1)]
    rows = set()
    for K in combinations(spec.helpers, spec.k - 1):
        kset = set(K)
        others = [s for s in spec.survivors if s not in kset]
        for mask in range(1 << len(others)):
            dc_outs = kset | {others[t] for t in range(len(others)) if mask >> t & 1}
            for nu_in_on_dc_side in (False, True):
                alpha_edges = len(dc_outs) + (0 if nu_in_on_dc_side else 1)
                coeffs = [0] * len(fg.edge_index)
                for (i, j), idx in edge_pos.items():
                    tail_on_dc = i in dc_outs
                    head_on_dc = nu_in_on_dc_side if j == nu else j in dc_outs
                    if head_on_dc and not tail_on_dc:
                        coeffs[idx] = 1
                rows.add((tuple(coeffs), rhs[alpha_edges]))
    ordered = [(r, b) for (r, b) in sorted(rows) if b > 0]
    return tuple(r for r, _ in ordered), tuple(b for _, b in ordered)


def reference_reduce(rows, rhs):
    """(rows, rhs) without the rows another row implies: (r2, b2) implies
    (r, b) when r2 <= r elementwise and b2 >= b."""
    pairs = list(zip(rows, rhs))
    kept = []
    for r, b in pairs:
        dominated = False
        for r2, b2 in pairs:
            if (r2, b2) == (r, b):
                continue
            if b2 >= b and all(x2 <= x for x2, x in zip(r2, r)):
                dominated = True
                break
        if not dominated:
            kept.append((r, b))
    return tuple(r for r, _ in kept), tuple(b for _, b in kept)


def reference_feasible(rows, rhs, z):
    """Whether z >= 0 and rows.z >= rhs, each row summed in Fractions: the
    package's feasibility check before it scaled to integers."""
    z = tuple(Fraction(v) for v in z)
    if any(v < 0 for v in z):
        return False
    for row, b in zip(rows, rhs):
        if sum((c * v for c, v in zip(row, z)), Fraction(0)) < b:
            return False
    return True


def reference_dual_simplex(rows, rhs, costs, degenerate_run_per_row=1):
    """(status, value, z, dual, pivots) of min c.z s.t. rows.z >= rhs,
    z >= 0: the package's dual simplex on a Fraction tableau, from the
    slack basis, with the same leaving, entering and anti-cycling rules."""
    m = len(costs)
    costs = [Fraction(c) for c in costs]
    r = len(rows)
    if r == 0:
        return "optimal", Fraction(0), (Fraction(0),) * m, (), 0
    tab = [[-c for c in row] + [int(k == i) for k in range(r)]
           for i, row in enumerate(rows)]
    beta = [-Fraction(b) for b in rhs]
    basis = list(range(m, m + r))
    cbar = costs + [Fraction(0)] * r
    pivots = degenerate = 0
    while True:
        short = [i for i in range(r) if beta[i] < 0]
        if not short:
            break
        bland = degenerate >= degenerate_run_per_row * r
        leave = min(short, key=(basis if bland else beta).__getitem__)
        enter = best = None
        for j, a in enumerate(tab[leave]):
            if a < 0:
                ratio = cbar[j] / -a
                if best is None or ratio < best or (ratio == best and not bland):
                    enter, best = j, ratio
        if enter is None:
            return "infeasible", Fraction(0), (), (), pivots
        degenerate = degenerate + 1 if best == 0 else 0
        inv = 1 / Fraction(tab[leave][enter])
        prow = tab[leave] = [x * inv for x in tab[leave]]
        beta[leave] *= inv
        nonzero = [(j, x) for j, x in enumerate(prow) if x]
        for i, row in enumerate(tab):
            f = row[enter]
            if f and i != leave:
                for j, x in nonzero:
                    row[j] -= f * x
                beta[i] -= f * beta[leave]
        f = cbar[enter]
        if f:
            for j, x in nonzero:
                cbar[j] -= f * x
        basis[leave] = enter
        pivots += 1
    z = [Fraction(0)] * m
    for i, bi in enumerate(basis):
        if bi < m:
            z[bi] = beta[i]
    value = sum(c * v for c, v in zip(costs, z))
    return "optimal", value, tuple(z), tuple(cbar[m:]), pivots


def reference_verify_dual(rows, rhs, costs, sol):
    """Weak-duality audit of sol's dual y against rows.z >= rhs at costs:
    y >= 0, y'L <= c' and y'b equal to sol.value, summed in Fractions."""
    if sol.status != "optimal":
        return False
    y = sol.dual
    if len(y) != len(rows):
        return len(rows) == 0 and sol.value == 0
    if any(v < 0 for v in y):
        return False
    for j in range(len(costs)):
        if sum(y[i] * rows[i][j] for i in range(len(y))) > Fraction(costs[j]):
            return False
    return sum(yi * Fraction(bi) for yi, bi in zip(y, rhs)) == sol.value

"""Construction and verification of optimal-cost minimum-storage codes.

The pipeline: make_plan solves the repair LP and scales the optimal
subgraph to integral fragment counts; code_field refuses a code whose
any-k check would run past WORK_BUDGET, then picks a prime field from the
degree bound; regenerate then executes the repair as random linear
coding with surviving-node cooperation. Nodes are processed in topological
order; each forwards fresh random combinations of everything it stores
plus everything it received this stage, and the regenerated node keeps
random combinations of its inflow. Repair is functional: the new
coefficients need not equal the lost ones, only the any-k-reconstruct
property (RCP) must survive. init_code and regenerate check it on every
state they return, so their callers never check it again. verify_rcp walks
the k-subsets depth first and shares the elimination of each common prefix
among the subsets below it, carrying the later nodes' blocks as packed
rows (one int per vector, one 64-bit lane per coordinate, see gfalg)
reduced by the prefix's echelon basis, with the prefix's pivot lanes
removed, so a vector loses alpha_s lanes at each level; init_code checks
all C(n, k) subsets, regenerate only the C(n-1, k-1) that contain the
repaired node, the only ones a repair can break. Coefficients are
gfalg.draws, the values of rng.randrange(q), so a seed gives the code it
always has, and regenerate sums each combination with gfalg.combine. A
plan carries its edges, their link costs and its new node, so regenerate
takes no network spec. Every field that code_field gives a code the
budget admits fits one lane; gfalg refuses any that would not.

Input the coder cannot use raises a ValueError (TopologyError, LPError
or a plain one); RetryExhaustedError, the one error this module defines,
means only that random coding gave up.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from . import gfalg
from .flowgraph import repair_cuts
from .lpcore import LPError, solve_min_cost
from .netmodel import NetworkSpec, TopologyError, respec_failure, topological_order


class RetryExhaustedError(RuntimeError):
    """Random coding failed to satisfy the code property within the budget."""


DEFAULT_RETRIES = 100
# The most lane operations the any-k check of a fresh code may be
# estimated to take; code_field refuses a code past it.
WORK_BUDGET = 10**9


@dataclass(frozen=True)
class RepairPlan:
    """Integral repair traffic for one stage."""

    edges: tuple[tuple[int, int], ...]
    costs: tuple[Fraction, ...]  # link cost per edge
    counts: tuple[int, ...]  # subfragments per edge, after scaling
    scale: int               # subfragments per original fragment
    new_node: int
    lp_value: Fraction       # in original fragment units
    n_nc: int

    def active_edges(self) -> list[tuple[tuple[int, int], int]]:
        return [(e, c) for e, c in zip(self.edges, self.counts) if c > 0]

    @property
    def achieved_cost(self) -> Fraction:
        """The cost of the counts, in original fragment units."""
        total = sum((c * n for c, n in zip(self.costs, self.counts)), Fraction(0))
        return total / self.scale


def compute_n_nc(edges, counts, new_node: int) -> int:
    """1 + the largest number of encoding nodes on any active path into
    the new node (the new node itself counts as one encoder)."""
    active = [e for e, c in zip(edges, counts) if c > 0]
    if not active:
        raise ValueError("empty repair plan")
    depth = {v: 0 for e in active for v in e}
    for v in topological_order(depth, active):
        for i, j in active:
            if i == v:
                depth[j] = max(depth[j], depth[i] + 1)
    return depth[new_node] + 1


def code_field(n: int, k: int, M_s: int, n_nc: int) -> tuple[int, int]:
    """The field of a code whose file is M_s subfragments and whose
    repairs pass at most n_nc encoders: (d0, q), with d0 the degree bound
    on the product of its code determinants and q the least prime above it.

    First, before any prime search, a code whose any-k check would run
    past WORK_BUDGET is refused: C(n, k) eliminations of an M_s x M_s
    matrix, M_s^3 lane operations each, bound the walk that shares them.
    A code is at minimum storage, so each node stores M_s / k subfragments."""
    if not (1 <= k <= n):
        raise ValueError("need n >= k >= 1")
    subsets = math.comb(n, k)
    work = subsets * M_s**3
    if work > WORK_BUDGET:
        raise ValueError(
            f"code too large to check: C({n}, {k}) = {subsets} subsets of nodes that "
            f"store {M_s // k} subfragments each of a file of {M_s} take about "
            f"{work:.1e} lane operations, past the budget of {WORK_BUDGET:.0e}")
    d0 = subsets * M_s * n_nc
    return d0, gfalg.smallest_prime_geq(d0 + 1)


def make_plan(spec: NetworkSpec) -> RepairPlan:
    """Solve the repair LP and scale its optimal vertex to integral
    subfragment counts."""
    spec.require_msr()
    cs, costs = repair_cuts(spec)
    sol = solve_min_cost(cs, costs)
    if sol.status != "optimal":
        raise LPError(f"LP did not solve: {sol.status}")
    denoms = [v.denominator for v in sol.z_star]
    denoms += [spec.alpha.denominator, spec.M.denominator]
    scale = math.lcm(*denoms)
    counts = tuple(int(v * scale) for v in sol.z_star)
    return RepairPlan(edges=cs.edge_index, costs=tuple(costs), counts=counts, scale=scale,
                      new_node=spec.failed, lp_value=sol.value,
                      n_nc=compute_n_nc(cs.edge_index, counts, spec.failed))


@dataclass(frozen=True)
class CodeState:
    """Per-node coding coefficients over GF(q), at subfragment granularity,
    at the minimum-storage point: the file is k * alpha_s subfragments."""

    q: int
    k: int
    alpha_s: int  # stored subfragments per node
    scale: int
    columns: tuple[tuple[tuple[int, ...], ...], ...]  # [node-1][col][row]

    @property
    def n(self) -> int:
        return len(self.columns)

    @property
    def M_s(self) -> int:
        """The file size in subfragments."""
        return self.k * self.alpha_s


def verify_rcp(state: CodeState, through: int | None = None):
    """Check that every k-subset of nodes spans the full file; returns
    (ok, witness), the witness being the lexicographically first k-subset
    that does not. With `through`, only the subsets that contain that node
    are checked.

    The subsets are walked depth first in lexicographic order, on the
    columns packed once per call. Below each prefix the later nodes' blocks
    are carried reduced by the prefix's echelon basis with the prefix's
    pivot lanes removed (gfalg.quotient), M_s - alpha_s * depth lanes;
    adding a node then reduces the later blocks against only that node's
    basis, and the rank a block keeps is the rank it adds to the prefix.
    At minimum storage (M_s = k * alpha_s) a subset spans the file only if
    each node adds alpha_s dimensions to the ones before it, so a prefix
    whose last node adds fewer fails every subset below it, and its first
    completion is the witness; a last node is one rank check of its
    alpha_s rows of alpha_s lanes. A walk through a node puts that node
    first.
    """
    q, k, alpha = state.q, state.k, state.alpha_s
    order = list(range(1, state.n + 1))
    if through is not None:
        order.remove(through)
        order.insert(0, through)

    def walk(prefix, nodes, vectors, width, stop):
        """The first failing subset that extends prefix by nodes[i:] with
        i < stop; vectors holds the nodes' blocks, alpha packed rows each,
        of `width` lanes: their quotient by the span of the prefix."""
        need = k - len(prefix)
        for i in range(stop):
            subset = prefix + (nodes[i],)
            block = vectors[i * alpha:(i + 1) * alpha]
            if need == 1:
                if gfalg.mat_rank(block, q) != alpha:
                    return subset
                continue
            basis = gfalg.echelon(block, q)
            if len(basis) < alpha:
                return subset + tuple(nodes[i + 1:i + need])
            rest = gfalg.quotient(basis, vectors[(i + 1) * alpha:], q, width)
            found = walk(subset, nodes[i + 1:], rest, width - alpha,
                         len(nodes) - i - need + 1)
            if found:
                return found
        return None

    vectors = gfalg.pack_rows([v for node in order for v in state.columns[node - 1]], q)
    witness = walk((), order, vectors, state.M_s,
                   1 if through is not None else len(order) - k + 1)
    return (True, None) if witness is None else (False, tuple(sorted(witness)))


def _random_columns(rng: random.Random, q: int, nrows: int, ncols: int):
    flat = gfalg.draws(rng, q, nrows * ncols)
    return tuple(tuple(flat[c * nrows:(c + 1) * nrows]) for c in range(ncols))


def init_code(spec: NetworkSpec, q: int, *, rng: random.Random, scale: int = 1,
              retries: int = DEFAULT_RETRIES) -> tuple[CodeState, int]:
    """Random initial code with the any-k property; returns (state, attempts)."""
    spec.require_msr()
    alpha_s = spec.alpha * scale
    if alpha_s.denominator != 1:
        raise ValueError("scale leaves alpha fractional")
    alpha_s = int(alpha_s)
    for attempt in range(1, retries + 1):
        cols = tuple(_random_columns(rng, q, spec.k * alpha_s, alpha_s) for _ in range(spec.n))
        state = CodeState(q=q, k=spec.k, alpha_s=alpha_s, scale=scale, columns=cols)
        ok, _ = verify_rcp(state)
        if ok:
            return state, attempt
    raise RetryExhaustedError(f"no valid initial code in {retries} attempts (q={q})")


def regenerate(state: CodeState, plan: RepairPlan, *, rng: random.Random,
               retries: int = DEFAULT_RETRIES) -> tuple[CodeState, int]:
    """Execute the repair along the plan; returns (new state, attempts).

    Each attempt redraws every coding coefficient; an attempt fails only
    if the regenerated system loses the any-k property, so the returned
    state always holds it.

    Precondition: `state` holds the any-k property (every state that
    init_code and regenerate return does). A repair changes only the
    failed node's columns, so only the C(n-1, k-1) subsets that contain
    it can lose the property, and those are the only ones checked.
    """
    if plan.scale != state.scale:
        raise ValueError("plan granularity does not match the code state")
    q, M_s = state.q, state.M_s
    active = plan.active_edges()
    if not active:
        raise ValueError("empty repair plan")
    inflow = sum(c for (_, j), c in active if j == plan.new_node)
    if inflow < state.alpha_s:
        raise ValueError(
            f"plan delivers {inflow} subfragments, new node stores {state.alpha_s}")
    edges = [e for e, _ in active]
    order = topological_order({v for e in edges for v in e}, edges)
    stored = [gfalg.pack_rows(node, q) for node in state.columns]

    def combination(pool):
        return gfalg.combine(gfalg.draws(rng, q, len(pool)), pool, q, M_s)

    for attempt in range(1, retries + 1):
        received: dict[int, list] = {}
        for node in order:
            if node == plan.new_node:
                continue
            pool = stored[node - 1] + received.get(node, [])
            for (i, j), count in active:
                if i == node:
                    received.setdefault(j, []).extend(
                        gfalg.pack_rows([combination(pool) for _ in range(count)], q))
        pool = received.get(plan.new_node, [])
        columns = list(state.columns)
        columns[plan.new_node - 1] = tuple(
            tuple(combination(pool)) for _ in range(state.alpha_s))
        candidate = replace(state, columns=tuple(columns))
        ok, _ = verify_rcp(candidate, plan.new_node)
        if ok:
            return candidate, attempt
    raise RetryExhaustedError(f"repair failed RCP in {retries} attempts (q={q})")


def run_repair(spec: NetworkSpec, seed=None, *, retries: int = DEFAULT_RETRIES) -> dict:
    """Full single-stage pipeline: constraints, LP, field choice, code
    initialization, repair execution and verification."""
    plan = make_plan(spec)
    d0, q = code_field(spec.n, spec.k, int(spec.M * plan.scale), plan.n_nc)
    rng = random.Random(seed)
    state, init_attempts = init_code(spec, q, rng=rng, scale=plan.scale, retries=retries)
    _, repair_attempts = regenerate(state, plan, rng=rng, retries=retries)
    return {
        "failed": spec.failed,
        "lp_value": plan.lp_value,
        "achieved_cost": plan.achieved_cost,
        "q": q,
        "d0": d0,
        "n_nc": plan.n_nc,
        "scale": plan.scale,
        "rcp_ok": True,
        "witness": None,
        "init_attempts": init_attempts,
        "repair_attempts": repair_attempts,
        "seed": seed,
    }


def simulate_stages(spec: NetworkSpec, T: int, seed=None, *,
                    retries: int = DEFAULT_RETRIES) -> tuple[list[dict], dict[int, str]]:
    """T rounds of uniform failure, LP planning, repair and verification;
    returns (one report per stage, the reason each skipped position was
    skipped).

    Every position is planned up front; one that make_plan refuses is
    skipped, and if it refuses all, its refusal at the spec's own failure
    is raised, as `code` raises it. One subfragment scale (the lcm over the
    plans) and one field, chosen from the conservative bound n_nc <= n, keep
    one code state alive across all stages even when some optima are fractional.
    """
    if T < 1:
        raise ValueError("need at least one stage")
    rng = random.Random(seed)
    plans: dict[int, RepairPlan] = {}
    refused: dict[int, ValueError] = {}
    for node in range(1, spec.n + 1):
        try:
            plans[node] = make_plan(respec_failure(spec, node))
        except (TopologyError, LPError) as exc:
            refused[node] = exc
    if not plans:
        raise refused[spec.failed]
    # every plan's scale is a multiple of M.denominator, so M * scale is integral
    scale = math.lcm(*(plan.scale for plan in plans.values()))
    d0, q = code_field(spec.n, spec.k, int(spec.M * scale), spec.n)
    plans = {node: replace(plan, counts=tuple(c * (scale // plan.scale) for c in plan.counts),
                           scale=scale)
             for node, plan in plans.items()}
    state, _ = init_code(spec, q, rng=rng, scale=scale, retries=retries)
    candidates = sorted(plans)
    reports = []
    for stage in range(1, T + 1):
        failed = candidates[rng.randrange(len(candidates))]
        plan = plans[failed]
        state, attempts = regenerate(state, plan, rng=rng, retries=retries)
        reports.append({
            "stage": stage,
            "failed": failed,
            "lp_value": plan.lp_value,
            "achieved_cost": plan.achieved_cost,
            "q": q,
            "d0": d0,
            "n_nc": plan.n_nc,
            "rcp_ok": True,
            "repair_attempts": attempts,
            "seed": seed,
        })
    return reports, {node: str(exc) for node, exc in refused.items()}

"""Storage network model: parameters, directed cost matrices, topology generators.

Node ids are 1-based. All costs are exact rationals; a missing cost-matrix
entry means "no direct link". The new node always takes over the failed
node's position and its incident links, so it is addressed by the failed
node's id throughout.

The links form an acyclic digraph. Every walk over it follows one order,
topological_order (Kahn's, least ready node first): CostMatrix keeps that
order and refuses a cycle. One pass over it in reverse gives the nodes
that can reach a node (CostMatrix.reaching: the helpers' reachability and
the flow graph's pruning), or their least path costs to it
(CostMatrix.costs_to: the shortest-path baseline).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations


class TopologyError(ValueError):
    """Malformed or unusable network description."""


def parse_rational(value) -> Fraction | None:
    """Parse an integer, a "p/q" string, or "inf" (returned as None). A
    boolean is refused, not read as 0 or 1."""
    if value is None:
        return None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TopologyError(f"cannot parse rational {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    text = str(value).strip().lower()
    if text in ("inf", "infinity"):
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise TopologyError(f"cannot parse rational {value!r}") from exc


def format_rational(x: Fraction | None) -> str:
    if x is None:
        return "inf"
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def topological_order(nodes, edges) -> list:
    """Kahn's algorithm, taking the least ready node first. A result
    shorter than nodes means the edges contain a cycle."""
    indeg = dict.fromkeys(nodes, 0)
    succ: dict = {}
    for i, j in edges:
        succ.setdefault(i, []).append(j)
        indeg[j] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for j in succ.get(v, ()):
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    return order


class CostMatrix:
    """Directed unit-transmission costs on an acyclic digraph.

    Entries are finite nonnegative rationals; the diagonal is implicitly 0.
    The digraph of finite entries must be acyclic (validated on construction).
    """

    def __init__(self, n: int, entries: dict[tuple[int, int], Fraction]):
        if n < 1:
            raise TopologyError("need at least one node")
        clean: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in entries.items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise TopologyError(f"edge ({i},{j}) out of range 1..{n}")
            if i == j:
                if c != 0:
                    raise TopologyError("diagonal entries must be 0")
                continue
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c.numerator < 0:
                raise TopologyError(f"negative cost on edge ({i},{j})")
            clean[(i, j)] = c
        self.n = n
        self._cost = dict(sorted(clean.items()))
        self._order = topological_order(range(1, n + 1), self._cost)
        if len(self._order) != n:
            raise TopologyError("cost digraph contains a cycle")

    def cost(self, i: int, j: int) -> Fraction | None:
        """Direct link cost, 0 on the diagonal, None if no link."""
        if i == j:
            return Fraction(0)
        return self._cost.get((i, j))

    def edges(self) -> list[tuple[int, int]]:
        return list(self._cost)

    def costs_to(self, target: int) -> dict[int, Fraction]:
        """Least path cost to target from every node that can reach it
        (target itself at 0)."""
        succ: dict[int, list[int]] = {}
        for i, j in self._cost:
            succ.setdefault(i, []).append(j)
        dist = {target: Fraction(0)}
        for v in reversed(self._order):
            costs = [dist[j] + self._cost[(v, j)] for j in succ.get(v, ()) if j in dist]
            if costs:
                dist[v] = min(costs)
        return dist

    def reaching(self, target: int, links=None) -> set[int]:
        """The nodes with a path to target (target included), over all
        links or over the given ones."""
        succ: dict[int, list[int]] = {}
        for i, j in self._cost if links is None else links:
            succ.setdefault(i, []).append(j)
        reach = {target}
        for v in reversed(self._order):
            if v in succ and not reach.isdisjoint(succ[v]):
                reach.add(v)
        return reach

    def to_rows(self) -> list[list[str]]:
        """n x n rows with "0" diagonal and "inf" for absent links."""
        rows = []
        for i in range(1, self.n + 1):
            row = []
            for j in range(1, self.n + 1):
                row.append(format_rational(self.cost(i, j)))
            rows.append(row)
        return rows


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Storage system parameters plus the repair scenario.

    alpha = M/k is the minimum-storage regime that the baseline and the
    coder require; other (alpha, M) combinations are legal for planning only.
    A spec equals only itself; compare spec_to_json documents for value.
    """

    n: int
    k: int
    d: int
    alpha: Fraction
    M: Fraction
    failed: int
    helpers: tuple[int, ...]
    cost: CostMatrix
    kind: str = "custom"
    params: tuple[tuple[str, int], ...] = field(default=())

    def __post_init__(self):
        if not (1 <= self.k <= self.d <= self.n - 1):
            raise TopologyError(f"need k <= d <= n-1, got k={self.k} d={self.d} n={self.n}")
        if not (1 <= self.failed <= self.n):
            raise TopologyError("failed node out of range")
        if self.failed in self.helpers:
            raise TopologyError("failed node cannot be a helper")
        if len(set(self.helpers)) != len(self.helpers) or len(self.helpers) != self.d:
            raise TopologyError("helpers must be d distinct surviving nodes")
        if any(not (1 <= h <= self.n) for h in self.helpers):
            raise TopologyError("helper id out of range")
        if self.alpha <= 0 or self.M <= 0:
            raise TopologyError("alpha and M must be positive")
        if self.cost.n != self.n:
            raise TopologyError("cost matrix size does not match n")
        reach = self.cost.reaching(self.failed)
        for h in self.helpers:
            if h not in reach:
                raise TopologyError(f"helper {h} cannot reach the new node")

    @property
    def survivors(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if v != self.failed)

    def require_msr(self) -> None:
        """Refuse a spec off the minimum-storage point."""
        if self.alpha != self.M / self.k:
            raise TopologyError("need the minimum-storage regime alpha = M/k")

    def param(self, name: str) -> int | None:
        return dict(self.params).get(name)


def msr_beta(M, k: int, d: int) -> Fraction:
    """Per-helper download at the minimum-storage point: M / (k (d-k+1))."""
    if d < k:
        raise ValueError("need d >= k")
    return Fraction(M) / (k * (d - k + 1))


def baseline_cost(spec: NetworkSpec) -> Fraction:
    """Repair cost of the bandwidth-optimal approach without cooperation.

    Each helper ships beta fragments along its cheapest route to the new
    node; relays forward without combining.
    """
    spec.require_msr()
    dist = spec.cost.costs_to(spec.failed)  # NetworkSpec checked every helper is in it
    return msr_beta(spec.M, spec.k, spec.d) * sum(dist[h] for h in spec.helpers)


TOPOLOGIES = ("tandem", "star", "grid", "complete")
_UNIT = Fraction(1)   # the cost of every generated link not overridden
_SHAPE = ("center", "rows", "cols")   # the shape options, in params order


def _links(kind: str, n: int, center: int | None,
           rows: int | None, cols: int | None) -> list[tuple[int, int]]:
    """The undirected links of a generated topology, as (low, high) pairs."""
    if n < 3:
        raise TopologyError("need n >= 3")
    if center is not None and kind != "star":
        raise TopologyError(f"only a star topology takes a center, not {kind!r}")
    if (rows is not None or cols is not None) and kind != "grid":
        raise TopologyError(f"only a grid topology takes rows and cols, not {kind!r}")
    if kind == "tandem":
        return [(i, i + 1) for i in range(1, n)]
    if kind == "star":
        if center is None or not (1 <= center <= n):
            raise TopologyError("star topology needs a valid center id")
        return [(min(i, center), max(i, center)) for i in range(1, n + 1) if i != center]
    if kind == "grid":
        if rows is None or cols is None or rows * cols != n:
            raise TopologyError("grid topology needs rows*cols == n")
        return ([(v, v + 1) for v in range(1, n + 1) if v % cols]
                + [(v, v + cols) for v in range(1, n - cols + 1)])
    if kind == "complete":
        return list(combinations(range(1, n + 1), 2))
    raise TopologyError(f"unknown topology kind {kind!r}")


def _orient_toward(links: list[tuple[int, int]], n: int, target: int) -> list[tuple[int, int]]:
    """Orient each (low, high) link toward the target by undirected BFS
    distance.

    Ties (equal distance) break low-id -> high-id, which keeps the digraph
    acyclic: cross-level edges strictly decrease the distance and same-level
    edges follow a fixed total order. Every generated topology is
    connected, so the BFS reaches both ends of every link.
    """
    if not (1 <= target <= n):
        raise TopologyError("failed node out of range")
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for a, b in links:
        adj[a].append(b)
        adj[b].append(a)
    dist = {target: 0}
    queue = deque([target])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return sorted((b, a) if dist[b] > dist[a] else (a, b) for a, b in links)


def _first_survivors(n: int, failed: int, d: int) -> tuple[int, ...]:
    """The helpers of a generated topology: the first d survivors by id."""
    return tuple(v for v in range(1, n + 1) if v != failed)[:d]


def build_topology(kind: str, n: int, *, k: int, M, alpha=None, d: int | None = None,
                   failed: int | None = None, center: int | None = None,
                   rows: int | None = None, cols: int | None = None,
                   overrides: dict[tuple[int, int], Fraction] | None = None) -> NetworkSpec:
    """Build a NetworkSpec for one of the canonical topologies.

    Generated links carry unit cost unless overridden; overrides match an
    oriented edge by its endpoint pair in either order.
    """
    links = _links(kind, n, center, rows, cols)
    if k < 1:
        raise TopologyError(f"need k >= 1, got k={k}")
    M = parse_rational(M)
    if alpha is None and M is not None:
        alpha = M / k
    alpha = parse_rational(alpha)
    if M is None or alpha is None:
        raise TopologyError("alpha and M must be finite")
    failed = n if failed is None else failed
    d = n - 1 if d is None else d

    # one unit Fraction for every link, or the override as given:
    # CostMatrix converts only what is not a Fraction
    entries = {}
    for (i, j) in _orient_toward(links, n, failed):
        c = _UNIT
        if overrides:
            c = overrides.get((i, j), overrides.get((j, i), c))
        entries[(i, j)] = c
    cm = CostMatrix(n, entries)
    # _links accepted only the shape options the kind takes
    params = tuple((name, v) for name, v in zip(_SHAPE, (center, rows, cols)) if v is not None)
    return NetworkSpec(n=n, k=k, d=d, alpha=alpha, M=M, failed=failed,
                       helpers=_first_survivors(n, failed, d), cost=cm, kind=kind,
                       params=params)


def _kind_matches(spec: NetworkSpec) -> bool:
    """Whether the spec's kind takes exactly its params and generates its
    links, oriented toward its failure."""
    params = dict(spec.params)
    shape = {name: params.pop(name, None) for name in _SHAPE}
    try:
        links = _links(spec.kind, spec.n, **shape)
    except TopologyError:
        return False
    return not params and spec.cost.edges() == _orient_toward(links, spec.n, spec.failed)


def respec_failure(spec: NetworkSpec, failed: int) -> NetworkSpec:
    """The same topology with the failure at another position: each of the
    spec's links turns toward it and keeps its cost, and the first d
    survivors help. At its own failure a spec is itself, helpers and all."""
    if failed == spec.failed:
        return spec
    if spec.kind == "custom":
        raise TopologyError("cannot re-derive a custom topology for a new failure")
    cost = {(i, j) if i < j else (j, i): spec.cost.cost(i, j) for i, j in spec.cost.edges()}
    entries = {(i, j): cost[(i, j) if i < j else (j, i)]
               for i, j in _orient_toward(list(cost), spec.n, failed)}
    return replace(spec, failed=failed, helpers=_first_survivors(spec.n, failed, spec.d),
                   cost=CostMatrix(spec.n, entries))


def spec_to_json(spec: NetworkSpec) -> dict:
    """Canonical JSON document for the CLI (rationals as strings, "inf" links)."""
    return {
        "n": spec.n,
        "k": spec.k,
        "d": spec.d,
        "alpha": format_rational(spec.alpha),
        "M": format_rational(spec.M),
        "failed": spec.failed,
        "helpers": list(spec.helpers),
        "cost": spec.cost.to_rows(),
        "kind": spec.kind,
        "params": dict(spec.params),
    }


def _integer(value) -> int:
    """An integer field of a network document: a JSON integer or a string
    of one. A float or a boolean is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TopologyError(f"expected an integer, got {value!r}")
    return int(value)


def spec_from_json(doc) -> NetworkSpec:
    """Read a document written by spec_to_json. Documents without "kind"
    and "params", and documents whose kind and params do not generate
    their cost matrix (say, after a link was added by hand), read as
    custom topologies. Any malformed document raises TopologyError."""
    if not isinstance(doc, dict):
        raise TopologyError("network document must be a JSON object")
    try:
        n = _integer(doc["n"])
        rows = doc["cost"]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise TopologyError("cost matrix must be n x n")
        entries = {}
        for i, row in enumerate(rows, start=1):
            for j, cell in enumerate(row, start=1):
                c = parse_rational(cell)
                if c is None and i != j:
                    continue
                entries[(i, j)] = c
        alpha, M = parse_rational(doc["alpha"]), parse_rational(doc["M"])
        if alpha is None or M is None:
            raise TopologyError("alpha and M must be finite")
        helpers, params = doc["helpers"], doc.get("params", {})
        if not isinstance(helpers, list) or not isinstance(params, dict):
            raise TopologyError("helpers must be a JSON array and params a JSON object")
        kind = doc.get("kind", "custom")
        if kind != "custom" and kind not in TOPOLOGIES:
            raise TopologyError(f"unknown topology kind {kind!r}")
        spec = NetworkSpec(
            n=n,
            k=_integer(doc["k"]),
            d=_integer(doc["d"]),
            alpha=alpha,
            M=M,
            failed=_integer(doc["failed"]),
            helpers=tuple(_integer(h) for h in helpers),
            cost=CostMatrix(n, entries),
            kind=kind,
            params=tuple((str(name), _integer(v)) for name, v in params.items()),
        )
        if spec.kind != "custom" and not _kind_matches(spec):
            spec = replace(spec, kind="custom", params=())
        return spec
    except KeyError as exc:
        raise TopologyError(f"network document missing field {exc}") from exc
    except TopologyError:
        raise
    except (TypeError, ValueError) as exc:
        raise TopologyError(f"malformed network document: {exc}") from exc

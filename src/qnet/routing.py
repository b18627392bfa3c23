"""Routing: pick a subgraph and an operation strategy between two endpoints.

The planner harvests channel-disjoint swap-only paths with repeated Dijkstra
sweeps over log-loss weights, walking each chain of two-channel routers in
one step instead of heaping its routers.  It keeps the subgraph induced on
the harvested nodes and tries to collapse it by series-parallel reduction.
A feasible full collapse is the answer; anything else falls back to an
exhaustive search over the swap-collapsed kernel that considers every
series/parallel combination of every channel subset, not just the
combinations the greedy reduction would pick.
"""
from __future__ import annotations

import heapq
import math
from enum import Enum

from ._value import Value, _set
from .algebra import (
    AlgebraDomainError,
    CostVector,
    purify_floats,
    swap_floats,
    to_log_loss,
)
from .graph import GraphFormatError, NetworkGraph, NodeRole
from .reduction import (
    Leaf,
    Purify,
    StrategyTree,
    Swap,
    fold,
    is_fully_reduced_pair,
    reduce_to_fixpoint,
    serialize_composite,
    serialize_strategy,
)

__all__ = [
    "InfeasibleRouteError",
    "RouteDiagnostics",
    "RouteRequest",
    "RouteResult",
    "SearchBoundError",
    "SearchKind",
    "harvest_paths",
    "route",
]

# RouteRequest's defaults, which are also the CLI's.
UNBOUNDED_PATHS = 2**31 - 1
DEFAULT_MAX_BRUTEFORCE_EDGES = 12
# The kernel search keeps a table of 2**k subsets and tries 3**k splits for
# a k-channel kernel, so no request may allow more than this many.
MAX_BRUTEFORCE_EDGES = 20


class InfeasibleRouteError(Exception):
    """No strategy satisfies the success constraint."""


class SearchBoundError(Exception):
    """The exhaustive search would exceed its size bound."""


class SearchKind(Enum):
    FULLY_REDUCED = "FullyReduced"
    EXHAUSTIVE_SEARCH = "ExhaustiveSearch"
    INFEASIBLE = "Infeasible"


class RouteRequest(Value):
    __slots__ = _fields = (
        "source", "target", "min_success", "max_paths", "max_bruteforce_edges"
    )
    source: str
    target: str
    min_success: float
    max_paths: int
    max_bruteforce_edges: int

    def __init__(
        self,
        source: str,
        target: str,
        min_success: float,
        max_paths: int = UNBOUNDED_PATHS,
        max_bruteforce_edges: int = DEFAULT_MAX_BRUTEFORCE_EDGES,
    ) -> None:
        if not 0.0 < min_success <= 1.0:
            raise ValueError(f"min_success {min_success!r} outside (0, 1]")
        if max_paths < 1:
            raise ValueError("max_paths must be >= 1")
        if max_bruteforce_edges < 1:
            raise ValueError("max_bruteforce_edges must be >= 1")
        if max_bruteforce_edges > MAX_BRUTEFORCE_EDGES:
            raise ValueError(
                f"max_bruteforce_edges must be <= {MAX_BRUTEFORCE_EDGES}"
            )
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "min_success", min_success)
        _set(self, "max_paths", max_paths)
        _set(self, "max_bruteforce_edges", max_bruteforce_edges)


class RouteDiagnostics(Value):
    __slots__ = _fields = (
        "paths_examined", "candidates_evaluated", "reduction_steps"
    )
    paths_examined: int
    candidates_evaluated: int
    reduction_steps: int


class RouteResult(Value):
    __slots__ = _fields = (
        "subgraph", "strategy", "cost", "paths_harvested", "search", "diagnostics"
    )
    subgraph: NetworkGraph
    strategy: StrategyTree | None
    cost: CostVector | None
    paths_harvested: int
    search: SearchKind
    diagnostics: RouteDiagnostics


def _check_endpoints(g: NetworkGraph, source: str, target: str) -> None:
    if source == target:
        raise GraphFormatError("source and target must differ")
    for nid in (source, target):
        if g.node(nid).role is not NodeRole.ENDPOINT:
            raise GraphFormatError(f"node {nid!r} is not an endpoint")


def harvest_paths(
    g: NetworkGraph, request: RouteRequest
) -> tuple[list[tuple[str, ...]], int]:
    """Channel-disjoint swap-only paths, best first.

    Repeats Dijkstra, withdrawing each found path's channels, until the
    graph is exhausted, the best remaining path falls below min_success,
    or max_paths is reached.  Returns (paths, sweeps run).

    Edge weight is the channel's log-loss; every interior node adds the
    swap operation's log-loss.  Only the source and repeater nodes get
    out-edges, so no foreign endpoint ever sits inside a path.  Nodes are
    numbered in id order, so (distance, index) heap keys break ties as
    (distance, id) would, and out-edges are kept in channel-id order.

    A router with exactly two remaining channels, to two distinct
    neighbours, is pass-through, and a sweep walks chains of them instead
    of heaping each one.  When u is settled, every out-edge into such a
    router is followed to the first node x that is not one, adding labels
    step by step, and one event keyed K, the largest (label, index) of the
    routers walked, carries x's label to the heap.  When it pops it relaxes
    x with the walk's last router and channel as x's parent, and a path
    through x is rebuilt by walking the chain back from there.  The sweep's
    paths and tie-breaks are those of a plain Dijkstra:

    - A walked router relaxes only its two neighbours, and the one behind
      it is already settled, so only its relaxation of x can matter.
    - Popped distances never decrease, and a router pushed with a key
      below the one just popped pops next.  So the last router of a walk
      relaxes x at the moment an entry keyed K would pop.
    - If the far end walked the chain first, x is settled, x's label is
      at most the walk's, and the relaxation could change nothing; no
      event is pushed when the walk cannot lower x's label.
    - The float additions run in the same order as a relaxation's.
    """
    _check_endpoints(g, request.source, request.target)
    nodes = g.nodes
    channels = g.channels
    ids = sorted(nodes)
    index = {nid: i for i, nid in enumerate(ids)}
    source, target = index[request.source], index[request.target]
    swap_success = g.op_costs.swap_success
    swap_loss = to_log_loss(swap_success)
    hop = [swap_loss] * len(ids)
    hop[source] = 0.0
    traversed = [
        i == source or nodes[nid].role is NodeRole.ROUTER
        for i, nid in enumerate(ids)
    ]
    # out[u]: (far index, log-loss, channel id) of every remaining channel.
    out: list[list[tuple[int, float, str]]] = [[] for _ in ids]
    for cid, c in sorted(channels.items()):
        a, b = index[c.a], index[c.b]
        w = to_log_loss(c.cost.success)
        if traversed[a]:
            out[a].append((b, w, cid))
        if traversed[b]:
            out[b].append((a, w, cid))

    def passes(i: int) -> bool:
        # Only the source and routers have out-edges.
        o = out[i]
        return len(o) == 2 and o[0][0] != o[1][0] and i != source

    through = [passes(i) for i in range(len(ids))]
    paths: list[tuple[str, ...]] = []
    sweeps = 0
    while len(paths) < request.max_paths:
        sweeps += 1
        dist = [math.inf] * len(ids)
        parent: list[tuple[str, int] | None] = [None] * len(ids)
        dist[source] = 0.0
        heap: list[tuple] = [(0.0, source)]
        while heap:
            entry = heapq.heappop(heap)
            if len(entry) > 2:
                # Walk event: (K's label, K's index, x, label, last channel,
                # last router).
                _, _, x, nd, cid, u = entry
                if nd < dist[x]:
                    dist[x] = nd
                    parent[x] = (cid, u)
                    heapq.heappush(heap, (nd, x))
                continue
            d, u = entry
            # Weights are non-negative, so a settled node is never improved
            # and every later entry for it is stale.
            if d > dist[u]:
                continue
            if u == target:
                break
            base = d + hop[u]
            for v, w, cid in out[u]:
                nd = base + w
                if not through[v]:
                    if nd < dist[v]:
                        dist[v] = nd
                        parent[v] = (cid, u)
                        heapq.heappush(heap, (nd, v))
                    continue
                top, top_index = nd, v
                back, x = u, v
                while True:
                    e, f = out[x]
                    y, wy, cid = f if e[0] == back else e
                    nd = nd + hop[x] + wy
                    back, x = x, y
                    if not through[x]:
                        break
                    if nd > top or (nd == top and x > top_index):
                        top, top_index = nd, x
                if nd < dist[x]:
                    heapq.heappush(heap, (top, top_index, x, nd, cid, back))
        else:  # the target is unreachable
            break
        path: list[str] = []
        node = target
        while node != source:
            cid, node = parent[node]
            path.append(cid)
            # A walked chain is re-walked back to the node it started from.
            while through[node]:
                e, f = out[node]
                node, _, cid = f if e[2] == cid else e
                path.append(cid)
        path.reverse()
        success = 1.0
        for cid in path:
            success *= channels[cid].cost.success
        for _ in range(len(path) - 1):
            success *= swap_success
        if success < request.min_success:
            break
        paths.append(tuple(path))
        gone = set(path)
        ends = {index[n] for c in map(channels.get, path) for n in (c.a, c.b)}
        for end in ends:
            out[end] = [e for e in out[end] if e[2] not in gone]
            through[end] = passes(end)
    return paths, sweeps


def _induced_subgraph(
    g: NetworkGraph, paths: list[tuple[str, ...]], source: str, target: str
) -> NetworkGraph:
    keep = {source, target}
    for path in paths:
        for cid in path:
            c = g.channel(cid)
            keep.add(c.a)
            keep.add(c.b)
    nodes = [g.node(nid) for nid in sorted(keep)]
    channels = [
        c for c in g.channels.values() if c.a in keep and c.b in keep
    ]
    return NetworkGraph(nodes, channels, g.op_costs)


def _better(best: tuple | None, cand: tuple) -> tuple:
    """Higher fidelity, then higher success, then smaller serialization.

    Both are tuples starting (fidelity, success, serialization, ...).
    """
    if best is None:
        return cand
    if cand[0] != best[0]:
        return cand if cand[0] > best[0] else best
    if cand[1] != best[1]:
        return cand if cand[1] > best[1] else best
    return cand if cand[2] < best[2] else best


def _pair_join(
    pa: tuple[str, str], pb: tuple[str, str], roles: dict[str, NodeRole]
) -> tuple[tuple[str, str], type[Swap] | type[Purify]] | None:
    """How two virtual pairs merge: (produced pair, operation), or None.

    Equal node pairs purify; pairs sharing exactly one router swap there.
    """
    if pa == pb:
        return pa, Purify
    shared = set(pa) & set(pb)
    if len(shared) != 1:
        return None
    (y,) = shared
    if roles[y] is not NodeRole.ROUTER:
        return None
    x = pa[0] if pa[1] == y else pa[1]
    z = pb[0] if pb[1] == y else pb[1]
    return tuple(sorted((x, z))), Swap


# Frontier entry: (fidelity, success, serialization, tree).
_Entry = tuple[float, float, str, StrategyTree]


def _compose(
    fid: float,
    succ: float,
    kind: type[Swap] | type[Purify],
    a: _Entry,
    b: _Entry,
) -> _Entry:
    """Entry for kind(a, b), children ordered by serialization."""
    if b[2] < a[2]:
        a, b = b, a
    ser = serialize_composite(kind, a[2], b[2])
    return fid, succ, ser, kind(a[3], b[3])


def _exhaustive_search(
    g: NetworkGraph, source: str, target: str, min_success: float
) -> tuple[tuple[StrategyTree, CostVector] | None, int]:
    """Best feasible strategy over every series/parallel composition.

    Dynamic programming over (channel subset, node pair): each state keeps
    the Pareto-optimal ways to build one virtual pair from exactly that
    subset.  Swapping joins two disjoint subsets sharing one router (the
    router may serve other subsets again, which plain graph reduction
    cannot express); purification joins two disjoint subsets over the
    same pair.  Returns (best, candidates evaluated).

    Frontiers hold (fidelity, success) over a Pareto antichain: a candidate
    weakly dominated by an entry is dropped, except that an exact tie keeps
    the smaller serialization, and a survivor evicts every entry it weakly
    dominates.  Each candidate is scored on plain floats by swap_floats or
    purify_floats, with CostVector's range check; its serialization (the
    children's strings, composed in serialization order) and its tree node
    are built only when it survives or ties exactly.  Dominance pruning is
    sound because both operations are monotone in each operand's fidelity,
    and in success, while every fidelity is at least 1/2.  Swapping gives
    1/2 + 2(f1 - 1/2)(f2 - 1/2), which decreases in one operand once the
    other is below 1/2, so a channel of fidelity below 1/2 raises
    AlgebraDomainError; swap and purify preserve F >= 1/2.

    A leaf or candidate whose success is below min_success never enters a
    frontier (such a candidate still counts as evaluated).  Both operations
    multiply success by factors in [0, 1], and x*y <= x in IEEE arithmetic
    for y in [0, 1], so nothing built on it could reach the floor; an entry
    dominating a feasible one is feasible itself, so the feasible part of
    every frontier, and the answer, are what they would be without this
    pruning.  A final frontier is the Pareto set of its candidates whatever
    the order of insertion, and both operations are bit-symmetric in their
    operands, so each unordered split is taken once, with the lowest
    channel in its first part.
    """
    ids = sorted(g.channels)
    roles = {nid: n.role for nid, n in g.nodes.items()}
    ops = g.op_costs
    joins: dict = {}
    # frontiers[mask]: (node pair, entries) of every non-empty state.
    frontiers: list[list] = [[]] * (1 << len(ids))
    for i, cid in enumerate(ids):
        c = g.channel(cid)
        if c.cost.fidelity < 0.5:
            raise AlgebraDomainError(
                f"kernel channel {cid!r} has fidelity {c.cost.fidelity!r} "
                "below 1/2; the exhaustive search is exact only for "
                "fidelities >= 1/2"
            )
        if c.cost.success >= min_success:
            tree = Leaf(cid)
            ser = serialize_strategy(tree)
            entry = (c.cost.fidelity, c.cost.success, ser, tree)
            frontiers[1 << i] = [((c.a, c.b), [entry])]
    evaluated = 0
    for mask in range(3, 1 << len(ids)):
        low = mask & -mask
        rest = mask ^ low
        if not rest:
            continue
        frontier: dict[tuple[str, str], list[_Entry]] = {}
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            first = frontiers[low | sub]
            if not first:
                continue
            second = frontiers[rest ^ sub]
            for pa, ea in first:
                for pb, eb in second:
                    key = (pa, pb)
                    if key not in joins:
                        joins[key] = _pair_join(pa, pb, roles)
                    join = joins[key]
                    if join is None:
                        continue
                    produced, kind = join
                    merge = purify_floats if kind is Purify else swap_floats
                    evaluated += len(ea) * len(eb)
                    bucket = frontier.setdefault(produced, [])
                    for a in ea:
                        fa, sa = a[0], a[1]
                        for b in eb:
                            fid, succ = merge(fa, sa, b[0], b[1], ops)
                            if not (0.0 <= fid <= 1.0 and 0.0 <= succ <= 1.0):
                                CostVector(fid, succ)  # raises its range error
                            if succ < min_success:
                                continue
                            for k, e in enumerate(bucket):
                                if e[0] >= fid and e[1] >= succ:
                                    if e[0] == fid and e[1] == succ:
                                        cand = _compose(fid, succ, kind, a, b)
                                        if cand[2] < e[2]:
                                            bucket[k] = cand
                                    break
                            else:
                                bucket[:] = [
                                    e
                                    for e in bucket
                                    if not (fid >= e[0] and succ >= e[1])
                                ]
                                bucket.append(_compose(fid, succ, kind, a, b))
        frontiers[mask] = [(p, es) for p, es in frontier.items() if es]
    span = tuple(sorted((source, target)))
    best: _Entry | None = None
    for states in frontiers:
        for p, entries in states:
            if p == span:
                for entry in entries:
                    best = _better(best, entry)
    if best is None:
        return None, evaluated
    return (best[3], CostVector(best[0], best[1])), evaluated


def route(g: NetworkGraph, request: RouteRequest) -> RouteResult:
    """Plan the best strategy between two endpoints under a success floor.

    Maximizes fidelity subject to cost.success >= min_success; ties break
    toward higher success, then the smallest strategy serialization.  A
    request nothing satisfies gives an Infeasible result.  Raises
    GraphFormatError for a bad endpoint, SearchBoundError when the kernel
    left by series reduction has more than max_bruteforce_edges channels,
    and AlgebraDomainError when a kernel channel's fidelity is below 1/2.
    """
    source, target = request.source, request.target
    paths, examined = harvest_paths(g, request)
    strategy = cost = None
    search = SearchKind.INFEASIBLE
    evaluated = steps = 0
    if not paths:
        # Only the endpoints: a direct channel below the floor stays out.
        sub = NetworkGraph([g.node(source), g.node(target)], [], g.op_costs)
    else:
        sub = _induced_subgraph(g, paths, source, target)
        collapsed = reduce_to_fixpoint(sub)
        steps = len(collapsed.trace.steps)
        if is_fully_reduced_pair(collapsed.graph, source, target):
            (channel,) = collapsed.graph.channels.values()
            if channel.cost.success >= request.min_success:
                strategy, cost = collapsed.strategies[channel.id], channel.cost
                search, evaluated = SearchKind.FULLY_REDUCED, 1
        if strategy is None:
            kernel = reduce_to_fixpoint(sub, series_only=True)
            if len(kernel.graph.channels) > request.max_bruteforce_edges:
                raise SearchBoundError(
                    f"irreducible remainder of {len(kernel.graph.channels)} "
                    "channels exceeds "
                    f"max_bruteforce_edges={request.max_bruteforce_edges}"
                )
            best, evaluated = _exhaustive_search(
                kernel.graph, source, target, request.min_success
            )
            if best is not None:
                tree, cost = best
                # Expand each kernel channel into the swap chain that built it.
                strategy = fold(tree, kernel.strategies.__getitem__, Swap, Purify)
                search = SearchKind.EXHAUSTIVE_SEARCH
    return RouteResult(
        subgraph=sub,
        strategy=strategy,
        cost=cost,
        paths_harvested=len(paths),
        search=search,
        diagnostics=RouteDiagnostics(examined, evaluated, steps),
    )

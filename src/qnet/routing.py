"""Routing: pick a subgraph and an operation strategy between two endpoints.

route plans over the channels on some simple path between the endpoints
through routers: it collapses them, or prunes them by the success floor and
searches every series/parallel combination of every subset of the kernel.
A block that collapses and holds a channel of fidelity below 1/2 is also
collapsed without such channels, and the better collapse answers.
"""
from __future__ import annotations

import heapq
import math
from collections import namedtuple
from enum import Enum

from .algebra import (
    AlgebraDomainError,
    CostVector,
    _make_checked,
    check_cost,
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
    "RouteRequest",
    "RouteResult",
    "SearchBoundError",
    "SearchKind",
    "route",
]

# RouteRequest's default, which is also the CLI's.
DEFAULT_MAX_BRUTEFORCE_EDGES = 12
# The kernel search keeps a table of 2**k subsets and tries 3**k splits for
# a k-channel kernel, so no request may allow more than this many.
MAX_BRUTEFORCE_EDGES = 20


class SearchBoundError(Exception):
    """The exhaustive search would exceed its size bound."""


class SearchKind(Enum):
    FULLY_REDUCED = "FullyReduced"
    EXHAUSTIVE_SEARCH = "ExhaustiveSearch"
    INFEASIBLE = "Infeasible"


class RouteRequest(
    namedtuple("RouteRequest", "source target min_success max_bruteforce_edges")
):
    __slots__ = ()
    _make = _make_checked

    def __new__(
        cls,
        source: str,
        target: str,
        min_success: float,
        max_bruteforce_edges: int = DEFAULT_MAX_BRUTEFORCE_EDGES,
    ):
        if not 0.0 < min_success <= 1.0:
            raise ValueError(f"min_success {min_success!r} outside (0, 1]")
        if max_bruteforce_edges < 1:
            raise ValueError("max_bruteforce_edges must be >= 1")
        if max_bruteforce_edges > MAX_BRUTEFORCE_EDGES:
            raise ValueError(
                f"max_bruteforce_edges must be <= {MAX_BRUTEFORCE_EDGES}"
            )
        return tuple.__new__(
            cls, (source, target, min_success, max_bruteforce_edges)
        )


RouteDiagnostics = namedtuple(
    "RouteDiagnostics", "candidates_evaluated reduction_steps"
)
# strategy and cost are None for an infeasible request
RouteResult = namedtuple(
    "RouteResult", "subgraph strategy cost search diagnostics"
)


def _check_endpoints(g: NetworkGraph, source: str, target: str) -> None:
    if source == target:
        raise GraphFormatError("source and target must differ")
    for nid in (source, target):
        if g.node(nid).role is not NodeRole.ENDPOINT:
            raise GraphFormatError(f"node {nid!r} is not an endpoint")


def _subgraph(
    g: NetworkGraph, channels: list[str], source: str, target: str
) -> NetworkGraph:
    """The endpoints, the channels given and their nodes, in id order.

    channels are distinct channel ids of g.  When they and their nodes are
    all of g, the answer is g itself, uncopied, in g's own order.
    """
    rows = g.channels
    kept = [(cid, rows[cid]) for cid in channels]
    ends = {source, target}
    for _, (a, b, _, _) in kept:
        ends.update((a, b))
    if len(kept) == len(rows) and len(ends) == len(g.nodes):
        return g
    return NetworkGraph([g.node(n) for n in sorted(ends)], kept, g.op_costs)


def _block(
    g: NetworkGraph, source: str, target: str, least_fidelity: float = 0.0
) -> NetworkGraph:
    """The channels on some simple source-target path through routers.

    These are the block holding a virtual source-target channel (Harary,
    Graph Theory, 1969, ch. 3), found by Hopcroft and Tarjan's depth-first
    walk (CACM 16(6), 1973), iterative, that takes the virtual channel
    first.  Only channels among the endpoints and routers, of fidelity at
    least least_fidelity, are walked.
    """
    usable = {nid for nid, n in g.nodes.items() if n.role is NodeRole.ROUTER}
    usable.update((source, target))
    channels = [
        (cid, a, b) for cid, (a, b, f, _) in g.channels.items()
        if a in usable and b in usable and f >= least_fidelity
    ]
    adjacent: dict[str, list[tuple[str, int]]] = {nid: [] for nid in usable}
    for i, (_, a, b) in enumerate(channels):
        adjacent[a].append((b, i))
        adjacent[b].append((a, i))
    disc = {source: 0, target: 1}
    low = {target: 1}
    edges: list[int] = []  # the edge stack, as indices into channels
    # Frames: (node, tree edge into it, neighbours left, edge stack mark).
    stack = [(target, -1, iter(adjacent[target]), 0)]
    while stack:
        v, tree_edge, neighbours, mark = stack[-1]
        for w, i in neighbours:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, i, iter(adjacent[w]), len(edges)))
                edges.append(i)
                break
            if disc[w] < disc[v] and i != tree_edge:  # a back edge, from below
                edges.append(i)
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] >= disc[u]:
                    del edges[mark:]
                low[u] = min(low[u], low[v])
    return _subgraph(g, [channels[i][0] for i in sorted(edges)], source, target)


def _floor_prune(
    sub: NetworkGraph, source: str, target: str, floor: float
) -> NetworkGraph:
    """sub less every channel that no walk meeting the floor crosses.

    One Dijkstra sweep from each endpoint over log-losses, each interior
    router adding -ln(swap_success), gives the least loss of a walk from
    that endpoint to each node.  Channel u-v goes when the least source-u
    loss + its own + the least v-target loss, in both orientations,
    exceeds -ln(floor) by a margin far above the rounding of any sum of
    logs.  sub must be connected.  Nodes left without a channel go too,
    except the endpoints.
    """
    swap_loss = to_log_loss(sub.op_costs.swap_success)
    nodes = sub.nodes
    losses = [
        (cid, a, b, to_log_loss(s)) for cid, (a, b, _, s) in sub.channels.items()
    ]
    adjacent: dict[str, list[tuple[str, float]]] = {nid: [] for nid in nodes}
    for _, a, b, w in losses:
        adjacent[a].append((b, w))
        adjacent[b].append((a, w))

    def sweep(origin: str) -> dict[str, float]:
        # leave[x]: the least loss from origin to x plus x's own swap, which
        # is what a channel out of x adds to; inf at the other endpoint.
        leave: dict[str, float] = {}
        heap = [(0.0, origin)]
        while heap:
            d, x = heapq.heappop(heap)
            if x not in leave:
                if x != origin:
                    d += swap_loss if nodes[x].role is NodeRole.ROUTER else math.inf
                leave[x] = d
                for y, w in adjacent[x]:
                    if y not in leave:
                        heapq.heappush(heap, (d + w, y))
        return leave

    near, far = sweep(source), sweep(target)
    limit = -math.log(floor) * (1.0 + 1e-9) + 1e-9
    kept = [
        cid for cid, a, b, w in losses
        if w + min(near[a] + far[b], near[b] + far[a]) <= limit
    ]
    return _subgraph(sub, kept, source, target)


def _rank(fidelity: float, success: float, serialization: str) -> tuple:
    """Sort key: higher fidelity, then higher success, then smaller serialization.

    It orders only the plans that the collapse or the search compares, by
    their floats; it does not look for other plans that tie them.
    """
    return -fidelity, -success, serialization


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
    rows = g.channels
    ids = sorted(rows)
    roles = {nid: n.role for nid, n in g.nodes.items()}
    ops = g.op_costs
    joins: dict = {}
    # frontiers[mask]: (node pair, entries) of every non-empty state.
    frontiers: list[list] = [[]] * (1 << len(ids))
    for i, cid in enumerate(ids):
        a, b, fidelity, success = rows[cid]
        if fidelity < 0.5:
            raise AlgebraDomainError(
                f"kernel channel {cid!r} has fidelity {fidelity!r} "
                "below 1/2; the exhaustive search is exact only for "
                "fidelities >= 1/2"
            )
        if success >= min_success:
            tree = Leaf(cid)
            entry = (fidelity, success, serialize_strategy(tree), tree)
            frontiers[1 << i] = [((a, b), [entry])]
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
                            check_cost(fid, succ)
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
    best = min(
        (e for states in frontiers for p, es in states if p == span for e in es),
        key=lambda e: _rank(*e[:3]),
        default=None,
    )
    if best is None:
        return None, evaluated
    return (best[3], CostVector(best[0], best[1])), evaluated


def route(g: NetworkGraph, request: RouteRequest) -> RouteResult:
    """Plan the best strategy between two endpoints under a success floor.

    Maximizes fidelity subject to cost.success >= min_success.  Ties break
    toward higher success, then the smallest strategy serialization, but
    only among the plans that the collapse or the search actually compares,
    in floating point: a collapse answers with the tree its rewrite order
    built, and on 128 of 600 tie-prone random graphs another plan, exactly
    tied and with a smaller serialization, existed.  A request nothing
    satisfies gives an Infeasible result.  Raises
    GraphFormatError for a bad endpoint, SearchBoundError when the kernel
    left by series reduction has more than max_bruteforce_edges channels,
    and AlgebraDomainError when a kernel channel's fidelity is below 1/2.

    It plans over the block of the endpoints (_block).  A full collapse
    of the block that meets the floor is the answer.  Otherwise the
    channels that no walk meeting the floor crosses go (_floor_prune), and
    every series/parallel composition of every subset of the kernel left
    is searched; with no channel left, the subgraph is the two endpoints.

    Channels of fidelity below 1/2 stay in the block, but purifying
    against such a pair lowers fidelity, and swapping one with a pair
    above 1/2 gives a pair below 1/2, so a collapse may do better without
    them.  When the block collapses fully and holds one, the block of the
    channels of fidelity at least 1/2 is collapsed too; the better
    collapse meeting the floor answers, with its own block as the
    subgraph, and both count as candidates.  Failing both, the prune and
    the search run on the whole block as above, and the search refuses a
    kernel channel below 1/2, as it does in a block that does not
    collapse.

    Proven, for channel fidelities of at least 1/2: the block holds every
    channel a strategy gains from, since a side hanging off it at a cut
    node x maps onto x as x-x loops, and dropping a swap with a loop
    raises fidelity and success.  The prune is sound, since keeping one
    branch of every purification leaves a source-target swap chain
    through any leaf that bounds the strategy's success.  A full collapse
    that meets the floor leaves the prune nothing to drop, since its
    success is at most any source-target path's, so it runs first and
    saves both sweeps (pruning first could make a block series-parallel
    and answer FullyReduced where the search answers).  Only measured:
    that the full collapse is the most faithful plan on a series-parallel
    block (it held against the search on graphs of 2-12 channels).  With
    channels below 1/2 nothing is proven: on 1,600 requests over random
    graphs of up to 8 channels with fidelities in [0.02, 0.98], route
    matched the brute-force optimum on 804, fell short on 302, refused
    409 and never over-claimed.
    """
    source, target = request.source, request.target
    _check_endpoints(g, source, target)
    sub = _block(g, source, target)
    collapsed = reduce_to_fixpoint(sub)
    steps = len(collapsed.trace.steps)
    strategy = cost = None
    search, evaluated = SearchKind.INFEASIBLE, 0
    if is_fully_reduced_pair(collapsed.graph, source, target):
        plans = [(sub, collapsed)]
        if any(c.fidelity < 0.5 for c in sub.channels.values()):
            sound = _block(g, source, target, least_fidelity=0.5)
            plans.append((sound, reduce_to_fixpoint(sound)))
        answers = [
            (f, s, plan.strategies[cid], block, len(plan.trace.steps))
            for block, plan in plans
            if is_fully_reduced_pair(plan.graph, source, target)
            for cid, (_, _, f, s) in plan.graph.channels.items()
            if s >= request.min_success
        ]
        if len(answers) > 1:
            answers.sort(key=lambda a: _rank(a[0], a[1], serialize_strategy(a[2])))
        if answers:
            f, s, strategy, sub, steps = answers[0]
            cost = CostVector(f, s)
            search, evaluated = SearchKind.FULLY_REDUCED, len(plans)
    if strategy is None:
        sub = _floor_prune(sub, source, target, request.min_success)
        kernel = reduce_to_fixpoint(sub, series_only=True)
        if len(kernel.graph.channels) > request.max_bruteforce_edges:
            raise SearchBoundError(
                f"irreducible remainder of {len(kernel.graph.channels)} channels "
                f"exceeds max_bruteforce_edges={request.max_bruteforce_edges}"
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
        sub, strategy, cost, search, RouteDiagnostics(evaluated, steps)
    )

"""Reference implementations that the optimized code paths are checked against.

reference_harvest_paths is the restart-Dijkstra path harvester as first
written: every sweep walks the graph's own adjacency, re-reads each channel
and converts its success to log-loss on every relaxation, and keeps a set of
live channel ids.  It is slow but obviously right, and the compiled
harvest_paths must return exactly what it returns.
"""
from __future__ import annotations

import heapq

from qnet.algebra import to_log_loss
from qnet.graph import NetworkGraph, NodeRole
from qnet.routing import RouteRequest, _check_endpoints


def _dijkstra(
    g: NetworkGraph,
    alive: set[str],
    source: str,
    target: str,
    swap_loss: float,
) -> tuple[list[str], float] | None:
    """Cheapest swap-only path by log-loss, or None if target is unreachable.

    Edge weight is the channel's log-loss; every interior node adds the
    swap operation's log-loss.  Only the source and repeater nodes may be
    traversed, so no foreign endpoint ever sits inside a path.
    """
    dist: dict[str, float] = {source: 0.0}
    parent: dict[str, tuple[str, str]] = {}
    done: set[str] = set()
    heap: list[tuple[float, str]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == target:
            break
        if u != source and g.node(u).role is not NodeRole.ROUTER:
            continue
        hop = swap_loss if u != source else 0.0
        for cid, v in g.neighbors(u):
            if cid not in alive or v in done:
                continue
            nd = d + hop + to_log_loss(g.channel(cid).cost.success)
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                parent[v] = (cid, u)
                heapq.heappush(heap, (nd, v))
    if target not in done:
        return None
    path: list[str] = []
    node = target
    while node != source:
        cid, prev = parent[node]
        path.append(cid)
        node = prev
    path.reverse()
    success = 1.0
    for cid in path:
        success *= g.channel(cid).cost.success
    for _ in range(len(path) - 1):
        success *= g.op_costs.swap_success
    return path, success


def reference_harvest_paths(
    g: NetworkGraph, request: RouteRequest
) -> tuple[list[tuple[str, ...]], int]:
    """Channel-disjoint swap-only paths, best first.

    Repeats Dijkstra, withdrawing each found path's channels, until the
    graph is exhausted, the best remaining path falls below min_success,
    or max_paths is reached.  Returns (paths, sweeps run).
    """
    _check_endpoints(g, request.source, request.target)
    alive = set(g.channels)
    swap_loss = to_log_loss(g.op_costs.swap_success)
    paths: list[tuple[str, ...]] = []
    examined = 0
    while len(paths) < request.max_paths:
        examined += 1
        found = _dijkstra(g, alive, request.source, request.target, swap_loss)
        if found is None:
            break
        path, success = found
        if success < request.min_success:
            break
        paths.append(tuple(path))
        alive.difference_update(path)
    return paths, examined

"""Relations between two runs of route, checked where no oracle reaches.

Graphs of 10-16 channels are beyond brute_force_best, and the kernel
search is exact only over the subgraph route hands it.  Two relations hold
for the true optimum by definition, so they check route at any size the
kernel bound allows:

- Deletion.  Removing a channel removes strategies, so at a fixed floor
  the fidelity can only fall or stay, and the request can be feasible only
  if it was feasible with the channel.
- Renaming.  Renaming routers and channels one to one changes the search
  kind not at all, and the cost by no more than float re-association.

A pair is skipped only when either side exceeds the kernel bound (exit 3),
and the skips must stay below a fixed share of the pairs, so the graphs
cannot drift into skipping everything.
"""
import time

from _generators import random_ops, seeded
from qnet import (
    Channel,
    NetworkGraph,
    Node,
    NodeRole,
    RouteRequest,
    SearchBoundError,
    SearchKind,
    route,
)

# Kernels above 10 channels count as exit 3; larger searches would take
# most of the time budget.
BOUND = 10
FLOORS = (0.25, 0.4, 0.55)


def _graph(rng):
    """A, B and 3-7 routers: a random spanning tree plus random spans.

    10-16 channels in all, fidelities from [0.55, 0.95], successes from
    [0.5, 1] and random operation costs, acceptance on or off.
    """
    names = ["A", "B"] + [f"m{i}" for i in range(rng.randint(3, 7))]
    order = names[:]
    rng.shuffle(order)
    spans = [(order[i], order[rng.randrange(i)]) for i in range(1, len(order))]
    size = rng.randint(10, 16)
    while len(spans) < size:
        spans.append(tuple(rng.sample(names, 2)))
    nodes = [
        Node(n, NodeRole.ENDPOINT if n in ("A", "B") else NodeRole.ROUTER)
        for n in names
    ]
    channels = [
        (f"c{i}", Channel(a, b, rng.uniform(0.55, 0.95), rng.uniform(0.5, 1.0)))
        for i, (a, b) in enumerate(spans)
    ]
    return NetworkGraph(nodes, channels, random_ops(rng))


def _plan(g, floor):
    """(search kind, cost), or None when the kernel exceeds BOUND."""
    try:
        result = route(g, RouteRequest("A", "B", floor, max_bruteforce_edges=BOUND))
    except SearchBoundError:
        return None
    return result.search, result.cost


def _without(g, cid):
    channels = [(k, c) for k, c in g.channels.items() if k != cid]
    return NetworkGraph(g.nodes.values(), channels, g.op_costs)


def _renamed(g, rng):
    """g with routers and channels renamed one to one, ids sorting anew."""
    routers = [n for n, node in g.nodes.items() if node.role is NodeRole.ROUTER]
    node_names = dict(zip(routers, (f"r{k}" for k in rng.sample(range(100), len(routers)))))
    node_names.update(A="A", B="B")
    channel_names = dict(
        zip(g.channels, (f"k{k}" for k in rng.sample(range(100), len(g.channels))))
    )
    nodes = [Node(node_names[n.id], n.role) for n in g.nodes.values()]
    channels = [
        (channel_names[cid], c._replace(a=node_names[c.a], b=node_names[c.b]))
        for cid, c in g.channels.items()
    ]
    rng.shuffle(channels)
    return NetworkGraph(nodes, channels, g.op_costs)


def _close(x, y, rel):
    return abs(x - y) <= rel * max(abs(x), abs(y))


def _requests():
    """(seed, graph, renamed graph, floor) of the 300 requests."""
    for seed in range(100):
        rng = seeded(31000 + seed)
        g = _graph(rng)
        renamed = _renamed(g, rng)
        for floor in FLOORS:
            yield seed, g, renamed, floor


def test_deleting_a_channel_never_raises_fidelity():
    started = time.perf_counter()
    requests = pairs = skips = lower = lost = 0
    for seed, g, _, floor in _requests():
        requests += 1
        full = _plan(g, floor)
        for cid in g.channels:
            pairs += 1
            less = _plan(_without(g, cid), floor)
            if full is None or less is None:
                skips += 1
                continue
            if less[0] is SearchKind.INFEASIBLE:
                lost += full[0] is not SearchKind.INFEASIBLE
                continue
            assert full[0] is not SearchKind.INFEASIBLE, (seed, floor, cid)
            fid, fid_less = full[1].fidelity, less[1].fidelity
            assert fid_less <= fid or _close(fid_less, fid, 1e-12), (
                seed, floor, cid, fid, fid_less,
            )
            lower += fid_less < fid
    assert requests >= 300
    assert skips < 0.25 * pairs, (skips, pairs)
    # The relation must bite: deletions lower fidelity or lose feasibility.
    assert lower > 200 and lost > 50, (lower, lost, pairs)
    print(
        f"PASS deletion: {requests} requests, {pairs} deletions, "
        f"{skips} skipped, {lower} lowered, {lost} lost feasibility, "
        f"{time.perf_counter() - started:.1f}s"
    )


def test_renaming_routers_and_channels_changes_no_plan():
    searched = 0
    for seed, g, renamed, floor in _requests():
        full, twin = _plan(g, floor), _plan(renamed, floor)
        assert (full is None) == (twin is None), (seed, floor)
        if full is None:
            continue
        assert full[0] is twin[0], (seed, floor)
        if full[0] is not SearchKind.INFEASIBLE:
            a, b = full[1], twin[1]
            assert _close(a.fidelity, b.fidelity, 1e-15), (seed, floor)
            assert _close(a.success, b.success, 1e-15), (seed, floor)
        searched += full[0] is SearchKind.EXHAUSTIVE_SEARCH
    assert searched > 50

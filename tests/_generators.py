"""Random graph and strategy builders shared across test modules."""
import json
import math
import random

from _reference import Rewriter
from qnet import (
    Channel,
    CostVector,
    Leaf,
    NetworkGraph,
    Node,
    NodeRole,
    OperationCosts,
    Purify,
    Swap,
)


def build_graph(edges, endpoints=("A", "B"), ops=None):
    """Graph from (id, a, b, fidelity, success) tuples.

    Every node mentioned by an edge exists; nodes named in `endpoints` are
    endpoints, the rest routers.
    """
    names = set()
    for _, a, b, _, _ in edges:
        names.add(a)
        names.add(b)
    names.update(endpoints)
    nodes = [
        Node(n, NodeRole.ENDPOINT if n in endpoints else NodeRole.ROUTER)
        for n in sorted(names)
    ]
    channels = [(cid, Channel(a, b, f, s)) for cid, a, b, f, s in edges]
    return NetworkGraph(nodes, channels, ops)


def two_path_graph(fidelity=0.9, success=0.9, ops=None):
    """Two disjoint two-hop paths A-m1-B and A-m2-B, identical channels."""
    return build_graph(
        [
            ("c1", "A", "m1", fidelity, success),
            ("c2", "m1", "B", fidelity, success),
            ("c3", "A", "m2", fidelity, success),
            ("c4", "m2", "B", fidelity, success),
        ],
        ops=ops,
    )


def bridge_graph(fidelity=0.9, success=0.9, bridge_fidelity=None, ops=None):
    """Wheatstone bridge: two A-B paths tied together by a middle channel.

    Both interior routers have degree 3, so no series or parallel step
    applies anywhere.
    """
    if bridge_fidelity is None:
        bridge_fidelity = fidelity
    return build_graph(
        [
            ("e1", "A", "u", fidelity, success),
            ("e2", "u", "B", fidelity, success),
            ("e3", "A", "v", fidelity, success),
            ("e4", "v", "B", fidelity, success),
            ("e5", "u", "v", bridge_fidelity, success),
        ],
        ops=ops,
    )


def series_chain(n, fidelity=0.99999, success=0.99999, shape="left"):
    """A-B chain of channels c0..c{n-1} and a swap tree over it.

    The tree swaps the channels in order.  A "left" (left-deep) or "right"
    (right-deep) tree is n - 1 levels deep; a right-deep tree's post-order
    lists all n leaves before its first swap.  A "balanced" tree swaps
    neighbours level by level and is about log2(n) levels deep.
    """
    hops = ["A"] + [f"m{i}" for i in range(1, n)] + ["B"]
    g = build_graph(
        [(f"c{i}", hops[i], hops[i + 1], fidelity, success) for i in range(n)]
    )
    trees = [Leaf(f"c{i}") for i in range(n)]
    if shape == "left":
        tree = trees[0]
        for leaf in trees[1:]:
            tree = Swap(tree, leaf)
    elif shape == "right":
        tree = trees[-1]
        for leaf in reversed(trees[:-1]):
            tree = Swap(leaf, tree)
    else:
        while len(trees) > 1:
            pairs = [Swap(a, b) for a, b in zip(trees[::2], trees[1::2])]
            trees = pairs + trees[len(pairs) * 2 :]
        (tree,) = trees
    return g, tree


def random_ops(rng):
    return OperationCosts(
        swap_success=rng.uniform(0.8, 1.0),
        purify_success=rng.uniform(0.8, 1.0),
        physical_acceptance=rng.random() < 0.5,
    )


def random_sp_graph(rng, max_edges=40):
    """Series-parallel multigraph grown from a single A-B channel.

    Each growth step either subdivides a random channel with a fresh router
    (series) or duplicates a random channel's span (parallel), so the result
    always collapses to a single channel under reduction.
    """
    def cost():
        return CostVector(rng.uniform(0.51, 0.99), rng.uniform(0.3, 1.0))

    edges = {"c0": ("A", "B", cost())}
    next_edge = 1
    next_node = 0
    target = rng.randint(2, max_edges)
    while len(edges) < target:
        cid = rng.choice(sorted(edges))
        a, b, c = edges[cid]
        if rng.random() < 0.5:
            mid = f"m{next_node}"
            next_node += 1
            del edges[cid]
            edges[f"c{next_edge}"] = (a, mid, c)
            edges[f"c{next_edge + 1}"] = (mid, b, cost())
            next_edge += 2
        else:
            edges[f"c{next_edge}"] = (a, b, cost())
            next_edge += 1
    return build_graph(
        [(cid, a, b, c.fidelity, c.success) for cid, (a, b, c) in edges.items()],
        ops=random_ops(rng),
    )


def reduce_random_order(g, rng):
    """Drive reduction by uniformly random legal steps; terminal cost vector.

    The steps run on tests/_reference.Rewriter, which shares nothing with
    the package's rewrite engine.  Only meaningful on graphs that collapse
    to a single channel.  Moves are listed in a fixed order, so the draws
    depend on nothing but the rng.
    """
    rewriter = Rewriter(g)
    while moves := rewriter.moves():
        rewriter.apply(rng.choice(moves))
    (channel,) = rewriter.channels.values()
    return CostVector(channel.fidelity, channel.success)


def uniform_grid(breadth, depth, fidelity=0.99, success=0.9):
    """breadth disjoint A-B strands of depth identical channels each.

    Strand i runs A, g{i}_1, ..., g{i}_{depth-1}, B over channels s{i}_0 to
    s{i}_{depth-1}.
    """
    edges = []
    for i in range(breadth):
        hops = ["A"] + [f"g{i}_{j}" for j in range(1, depth)] + ["B"]
        edges += [
            (f"s{i}_{j}", hops[j], hops[j + 1], fidelity, success)
            for j in range(depth)
        ]
    return build_graph(edges)


def random_connected_graph(rng, max_channels=8, fidelity=(0.55, 0.95)):
    """Connected multigraph with endpoints A, B and 1-4 routers.

    Costs are drawn with fidelities uniform in the `fidelity` interval and
    successes in [0.5, 1.0]; operation costs vary per graph, acceptance
    included.
    """
    n_routers = rng.randint(1, 4)
    names = ["A", "B"] + [f"m{i}" for i in range(n_routers)]
    nodes = [
        Node(n, NodeRole.ENDPOINT if n in ("A", "B") else NodeRole.ROUTER)
        for n in names
    ]
    order = names[:]
    rng.shuffle(order)
    spans = []
    for i in range(1, len(order)):
        spans.append((order[i], order[rng.randrange(i)]))
    for _ in range(rng.randint(0, max_channels - len(spans))):
        spans.append(tuple(rng.sample(names, 2)))
    channels = [
        (f"c{i}", Channel(a, b, rng.uniform(*fidelity), rng.uniform(0.5, 1.0)))
        for i, (a, b) in enumerate(spans)
    ]
    return NetworkGraph(nodes, channels, random_ops(rng))


def random_strategy_tree(rng, max_leaves=10, acceptance=True):
    """Random strategy over parallel A-B channels with costs in [0.55, 1]².

    Returns (tree, graph).  Operation successes vary; `acceptance` sets
    physical acceptance and draws nothing, so both settings give the same
    tree and costs for the same rng.
    """
    n = rng.randint(1, max_leaves)
    nodes = [Node("A", NodeRole.ENDPOINT), Node("B", NodeRole.ENDPOINT)]
    channels = [
        (f"c{i}", Channel("A", "B", rng.uniform(0.55, 1.0), rng.uniform(0.55, 1.0)))
        for i in range(n)
    ]
    ops = OperationCosts(
        swap_success=rng.uniform(0.7, 1.0),
        purify_success=rng.uniform(0.7, 1.0),
        physical_acceptance=acceptance,
    )

    def grow(ids):
        if len(ids) == 1:
            return Leaf(ids[0])
        k = rng.randint(1, len(ids) - 1)
        kind = Swap if rng.random() < 0.5 else Purify
        return kind(grow(ids[:k]), grow(ids[k:]))

    tree = grow([cid for cid, _ in channels])
    return tree, NetworkGraph(nodes, channels, ops)


# The ends of the accepted cost domain: 0, the least subnormal, the floats
# either side of 1/2, where swapping turns a pair's fidelity over, the
# float below 1, and 1.
EDGE_FLOATS = (
    0.0, 5e-324, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
    1.0 - 2**-53, 1.0,
)
# id characters: ASCII, 'r' and digits (reduction names its channels
# r<n>), and non-ASCII in and past the Basic Multilingual Plane
_ID_CHARS = "ar0159_-.éßψ中😀"


def _fresh_id(rng, taken):
    """An id of 1 or 64 characters, or of 2-8, not yet in taken."""
    while True:
        size = rng.choice((1, 64, rng.randint(2, 8)))
        new = "".join(rng.choice(_ID_CHARS) for _ in range(size))
        if new not in taken:
            taken.add(new)
            return new


def _domain_float(rng):
    """An edge of the domain, or a uniform draw mostly at or above 1/2."""
    r = rng.random()
    if r < 0.3:
        return rng.choice(EDGE_FLOATS)
    return rng.uniform(0.5, 1.0) if r < 0.9 else rng.uniform(0.0, 0.5)


def accepted_document(rng):
    """A random graph document that parse_graph accepts, drawn over the
    whole accepted domain, and the two endpoints it is planned between.

    One to three chains of up to three routers join the endpoints, a
    router of one chain may be tied to one of another, some spans get
    parallel channels, and foreign endpoints hang off routers.  Costs are
    EDGE_FLOATS or uniform, operation successes 0, 1 or uniform, acceptance
    on or off, and any op_costs field may be left to its default.  Returns
    (document bytes, source id, target id).
    """
    node_ids, channel_ids = set(), set()
    source, target = _fresh_id(rng, node_ids), _fresh_id(rng, node_ids)
    endpoints, routers, spans = [source, target], [], []
    for _ in range(rng.randint(1, 3)):
        chain = [_fresh_id(rng, node_ids) for _ in range(rng.randint(0, 3))]
        routers += chain
        hops = [source, *chain, target]
        spans += zip(hops, hops[1:])
    if len(routers) > 1 and rng.random() < 0.5:
        spans.append(tuple(rng.sample(routers, 2)))
    for _ in range(rng.randint(0, 2)):
        spans.append(rng.choice(spans))
    for _ in range(rng.randint(0, 2) if routers else 0):
        foreign = _fresh_id(rng, node_ids)
        endpoints.append(foreign)
        spans.append((foreign, rng.choice(routers)))
    doc = {
        "version": 1,
        "nodes": [{"id": n, "role": "endpoint"} for n in endpoints]
        + [{"id": n, "role": "router"} for n in routers],
        "edges": [
            {"id": _fresh_id(rng, channel_ids), "a": a, "b": b,
             "fidelity": _domain_float(rng), "success": _domain_float(rng)}
            for a, b in spans
        ],
    }
    if rng.random() < 0.8:
        costs = {
            "swap_success": rng.choice((0.0, 1.0, rng.uniform(0.5, 1.0))),
            "purify_success": rng.choice((0.0, 1.0, rng.uniform(0.5, 1.0))),
            "physical_acceptance": rng.random() < 0.5,
        }
        doc["op_costs"] = {k: v for k, v in costs.items() if rng.random() < 0.8}
    ascii_only = rng.random() < 0.5
    text = json.dumps(doc, ensure_ascii=ascii_only)
    return text.encode("utf-8"), source, target


def seeded(seed):
    return random.Random(seed)

"""Seeded generators for the four benchmark workloads.

Every workload is a set of documents plus one *pass*: the ordered list of
``python -m qnet`` commands a planner would issue against them.  The same
seed always gives byte-identical documents and the same pass.  Document
shapes are fixed per workload (so every seed does the same amount of work)
and costs are drawn from the seed.

The shapes follow the traffic each workload stands for; none is sized
around a known defect: the 5,000-rung double-channel ladder of ``bulk-sp``
hits the unbounded recursion on deep strategy trees (ROADMAP defect 4.3),
and its two commands count as failed.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("interactive", "bulk-sp", "kernel-search", "montecarlo")

# The four-channel example document from README.md, verbatim.
README_DOC = {
    "version": 1,
    "nodes": [
        {"id": "A", "role": "endpoint"},
        {"id": "B", "role": "endpoint"},
        {"id": "m1", "role": "router"},
        {"id": "m2", "role": "router"},
    ],
    "edges": [
        {"id": "c1", "a": "A", "b": "m1", "fidelity": 0.9, "success": 0.9},
        {"id": "c2", "a": "m1", "b": "B", "fidelity": 0.9, "success": 0.9},
        {"id": "c3", "a": "A", "b": "m2", "fidelity": 0.9, "success": 0.9},
        {"id": "c4", "a": "m2", "b": "B", "fidelity": 0.9, "success": 0.9},
    ],
    "op_costs": {"swap_success": 1.0, "purify_success": 1.0, "physical_acceptance": True},
}

# The Wheatstone bridge of the test suite, verbatim: two A-B paths tied
# together by the u-v channel, so no series or parallel step applies.
BRIDGE_DOC = {
    "version": 1,
    "nodes": [
        {"id": "A", "role": "endpoint"},
        {"id": "B", "role": "endpoint"},
        {"id": "u", "role": "router"},
        {"id": "v", "role": "router"},
    ],
    "edges": [
        {"id": "e1", "a": "A", "b": "u", "fidelity": 0.9, "success": 0.9},
        {"id": "e2", "a": "u", "b": "B", "fidelity": 0.9, "success": 0.9},
        {"id": "e3", "a": "A", "b": "v", "fidelity": 0.9, "success": 0.9},
        {"id": "e4", "a": "v", "b": "B", "fidelity": 0.9, "success": 0.9},
        {"id": "e5", "a": "u", "b": "v", "fidelity": 0.9, "success": 0.9},
    ],
}

BRIDGE_SPANS = (("A", "u"), ("u", "B"), ("A", "v"), ("v", "B"), ("u", "v"))


@dataclass(frozen=True)
class Command:
    """One ``python -m qnet`` invocation and what its report must satisfy."""

    key: str  # report identity: repeats and thread counts must match bytes
    sub: str  # reduce | route | simulate | grid
    args: tuple[str, ...]  # argv after ``-m qnet``; {doc} is the document path
    threads: int
    doc: str | None = None  # document name
    channels: int = 0  # input channels
    leaves: int = 0  # strategy leaves sampled (simulate)
    samples: int = 0
    acceptance: bool = True
    grid: dict | None = None  # uniform-grid reference for reduce checks
    expect_search: str | None = None  # route: required search kind

    def argv(self, doc_path: str | None) -> list[str]:
        return [doc_path if a == "{doc}" else a for a in self.args]


@dataclass
class Workload:
    name: str
    docs: dict[str, dict] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)

    def doc_bytes(self, name: str) -> bytes:
        return json.dumps(self.docs[name], sort_keys=True).encode("utf-8")


# --- reference algebra, kept independent of the program under test --------


def _swap(a, b, ops):
    (fa, sa), (fb, sb) = a, b
    return fa * fb + (1 - fa) * (1 - fb), sa * sb * ops["swap_success"]


def _purify(a, b, ops):
    (fa, sa), (fb, sb) = a, b
    accept = fa * fb + (1 - fa) * (1 - fb)
    s = sa * sb * ops["purify_success"]
    if ops["physical_acceptance"]:
        s *= accept
    return fa * fb / accept, s


def _chain(op, items, ops):
    acc = items[0]
    for item in items[1:]:
        acc = op(acc, item, ops)
    return acc


# --- document builders -----------------------------------------------------


def _doc(endpoints, routers, edges, ops=None):
    doc = {
        "version": 1,
        "nodes": [{"id": n, "role": "endpoint"} for n in endpoints]
        + [{"id": n, "role": "router"} for n in routers],
        "edges": [
            {"id": cid, "a": a, "b": b, "fidelity": f, "success": s}
            for cid, a, b, f, s in edges
        ],
    }
    if ops is not None:
        doc["op_costs"] = dict(ops)
    return doc


def random_ops(rng, acceptance=None):
    """Operation costs as the test suite draws them."""
    ops = {
        "swap_success": rng.uniform(0.8, 1.0),
        "purify_success": rng.uniform(0.8, 1.0),
        "physical_acceptance": rng.random() < 0.5,
    }
    if acceptance is not None:
        ops["physical_acceptance"] = acceptance
    return ops


def random_sp_doc(rng, n_edges, cost, ops):
    """Series-parallel multigraph grown from one A-B channel to n_edges.

    Each step subdivides a random channel with a fresh router or duplicates
    its span, so the graph always collapses to a single channel.
    """
    edges = {"c0": ("A", "B", cost())}
    next_edge, next_node = 1, 0
    while len(edges) < n_edges:
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
    routers = [f"m{i}" for i in range(next_node)]
    return _doc(
        ["A", "B"],
        routers,
        [(cid, a, b, f, s) for cid, (a, b, (f, s)) in edges.items()],
        ops,
    )


def random_connected_doc(rng, n_routers, n_channels):
    """Connected multigraph on A, B and n_routers routers, as the tests draw it.

    A random spanning tree plus random extra spans up to n_channels.
    """
    routers = [f"m{i}" for i in range(n_routers)]
    names = ["A", "B"] + routers
    order = names[:]
    rng.shuffle(order)
    spans = [(order[i], order[rng.randrange(i)]) for i in range(1, len(order))]
    while len(spans) < n_channels:
        spans.append(tuple(rng.sample(names, 2)))
    edges = [
        (f"c{i}", a, b, rng.uniform(0.55, 0.95), rng.uniform(0.5, 1.0))
        for i, (a, b) in enumerate(spans)
    ]
    return _doc(["A", "B"], routers, edges, random_ops(rng))


def grid_doc(breadth, depth, fidelity, success, ops):
    """breadth disjoint A-B strands of depth identical channels each."""
    routers, edges = [], []
    for i in range(breadth):
        hops = ["A"] + [f"g{i}_{j}" for j in range(1, depth)] + ["B"]
        routers.extend(hops[1:-1])
        for j in range(depth):
            edges.append((f"s{i}_{j}", hops[j], hops[j + 1], fidelity, success))
    return _doc(["A", "B"], routers, edges, ops)


def ladder_doc(rng, rungs, ops):
    """A-B chain of rungs hops, each hop two parallel channels.

    Returns (document, cost of the full collapse by the reference algebra).
    """
    hops = ["A"] + [f"l{j}" for j in range(1, rungs)] + ["B"]
    edges, segments = [], []
    for j in range(rungs):
        pair = []
        for k in (0, 1):
            f, s = rng.uniform(0.98, 0.999), rng.uniform(0.995, 1.0)
            edges.append((f"h{j}_{k}", hops[j], hops[j + 1], f, s))
            pair.append((f, s))
        segments.append(_purify(pair[0], pair[1], ops))
    return _doc(["A", "B"], hops[1:-1], edges, ops), _chain(_swap, segments, ops)


def bridge_multigraph_doc(rng, extra):
    """Wheatstone bridge with extra parallel duplicates, spread over its spans.

    Duplicate placement is fixed by extra, so only the costs vary by seed.
    """
    spans = list(BRIDGE_SPANS) + [BRIDGE_SPANS[i % 5] for i in range(extra)]
    edges = [
        (f"e{i}", a, b, rng.uniform(0.55, 0.95), rng.uniform(0.7, 1.0))
        for i, (a, b) in enumerate(spans)
    ]
    return _doc(["A", "B"], ["u", "v"], edges, random_ops(rng, acceptance=True))


# --- workloads -------------------------------------------------------------


def _route_args(floor):
    return ("route", "{doc}", "--source", "A", "--target", "B",
            "--min-success", repr(floor))


def _reduce(name, channels, grid=None):
    return Command(f"reduce:{name}", "reduce", ("reduce", "{doc}", "--trace"), 1,
                   name, channels, grid=grid)


# Channel counts of the small random graphs (sizes are fixed so that every
# seed does the same work), and router counts of the connected ones.
SMALL_SP = (3, 4, 5, 6, 7, 8)
SMALL_CONNECTED = ((1, 5), (2, 6), (3, 7), (4, 8), (2, 8), (3, 6))


def _interactive(rng, w):
    w.docs["readme"] = README_DOC
    w.docs["bridge"] = BRIDGE_DOC
    for i, (n_sp, (n_routers, n_conn)) in enumerate(zip(SMALL_SP, SMALL_CONNECTED)):
        w.docs[f"sp{i}"] = random_sp_doc(
            rng,
            n_sp,
            lambda: (rng.uniform(0.51, 0.99), rng.uniform(0.3, 1.0)),
            random_ops(rng),
        )
        w.docs[f"conn{i}"] = random_connected_doc(rng, n_routers, n_conn)
    seed = str(rng.randrange(2**31))
    for i, (name, doc) in enumerate(w.docs.items()):
        n = len(doc["edges"])
        floor = 0.4 if name in ("readme", "bridge") else 1e-4
        sim_args = ("simulate", "{doc}", "--samples", "10000", "--seed", seed)
        if name in ("bridge",) or name.startswith("conn"):
            # Not series-parallel in general: simulate the routed plan.
            sim_args += _route_args(floor)[2:]
        acceptance = doc.get("op_costs", {}).get("physical_acceptance", True)
        grid = ("grid", "--breadth", str(rng.randint(1, 8)),
                "--depth", str(rng.randint(1, 8)),
                "--fidelity", repr(rng.uniform(0.6, 0.99)),
                "--success", repr(rng.uniform(0.5, 1.0)),
                "--strategy", rng.choice(["purify-then-swap", "swap-then-purify"]),
                rng.choice(["--physical-acceptance", "--no-physical-acceptance"]))
        w.commands += [
            _reduce(name, n),
            Command(f"route:{name}", "route", _route_args(floor), 1, name, n),
            Command(f"simulate:{name}", "simulate", sim_args, 1 + i % 2, name, n,
                    samples=10000, acceptance=acceptance),
            Command(f"grid:{i}", "grid", grid, 1),
        ]


# (breadth, depth) of the uniform grids and rung counts of the ladders:
# 10^3-10^4 channels each.  Narrow grids and ladders up to 2,000 channels
# take about the same time for reduce and route; they outnumber the rest,
# so the median command sits among them, not next to a gap.
BULK_GRIDS = ((10, 100), (20, 50), (25, 40), (50, 50), (32, 100), (100, 32), (100, 100))
BULK_LADDERS = (500, 600, 750, 1000, 5000)


def _bulk_ops(rng, low):
    # Near-ideal operations: the success of a 10^4-channel collapse must
    # stay a normal double.
    return {
        "swap_success": rng.uniform(low, 1.0),
        "purify_success": rng.uniform(low, 1.0),
        "physical_acceptance": rng.random() < 0.5,
    }


def _bulk_sp(rng, w):
    for b, d in BULK_GRIDS:
        name = f"grid{b}x{d}"
        f, s = rng.uniform(0.997, 0.9995), rng.uniform(0.995, 1.0)
        ops = _bulk_ops(rng, 0.999)
        w.docs[name] = grid_doc(b, d, f, s, ops)
        strand = _chain(_swap, [(f, s)] * d, ops)
        floor = _chain(_purify, [strand] * b, ops)[1] / 2
        spec = {"breadth": b, "depth": d, "fidelity": f, "success": s, "ops": ops}
        w.commands += [
            _reduce(name, b * d, spec),
            Command(f"route:{name}", "route", _route_args(floor), 1, name, b * d,
                    expect_search="FullyReduced"),
        ]
    for rungs in BULK_LADDERS:
        name = f"ladder{rungs}"
        w.docs[name], collapse = ladder_doc(rng, rungs, _bulk_ops(rng, 0.9995))
        w.commands += [
            _reduce(name, 2 * rungs),
            Command(f"route:{name}", "route", _route_args(collapse[1] / 2), 1,
                    name, 2 * rungs, expect_search="FullyReduced"),
        ]


# Extra duplicates on the bridge spans: 9, 10 and 11 channels in all.  The
# median command sits inside the 10-channel group, not at a group boundary.
KERNEL_EXTRAS = (4,) * 2 + (5,) * 12 + (6,) * 2


def _kernel_search(rng, w):
    for i, extra in enumerate(KERNEL_EXTRAS):
        name = f"kernel{i}"
        w.docs[name] = bridge_multigraph_doc(rng, extra)
        floor = rng.uniform(0.05, 0.3)
        w.commands.append(
            Command(f"route:{name}", "route", _route_args(floor), 1, name,
                    5 + extra, expect_search="ExhaustiveSearch")
        )


# (leaves, samples) of the Monte Carlo trees.  Sample counts are multiples
# of two 65,536-sample chunks so both threads get equal work.  The mix puts
# the median command among the 100-leaf trees at two threads, between
# 10-leaf and 100-leaf commands of similar duration, not next to a gap.
MC_TREES = ((2, 1 << 20),) + ((10, 1 << 19),) * 2 + ((100, 1 << 17),) * 4 + ((250, 1 << 17),)


def _montecarlo(rng, w):
    for i, (leaves, samples) in enumerate(MC_TREES):
        name = f"tree{i}_{leaves}"
        acceptance = i % 2 == 0
        w.docs[name] = random_sp_doc(
            rng,
            leaves,
            lambda: (rng.uniform(0.55, 0.99), rng.uniform(0.9, 1.0)),
            random_ops(rng, acceptance),
        )
        seed = str(rng.randrange(2**31))
        for threads in (1, 2):
            w.commands.append(
                Command(f"simulate:{name}", "simulate",
                        ("simulate", "{doc}", "--samples", str(samples),
                         "--seed", seed),
                        threads, name, leaves, leaves, samples, acceptance)
            )


_BUILDERS = {
    "interactive": _interactive,
    "bulk-sp": _bulk_sp,
    "kernel-search": _kernel_search,
    "montecarlo": _montecarlo,
}


def build(name: str, seed: int) -> Workload:
    """Documents and the command pass of one workload for one seed."""
    w = Workload(name)
    _BUILDERS[name](random.Random(f"{name}:{seed}"), w)
    return w

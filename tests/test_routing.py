"""Path harvesting, route planning, and the brute-force reference search."""
import heapq
import json
import math
import pathlib
import re
from collections import Counter

import pytest

from _generators import (
    bridge_graph,
    build_graph,
    random_connected_graph,
    seeded,
    two_path_graph,
)
from _reference import (
    brute_force_best,
    reference_exhaustive_search,
    reference_harvest_paths,
)
import qnet.routing
from qnet import (
    AlgebraDomainError,
    Channel,
    CostVector,
    GraphFormatError,
    InfeasibleRouteError,
    Leaf,
    NetworkGraph,
    Node,
    NodeRole,
    OperationCosts,
    Purify,
    RouteRequest,
    SearchBoundError,
    SearchKind,
    Swap,
    evaluate_strategy,
    route,
)
from qnet.cli import run
from qnet.routing import (
    UNBOUNDED_PATHS,
    RouteDiagnostics,
    _exhaustive_search,
    harvest_paths,
)
from qnet.reduction import serialize_strategy, strategy_leaves

TWO_PATH_COST = CostVector(0.9540295119182747, 0.46241928000000015)
TWO_PATH_TREE = Purify(Swap(Leaf("c1"), Leaf("c2")), Swap(Leaf("c3"), Leaf("c4")))


def test_harvest_single_edge_threshold():
    g = build_graph([("c1", "A", "B", 0.9, 0.81)])
    paths, _ = harvest_paths(g, RouteRequest("A", "B", 0.5))
    assert paths == [("c1",)]
    paths, _ = harvest_paths(g, RouteRequest("A", "B", 0.9))
    assert paths == []


def test_harvest_two_path_graph():
    paths, examined = harvest_paths(two_path_graph(), RouteRequest("A", "B", 0.5))
    assert sorted(paths) == [("c1", "c2"), ("c3", "c4")]
    assert examined >= 2
    # disjoint by construction
    assert len({cid for p in paths for cid in p}) == 4


def test_harvest_respects_max_paths():
    paths, _ = harvest_paths(two_path_graph(), RouteRequest("A", "B", 0.5, max_paths=1))
    assert len(paths) == 1


def test_harvest_charges_swap_loss_per_interior_router():
    ops = OperationCosts(swap_success=0.5)
    g = build_graph(
        [("c1", "A", "m0", 0.9, 0.9), ("c2", "m0", "B", 0.9, 0.9)], ops=ops
    )
    assert harvest_paths(g, RouteRequest("A", "B", 0.40))[0] == [("c1", "c2")]
    assert harvest_paths(g, RouteRequest("A", "B", 0.41))[0] == []


def test_harvest_never_routes_through_foreign_endpoints():
    g = build_graph(
        [
            ("c1", "A", "C", 0.99, 0.99),
            ("c2", "C", "B", 0.99, 0.99),
            ("c3", "A", "m0", 0.9, 0.9),
            ("c4", "m0", "B", 0.9, 0.9),
        ],
        endpoints=("A", "B", "C"),
    )
    paths, _ = harvest_paths(g, RouteRequest("A", "B", 0.1))
    assert paths == [("c3", "c4")]


def _random_harvest_case(rng):
    """Small multigraph with a foreign endpoint, parallel channels and ties.

    Node and channel ids are drawn so that their sorted order differs from
    creation order; successes come from {0, 1/2, 1, uniform} and the swap
    success from {0, 0.9, 1, uniform}, so log-losses tie, vanish or are
    infinite.  Returns (graph, request).
    """
    routers = [f"m{k}" for k in rng.sample(range(40), rng.randint(0, 6))]
    names = ["A", "B", "C"] + routers
    channels = []
    spans = []
    for k in rng.sample(range(200), rng.randint(1, 24)):
        if spans and rng.random() < 0.3:
            a, b = rng.choice(spans)
        else:
            a, b = rng.sample(names, 2)
        spans.append((a, b))
        success = rng.choice([0.0, 0.5, 1.0, rng.random()])
        channels.append((f"c{k}", a, b, rng.uniform(0.5, 1.0), success))
    ops = OperationCosts(
        swap_success=rng.choice([0.0, 0.9, 1.0, rng.random()]),
        physical_acceptance=rng.random() < 0.5,
    )
    nodes = [Node(n, NodeRole.ENDPOINT) for n in names[:3]] + [
        Node(n, NodeRole.ROUTER) for n in routers
    ]
    g = NetworkGraph(
        nodes,
        [Channel(cid, a, b, CostVector(f, s)) for cid, a, b, f, s in channels],
        ops,
    )
    source, target = rng.sample(["A", "B", "C"], 2)
    floor = rng.choice([1e-12, 0.25, 1.0, rng.uniform(1e-6, 1.0)])
    max_paths = rng.choice([1, 2, UNBOUNDED_PATHS])
    return g, RouteRequest(source, target, floor, max_paths=max_paths)


def test_harvest_matches_reference_harvester():
    """The chain-walking harvest returns exactly the restart-Dijkstra result.

    Same paths in the same order and the same sweep count, over random
    multigraphs where zero-weight edges and equal distances make the
    lexicographic pop order decide which path comes out, whether a path
    runs through routers that are heaped or walked.
    """
    several = 0
    for seed in range(3000):
        g, request = _random_harvest_case(seeded(9000 + seed))
        expected = reference_harvest_paths(g, request)
        assert harvest_paths(g, request) == expected, seed
        several += len(expected[0]) > 1
    assert several > 300


@pytest.mark.parametrize("chain", [("m1", "m9"), ("m9", "m1")], ids="-".join)
def test_harvest_chain_ties_break_as_dijkstra(chain):
    """A walked chain is ordered by its largest (label, index), as heaped.

    All losses are zero, so every label ties and node ids decide: plain
    Dijkstra pops m5 (index 3) before the chain's larger index m9 (4)
    and returns the A-m5-B path, whichever end of the chain m9 is at.
    Keying a walk by its last router, or by its first router at the top
    label, picks the chain in one of the two cases.
    """
    first, second = chain
    g = build_graph(
        [
            ("c1", "A", first, 0.9, 1.0),
            ("c2", first, second, 0.9, 1.0),
            ("c3", second, "B", 0.9, 1.0),
            ("c4", "A", "m5", 0.9, 1.0),
            ("c5", "m5", "B", 0.9, 1.0),
        ],
        ops=OperationCosts(swap_success=1.0),
    )
    request = RouteRequest("A", "B", 1.0, max_paths=1)
    assert harvest_paths(g, request) == ([("c4", "c5")], 1)
    assert reference_harvest_paths(g, request) == ([("c4", "c5")], 1)


def test_harvest_pushes_grow_with_breadth_not_grid_area(monkeypatch):
    """A uniform grid's strands are walked, never heaped router by router.

    On a 40 x 40 grid each sweep pushes one walk event per remaining
    strand and one entry for B: 860 pushes in all.  Heaping every router
    takes 32,020, as every strand ties and is settled before B pops.
    """
    breadth = depth = 40
    edges = []
    for i in range(breadth):
        hops = ["A"] + [f"g{i}_{j}" for j in range(1, depth)] + ["B"]
        edges += [
            (f"s{i}_{j}", hops[j], hops[j + 1], 0.99, 0.999) for j in range(depth)
        ]
    g = build_graph(edges, ops=OperationCosts(swap_success=0.999))
    request = RouteRequest("A", "B", 1e-6)
    expected = reference_harvest_paths(g, request)
    pushes = 0
    heappush = heapq.heappush

    def counting(heap, item):
        nonlocal pushes
        pushes += 1
        heappush(heap, item)

    monkeypatch.setattr(qnet.routing.heapq, "heappush", counting)
    paths, sweeps = harvest_paths(g, request)
    assert (paths, sweeps) == expected
    assert (len(paths), sweeps) == (breadth, breadth + 1)
    assert pushes <= (breadth + 1) ** 2


def _random_chain_case(rng):
    """Long chains of two-channel routers, and few other nodes.

    Chains join the endpoints and hubs; some share both ends with an
    earlier chain, some close a cycle on one node (the source among them),
    some end at the foreign endpoint, and some end inside an earlier
    chain, so a router of three or four channels is heaped in one sweep
    and walked, or no longer walked, once paths withdraw channels.  Router
    and channel numbers are drawn at random, so ids sort against chain
    order; losses are often zero and sometimes infinite.  Returns (graph,
    request).
    """
    source, target, foreign = rng.sample(["A", "B", "C"], 3)
    numbers = iter(rng.sample(range(1000), 400))
    cids = iter(rng.sample(range(1000), 400))
    hubs = [f"m{next(numbers)}" for _ in range(rng.randint(0, 2))]
    ends = [source, source, target, target, foreign] + hubs
    routers = []
    crossings = []
    spans = []
    channels = []

    def success():
        return rng.choice([1.0, 1.0, 1.0, 0.5, 0.9, rng.random()])

    def end():
        # A router that already ends a chain gets a fourth channel.
        if crossings and rng.random() < 0.2:
            return rng.choice(crossings)
        if routers and rng.random() < 0.4:
            crossings.append(rng.choice(routers))
            return crossings[-1]
        return rng.choice(ends)

    def chain(a, b):
        spans.append((a, b))
        hops = [a] + [f"m{next(numbers)}" for _ in range(rng.randint(0, 12))]
        routers.extend(hops[1:])
        hops.append(b)
        uniform = success() if rng.random() < 0.5 else None
        lost = rng.randrange(len(hops) - 1) if rng.random() < 0.1 else None
        for k, (x, y) in enumerate(zip(hops, hops[1:])):
            s = 0.0 if k == lost else success() if uniform is None else uniform
            if x != y:
                channels.append((f"c{next(cids)}", x, y, rng.uniform(0.5, 1.0), s))

    chain(*rng.sample([source, target], 2))
    if routers and rng.random() < 0.5:
        # A second source-target route through a router of the first.
        crossings.append(rng.choice(routers))
        chain(source, crossings[-1])
        chain(crossings[-1], target)
    for _ in range(rng.randint(0, 5)):
        chain(*(rng.choice(spans) if rng.random() < 0.3 else (end(), end())))
    ops = OperationCosts(
        swap_success=rng.choice([1.0, 1.0, 0.99, 0.9, rng.random(), 0.0]),
        physical_acceptance=rng.random() < 0.5,
    )
    g = build_graph(channels, endpoints=("A", "B", "C"), ops=ops)
    floor = rng.choice([1e-12, 1e-12, 0.25, rng.uniform(1e-6, 1.0)])
    max_paths = rng.choice([1, 2, UNBOUNDED_PATHS, UNBOUNDED_PATHS])
    return g, RouteRequest(source, target, floor, max_paths=max_paths)


def test_harvest_walks_chains_as_the_reference_harvester():
    """Chain-rich graphs harvest exactly as the restart-Dijkstra reference.

    Also counts the cases where a later path runs through a router that
    had more than two channels, with only that path's two channels left,
    so the sweep that found the path walked a router no earlier sweep
    could walk.
    """
    several = reopened = 0
    for seed in range(3000):
        g, request = _random_chain_case(seeded(40000 + seed))
        expected = reference_harvest_paths(g, request)
        assert harvest_paths(g, request) == expected, seed
        paths = expected[0]
        several += len(paths) > 1
        left = Counter(n for c in g.channels.values() for n in (c.a, c.b))
        wide = {n for n, k in left.items() if k > 2}
        for k, path in enumerate(paths):
            hops = Counter(n for c in map(g.channel, path) for n in (c.a, c.b))
            if k and any(hops[n] == 2 == left[n] for n in wide):
                reopened += 1
                break
            left -= hops
    assert several > 500
    assert reopened > 100


def test_route_infeasible_when_only_endpoint_paths_exist():
    g = build_graph(
        [("c1", "A", "C", 0.99, 0.99), ("c2", "C", "B", 0.99, 0.99)],
        endpoints=("A", "B", "C"),
    )
    result = route(g, RouteRequest("A", "B", 0.1))
    assert result.search is SearchKind.INFEASIBLE
    assert result.paths_harvested == 0
    assert result.strategy is None and result.cost is None
    assert set(result.subgraph.nodes) == {"A", "B"}
    assert result.subgraph.channels == {}
    assert result.diagnostics.paths_examined >= 1


def test_route_two_paths_low_threshold_fully_reduces():
    result = route(two_path_graph(), RouteRequest("A", "B", 0.4))
    assert result.search is SearchKind.FULLY_REDUCED
    assert result.cost == TWO_PATH_COST
    assert serialize_strategy(result.strategy) == serialize_strategy(TWO_PATH_TREE)
    assert result.paths_harvested == 2
    assert result.diagnostics.candidates_evaluated == 1
    assert result.diagnostics.reduction_steps == 3
    assert evaluate_strategy(result.strategy, two_path_graph()) == result.cost


def test_route_two_paths_high_threshold_searches():
    result = route(two_path_graph(), RouteRequest("A", "B", 0.6))
    assert result.search is SearchKind.EXHAUSTIVE_SEARCH
    assert result.cost == CostVector(0.8200000000000001, 0.81)
    # a single swapped path; ties broke to the lexicographically first pair
    assert serialize_strategy(result.strategy) == serialize_strategy(
        Swap(Leaf("c1"), Leaf("c2"))
    )


def test_route_infeasible_threshold():
    result = route(two_path_graph(), RouteRequest("A", "B", 0.9))
    assert result.search is SearchKind.INFEASIBLE
    assert result.paths_harvested == 0
    # no path reaches the floor: the subgraph is the bare endpoints, without
    # the direct channel below the floor
    g = build_graph(
        [
            ("d", "A", "B", 0.9, 0.5),
            ("p1", "A", "m", 0.9, 0.6),
            ("p2", "m", "B", 0.9, 0.6),
        ]
    )
    result = route(g, RouteRequest("A", "B", 0.9))
    assert result.search is SearchKind.INFEASIBLE
    assert sorted(result.subgraph.nodes) == ["A", "B"]
    assert result.subgraph.channels == {}
    assert result.diagnostics == RouteDiagnostics(1, 0, 0)
    assert result.paths_harvested == 0
    assert result.strategy is None and result.cost is None


def test_route_bridge_matches_brute_force_exactly():
    g = bridge_graph()
    result = route(g, RouteRequest("A", "B", 0.3))
    tree, cost = brute_force_best(g, "A", "B", 0.3)
    assert result.search is SearchKind.EXHAUSTIVE_SEARCH
    assert result.cost == cost
    assert result.cost.fidelity == cost.fidelity
    assert evaluate_strategy(result.strategy, g) == result.cost
    # the uniform bridge is best served by ignoring the middle channel
    assert "e5" not in strategy_leaves(result.strategy)
    assert serialize_strategy(result.strategy) == serialize_strategy(
        Purify(Swap(Leaf("e1"), Leaf("e2")), Swap(Leaf("e3"), Leaf("e4")))
    )


def test_route_bridge_uses_middle_channel_when_profitable():
    # one weak side edge: reinforcing e3 with a swap through the middle
    # (purify e3 against e1+e5, then swap over e4) beats ignoring e5
    g = build_graph(
        [
            ("e1", "A", "u", 0.95, 0.9),
            ("e2", "u", "B", 0.55, 0.9),
            ("e3", "A", "v", 0.95, 0.9),
            ("e4", "v", "B", 0.95, 0.9),
            ("e5", "u", "v", 0.95, 0.9),
        ]
    )
    result = route(g, RouteRequest("A", "B", 1e-6))
    _, cost = brute_force_best(g, "A", "B", 1e-6)
    assert result.cost == cost
    assert "e5" in strategy_leaves(result.strategy)


def _chained_bridges(count):
    edges = []
    left = "A"
    for k in range(count):
        right = "B" if k == count - 1 else f"j{k}"
        edges += [
            (f"b{k}e1", left, f"u{k}", 0.95, 0.95),
            (f"b{k}e2", f"u{k}", right, 0.95, 0.95),
            (f"b{k}e3", left, f"v{k}", 0.95, 0.95),
            (f"b{k}e4", f"v{k}", right, 0.95, 0.95),
            (f"b{k}e5", f"u{k}", f"v{k}", 0.95, 0.95),
        ]
        left = right
    return build_graph(edges)


def test_route_bound_exceeded():
    g = _chained_bridges(3)  # 15-channel irreducible kernel
    with pytest.raises(SearchBoundError):
        route(g, RouteRequest("A", "B", 1e-6))
    with pytest.raises(SearchBoundError):
        route(bridge_graph(), RouteRequest("A", "B", 0.3, max_bruteforce_edges=4))
    # two chained bridges stay within the default bound
    ok = route(_chained_bridges(2), RouteRequest("A", "B", 1e-6))
    assert ok.search is SearchKind.EXHAUSTIVE_SEARCH


def test_request_validation():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            RouteRequest("A", "B", bad)
    with pytest.raises(ValueError):
        RouteRequest("A", "B", 0.5, max_paths=0)
    with pytest.raises(ValueError):
        RouteRequest("A", "B", 0.5, max_bruteforce_edges=0)


def test_route_endpoint_validation():
    g = two_path_graph()
    with pytest.raises(GraphFormatError):
        route(g, RouteRequest("A", "A", 0.5))
    with pytest.raises(GraphFormatError):
        route(g, RouteRequest("A", "m1", 0.5))
    with pytest.raises(GraphFormatError):
        route(g, RouteRequest("A", "ghost", 0.5))


def test_exhaustive_search_directly():
    (tree, cost), _ = _exhaustive_search(two_path_graph(), "A", "B", 0.3)
    assert cost == TWO_PATH_COST
    assert serialize_strategy(tree) == serialize_strategy(TWO_PATH_TREE)
    found, _ = _exhaustive_search(two_path_graph(), "A", "B", 0.99)
    assert found is None


def test_brute_force_reference_behaviour():
    tree, cost = brute_force_best(two_path_graph(), "A", "B", 0.3)
    assert cost == TWO_PATH_COST
    with pytest.raises(InfeasibleRouteError):
        brute_force_best(two_path_graph(), "A", "B", 0.99)
    nine = build_graph(
        [(f"c{i}", "A", "B", 0.9, 0.9) for i in range(9)]
    )
    with pytest.raises(SearchBoundError):
        brute_force_best(nine, "A", "B", 0.5)


def test_route_is_deterministic():
    g = random_connected_graph(seeded(42))
    req = RouteRequest("A", "B", 0.05)
    first = route(g, req)
    second = route(g, req)
    assert first.search is second.search
    assert first.cost == second.cost
    assert first.diagnostics == second.diagnostics
    assert first.subgraph == second.subgraph
    if first.strategy is not None:
        assert serialize_strategy(first.strategy) == serialize_strategy(
            second.strategy
        )


def test_route_matches_oracle_when_harvest_covers_it():
    matches = gaps = infeasible = 0
    for seed in range(40):
        g = random_connected_graph(seeded(1000 + seed))
        result = route(g, RouteRequest("A", "B", 1e-6))
        try:
            oracle_tree, oracle_cost = brute_force_best(g, "A", "B", 1e-6)
        except InfeasibleRouteError:
            assert result.search is SearchKind.INFEASIBLE
            infeasible += 1
            continue
        assert result.search is not SearchKind.INFEASIBLE
        harvested = {
            cid for p in harvest_paths(g, RouteRequest("A", "B", 1e-6))[0] for cid in p
        }
        if set(strategy_leaves(oracle_tree)) <= harvested:
            assert abs(result.cost.fidelity - oracle_cost.fidelity) <= 1e-9
            matches += 1
        else:
            assert result.cost.fidelity <= oracle_cost.fidelity + 1e-12
            gaps += 1
    assert matches > 0


def test_raising_threshold_never_raises_fidelity():
    for seed in range(15):
        g = random_connected_graph(seeded(2000 + seed))
        previous = None
        for theta in (0.01, 0.1, 0.25, 0.5, 0.75):
            result = route(g, RouteRequest("A", "B", theta))
            if result.search is SearchKind.INFEASIBLE:
                # once infeasible, stricter thresholds stay infeasible
                stricter = route(g, RouteRequest("A", "B", 0.9))
                assert stricter.search is SearchKind.INFEASIBLE
                break
            assert result.cost.success >= theta
            if previous is not None:
                assert result.cost.fidelity <= previous + 1e-12
            previous = result.cost.fidelity


GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_reports.json"


def test_route_reports_match_pinned_search_results(tmp_path, capsys):
    """Commands reproduce pinned reports byte for byte.

    Each case carries its argv ("{doc}" stands for the document path), a
    threads field and the report.  The threads field records the thread
    count a report was produced at; nothing reads it any more.  The 18
    route cases hold the 16
    documents of the benchmark's kernel-search workload at seed 1
    (Wheatstone bridges with 4-6 parallel duplicates, 9-11 channels) and two
    bridges whose channels all share one cost vector, so that exact
    (fidelity, success) ties pick the strategy; their reports,
    candidates_evaluated included, were produced by the search before it
    composed serializations from its children.  The reduce --trace cases
    (README document, bridge, 100-rung ladder) and the simulate cases
    (2-, 10- and 100-leaf trees, acceptance on and off, 20,000 samples,
    1 and 2 threads) were produced before strategy trees were walked
    iteratively and Monte Carlo chunks were sized by bytes; the six with
    acceptance off were produced again once their fidelity was conditioned
    on agreement at every purification, which changed only the 10-leaf
    pair (the 2-leaf tree has no purification and the 100-leaf tree
    delivers nothing), and kept every success_hat.  The last three
    route cases pin bulk-shaped harvests, produced before the harvest ran
    over a compiled adjacency: a uniform 10x10 grid, where every sweep ties;
    the same grid with lossless channels and operations, where every
    distance is 0 and node order alone decides; and a 100-rung double ladder.
    The last three cases were produced before graphs and trace steps were
    written from templates: reduce --trace and route on a document whose
    node and channel ids hold a quote, a backslash, a control character,
    non-ASCII and astral characters and "</s>", and reduce --trace on the
    uniform 10x10 grid.  Once the search dropped partial strategies below
    the success floor, the 17 route cases where it drops some (the 16
    kernel-search documents and the lossless grid) were pinned again with
    candidates_evaluated alone changed, each count lower than before; the
    two tie bridges and every other case kept their bytes.  Once Monte
    Carlo drew one uniform per leaf from a jump-ahead PCG64DXSM stream, the
    twelve simulate cases were produced again: the eight of the 2- and
    10-leaf trees changed their estimates, the four of the 100-leaf tree
    deliver nothing under either stream and kept their bytes, as did every
    other case.  Once the stream was laid out node-major (node j's draw for
    sample i at draw j * samples + i), the same eight cases of the 2- and
    10-leaf trees were produced again, because every sample now reads
    other draws; the four 100-leaf cases still deliver nothing and kept
    their bytes, as did every route and reduce case.  Once Monte Carlo
    became bit-sliced, reading each uniform bit by bit from
    random.Random(seed).getrandbits, the twelve simulate cases were
    produced again: the same eight changed their estimates, and the four
    100-leaf cases still deliver nothing and kept their bytes, as did every
    route and reduce case.  Every case kept its bytes when sweeps began
    walking chains of two-channel routers instead of heaping them.
    """
    cases = json.loads(GOLDEN.read_text())["cases"]
    assert len(cases) == 39
    for case in cases:
        path = tmp_path / f"{case['name']}.json"
        path.write_text(json.dumps(case["doc"]))
        argv = [str(path) if a == "{doc}" else a for a in case["argv"]]
        assert run(argv) == 0, case["name"]
        out, _ = capsys.readouterr()
        assert out == case["report"], case["name"]


def test_search_refuses_fidelity_below_half():
    """Pareto pruning is unsound once a fidelity is below 1/2.

    Swapping gives 1/2 + 2(f1 - 1/2)(f2 - 1/2), which decreases in one
    operand while the other is below 1/2, so a dominated partial strategy
    can be the better operand.  On these 400 graphs with fidelities drawn
    from [0.02, 0.98] an unguarded search falls short of the oracle on
    seeds 5021, 5108 and 5398.  The search must refuse exactly the graphs
    holding a channel below 1/2 and match the oracle on every other one.
    """
    short, low_graphs, refused = [], 0, 0
    for seed in range(5000, 5400):
        g = random_connected_graph(
            seeded(seed), max_channels=7, fidelity=(0.02, 0.98)
        )
        low = min(c.cost.fidelity for c in g.channels.values()) < 0.5
        low_graphs += low
        try:
            found, _ = _exhaustive_search(g, "A", "B", 1e-6)
        except AlgebraDomainError:
            assert low, seed
            refused += 1
            continue
        try:
            oracle = brute_force_best(g, "A", "B", 1e-6)
        except InfeasibleRouteError:
            oracle = None
        if (found is None) != (oracle is None) or (
            found is not None
            and abs(found[1].fidelity - oracle[1].fidelity) > 1e-9
        ):
            short.append(seed)
    assert short == []
    assert refused == low_graphs
    assert 0 < low_graphs < 400


def test_route_refuses_low_fidelity_kernel():
    g = bridge_graph(bridge_fidelity=0.3)
    with pytest.raises(AlgebraDomainError, match="e5"):
        route(g, RouteRequest("A", "B", 0.3))
    # a graph the reduction collapses never reaches the search
    collapsed = route(two_path_graph(fidelity=0.3), RouteRequest("A", "B", 0.05))
    assert collapsed.search is SearchKind.FULLY_REDUCED


def _search_agrees_with_reference(g, floor):
    """Compare the search with the reference; return what the case showed."""
    try:
        expected, reference_count = reference_exhaustive_search(g, "A", "B", floor)
    except AlgebraDomainError as refused:
        with pytest.raises(AlgebraDomainError, match=re.escape(str(refused))):
            _exhaustive_search(g, "A", "B", floor)
        return "refused"
    found, count = _exhaustive_search(g, "A", "B", floor)
    assert count <= reference_count
    if expected is None:
        assert found is None
        return "infeasible"
    assert found is not None
    assert serialize_strategy(found[0]) == serialize_strategy(expected[0])
    assert found[1] == expected[1]
    return "pruned" if count < reference_count else "found"


def test_exhaustive_search_matches_reference_oracle():
    """The floor-pruned search answers as the unpruned reference does.

    Random kernels of up to 7 channels with fidelities from [0.47, 0.98], so
    that some hold a channel below 1/2, which both must refuse with the same
    message.  Each is searched with its own operation costs and with swap
    and purify successes of 0 or 1, acceptance on or off, and some channel
    successes set to exactly 1.  Floors: 1e-6, 1.0, a channel's success, a
    floor just above every channel, and the success of the best strategy at
    1e-6, each exactly attainable, so only strictly lower entries may go.
    The strategy, its cost, or None must match bit for bit, and the count
    of evaluated candidates may only fall; above every channel it is 0.
    """
    rng = seeded(8100)
    seen = {"refused": 0, "infeasible": 0, "found": 0, "pruned": 0}
    exact = 0
    for seed in range(8100, 8300):
        base = random_connected_graph(
            seeded(seed), max_channels=7, fidelity=(0.47, 0.98)
        )
        extreme = OperationCosts(
            swap_success=rng.choice((0.0, 1.0)),
            purify_success=rng.choice((0.0, 1.0)),
            physical_acceptance=rng.random() < 0.5,
        )
        for ops in (base.op_costs, extreme):
            channels = [
                c
                if rng.random() < 0.7
                else Channel(c.id, c.a, c.b, CostVector(c.cost.fidelity, 1.0))
                for c in base.channels.values()
            ]
            g = NetworkGraph(base.nodes.values(), channels, ops)
            successes = sorted(c.cost.success for c in channels)
            floors = [1e-6, 1.0, rng.choice(successes)]
            if successes[-1] < 1.0:
                above = math.nextafter(successes[-1], 1.0)
                floors.append(above)
                if min(c.cost.fidelity for c in channels) >= 0.5:
                    assert _exhaustive_search(g, "A", "B", above) == (None, 0)
            try:
                best, _ = reference_exhaustive_search(g, "A", "B", 1e-6)
            except AlgebraDomainError:
                best = None
            if best is not None:
                floors.append(best[1].success)
            for floor in floors:
                outcome = _search_agrees_with_reference(g, floor)
                seen[outcome] += 1
                exact += best is not None and floor == best[1].success
    assert min(seen.values()) > 0, seen
    assert exact > 0

"""Route planning: the block, its floor prune, the search and the brute-force reference."""
import json
import math
import pathlib
import re

import pytest

from _generators import (
    bridge_graph,
    build_graph,
    random_connected_graph,
    random_sp_graph,
    seeded,
    two_path_graph,
)
from _reference import (
    InfeasibleRouteError,
    brute_force_best,
    reference_block,
    reference_exhaustive_search,
    simple_paths,
)
from qnet import (
    AlgebraDomainError,
    Channel,
    CostVector,
    GraphFormatError,
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
    RouteDiagnostics,
    _block,
    _exhaustive_search,
    _floor_prune,
    _subgraph,
)
from qnet.reduction import (
    is_fully_reduced_pair,
    reduce_to_fixpoint,
    serialize_strategy,
    strategy_leaves,
)

TWO_PATH_COST = CostVector(0.9540295119182747, 0.46241928000000015)
TWO_PATH_TREE = Purify(Swap(Leaf("c1"), Leaf("c2")), Swap(Leaf("c3"), Leaf("c4")))


def _kept(g, floor, source="A", target="B"):
    """Ids of the block's channels that the floor prune keeps."""
    block = _block(g, source, target)
    return set(_floor_prune(block, source, target, floor).channels)


def test_harvest_single_edge_threshold():
    g = build_graph([("c1", "A", "B", 0.9, 0.81)])
    assert set(_block(g, "A", "B").channels) == {"c1"}
    assert _kept(g, 0.5) == {"c1"}
    pruned = _floor_prune(_block(g, "A", "B"), "A", "B", 0.9)
    assert pruned.channels == {}
    assert list(pruned.nodes) == ["A", "B"]


def test_harvest_two_path_graph():
    # Both disjoint paths lie in the block, and each meets the floor.
    g = two_path_graph()
    assert set(_block(g, "A", "B").channels) == {"c1", "c2", "c3", "c4"}
    assert _kept(g, 0.5) == {"c1", "c2", "c3", "c4"}


def test_harvest_charges_swap_loss_per_interior_router():
    # The path's success is 0.9 * 0.9 * 0.5 = 0.405.
    ops = OperationCosts(swap_success=0.5)
    g = build_graph(
        [("c1", "A", "m0", 0.9, 0.9), ("c2", "m0", "B", 0.9, 0.9)], ops=ops
    )
    assert _kept(g, 0.40) == {"c1", "c2"}
    assert _kept(g, 0.41) == set()


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
    block = _block(g, "A", "B")
    assert set(block.channels) == {"c3", "c4"}
    assert list(block.nodes) == ["A", "B", "m0"]
    assert _kept(g, 0.1) == {"c3", "c4"}


def _random_block_case(rng):
    """Graph of at most 10 channels on A, B, C and up to 6 routers.

    C is a foreign endpoint; some channels repeat an earlier span, and some
    hang a fresh router off a node already used, as a dead end or a cycle
    back to it.  Node and channel ids sort against creation order;
    successes come from {0, 1/2, 1, uniform} and the swap success from
    {0, 0.9, 1, uniform}, so log-losses tie, vanish or are infinite.
    Returns (graph, source, target, floor); the floor is sometimes exactly
    the success of one of the graph's paths.
    """
    numbers = iter(rng.sample(range(100), 40))
    routers = [f"m{next(numbers)}" for _ in range(rng.randint(0, 6))]
    names = ["A", "B", "C"] + routers
    spans = []
    while len(spans) < rng.randint(1, 10):
        roll = rng.random()
        if spans and roll < 0.2:
            spans.append(rng.choice(spans))
        elif spans and roll < 0.35:
            x = rng.choice([n for span in spans for n in span])
            fresh = f"m{next(numbers)}"
            names.append(fresh)
            spans.append((x, fresh))
            if rng.random() < 0.5:
                spans.append((fresh, x))
        else:
            spans.append(tuple(rng.sample(names, 2)))
    cids = rng.sample(range(200), len(spans))
    channels = [
        (f"c{k}", Channel(
            a, b, rng.uniform(0.5, 1.0), rng.choice([0.0, 0.5, 1.0, rng.random()])
        ))
        for k, (a, b) in zip(cids, spans)
    ]
    ops = OperationCosts(
        swap_success=rng.choice([0.0, 0.9, 1.0, rng.random()]),
        physical_acceptance=rng.random() < 0.5,
    )
    nodes = [Node(n, NodeRole.ENDPOINT) for n in names[:3]] + [
        Node(n, NodeRole.ROUTER) for n in names[3:]
    ]
    g = NetworkGraph(nodes, channels, ops)
    source, target = rng.sample(["A", "B", "C"], 2)
    floor = rng.choice([1e-12, 0.25, 1.0, rng.uniform(1e-6, 1.0)])
    successes = [s for _, s in simple_paths(g, source, target) if s > 0.0]
    if successes and rng.random() < 0.3:
        floor = rng.choice(successes)
    return g, source, target, floor


def test_block_and_prune_match_the_path_reference():
    """The block is every channel of a simple path through routers, and
    the prune keeps every channel of each path meeting the floor.

    On random graphs of up to 10 channels, against an enumeration of
    simple paths: the block's channels are exactly the paths' in the
    graph's order, and its nodes are the endpoints and the channels' ends,
    in id order.  The block equals the subgraph of those channels, and it
    is the graph itself exactly when it keeps every channel and every
    node, as the block of a block does.  The pruned block is part of the
    block and keeps each path whose success is at least the floor, a
    success exactly equal to it included; it is the block itself exactly
    when it keeps all of it.
    """
    outside = dropped = exact = 0
    for seed in range(3000):
        g, source, target, floor = _random_block_case(seeded(9000 + seed))
        block = _block(g, source, target)
        paths = simple_paths(g, source, target)
        expected = reference_block(paths)
        assert list(block.channels) == [c for c in g.channels if c in expected], seed
        ends = {source, target} | {n for c in block.channels.values() for n in (c.a, c.b)}
        assert list(block.nodes) == sorted(ends), seed
        kept = list(block.channels.items())
        copied = NetworkGraph([g.node(n) for n in sorted(ends)], kept, g.op_costs)
        assert block == _subgraph(g, list(block.channels), source, target) == copied, seed
        whole = len(kept) == len(g.channels) and len(ends) == len(g.nodes)
        assert (block is g) == whole, seed
        assert _block(block, source, target) is block, seed
        outside += len(block.channels) < len(g.channels)
        pruned = _floor_prune(block, source, target, floor)
        assert set(pruned.channels) <= set(block.channels), seed
        whole = (
            len(pruned.channels) == len(block.channels)
            and len(pruned.nodes) == len(block.nodes)
        )
        assert (pruned is block) == whole, seed
        for path, success in paths:
            if success >= floor:
                assert set(path) <= set(pruned.channels), seed
                exact += success == floor
        dropped += len(pruned.channels) < len(block.channels)
    assert outside > 1000
    assert dropped > 300
    assert exact > 100


def test_block_leaves_out_branches_cycles_and_other_components():
    g = build_graph(
        [
            ("c1", "A", "m1", 0.9, 0.9),
            ("c2", "m1", "B", 0.9, 0.9),
            ("c3", "m1", "B", 0.9, 0.9),  # parallel: on a path of its own
            ("c4", "m1", "d1", 0.9, 0.9),  # a dead end
            ("c5", "B", "d2", 0.9, 0.9),  # a cycle through B alone
            ("c6", "d2", "d3", 0.9, 0.9),
            ("c7", "d3", "B", 0.9, 0.9),
            ("c8", "x1", "x2", 0.9, 0.9),  # another component
        ]
    )
    block = _block(g, "A", "B")
    assert list(block.channels) == ["c1", "c2", "c3"]
    assert list(block.nodes) == ["A", "B", "m1"]
    apart = build_graph([("c1", "A", "m1", 0.9, 0.9), ("c2", "m2", "B", 0.9, 0.9)])
    block = _block(apart, "A", "B")
    assert block.channels == {} and list(block.nodes) == ["A", "B"]
    result = route(apart, RouteRequest("A", "B", 0.5))
    assert result.search is SearchKind.INFEASIBLE
    assert result.diagnostics == RouteDiagnostics(0, 0)


def test_route_infeasible_when_only_endpoint_paths_exist():
    g = build_graph(
        [("c1", "A", "C", 0.99, 0.99), ("c2", "C", "B", 0.99, 0.99)],
        endpoints=("A", "B", "C"),
    )
    result = route(g, RouteRequest("A", "B", 0.1))
    assert result.search is SearchKind.INFEASIBLE
    assert result.strategy is None and result.cost is None
    assert set(result.subgraph.nodes) == {"A", "B"}
    assert result.subgraph.channels == {}
    assert result.diagnostics == RouteDiagnostics(0, 0)


def test_route_two_paths_low_threshold_fully_reduces():
    result = route(two_path_graph(), RouteRequest("A", "B", 0.4))
    assert result.search is SearchKind.FULLY_REDUCED
    assert result.cost == TWO_PATH_COST
    assert serialize_strategy(result.strategy) == serialize_strategy(TWO_PATH_TREE)
    assert len(result.subgraph.channels) == 4
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
    assert result.subgraph.channels == {}
    # no path reaches the floor: the subgraph is the bare endpoints, without
    # the direct channel below the floor; the collapse ran its two steps
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
    assert result.diagnostics == RouteDiagnostics(0, 2)
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
        RouteRequest("A", "B", 0.5, max_bruteforce_edges=0)


def test_route_endpoint_validation():
    g = two_path_graph()
    with pytest.raises(GraphFormatError):
        route(g, RouteRequest("A", "A", 0.5))
    with pytest.raises(GraphFormatError):
        route(g, RouteRequest("A", "m1", 0.5))
    with pytest.raises(GraphFormatError):
        route(g, RouteRequest("A", "ghost", 0.5))


def test_full_collapse_is_at_least_as_faithful_as_any_strategy():
    """On 100 random series-parallel graphs of 8-12 channels, acceptance
    alternately on and off, the full collapse's fidelity is at least that
    of the best strategy the exhaustive search finds over every subset and
    composition, with a success floor of the smallest positive float (so
    no feasible candidate is dropped), within 1e-12 relative."""
    cases = seed = 0
    while cases < 100:
        g = random_sp_graph(seeded(16000 + seed), max_edges=12)
        seed += 1
        if not 8 <= len(g.channels) <= 12:
            continue
        ops = g.op_costs
        ops = OperationCosts(ops.swap_success, ops.purify_success, cases % 2 == 0)
        g = NetworkGraph(list(g.nodes.values()), list(g.channels.items()), ops)
        cases += 1
        (collapse,) = reduce_to_fixpoint(g).graph.channels.values()
        (_, best), _ = _exhaustive_search(g, "A", "B", 5e-324)
        assert collapse.fidelity >= best.fidelity * (1.0 - 1e-12), seed - 1


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
    """route matches the brute-force optimum on every feasible graph.

    The block holds every channel of the oracle's strategy, so no feasible
    case is set apart.
    """
    matches = infeasible = 0
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
        assert set(strategy_leaves(oracle_tree)) <= set(result.subgraph.channels)
        assert abs(result.cost.fidelity - oracle_cost.fidelity) <= 1e-9
        matches += 1
    assert matches > 30


def test_route_plans_over_channels_the_best_path_leaves_out():
    """The best path takes c0, A's only channel, so no second path exists.

    Planning over the nodes of channel-disjoint paths, route kept c0 and c1
    and answered F = 0.77.  The block also holds the m1-m2-B chain, and
    purifying c1 against it before the swap over c0 is the optimum.
    """
    g = build_graph(
        [
            ("c0", "A", "m1", 0.95, 0.9),
            ("c1", "m1", "B", 0.8, 0.9),
            ("c2", "m1", "m2", 0.9, 0.9),
            ("c3", "m2", "B", 0.9, 0.9),
        ]
    )
    result = route(g, RouteRequest("A", "B", 0.01))
    assert result.search is SearchKind.FULLY_REDUCED
    assert serialize_strategy(result.strategy) == serialize_strategy(
        Swap(Leaf("c0"), Purify(Leaf("c1"), Swap(Leaf("c2"), Leaf("c3"))))
    )
    assert result.cost.fidelity == pytest.approx(0.90318, abs=1e-5)
    assert result.cost.success == pytest.approx(0.45402, abs=1e-5)
    _, oracle = brute_force_best(g, "A", "B", 0.01)
    assert abs(result.cost.fidelity - oracle.fidelity) <= 1e-12


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
    walking chains of two-channel routers instead of heaping them.  Once
    route planned over the block of its endpoints and the path harvest
    went, the 22 route reports were pinned again without paths_harvested
    and diagnostics.paths_examined, every other byte kept; the 17 reduce
    and simulate cases kept their bytes.  Once each sample drew its success
    once, against the product of every success probability, and then only
    the flips of the samples still delivered, the twelve simulate cases were
    produced again: the same eight changed their estimates, and the four
    100-leaf cases still deliver nothing and kept their bytes, as did every
    route and reduce case.  Each pinned simulate estimate must lie within 5
    standard errors of its own analytic cost, so that no re-pin can lock in
    a biased kernel.
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
        if case["argv"][0] == "simulate":
            _assert_estimate_near_analytic(json.loads(out))


def _assert_estimate_near_analytic(report):
    """The estimate lies within 5 standard errors of the analytic cost.

    A standard error is the larger of the estimate's own and one taken at
    the analytic value, over every sample for success and over the
    delivered ones for fidelity, so that an estimate of exactly 0 or 1,
    whose own standard error is 0, is not held to 0.
    """
    est, analytic = report["estimate"], report["analytic"]
    n, s, f = est["samples"], analytic["success"], analytic["fidelity"]
    se = max(est["std_error_success"], math.sqrt(s * (1.0 - s) / n))
    assert abs(est["success_hat"] - s) <= 5 * se, report
    if est["fidelity_hat"] is not None:
        delivered = est["success_hat"] * n
        se = max(est["std_error_fidelity"], math.sqrt(f * (1.0 - f) / delivered))
        assert abs(est["fidelity_hat"] - f) <= 5 * se, report


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
        low = min(c.fidelity for c in g.channels.values()) < 0.5
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


@pytest.mark.parametrize("floor", [0.01, 0.5])
def test_route_leaves_a_channel_below_half_out_of_a_worse_collapse(floor):
    """ROADMAP item 11's graph with c2 at fidelity 0.4.

    The block's full collapse purifies c1 against Swap(c2, c3), of
    fidelity 0.42, and answers F 0.72 at floor 0.01; at 0.5 it misses the
    floor, and the search would refuse that kernel channel.  Collapsing
    the block of the channels of fidelity at least 1/2, c0 and c1, gives
    the optimum, F 0.77, at both floors.
    """
    g = build_graph(
        [
            ("c0", "A", "m1", 0.95, 0.9),
            ("c1", "m1", "B", 0.8, 0.9),
            ("c2", "m1", "m2", 0.4, 0.9),
            ("c3", "m2", "B", 0.9, 0.9),
        ]
    )
    result = route(g, RouteRequest("A", "B", floor))
    assert result.search is SearchKind.FULLY_REDUCED
    assert serialize_strategy(result.strategy) == serialize_strategy(
        Swap(Leaf("c0"), Leaf("c1"))
    )
    assert list(result.subgraph.channels) == ["c0", "c1"]
    assert result.diagnostics == RouteDiagnostics(2, 1)
    _, oracle = brute_force_best(g, "A", "B", floor)
    assert result.cost == oracle
    assert result.cost.fidelity == pytest.approx(0.77, abs=1e-12)


def test_search_breaks_a_fidelity_tie_toward_higher_success():
    """Two paths of equal fidelity: the one of higher success answers.

    Swap(c1, c2) and Swap(c3, c4) both have F 0.82, at success 0.81 and
    0.36.  The middle channel is too weak to help, and purifying the two
    paths misses the floor, so the tie-break alone decides.
    """
    g = build_graph(
        [
            ("c1", "A", "u", 0.9, 0.9),
            ("c2", "u", "B", 0.9, 0.9),
            ("c3", "A", "v", 0.9, 0.6),
            ("c4", "v", "B", 0.9, 0.6),
            ("c5", "u", "v", 0.9, 0.01),
        ]
    )
    result = route(g, RouteRequest("A", "B", 0.3))
    assert result.search is SearchKind.EXHAUSTIVE_SEARCH
    assert result.strategy == Swap(Leaf("c1"), Leaf("c2"))
    assert result.cost == evaluate_strategy(result.strategy, g)
    assert result.cost.success == pytest.approx(0.81)


def test_collapse_meeting_the_floor_exactly_answers():
    # success equal to the floor meets it
    g = build_graph([("c1", "A", "B", 0.9, 0.5)])
    result = route(g, RouteRequest("A", "B", 0.5))
    assert result.search is SearchKind.FULLY_REDUCED
    assert result.strategy == Leaf("c1")
    assert result.diagnostics == RouteDiagnostics(1, 0)


def test_search_takes_a_kernel_channel_of_fidelity_exactly_half():
    # the search is exact for fidelities of at least 1/2, 1/2 included
    result = route(bridge_graph(bridge_fidelity=0.5), RouteRequest("A", "B", 0.01))
    assert result.search is SearchKind.EXHAUSTIVE_SEARCH
    assert result.strategy is not None


def test_channel_of_fidelity_exactly_half_needs_no_second_collapse():
    # Only a channel below 1/2 starts the collapse of the sound block,
    # which would count as a second candidate.
    g = build_graph(
        [
            ("c1", "A", "m", 0.9, 0.9),
            ("c2", "m", "B", 0.5, 0.9),
            ("c3", "A", "B", 0.9, 0.9),
        ]
    )
    result = route(g, RouteRequest("A", "B", 0.1))
    assert result.search is SearchKind.FULLY_REDUCED
    assert result.diagnostics.candidates_evaluated == 1


def _collapse_fidelity(block, floor):
    """Fidelity of block's full collapse when it meets the floor, else None."""
    collapsed = reduce_to_fixpoint(block)
    if not is_fully_reduced_pair(collapsed.graph, "A", "B"):
        return None
    (channel,) = collapsed.graph.channels.values()
    return channel.fidelity if channel.success >= floor else None


def test_route_with_fidelities_below_half_against_the_oracle():
    """Random graphs with fidelities from [0.02, 0.98].

    route refuses (a kernel channel below 1/2) or answers infeasible
    exactly when the oracle does, or answers with a strategy over its
    subgraph whose cost evaluate_strategy confirms, never above the
    optimum.  When the block collapses, the answer is at least that
    collapse and that of the block of the channels of fidelity at least
    1/2, whichever meet the floor; the second must beat the first on some
    graphs.
    """
    seen = {"refused": 0, "infeasible": 0, "optimal": 0, "short": 0, "sound": 0}
    for seed in range(5000, 5100):
        g = random_connected_graph(seeded(seed), max_channels=7, fidelity=(0.02, 0.98))
        for floor in (1e-6, 0.3):
            try:
                result = route(g, RouteRequest("A", "B", floor))
            except AlgebraDomainError:
                seen["refused"] += 1
                continue
            try:
                _, oracle = brute_force_best(g, "A", "B", floor)
            except InfeasibleRouteError:
                assert result.search is SearchKind.INFEASIBLE, seed
                seen["infeasible"] += 1
                continue
            assert result.search is not SearchKind.INFEASIBLE, seed
            assert evaluate_strategy(result.strategy, g) == result.cost, seed
            assert set(strategy_leaves(result.strategy)) <= set(result.subgraph.channels)
            fidelity = result.cost.fidelity
            assert fidelity <= oracle.fidelity + 1e-12, seed
            seen["optimal" if fidelity >= oracle.fidelity - 1e-12 else "short"] += 1
            whole = _collapse_fidelity(_block(g, "A", "B"), floor)
            sound = _collapse_fidelity(_block(g, "A", "B", least_fidelity=0.5), floor)
            if whole is not None or sound is not None:
                assert fidelity >= max(f for f in (whole, sound) if f is not None), seed
            seen["sound"] += sound is not None and (whole is None or sound > whole)
    assert seen["sound"] > 20 and seen["refused"] > 20 and seen["optimal"] > 80, seen


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
                (cid, c if rng.random() < 0.7 else c._replace(success=1.0))
                for cid, c in base.channels.items()
            ]
            g = NetworkGraph(base.nodes.values(), channels, ops)
            successes = sorted(c.success for _, c in channels)
            floors = [1e-6, 1.0, rng.choice(successes)]
            if successes[-1] < 1.0:
                above = math.nextafter(successes[-1], 1.0)
                floors.append(above)
                if min(c.fidelity for _, c in channels) >= 0.5:
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

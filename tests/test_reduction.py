"""Rewrite engine: step semantics, fixpoint reduction, traces, strategies.

The single steps and trace replay run on tests/_reference.Rewriter, the
fixpoint on the package's engine; the order oracle sets one against the
other step for step.
"""
import contextlib
import gc
import heapq
import io
import json
import os
import tempfile
import statistics
import time
import types

import pytest
from hypothesis import given, strategies as st

from _generators import (
    bridge_graph,
    build_graph,
    random_sp_graph,
    reduce_random_order,
    seeded,
    series_chain,
    two_path_graph,
    uniform_grid,
)
from _reference import (
    Rewriter,
    parallel_step,
    reference_canonical_dumps,
    replay_trace,
    series_step,
    swap_chain,
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
    ReductionError,
    Swap,
    evaluate_strategy,
    is_fully_reduced_pair,
    parse_graph,
    reduce_to_fixpoint,
    serialize_graph,
)
from qnet import cli, reduction
from qnet.jsonutil import canonical_dumps
from qnet.reduction import (
    StepKind,
    _Engine,
    fold,
    serialize_composite,
    serialize_strategy,
    strategy_from_obj,
    strategy_leaves,
)


def test_series_step_swaps_through_router():
    ops = OperationCosts(swap_success=0.5)
    g = build_graph(
        [("c1", "A", "m1", 0.9, 0.9), ("c2", "m1", "B", 0.9, 0.9)], ops=ops
    )
    g2, step = series_step(g, "m1")
    assert step.kind is StepKind.SERIES
    assert step.consumed == ("c1", "c2")
    assert step.eliminated == "m1"
    assert step.produced == "r0"
    assert (step.fidelity, step.success) == (0.8200000000000001, 0.81 * 0.5)
    assert set(g2.channels) == {"r0"}
    assert "m1" not in g2.nodes
    assert (g2.channel("r0").a, g2.channel("r0").b) == ("A", "B")


def test_series_step_identity_channel():
    g = build_graph(
        [("c1", "A", "m1", 1.0, 1.0), ("c2", "m1", "B", 0.77, 0.6)]
    )
    g2, step = series_step(g, "m1")
    assert (step.fidelity, step.success) == (0.77, 0.6)


def test_series_step_rejects_bad_nodes():
    g = build_graph(
        [("c1", "A", "m1", 0.9, 0.9), ("c2", "m1", "B", 0.9, 0.9)]
    )
    with pytest.raises(ReductionError):
        series_step(g, "A")  # endpoints are never eliminated
    g3 = build_graph(
        [
            ("c1", "A", "m1", 0.9, 0.9),
            ("c2", "m1", "B", 0.9, 0.9),
            ("c3", "m1", "B", 0.9, 0.9),
        ]
    )
    with pytest.raises(ReductionError):
        series_step(g3, "m1")  # degree 3
    g4 = build_graph(
        [("c1", "A", "m1", 0.9, 0.9), ("c2", "m1", "A", 0.8, 0.9)],
        endpoints=("A",),
    )
    with pytest.raises(ReductionError):
        series_step(g4, "m1")  # both channels lead to A; purify instead


def test_parallel_step_purifies_pair():
    g = build_graph(
        [("c1", "A", "B", 0.82, 0.81), ("c2", "A", "B", 0.82, 0.81)]
    )
    g2, step = parallel_step(g, "c2", "c1")
    assert step.kind is StepKind.PARALLEL
    assert step.consumed == ("c1", "c2")  # normalized order
    assert step.eliminated is None
    assert step.fidelity == 0.9540295119182747
    assert abs(step.success - 0.81**2 * 0.7048) <= 1e-12
    assert set(g2.channels) == {"r0"}


def test_parallel_step_identity_and_inverse_partners():
    g = build_graph(
        [("c1", "A", "B", 0.77, 0.9), ("c2", "A", "B", 0.5, 1.0)],
        ops=OperationCosts(physical_acceptance=False),
    )
    _, step = parallel_step(g, "c1", "c2")
    assert step.fidelity == 0.77
    g = build_graph(
        [("c1", "A", "B", 0.77, 0.9), ("c2", "A", "B", 0.23, 1.0)],
        ops=OperationCosts(physical_acceptance=False),
    )
    _, step = parallel_step(g, "c1", "c2")
    assert abs(step.fidelity - 0.5) <= 1e-12


def test_parallel_step_rejections():
    g = build_graph(
        [("c1", "A", "B", 0.9, 0.9), ("c2", "A", "m1", 0.9, 0.9), ("c3", "m1", "B", 1.0, 1.0)]
    )
    with pytest.raises(ReductionError):
        parallel_step(g, "c1", "c2")  # different spans
    with pytest.raises(ReductionError):
        parallel_step(g, "c1", "c1")
    singular = build_graph(
        [("c1", "A", "B", 1.0, 0.9), ("c2", "A", "B", 0.0, 0.9)]
    )
    with pytest.raises(AlgebraDomainError):
        parallel_step(singular, "c1", "c2")


@pytest.mark.parametrize("kernel", ["swap_floats", "purify_floats"])
@pytest.mark.parametrize(
    "bad, message",
    [
        ((1.5, 0.5), r"^fidelity 1\.5 outside \[0, 1\]$"),
        ((0.5, 1.5), r"^success probability 1\.5 outside \[0, 1\]$"),
        ((float("nan"), 0.5), r"^fidelity nan outside \[0, 1\]$"),
    ],
    ids=["fidelity", "success", "nan"],
)
def test_engine_range_checks_every_step(monkeypatch, kernel, bad, message):
    """The engine composes plain floats, so it checks each step's result as
    CostVector would: a kernel whose first result lies outside [0, 1]
    raises CostVector's error at that step.

    The steps are purify c1, c2 at A-m; swap at m; swap at n.  The last
    swap, with a channel of fidelity 1/2, would bring a bad fidelity or
    success of the first two steps back into [0, 1], so only a check at
    the step itself sees it.
    """
    real = getattr(reduction, kernel)
    calls = []

    def planted(*args):
        calls.append(args)
        return bad if len(calls) == 1 else real(*args)

    monkeypatch.setattr(reduction, kernel, planted)
    g = build_graph(
        [
            ("c1", "A", "m", 0.9, 0.9),
            ("c2", "A", "m", 0.9, 0.9),
            ("c3", "m", "n", 0.9, 0.9),
            ("c4", "n", "B", 0.5, 0.5),
        ]
    )
    with pytest.raises(AlgebraDomainError, match=message):
        reduce_to_fixpoint(g)
    assert len(calls) == 1


def test_fixpoint_two_path_graph():
    result = reduce_to_fixpoint(two_path_graph())
    ((cid, channel),) = result.graph.channels.items()
    assert cid == "r2"
    assert channel[2:] == (0.9540295119182747, 0.46241928000000015)
    kinds = [s.kind for s in result.trace.steps]
    assert kinds == [StepKind.SERIES, StepKind.SERIES, StepKind.PARALLEL]
    assert result.trace.steps[0].consumed == ("c1", "c2")
    assert result.trace.steps[0].eliminated == "m1"
    assert result.trace.steps[1].consumed == ("c3", "c4")
    assert result.trace.steps[2].consumed == ("r0", "r1")
    assert tuple(result.graph.channels) == ("r2",)
    assert is_fully_reduced_pair(result.graph, "A", "B")


def test_fixpoint_single_edge_untouched():
    g = build_graph([("c1", "A", "B", 0.9, 0.9)])
    result = reduce_to_fixpoint(g)
    assert result.graph == g
    assert result.trace.steps == ()
    assert result.strategies == {"c1": Leaf("c1")}


def test_fixpoint_leaves_bridge_intact():
    g = bridge_graph()
    result = reduce_to_fixpoint(g)
    assert result.graph == g
    assert result.trace.steps == ()


def test_fixpoint_parallel_before_series():
    # the parallel pair must be merged before the series chain collapses
    g = build_graph(
        [
            ("c1", "A", "m1", 0.9, 0.9),
            ("c2", "m1", "B", 0.9, 0.9),
            ("c3", "m1", "B", 0.8, 0.9),
        ]
    )
    result = reduce_to_fixpoint(g)
    kinds = [s.kind for s in result.trace.steps]
    assert kinds == [StepKind.PARALLEL, StepKind.SERIES]
    assert result.trace.steps[0].consumed == ("c2", "c3")


def test_series_only_keeps_purification_choices():
    result = reduce_to_fixpoint(two_path_graph(), series_only=True)
    assert set(result.graph.channels) == {"r0", "r1"}
    assert all(s.kind is StepKind.SERIES for s in result.trace.steps)
    assert not is_fully_reduced_pair(result.graph, "A", "B")


def test_synthetic_ids_continue_after_partial_reduction():
    partial = reduce_to_fixpoint(two_path_graph(), series_only=True)
    result = reduce_to_fixpoint(partial.graph)
    produced = [s.produced for s in result.trace.steps]
    assert produced == ["r2"]


def test_document_r_ids_parse_and_reduction_numbers_past_them():
    # the README document with channels c1 and c3 renamed r0 and r5 and
    # router m2 renamed r1; only channel ids move the synthetic numbering
    raw = json.loads(serialize_graph(two_path_graph()))
    renames = {"c1": "r0", "c3": "r5", "m2": "r1"}
    for edge in raw["edges"]:
        for key in ("id", "a", "b"):
            edge[key] = renames.get(edge[key], edge[key])
    for node in raw["nodes"]:
        node["id"] = renames.get(node["id"], node["id"])
    g = parse_graph(json.dumps(raw))
    assert {"r0", "r5"} <= set(g.channels) and "r1" in g.nodes
    result = reduce_to_fixpoint(g)
    assert [s.produced for s in result.trace.steps] == ["r6", "r7", "r8"]
    assert set(result.graph.channels) == {"r8"}
    assert replay_trace(g, _reduce_report(g)) == result.graph


def _reduce_report(g):
    """What `qnet reduce --trace` prints for g's document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.json")
        with open(path, "wb") as fh:
            fh.write(serialize_graph(g))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(["reduce", path, "--trace"]) == 0
    return out.getvalue()


def test_trace_replay_reproduces_terminal_graph():
    graphs = [random_sp_graph(seeded(seed), max_edges=20) for seed in range(10)]
    # 3,000 rungs: the report of a long trace replays as well
    graphs.append(_ladder(6000))
    for g in graphs:
        result = reduce_to_fixpoint(g)
        assert replay_trace(g, _reduce_report(g)) == result.graph


def _tampered(trace, index, **changes):
    """trace, a `reduce --trace` report, with some fields of a step changed."""
    doc = json.loads(trace)
    doc["trace"][index].update(changes)
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def test_trace_replay_rejects_tampered_steps():
    g = two_path_graph()
    trace = _reduce_report(g)
    # m1's channels are c1 and c2, whatever the step claims
    with pytest.raises(ReductionError, match="consumed"):
        replay_trace(g, _tampered(trace, 0, consumed=["c3", "c4"]))
    # a parallel step normalizes its channel order on replay
    with pytest.raises(ReductionError, match="consumed"):
        replay_trace(g, _tampered(trace, 2, consumed=["r1", "r0"]))
    with pytest.raises(GraphFormatError, match="unknown node 'ghost'"):
        replay_trace(g, _tampered(trace, 1, eliminated="ghost"))
    with pytest.raises(GraphFormatError, match="unknown channel 'r9'"):
        replay_trace(g, _tampered(trace, 2, consumed=["r0", "r9"]))
    with pytest.raises(GraphFormatError, match="duplicate channel id 'c3'"):
        replay_trace(g, _tampered(trace, 0, produced="c3"))
    with pytest.raises(GraphFormatError, match="1-64 non-whitespace"):
        replay_trace(g, _tampered(trace, 0, produced="r 0"))
    with pytest.raises(ReductionError, match="costs"):
        replay_trace(g, _tampered(trace, 1, fidelity=0.5))


def test_step_functions_check_produced_ids():
    g = two_path_graph()
    # a produced id may reuse one the step consumes
    g2, step = series_step(g, "m1", produced_id="c1")
    assert step.produced == "c1"
    assert set(g2.channels) == {"c1", "c3", "c4"}
    assert (g2.channel("c1").a, g2.channel("c1").b) == ("A", "B")
    with pytest.raises(GraphFormatError, match="duplicate channel id 'c4'"):
        series_step(g, "m1", produced_id="c4")
    g3, _ = series_step(g2, "m2", produced_id="r7")
    _, step = parallel_step(g3, "r7", "c1")
    assert step.consumed == ("c1", "r7")
    assert step.produced == "r8"
    with pytest.raises(GraphFormatError, match="must be 1-64"):
        parallel_step(g3, "c1", "r7", produced_id="")


def test_strategies_evaluate_to_terminal_costs():
    for seed in range(10):
        g = random_sp_graph(seeded(100 + seed), max_edges=20)
        result = reduce_to_fixpoint(g)
        for cid, channel in result.graph.channels.items():
            cost = evaluate_strategy(result.strategies[cid], g)
            assert abs(cost.fidelity - channel.fidelity) <= 1e-12
            assert abs(cost.success - channel.success) <= 1e-12


def test_trace_conserves_channels():
    for seed in range(10):
        g = random_sp_graph(seeded(200 + seed), max_edges=25)
        result = reduce_to_fixpoint(g)
        consumed = [cid for s in result.trace.steps for cid in s.consumed]
        produced = {s.produced for s in result.trace.steps}
        assert len(consumed) == len(set(consumed))
        # every original channel ends up as a leaf of the terminal strategy
        (terminal,) = result.graph.channels
        assert sorted(strategy_leaves(result.strategies[terminal])) == sorted(
            g.channels
        )
        assert produced.isdisjoint(g.channels)


def test_fixpoint_is_deterministic():
    g = random_sp_graph(seeded(7), max_edges=30)
    first = reduce_to_fixpoint(g)
    second = reduce_to_fixpoint(g)
    assert first.trace == second.trace
    assert first.graph == second.graph
    assert {
        cid: serialize_strategy(t) for cid, t in first.strategies.items()
    } == {cid: serialize_strategy(t) for cid, t in second.strategies.items()}


def test_random_orders_agree_with_fixpoint():
    for seed in range(10):
        rng = seeded(300 + seed)
        g = random_sp_graph(rng, max_edges=20)
        reference = reduce_to_fixpoint(g)
        (terminal,) = reference.graph.channels.values()
        for _ in range(5):
            cost = reduce_random_order(g, rng)
            assert abs(cost.fidelity - terminal.fidelity) <= 1e-9
            assert abs(cost.success - terminal.success) <= 1e-9


def test_is_fully_reduced_pair_cases():
    pair = build_graph([("c1", "A", "B", 0.9, 0.9)])
    assert is_fully_reduced_pair(pair, "A", "B")
    assert not is_fully_reduced_pair(bridge_graph(), "A", "B")
    bare = NetworkGraph(
        [Node("A", NodeRole.ENDPOINT), Node("B", NodeRole.ENDPOINT)], []
    )
    assert not is_fully_reduced_pair(bare, "A", "B")
    with pytest.raises(GraphFormatError):
        is_fully_reduced_pair(pair, "A", "ghost")
    with pytest.raises(GraphFormatError):
        is_fully_reduced_pair(pair, "A", "A")


def test_evaluate_strategy_basics():
    g = two_path_graph()
    assert evaluate_strategy(Leaf("c1"), g) == CostVector(*g.channel("c1")[2:])
    tree = Purify(Swap(Leaf("c1"), Leaf("c2")), Swap(Leaf("c3"), Leaf("c4")))
    terminal = reduce_to_fixpoint(g).graph
    (channel,) = terminal.channels.values()
    assert evaluate_strategy(tree, g) == CostVector(channel.fidelity, channel.success)
    with pytest.raises(GraphFormatError):
        evaluate_strategy(Leaf("ghost"), g)
    with pytest.raises(ReductionError):
        evaluate_strategy(Swap(Leaf("c1"), Leaf("c1")), g)


def _ladder(n_edges):
    rungs = n_edges // 2
    nodes = [Node("A", NodeRole.ENDPOINT), Node("B", NodeRole.ENDPOINT)]
    nodes += [Node(f"m{i}", NodeRole.ROUTER) for i in range(rungs - 1)]
    hops = ["A"] + [f"m{i}" for i in range(rungs - 1)] + ["B"]
    chans = []
    for i in range(rungs):
        chans.append((f"c{2 * i}", Channel(hops[i], hops[i + 1], 0.95, 0.9)))
        chans.append((f"c{2 * i + 1}", Channel(hops[i], hops[i + 1], 0.9, 0.8)))
    return NetworkGraph(nodes, chans)


def test_fixpoint_scales_near_linearly():
    sizes = (1000, 2000, 4000)
    graphs = {n: _ladder(n) for n in sizes}
    ratios = {2000: [], 4000: []}
    # Each round times every size in turn (1000, 2000, 4000) and takes the
    # ratios of neighbouring sizes within the round, so a fast or slow spell
    # of the machine mostly scales both sides of a ratio.  The median of the
    # rounds' ratios is not decided by one short run that fell into a fast
    # spell, as a best-of-N time is.
    for _ in range(7):
        elapsed = {}
        for n in sizes:
            # A full collection over the suite's heap inside the timed
            # region would decide the ratio; keep the collector out of it.
            gc.collect()
            enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = time.perf_counter()
                result = reduce_to_fixpoint(graphs[n])
                elapsed[n] = time.perf_counter() - t0
            finally:
                if enabled:
                    gc.enable()
            assert len(result.graph.channels) == 1
        ratios[2000].append(elapsed[2000] / elapsed[1000])
        ratios[4000].append(elapsed[4000] / elapsed[2000])
    assert statistics.median(ratios[2000]) <= 2.5, ratios
    assert statistics.median(ratios[4000]) <= 2.5, ratios


def _rung_ladder(rungs):
    """A-B chain of rungs hops, each two parallel channels h{j}_0 and h{j}_1.

    The ids sort unlike the chain (h10_0 before h2_0), and the synthetic ids
    of the purified rungs (r0, r1, ...) do too, so the lowest channel at a
    router changes while it waits in the series heap.
    """
    hops = ["A"] + [f"l{j}" for j in range(1, rungs)] + ["B"]
    nodes = [Node("A", NodeRole.ENDPOINT), Node("B", NodeRole.ENDPOINT)]
    nodes += [Node(nid, NodeRole.ROUTER) for nid in hops[1:-1]]
    chans = [
        (f"h{j}_{k}", Channel(hops[j], hops[j + 1], 0.99, 0.999))
        for j in range(rungs)
        for k in (0, 1)
    ]
    return NetworkGraph(nodes, chans)


def _bundle(n):
    """n parallel A-B channels p0 ... p{n-1}."""
    nodes = [Node("A", NodeRole.ENDPOINT), Node("B", NodeRole.ENDPOINT)]
    chans = [(f"p{k}", Channel("A", "B", 0.9, 0.999)) for k in range(n)]
    return NetworkGraph(nodes, chans)


def test_series_heap_pushes_stay_linear(monkeypatch):
    """A series entry whose key went stale is dropped, not pushed back.

    Every change at a router pushes a fresh entry, so the heap needs at most
    one push per router and two per step; pushing stale entries back made
    the 750-rung ladder take about 47 heap pops per step.  The parallel
    heap gets at most one push per channel added, graph or produced.
    """
    pushed = []

    def heappush(heap, item):
        pushed.append((heap, item))
        heapq.heappush(heap, item)

    shim = types.SimpleNamespace(
        heappush=heappush, heappop=heapq.heappop, heapify=heapq.heapify
    )
    monkeypatch.setattr(reduction, "heapq", shim)
    for g in (_rung_ladder(750), _bundle(2000)):
        pushed.clear()
        engine = _Engine(g)
        engine.run()
        assert len(engine.chan) == 1
        steps = len(engine.steps)
        series = sum(heap is engine.ser_heap for heap, _ in pushed)
        parallel = sum(heap is engine.par_heap for heap, _ in pushed)
        routers = len(g.nodes) - 2
        assert series <= routers + 2 * steps, series
        assert (series > 0) == (routers > 0)
        assert parallel <= len(g.channels) + steps, parallel


def _multigraph(rng):
    """A random multigraph of 3-9 nodes and 1-22 channels whose ids sort on
    both sides of the engine's r<n> ids (an r<n> id among them too)."""
    n = rng.randint(3, 9)
    nodes = [
        Node(f"n{i}", NodeRole.ENDPOINT if rng.random() < 0.3 else NodeRole.ROUTER)
        for i in range(n)
    ]
    chans = []
    for k in range(rng.randint(1, 22)):
        a, b = rng.sample(range(n), 2)
        cost = rng.uniform(0.5, 1.0), rng.uniform(0.1, 1.0)
        chans.append((f"{rng.choice('aqrsz')}{k}", Channel(f"n{a}", f"n{b}", *cost)))
    return NetworkGraph(nodes, chans)


def test_parallel_heap_pops_only_live_pair_minima(monkeypatch):
    """Every pop from par_heap is a live channel and its pair's smallest id,
    so the engine drops no stale parallel entry (see _Engine).

    A full run pops par_heap once per parallel step and ends with it empty;
    a series-only run never pops it.
    """
    engine = None

    def heappop(heap, pop=heapq.heappop):
        if heap is engine.par_heap:
            cid = heap[0]
            assert cid in engine.chan
            members = engine.pairs[engine.chan[cid][:2]]
            assert len(members) > 1 and members[0] == cid
            par_pops.append(cid)
        return pop(heap)

    shim = types.SimpleNamespace(
        heappush=heapq.heappush, heappop=heappop, heapify=heapq.heapify
    )
    monkeypatch.setattr(reduction, "heapq", shim)
    rng = seeded(43)
    graphs = [_multigraph(rng) for _ in range(300)]
    for n in range(3, 9):
        nodes = [Node("A", NodeRole.ENDPOINT), Node("B", NodeRole.ENDPOINT)]
        ids = [f"{rng.choice('aqrsz')}{k}" for k in range(n)]
        chans = [(cid, Channel("A", "B", 0.9, 0.9)) for cid in ids]
        graphs.append(NetworkGraph(nodes, chans))
    for g in graphs:
        for series_only in (False, True):
            par_pops = []
            engine = _Engine(g)
            engine.run(series_only)
            if series_only:
                assert par_pops == []
            else:
                kinds = [step.kind for step in engine.steps]
                assert len(par_pops) == kinds.count(StepKind.PARALLEL)
                assert engine.par_heap == []


def _assert_exact_pair_heaps(engine):
    live = {}
    for cid, (a, b, _, _) in engine.chan.items():
        assert a <= b
        live.setdefault((a, b), []).append(cid)
    assert set(engine.pairs) == set(live)
    for pair, heap in engine.pairs.items():
        assert sorted(heap) == sorted(live[pair])
        assert all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap)))


def test_engine_keeps_only_live_node_pairs():
    engine = _Engine(_ladder(2000))
    engine.run()
    live = {(a, b) for a, b, _, _ in engine.chan.values()}
    assert len(live) == 1
    assert set(engine.pairs) == live
    # series_only leaves pairs of several channels behind, and a full run
    # purifies them away
    for seed in range(20):
        g = random_sp_graph(seeded(seed), max_edges=30)
        for series_only in (True, False):
            engine = _Engine(g)
            engine.run(series_only)
            _assert_exact_pair_heaps(engine)


def _steps_bits(steps):
    return [
        (s.kind, s.consumed, s.eliminated, s.produced,
         s.fidelity.hex(), s.success.hex())
        for s in steps
    ]


@pytest.mark.parametrize("series_only", [False, True], ids=["full", "series_only"])
def test_fixpoint_order_matches_reference_rewriter(series_only):
    """reduce_to_fixpoint takes the same steps, in the same order, as the
    reference rewriter under the policy of parallel before series and
    lowest channel id first."""
    graphs = [random_sp_graph(seeded(900 + seed), max_edges=40) for seed in range(30)]
    graphs += [_rung_ladder(50), uniform_grid(10, 10), two_path_graph(), bridge_graph()]
    # routers p and q tie on their lower channel c1; p goes first
    graphs.append(build_graph(
        [("c5", "A", "p", 0.9, 0.9), ("c1", "p", "q", 0.8, 0.9), ("c6", "q", "B", 0.7, 0.9)]
    ))
    for g in graphs:
        result = reduce_to_fixpoint(g, series_only=series_only)
        rewriter = Rewriter(g)
        expected = rewriter.fixpoint(series_only)
        assert _steps_bits(result.trace.steps) == _steps_bits(expected)
        assert result.graph == rewriter.graph()
        assert result.strategies == rewriter.trees


strategy_trees = st.recursive(
    st.builds(Leaf, st.text(min_size=1)),
    lambda children: st.builds(Swap, children, children)
    | st.builds(Purify, children, children),
    max_leaves=12,
)


@given(strategy_trees)
def test_composed_serialization_matches_full_serialization(tree):
    def composed(t):
        if isinstance(t, Leaf):
            return serialize_strategy(t)
        return serialize_composite(type(t), composed(t.left), composed(t.right))

    text = serialize_strategy(tree)
    assert composed(tree) == text
    # the text is canonical JSON of the tree's object form
    assert canonical_dumps(json.loads(text)) == text
    assert reference_canonical_dumps(json.loads(text)) == text
    assert serialize_strategy(strategy_from_obj(json.loads(text))) == text


_LEAF = {"op": "leaf", "channel": "c1"}


@pytest.mark.parametrize(
    "obj, message",
    [
        ([], "strategy node must be an object with an 'op' field"),
        ({"op": "swap", "left": _LEAF, "right": {"channel": "c2"}},
         "strategy node must be an object with an 'op' field"),
        ({"op": "leaf", "channel": 1},
         "leaf node needs exactly a string 'channel' field"),
        ({"op": "leaf", "channel": "c1", "left": _LEAF},
         "leaf node needs exactly a string 'channel' field"),
        ({"op": "purify", "left": _LEAF},
         "purify node needs exactly 'left' and 'right'"),
        ({"op": "swap", "left": _LEAF, "right": _LEAF, "x": 0},
         "swap node needs exactly 'left' and 'right'"),
        ({"op": "teleport"}, "unknown strategy op 'teleport'"),
        ({"op": "purify", "left": _LEAF, "right": {"op": None}},
         "unknown strategy op None"),
    ],
)
def test_strategy_from_obj_refusals(obj, message):
    with pytest.raises(ValueError) as refused:
        strategy_from_obj(obj)
    assert str(refused.value) == message


def test_strategy_walks_handle_a_20000_deep_chain():
    n = 20001
    g, tree = series_chain(n)
    ids = [f"c{i}" for i in range(n)]
    assert strategy_leaves(tree) == ids
    text = serialize_strategy(tree)
    assert text == '{"left":' * (n - 1) + '{"channel":"c0","op":"leaf"}' + "".join(
        f',"op":"swap","right":{{"channel":"c{i}","op":"leaf"}}}}' for i in range(1, n)
    )
    cost = evaluate_strategy(tree, g)
    assert cost.fidelity == swap_chain([0.99999] * n)
    assert cost.success == pytest.approx(0.99999**n, rel=1e-9)
    obj = fold(
        tree,
        lambda cid: {"op": "leaf", "channel": cid},
        lambda a, b: {"op": "swap", "left": a, "right": b},
        lambda a, b: {"op": "purify", "left": a, "right": b},
    )
    assert serialize_strategy(strategy_from_obj(obj)) == text
    # the mirror image grows the walks' stacks instead of keeping them short
    mirror = fold(tree, Leaf, lambda a, b: Swap(b, a), lambda a, b: Purify(b, a))
    assert strategy_leaves(mirror) == ids[::-1]
    assert evaluate_strategy(mirror, g).fidelity == pytest.approx(cost.fidelity)

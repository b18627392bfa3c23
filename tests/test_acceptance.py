"""End-to-end acceptance checks for the advertised package behavior.

Each test prints a single summary line on success (visible with -s or -rP);
pytest's own verdict line is the pass/fail signal.  Budgets are asserted so a
performance regression shows up as a test failure rather than a slow suite.
"""
import importlib
import math
import pkgutil
import random
import subprocess
import sys
import time

from _generators import (
    bridge_graph,
    build_graph,
    random_connected_graph,
    random_sp_graph,
    random_strategy_tree,
    reduce_random_order,
    seeded,
    two_path_graph,
)
from _reference import (
    InfeasibleRouteError,
    bell_fidelity,
    brute_force_best,
    dephase_bell,
    dephasing_bell_fidelity,
    purify_fidelity,
    swap_fidelity,
    swap_inverse,
)
import qnet
from qnet import (
    GridSpec,
    GridStrategy,
    Leaf,
    OperationCosts,
    Purify,
    RouteRequest,
    SearchKind,
    Swap,
    estimate,
    evaluate_strategy,
    grid_cost,
    reduce_to_fixpoint,
    route,
    serialize_graph,
    serialize_strategy,
)
from qnet.algebra import swap_value, to_log_loss
from qnet.reduction import strategy_leaves


def test_composition_laws_hold():
    started = time.perf_counter()
    rng = random.Random(101)
    for _ in range(10**4):
        a, b, c = rng.random(), rng.random(), rng.random()
        assert swap_fidelity(a, b) == swap_fidelity(b, a)
        assert abs(swap_fidelity(swap_fidelity(a, b), c) - swap_fidelity(a, swap_fidelity(b, c))) <= 1e-12
        assert swap_fidelity(a, 1.0) == a

        x = rng.uniform(0.01, 0.99)
        y = rng.uniform(0.01, 0.99)
        z = rng.uniform(0.01, 0.99)
        assert purify_fidelity(x, y) == purify_fidelity(y, x)
        assert abs(purify_fidelity(purify_fidelity(x, y), z) - purify_fidelity(x, purify_fidelity(y, z))) <= 1e-12
        assert purify_fidelity(x, 0.5) == x

        # Swap inverses usually land outside [0, 1], so check the raw formula.
        f = rng.random()
        while abs(f - 0.5) < 0.05:
            f = rng.random()
        assert abs(swap_value(f, swap_inverse(f)) - 1.0) <= 1e-9

        # The parallel inverse of f is 1 - f, returning to the identity 1/2.
        fp = rng.uniform(1e-6, 1.0 - 1e-6)
        assert abs(purify_fidelity(fp, 1.0 - fp) - 0.5) <= 1e-9

        # Log-losses add where successes multiply.
        p, q, r = (rng.uniform(0.001, 1.0) for _ in range(3))
        u, v, w = to_log_loss(p), to_log_loss(q), to_log_loss(r)
        assert abs(to_log_loss(p * q) - (u + v)) <= 1e-12
        assert abs(to_log_loss(p * q * r) - (u + v + w)) <= 1e-12
        assert to_log_loss(1.0) == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"PASS composition laws: 10^4 samples per law, {elapsed:.2f}s")


def test_swap_degrades_and_purify_improves():
    started = time.perf_counter()
    rng = random.Random(202)

    def draw():
        while True:
            f = 0.5 + 0.5 * rng.random()
            if 0.5 < f < 1.0:
                return f

    violations = 0
    for _ in range(10**4):
        f1, f2 = draw(), draw()
        if not swap_fidelity(f1, f2) < min(f1, f2):
            violations += 1
        if not purify_fidelity(f1, f2) >= max(f1, f2):
            violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS degradation/improvement: 10^4 pairs, 0 violations, {elapsed:.2f}s")


def test_reduction_is_confluent():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = seeded(3000 + seed)
        g = random_sp_graph(rng, max_edges=40)
        baseline = reduce_to_fixpoint(g)
        (terminal,) = baseline.graph.channels
        costs = [baseline.graph.channel(terminal)]
        for _ in range(20):
            costs.append(reduce_random_order(g, rng))
        for component in ("fidelity", "success"):
            values = [getattr(cost, component) for cost in costs]
            worst = max(worst, max(values) - min(values))
    assert worst <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"PASS confluence: 100 graphs x 21 orders, worst spread {worst:.2e}, {elapsed:.1f}s")


def test_simulation_matches_analytics():
    started = time.perf_counter()

    series = build_graph([("c1", "A", "m", 0.9, 1.0), ("c2", "m", "B", 0.9, 1.0)])
    est = estimate(Swap(Leaf("c1"), Leaf("c2")), series, samples=10**6, seed=41)
    assert abs(est.fidelity_hat - 0.82) <= 4 * est.std_error_fidelity

    parallel = build_graph([("c1", "A", "B", 0.7, 1.0), ("c2", "A", "B", 0.7, 1.0)])
    est = estimate(Purify(Leaf("c1"), Leaf("c2")), parallel, samples=10**6, seed=42)
    assert abs(est.fidelity_hat - 0.8448275862068965) <= 4 * est.std_error_fidelity
    assert abs(est.success_hat - 0.58) <= 4 * est.std_error_success

    starved = 0
    for seed in range(50):
        rng = seeded(4000 + seed)
        tree, g = random_strategy_tree(rng, acceptance=seed % 2 == 0)
        want = evaluate_strategy(tree, g)
        est = estimate(tree, g, samples=10**6, seed=seed)
        if est.fidelity_hat is None:
            # Nothing delivered in 10^6 tries; consistent only with a
            # vanishing analytic success probability.
            assert want.success <= 2e-5
            starved += 1
            continue
        # The plug-in standard error collapses to zero when every delivered
        # sample agrees (p-hat of 0 or 1), so floor it at the rule-of-three
        # scale 1/n for the relevant sample count.
        delivered = round(est.success_hat * est.samples)
        se_f = max(est.std_error_fidelity, 1.0 / delivered)
        se_s = max(est.std_error_success, 1.0 / est.samples)
        assert abs(est.fidelity_hat - want.fidelity) <= 4 * se_f
        assert abs(est.success_hat - want.success) <= 4 * se_s
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"PASS simulation: 50 trees at 10^6 samples ({starved} starved), {elapsed:.1f}s")


def test_routing_matches_exhaustive_oracle():
    started = time.perf_counter()
    matched = infeasible = 0
    for seed in range(200):
        rng = seeded(5000 + seed)
        g = random_connected_graph(rng, max_channels=8)
        request = RouteRequest("A", "B", min_success=1e-6)
        result = route(g, request)
        try:
            oracle_tree, oracle_cost = brute_force_best(g, "A", "B", 1e-6)
        except InfeasibleRouteError:
            assert result.search is SearchKind.INFEASIBLE
            infeasible += 1
            continue
        assert result.search is not SearchKind.INFEASIBLE
        # The block holds every channel the oracle used, and the search is
        # exact over it, so every feasible case matches.
        assert set(strategy_leaves(oracle_tree)) <= set(result.subgraph.channels)
        assert abs(result.cost.fidelity - oracle_cost.fidelity) <= 1e-9
        matched += 1
    assert matched > 150
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"PASS oracle routing: {matched} matched, {infeasible} infeasible, "
        f"{elapsed:.1f}s"
    )


def test_grid_area_scaling():
    started = time.perf_counter()
    ideal = OperationCosts(swap_success=1.0, purify_success=1.0, physical_acceptance=False)
    for b in range(1, 9):
        for d in range(1, 9):
            for s in (0.9, 0.73):
                for strategy in GridStrategy:
                    spec = GridSpec(b, d, 0.75, s, strategy=strategy)
                    assert grid_cost(spec, ideal).success == s ** (b * d)
    for f in (0.6, 0.75, 0.9):
        for strategy in GridStrategy:
            table = {
                (b, d): grid_cost(GridSpec(b, d, f, 0.9, strategy=strategy), ideal).fidelity
                for b in range(1, 9)
                for d in range(1, 9)
            }
            for b in range(1, 9):
                for d in range(1, 9):
                    if b > 1:
                        assert table[(b, d)] > table[(b - 1, d)]
                    if d > 1:
                        assert table[(b, d)] < table[(b, d - 1)]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS area scaling: success exact power, fidelity monotone, {elapsed:.2f}s")


def test_dephasing_matches_density_matrix():
    started = time.perf_counter()
    worst = 0.0
    for k in range(101):
        p = k / 100.0
        worst = max(worst, abs(dephasing_bell_fidelity(p) - bell_fidelity(dephase_bell(p))))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS dephasing oracle: 101 points, worst {worst:.2e}, {elapsed:.2f}s")


def test_bridge_topology_requires_search():
    started = time.perf_counter()
    g = bridge_graph()
    reduced = reduce_to_fixpoint(g)
    assert reduced.trace.steps == ()
    assert sorted(reduced.graph.channels) == sorted(g.channels)
    result = route(g, RouteRequest("A", "B", min_success=1e-6))
    assert result.search is SearchKind.EXHAUSTIVE_SEARCH
    tree, cost = brute_force_best(g, "A", "B", 1e-6)
    assert result.cost == cost
    assert serialize_strategy(result.strategy) == serialize_strategy(tree)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"PASS bridge search: irreducible, optimum {cost.fidelity:.6f}, {elapsed:.2f}s")


def test_reports_are_deterministic(tmp_path):
    started = time.perf_counter()
    doc = tmp_path / "net.json"
    doc.write_bytes(serialize_graph(two_path_graph()))
    commands = [
        ["reduce", str(doc), "--trace"],
        ["route", str(doc), "--source", "A", "--target", "B", "--min-success", "0.4"],
        [
            "simulate",
            str(doc),
            "--samples",
            "70001",
            "--seed",
            "11",
            "--source",
            "A",
            "--target",
            "B",
            "--min-success",
            "0.4",
        ],
    ]
    for args in commands:
        outputs = set()
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-m", "qnet", *args], capture_output=True, timeout=120
            )
            assert proc.returncode == 0
            outputs.add(proc.stdout)
        assert len(outputs) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"PASS determinism: 3 commands x 3 runs byte-identical, {elapsed:.1f}s")


def test_public_names_resolve():
    started = time.perf_counter()
    modules = [qnet] + [
        importlib.import_module(f"qnet.{info.name}")
        for info in pkgutil.iter_modules(qnet.__path__)
        if not info.name.startswith("_")  # __main__ runs the CLI on import
    ]
    checked = 0
    for module in modules:
        for name in module.__all__:
            getattr(module, name)  # AttributeError for a dangling export
            checked += 1
    elapsed = time.perf_counter() - started
    print(f"PASS public names: {checked} names in {len(modules)} modules resolve, {elapsed:.2f}s")

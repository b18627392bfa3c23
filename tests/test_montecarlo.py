"""Stochastic sampler: vectorised strategy execution, estimates, density matrices."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from _generators import (
    build_graph,
    random_strategy_tree,
    seeded,
    series_chain,
    two_path_graph,
)
from _reference import reference_run_chunk
from qnet import (
    Channel,
    CostVector,
    DensityMatrix4,
    GraphFormatError,
    Leaf,
    NetworkGraph,
    Node,
    NodeRole,
    OperationCosts,
    Purify,
    ReductionError,
    Swap,
    bell_fidelity,
    dephase_bell,
    estimate,
    evaluate_strategy,
    swap_fidelity,
)
from qnet import montecarlo
from qnet.reduction import postorder


def test_estimate_leaf_rates():
    g = build_graph([("c1", "A", "B", 0.7, 0.5)])
    n = 20000
    est = estimate(Leaf("c1"), g, n, seed=0)
    assert abs(est.success_hat - 0.5) <= 3 * (0.25 / n) ** 0.5
    # flips are only counted on delivered pairs
    delivered = round(est.success_hat * n)
    assert abs(est.fidelity_hat - 0.7) <= 3 * (0.3 * 0.7 / delivered) ** 0.5


def test_estimate_deterministic_extremes():
    # two fully flipped channels cancel through a swap
    g = build_graph(
        [("c1", "A", "B", 0.0, 1.0), ("c2", "A", "B", 0.0, 1.0)]
    )
    est = estimate(Swap(Leaf("c1"), Leaf("c2")), g, 50, seed=2)
    assert est.success_hat == 1.0 and est.fidelity_hat == 1.0
    # purifying two flipped channels accepts (the flips agree) but stays flipped
    est = estimate(Purify(Leaf("c1"), Leaf("c2")), g, 50, seed=2)
    assert est.success_hat == 1.0 and est.fidelity_hat == 0.0
    # disagreeing inputs never pass physical acceptance
    g2 = build_graph(
        [("c1", "A", "B", 1.0, 1.0), ("c2", "A", "B", 0.0, 1.0)]
    )
    est = estimate(Purify(Leaf("c1"), Leaf("c2")), g2, 50, seed=2)
    assert est.success_hat == 0.0 and est.fidelity_hat is None


def test_estimate_swap_example():
    g = build_graph(
        [("c1", "A", "B", 0.9, 1.0), ("c2", "A", "B", 0.9, 1.0)]
    )
    est = estimate(Swap(Leaf("c1"), Leaf("c2")), g, 200000, seed=0)
    assert est.success_hat == 1.0
    assert abs(est.fidelity_hat - 0.82) <= 3 * est.std_error_fidelity


def test_estimate_purify_example():
    g = build_graph(
        [("c1", "A", "B", 0.7, 1.0), ("c2", "A", "B", 0.7, 1.0)]
    )
    est = estimate(Purify(Leaf("c1"), Leaf("c2")), g, 200000, seed=1)
    assert abs(est.success_hat - 0.58) <= 3 * est.std_error_success
    assert abs(est.fidelity_hat - 0.8448275862068965) <= 3 * est.std_error_fidelity


def test_estimate_purify_identity_partner():
    g = build_graph(
        [("c1", "A", "B", 0.77, 1.0), ("c2", "A", "B", 0.5, 1.0)]
    )
    est = estimate(Purify(Leaf("c1"), Leaf("c2")), g, 200000, seed=2)
    assert abs(est.fidelity_hat - 0.77) <= 3 * est.std_error_fidelity


def test_estimate_ideal_leaf_is_exact():
    g = build_graph([("c1", "A", "B", 1.0, 1.0)])
    est = estimate(Leaf("c1"), g, 10000, seed=3)
    assert est.fidelity_hat == 1.0
    assert est.success_hat == 1.0
    assert est.std_error_fidelity == 0.0
    assert est.std_error_success == 0.0


def test_estimate_two_path_strategy():
    g = two_path_graph()
    tree = Purify(Swap(Leaf("c1"), Leaf("c2")), Swap(Leaf("c3"), Leaf("c4")))
    analytic = evaluate_strategy(tree, g)
    est = estimate(tree, g, 400000, seed=4)
    assert abs(est.fidelity_hat - analytic.fidelity) <= 4 * est.std_error_fidelity
    assert abs(est.success_hat - analytic.success) <= 4 * est.std_error_success


def test_estimate_zero_delivery_marker():
    g = build_graph([("c1", "A", "B", 0.9, 0.0)])
    est = estimate(Leaf("c1"), g, 5000, seed=5)
    assert est.fidelity_hat is None
    assert est.std_error_fidelity is None
    assert est.success_hat == 0.0
    assert est.samples == 5000


def test_estimate_validation():
    g = build_graph([("c1", "A", "B", 0.9, 0.9)])
    with pytest.raises(ValueError):
        estimate(Leaf("c1"), g, 0, seed=0)
    with pytest.raises(ValueError):
        estimate(Leaf("c1"), g, 100, seed=0, threads=0)
    with pytest.raises(GraphFormatError):
        estimate(Leaf("missing"), g, 100, seed=0)
    with pytest.raises(ReductionError):
        estimate(Swap(Leaf("c1"), Leaf("c1")), g, 100, seed=0)


def test_estimate_thread_count_never_changes_numbers():
    g = two_path_graph()
    tree = Purify(Swap(Leaf("c1"), Leaf("c2")), Swap(Leaf("c3"), Leaf("c4")))
    # deliberately not a multiple of the chunk size
    single = estimate(tree, g, 200001, seed=9, threads=1)
    for threads in (2, 3, 4):
        assert estimate(tree, g, 200001, seed=9, threads=threads) == single


def test_chunk_budget_bounds_memory_and_never_changes_numbers(monkeypatch):
    g = two_path_graph()
    tree = Purify(Swap(Leaf("c1"), Leaf("c2")), Swap(Leaf("c3"), Leaf("c4")))
    counts = []
    run_worker = montecarlo._run_worker

    def recording(*args):
        counts.extend(count for _, count in args[-1])
        return run_worker(*args)

    monkeypatch.setattr(montecarlo, "_run_worker", recording)
    whole = estimate(tree, g, 5000, seed=12)
    assert counts == [5000]
    # 4 leaves take 11 draws per sample, padded to 12: 108 bytes a sample
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 108 * 777)
    counts.clear()
    assert estimate(tree, g, 5000, seed=12, threads=2) == whole
    assert max(counts) == 777 and sum(counts) == 5000


# Probabilities at and next to the edges of [0, 1]: a draw is never below
# 0, always below 1, below 5e-324 only when it is exactly 0, and below
# 1 - 2**-53 unless it is the largest double under 1.
_EDGE_PROBABILITIES = st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53])


def _probability(draw, low):
    """Mostly in [low, 1], so that large trees still deliver; one in 16 at an edge."""
    if draw(st.integers(0, 15)) == 0:
        return draw(_EDGE_PROBABILITIES)
    return draw(st.floats(low, 1.0))


@st.composite
def _sampled_trees(draw):
    n = draw(st.integers(1, 40))
    nodes = [Node("A", NodeRole.ENDPOINT), Node("B", NodeRole.ENDPOINT)]
    channels = [
        Channel(
            f"c{i}",
            "A",
            "B",
            CostVector(_probability(draw, 0.5), _probability(draw, 0.95)),
        )
        for i in range(n)
    ]
    ops = OperationCosts(
        swap_success=_probability(draw, 0.95),
        purify_success=_probability(draw, 0.95),
        physical_acceptance=draw(st.booleans()),
    )
    trees = [Leaf(c.id) for c in channels]
    while len(trees) > 1:
        i = draw(st.integers(0, len(trees) - 2))
        kind = Swap if draw(st.booleans()) else Purify
        trees[i : i + 2] = [kind(trees[i], trees[i + 1])]
    return trees[0], NetworkGraph(nodes, channels, ops)


@settings(max_examples=150, deadline=None)
@given(
    _sampled_trees(),
    st.integers(1, 700),
    st.integers(1, 97),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_kernel_tallies_match_reference_chunk(case, samples, chunk, threads, seed):
    tree, g = case
    nodes = postorder(tree)
    width = -(-(3 * len(g.channels) - 1) // 4) * 4
    want = reference_run_chunk(nodes, g, seed, 0, samples, width)
    tallies = []
    run_worker = montecarlo._run_worker

    def recording(*args):
        result = run_worker(*args)
        tallies.append(result)
        return result

    # a budget a little over `chunk` samples still gives chunks of `chunk`
    budget = montecarlo._CELL_BYTES * width * chunk + width
    with mock.patch.object(montecarlo, "_run_worker", recording), \
            mock.patch.object(montecarlo, "_CHUNK_BYTES", budget):
        estimate(tree, g, samples, seed, threads)
    assert len(tallies) == min(threads, -(-samples // chunk))
    delivered, accepted, unflipped = (sum(column) for column in zip(*tallies))
    if g.op_costs.physical_acceptance:
        assert (delivered, unflipped) == want and accepted == delivered
    else:
        # the reference ignores agreement; only deliveries are shared
        assert delivered == want[0]


def test_estimate_runs_a_20000_deep_chain():
    g, tree = series_chain(20001)
    analytic = evaluate_strategy(tree, g)
    est = estimate(tree, g, 300, seed=13)
    assert abs(est.success_hat - analytic.success) <= 5 * est.std_error_success
    assert abs(est.fidelity_hat - analytic.fidelity) <= 5 * est.std_error_fidelity


def test_estimate_is_reproducible_per_seed():
    g = build_graph(
        [("c1", "A", "B", 0.8, 0.7), ("c2", "A", "B", 0.75, 0.9)]
    )
    tree = Purify(Leaf("c1"), Leaf("c2"))
    assert estimate(tree, g, 50000, seed=11) == estimate(tree, g, 50000, seed=11)


def test_acceptance_off_purify_conditions_fidelity_on_agreement():
    # every pair is delivered, but the fidelity is that of the samples
    # whose flips agreed, as in the algebra
    ops = OperationCosts(physical_acceptance=False)
    g = build_graph(
        [("c1", "A", "B", 0.9, 1.0), ("c2", "A", "B", 0.6, 1.0)], ops=ops
    )
    est = estimate(Purify(Leaf("c1"), Leaf("c2")), g, 200000, seed=6)
    assert est.success_hat == 1.0
    want = 0.9 * 0.6 / (0.9 * 0.6 + 0.1 * 0.4)
    assert abs(est.fidelity_hat - want) <= 4 * est.std_error_fidelity


def test_acceptance_off_without_agreement_has_no_fidelity():
    ops = OperationCosts(physical_acceptance=False)
    g = build_graph(
        [("c1", "A", "B", 1.0, 1.0), ("c2", "A", "B", 0.0, 1.0)], ops=ops
    )
    est = estimate(Purify(Leaf("c1"), Leaf("c2")), g, 1000, seed=6)
    assert est.success_hat == 1.0
    assert est.fidelity_hat is None and est.std_error_fidelity is None


def test_swap_xor_law_chi_square():
    g = build_graph(
        [("c1", "A", "B", 0.8, 1.0), ("c2", "A", "B", 0.7, 1.0)]
    )
    tree = Swap(Leaf("c1"), Leaf("c2"))
    expected = swap_fidelity(0.8, 0.7)
    n = 100000
    for seed in (0, 1, 2):
        est = estimate(tree, g, n, seed=seed)
        unflipped = round(est.fidelity_hat * n)
        result = stats.chisquare(
            [unflipped, n - unflipped], [expected * n, (1 - expected) * n]
        )
        assert result.pvalue > 0.001


def test_purify_acceptance_rate_equals_swap_fidelity():
    g = build_graph(
        [("c1", "A", "B", 0.85, 1.0), ("c2", "A", "B", 0.65, 1.0)]
    )
    est = estimate(Purify(Leaf("c1"), Leaf("c2")), g, 200000, seed=7)
    assert abs(est.success_hat - swap_fidelity(0.85, 0.65)) <= 4 * est.std_error_success


def test_random_trees_match_analytic_costs():
    # a smaller sweep of the full oracle-agreement check
    for seed in range(8):
        tree, g = random_strategy_tree(seeded(seed))
        analytic = evaluate_strategy(tree, g)
        est = estimate(tree, g, 120000, seed=seed)
        se_s = max(est.std_error_success, 1e-6)
        assert abs(est.success_hat - analytic.success) <= 4 * se_s
        if est.fidelity_hat is not None:
            se_f = max(est.std_error_fidelity, 1e-6)
            assert abs(est.fidelity_hat - analytic.fidelity) <= 4 * se_f


def test_density_matrix_validation():
    good = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    DensityMatrix4(good)
    with pytest.raises(ValueError):
        DensityMatrix4(np.eye(3))
    bad = good.copy()
    bad[0, 1] = 0.3  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix4(bad)
    with pytest.raises(ValueError):
        DensityMatrix4(np.diag([0.9, 0.0, 0.0, 0.5]).astype(complex))
    with pytest.raises(ValueError):
        DensityMatrix4(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


def test_dephase_bell_fixed_points():
    assert abs(bell_fidelity(dephase_bell(1.0)) - 1.0) <= 1e-12
    assert abs(bell_fidelity(dephase_bell(0.0)) - 0.5) <= 1e-12
    assert abs(bell_fidelity(dephase_bell(0.8)) - 0.9) <= 1e-12


def test_dephase_bell_grid_invariants():
    for p in np.linspace(0.0, 1.0, 101):
        state = dephase_bell(float(p))
        m = state.matrix
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12
        assert abs(np.trace(m).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(m).min() >= -1e-10
        assert abs(bell_fidelity(state) - (1.0 + p) / 2.0) <= 1e-12

"""Stochastic sampler: vectorised strategy execution, estimates, density matrices."""
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from math import sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from _generators import (
    build_graph,
    random_strategy_tree,
    seeded,
    series_chain,
    two_path_graph,
)
from _reference import philox_two_draw_tallies, reference_run_chunk
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
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match=rf"^seed {seed} outside"):
            estimate(Leaf("c1"), g, 100, seed=seed)


def test_estimate_thread_count_never_changes_numbers():
    g = two_path_graph()
    tree = Purify(Swap(Leaf("c1"), Leaf("c2")), Swap(Leaf("c3"), Leaf("c4")))
    # deliberately not a multiple of the chunk size
    single = estimate(tree, g, 200001, seed=9, threads=1)
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    with mock.patch("concurrent.futures.ThreadPoolExecutor", RecordingPool):
        for threads in (2, 3, 4):
            assert estimate(tree, g, 200001, seed=9, threads=threads) == single
    # 200,001 samples are four chunks: every thread count runs a pool
    assert pools == [2, 3, 4]


def _sample_bytes(tree):
    """A worker's bytes per sample: 8 of draws, 1 each of compares,
    deliveries and agreements, and 1 for each row of the flip stack, as
    deep as the post-order walk ever gets."""
    height = depth = 0
    for node in postorder(tree):
        height += 1 if isinstance(node, Leaf) else -1
        depth = max(depth, height)
    return 11 + depth


def _budget(sample_bytes, samples):
    """A worker budget that holds chunks of exactly `samples` samples."""
    return sample_bytes * samples + montecarlo._SPARE_BYTES


def _worker_tallies(tree, g, samples, seed, threads=1, budget=None, chunk=None):
    """The (delivered, accepted, unflipped) tallies of each of estimate's
    workers, under a byte budget and a chunk sample cap if given."""
    tallies = []
    run_worker = montecarlo._run_worker

    def recording(*args):
        result = run_worker(*args)
        tallies.append(result)
        return result

    budget = budget or montecarlo._CHUNK_BYTES
    chunk = chunk or montecarlo._CHUNK_SAMPLES
    with mock.patch.object(montecarlo, "_run_worker", recording), \
            mock.patch.object(montecarlo, "_CHUNK_BYTES", budget), \
            mock.patch.object(montecarlo, "_CHUNK_SAMPLES", chunk):
        estimate(tree, g, samples, seed, threads)
    return tallies


def test_chunk_budget_bounds_memory_and_never_changes_numbers(monkeypatch):
    g = two_path_graph()
    tree = Purify(Swap(Leaf("c1"), Leaf("c2")), Swap(Leaf("c3"), Leaf("c4")))
    counts = []
    totals = []
    run_worker = montecarlo._run_worker

    def recording(*args):
        counts.extend(count for _, count in args[-1])
        totals.append(sum(count for _, count in args[-1]))
        return run_worker(*args)

    monkeypatch.setattr(montecarlo, "_run_worker", recording)
    whole = estimate(tree, g, 5000, seed=12)
    assert counts == [5000]
    # the flip stack is 3 rows deep: 8 + 3 + 3 = 14 bytes a sample
    assert _sample_bytes(tree) == 14
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", _budget(14, 777))
    counts.clear()
    totals.clear()
    assert estimate(tree, g, 5000, seed=12, threads=2) == whole
    assert max(counts) == 777 and sum(counts) == 5000
    # the two workers get even shares, not every other chunk
    assert len(totals) == 2 and max(totals) - min(totals) <= 1, totals


# Probabilities at and next to the edges of [0, 1]: a draw is never below
# 0, always below 1, below 5e-324 only when it is exactly 0, and below
# 1 - 2**-53 unless it is the largest double under 1.
_EDGE_PROBABILITIES = st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53])


def _probability(draw, low):
    """Mostly in [low, 1]; one in 16 at an edge."""
    if draw(st.integers(0, 15)) == 0:
        return draw(_EDGE_PROBABILITIES)
    return draw(st.floats(low, 1.0))


@st.composite
def _sampled_trees(draw):
    n = draw(st.integers(1, 40))
    # Successes of at least 0.95 let large trees deliver; from 0.5 or 0 on,
    # every sample of most chunks fails part-way and the chunk stops early.
    low = draw(st.sampled_from([0.95, 0.5, 0.0]))
    nodes = [Node("A", NodeRole.ENDPOINT), Node("B", NodeRole.ENDPOINT)]
    channels = [
        Channel(
            f"c{i}",
            "A",
            "B",
            CostVector(_probability(draw, 0.5), _probability(draw, low)),
        )
        for i in range(n)
    ]
    ops = OperationCosts(
        swap_success=_probability(draw, low),
        purify_success=_probability(draw, low),
        physical_acceptance=draw(st.booleans()),
    )
    trees = [Leaf(c.id) for c in channels]
    while len(trees) > 1:
        i = draw(st.integers(0, len(trees) - 2))
        kind = Swap if draw(st.booleans()) else Purify
        trees[i : i + 2] = [kind(trees[i], trees[i + 1])]
    return trees[0], NetworkGraph(nodes, channels, ops)


def _two_path_case(acceptance):
    g = two_path_graph(ops=OperationCosts(physical_acceptance=acceptance))
    tree = Purify(Swap(Leaf("c1"), Leaf("c2")), Swap(Leaf("c3"), Leaf("c4")))
    return tree, g


def _weak_chain_case(leaves, success, acceptance):
    """A left-deep tree over parallel A-B channels of fidelity 0.9 and the
    given success, purifying and swapping in turn."""
    ops = OperationCosts(physical_acceptance=acceptance)
    g = build_graph(
        [(f"c{i}", "A", "B", 0.9, success) for i in range(leaves)], ops=ops
    )
    tree = Leaf("c0")
    for i in range(1, leaves):
        tree = (Purify if i % 2 else Swap)(tree, Leaf(f"c{i}"))
    return tree, g


def _fills_per_chunk(monkeypatch):
    """The number of draw rows each chunk's generator fills, in the order
    the generators are made."""
    fills = []
    generator = np.random.Generator

    class Counting:
        def __init__(self, bits):
            self._generator = generator(bits)
            self._chunk = len(fills)
            fills.append(0)

        def random(self, *args, **kwargs):
            fills[self._chunk] += 1
            return self._generator.random(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Counting)
    return fills


# (case, samples, chunk, threads, seed) where every chunk of 97 samples
# stops early, and where the first stops early but a later one delivers
_ALL_CHUNKS_STOP = [
    (_weak_chain_case(20, 0.5, True), 700, 97, 1, 5),
    (_weak_chain_case(20, 0.5, False), 700, 97, 2, 5),
]
_FIRST_CHUNK_STOPS = [
    (_weak_chain_case(12, 0.7, True), 700, 97, 2, 1),
    (_weak_chain_case(16, 0.75, False), 700, 97, 1, 3),
]


@settings(max_examples=150, deadline=None)
@given(
    _sampled_trees(),
    st.integers(1, 700),
    st.integers(1, 97),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
# chunks of 97 leave a short last chunk of 700 samples at 1 and 2 threads
@example(_two_path_case(True), 700, 97, 1, 5, True)
@example(_two_path_case(False), 700, 97, 2, 5, False)
# chunks that stop early, acceptance on and off, at 1 and 2 threads
@example(*_ALL_CHUNKS_STOP[0], True)
@example(*_ALL_CHUNKS_STOP[1], False)
@example(*_FIRST_CHUNK_STOPS[0], True)
@example(*_FIRST_CHUNK_STOPS[1], False)
def test_kernel_tallies_match_reference_chunk(
    case, samples, chunk, threads, seed, by_bytes
):
    tree, g = case
    want = reference_run_chunk(postorder(tree), g, seed, samples)
    if by_bytes:
        # a budget a little over `chunk` samples still gives chunks of `chunk`
        sample_bytes = _sample_bytes(tree)
        budget = _budget(sample_bytes, chunk) + sample_bytes - 1
        tallies = _worker_tallies(tree, g, samples, seed, threads, budget=budget)
    else:
        tallies = _worker_tallies(tree, g, samples, seed, threads, chunk=chunk)
    assert len(tallies) == min(threads, -(-samples // chunk))
    assert tuple(sum(column) for column in zip(*tallies)) == want


@pytest.mark.parametrize(
    "case, samples, chunk, threads, seed, every",
    [(*c, True) for c in _ALL_CHUNKS_STOP]
    + [(*c, False) for c in _FIRST_CHUNK_STOPS],
    ids=["all-on", "all-off", "first-on", "first-off"],
)
def test_stopping_examples_stop_the_chunks_they_name(
    case, samples, chunk, threads, seed, every, monkeypatch
):
    tree, g = case
    nodes = len(postorder(tree))
    fills = _fills_per_chunk(monkeypatch)
    tallies = _worker_tallies(tree, g, samples, seed, threads, chunk=chunk)
    assert len(fills) == -(-samples // chunk)
    delivered = sum(t[0] for t in tallies)
    if every:
        assert max(fills) < nodes and delivered == 0
    else:
        assert fills[0] < nodes and delivered > 0


@pytest.mark.parametrize("threads", [1, 2])
def test_a_chunk_stops_once_every_sample_has_failed(threads, monkeypatch):
    """A 40-leaf chain whose first leaf never delivers: each chunk fills
    the rows of the first 8 post-order nodes, then stops."""
    hops = ["A"] + [f"m{i}" for i in range(1, 40)] + ["B"]
    g = build_graph(
        [
            (f"c{i}", hops[i], hops[i + 1], 0.99, 0.0 if i == 0 else 0.99)
            for i in range(40)
        ]
    )
    tree = Leaf("c0")
    for i in range(1, 40):
        tree = Swap(tree, Leaf(f"c{i}"))
    fills = _fills_per_chunk(monkeypatch)
    tallies = _worker_tallies(tree, g, 1000, 3, threads, chunk=100)
    assert len(fills) == 10 and max(fills) <= 8
    assert tallies == [(0, 0, 0)] * threads


@pytest.mark.parametrize(
    "seed, success, fidelity",
    [
        (0, 0.7, 0.8),
        (1, 1.0, 0.5),
        (2, 0.3, 1.0),
        (3, 1.0, 0.0),
        (4, 5e-324, 0.0),
        (2**128 - 1, 1.0 - 2.0**-53, 0.9),
    ],
)
def test_one_leaf_reads_one_uniform_per_sample(seed, success, fidelity):
    """Sample i of a 1-leaf tree is draw i of the stream: delivered iff
    u < s, flipped iff u < s * (1 - f), across chunks and workers."""
    samples = 30001
    u = np.random.Generator(np.random.PCG64DXSM(seed)).random(samples)
    g = build_graph([("c1", "A", "B", fidelity, success)])
    # 8 + 3 + 1 = 12 bytes a sample, chunks of 4,096
    tallies = _worker_tallies(Leaf("c1"), g, samples, seed, 3, _budget(12, 4096))
    delivered, accepted, unflipped = (sum(column) for column in zip(*tallies))
    assert delivered == accepted == np.count_nonzero(u < success)
    flipped = np.count_nonzero(u < success * (1.0 - fidelity))
    assert delivered - unflipped == flipped


_BUFFER_CASES = [
    ("left", 1, 70000),
    ("left", 2, 70000),
    ("left", 10, 70000),
    ("left", 250, 8000),
    ("left", 5000, 400),
    ("left", 20001, 100),
    ("balanced", 250, 1 << 17),
    ("right", 1000, 40000),
    ("right", 20001, 1000),
]


@pytest.mark.parametrize(
    "shape, leaves, samples",
    _BUFFER_CASES,
    ids=[
        f"{leaves}-{samples}" if shape == "left" else f"{shape}-{leaves}-{samples}"
        for shape, leaves, samples in _BUFFER_CASES
    ],
)
def test_worker_buffers_stay_within_chunk_bytes(shape, leaves, samples, monkeypatch):
    g, tree = series_chain(leaves, shape=shape)
    peaks = []
    run_worker = montecarlo._run_worker

    def measured(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run_worker(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return result

    monkeypatch.setattr(montecarlo, "_run_worker", measured)
    tracemalloc.start()
    try:
        estimate(tree, g, samples, seed=14)
    finally:
        tracemalloc.stop()
    (peak,) = peaks
    assert peak <= montecarlo._CHUNK_BYTES
    if shape == "balanced":
        # a 9-row flip stack: 20 bytes for each of 65,536 samples
        assert peak < 8 << 20
    if shape == "right":
        # the flip stack is `leaves` rows deep, so the budget binds
        # (20,001 rows leave room for 1,673 samples) and the traced peak
        # holds the worker's buffers
        assert peak >= montecarlo._CHUNK_BYTES // 2


def test_philox_oracle_is_the_two_draw_kernel():
    """Tallies the two-draw Philox kernel gave for 5,000 samples at seed 12."""
    tree = Purify(Swap(Leaf("c1"), Leaf("c2")), Swap(Leaf("c3"), Leaf("c4")))
    nodes = postorder(tree)
    for acceptance, want in ((True, (1838, 1838, 1514)), (False, (3231, 1838, 1514))):
        ops = OperationCosts(physical_acceptance=acceptance)
        g = two_path_graph(fidelity=0.8, success=0.9, ops=ops)
        assert philox_two_draw_tallies(nodes, g, 12, 5000) == want


# Two counts of one rate agree within _SIGMAS combined standard errors; for
# small counts, both Poisson tails must hold at least _TAIL, the one-sided
# normal tail at _SIGMAS.
_SIGMAS = 5.0
_TAIL = 2.9e-7
_SMALL_COUNT = 25


def _counts_agree(k1, n1, k2, n2):
    """Whether k1 of n1 and k2 of n2 are plausible draws of one rate.

    Where either outcome is expected fewer than _SMALL_COUNT times in the
    smaller base, the normal limit does not hold: the rarer outcome's
    counts are taken as Poisson with means in proportion to n1 : n2, so
    that given their sum, k1 is binomial with p = n1 / (n1 + n2).
    """
    if n1 == 0 or n2 == 0:
        return True
    rate = (k1 + k2) / (n1 + n2)
    if min(rate, 1.0 - rate) * min(n1, n2) >= _SMALL_COUNT:
        se = sqrt(rate * (1.0 - rate) * (1.0 / n1 + 1.0 / n2))
        return abs(k1 / n1 - k2 / n2) <= _SIGMAS * se
    if rate > 0.5:
        k1, k2 = n1 - k1, n2 - k2
    share = n1 / (n1 + n2)
    at_most = stats.binom.cdf(k1, k1 + k2, share)
    at_least = stats.binom.sf(k1 - 1, k1 + k2, share)
    return min(at_most, at_least) >= _TAIL


def test_estimates_agree_with_two_draw_philox_kernel():
    """One uniform per leaf samples what two draws per leaf sampled."""
    samples = 20000
    for i in range(200):
        tree, g = random_strategy_tree(seeded(6000 + i), acceptance=i % 2 == 0)
        ((delivered, accepted, unflipped),) = _worker_tallies(tree, g, samples, i)
        old_delivered, old_accepted, old_unflipped = philox_two_draw_tallies(
            postorder(tree), g, i, samples
        )
        assert _counts_agree(delivered, samples, old_delivered, samples), i
        assert _counts_agree(accepted, samples, old_accepted, samples), i
        assert _counts_agree(unflipped, accepted, old_unflipped, old_accepted), i


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
    with pytest.raises(ValueError, match=r"^channel strength -0\.5 outside \[0, 1\]$"):
        dephase_bell(-0.5)


def test_dephase_bell_grid_invariants():
    for p in np.linspace(0.0, 1.0, 101):
        state = dephase_bell(float(p))
        m = state.matrix
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12
        assert abs(np.trace(m).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(m).min() >= -1e-10
        assert abs(bell_fidelity(state) - (1.0 + p) / 2.0) <= 1e-12

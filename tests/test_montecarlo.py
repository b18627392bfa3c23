"""Stochastic sampler: bit-sliced strategy execution and estimates.

The dephasing density-matrix oracle of tests/_reference.py is checked here too.
"""
import math
import tracemalloc
from contextlib import ExitStack, contextmanager
from math import sqrt
from random import Random
from statistics import mean, stdev
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
from _reference import (
    DensityMatrix4,
    bell_fidelity,
    dephase_bell,
    philox_two_draw_tallies,
    scalar_walk_tallies,
    swap_fidelity,
    uniform_below,
)
from qnet import (
    Channel,
    GraphFormatError,
    Leaf,
    NetworkGraph,
    Node,
    NodeRole,
    OperationCosts,
    Purify,
    ReductionError,
    Swap,
    estimate,
    evaluate_strategy,
)
from qnet import algebra, montecarlo
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
    with pytest.raises(GraphFormatError):
        estimate(Leaf("missing"), g, 100, seed=0)
    with pytest.raises(ReductionError):
        estimate(Swap(Leaf("c1"), Leaf("c1")), g, 100, seed=0)
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match=rf"^seed {seed} outside"):
            estimate(Leaf("c1"), g, 100, seed=seed)


_HALVES = Purify(Leaf("c1"), Leaf("c2"))  # F 1.0 against F 0.0: singular
_MISSING = (Swap(_HALVES, Leaf("missing")), GraphFormatError, "unknown channel 'missing'")
_REPEAT = (
    Swap(_HALVES, Leaf("c1")), ReductionError, "channel 'c1' consumed twice by strategy"
)
_SINGULAR = (
    _HALVES, algebra.AlgebraDomainError, "singular purification input (1.0, 0.0)"
)


def _sample(tree, g):
    return estimate(tree, g, 1000, seed=0)


@pytest.mark.parametrize(
    "walk, tree, error, message",
    [
        pytest.param(evaluate_strategy, *_MISSING, id="evaluate_strategy-missing"),
        pytest.param(_sample, *_MISSING, id="estimate-missing"),
        pytest.param(evaluate_strategy, *_REPEAT, id="evaluate_strategy-repeat"),
        pytest.param(_sample, *_REPEAT, id="estimate-repeat"),
        pytest.param(evaluate_strategy, *_SINGULAR, id="evaluate_strategy-singular"),
        pytest.param(_sample, _HALVES, None, None, id="estimate-singular"),
    ],
)
def test_every_leaf_is_checked_before_anything_composes(walk, tree, error, message):
    """Both walks check every leaf, in post-order, before composing: a bad
    leaf after a singular purification decides the error, and the
    purification alone is refused only by the algebra; sampling it
    delivers nothing."""
    g = build_graph([("c1", "A", "B", 1.0, 0.9), ("c2", "A", "B", 0.0, 0.9)])
    if error is None:
        assert walk(tree, g).success_hat == 0.0
        return
    with pytest.raises(error) as caught:
        walk(tree, g)
    assert type(caught.value) is error and str(caught.value) == message


@contextmanager
def _recorded(chunk=None, budget=None):
    """Record each chunk estimate runs, as [n, tallies, masks], masks
    holding the masks each comparison drew: the success draw's, then each
    leaf's flip, in post-order; under a chunk sample cap or a byte budget
    if given."""
    chunks = []
    run_chunk, below = montecarlo._run_chunk, montecarlo._below

    def recording_chunk(*args):
        chunks.append([args[-1], None, []])
        chunks[-1][1] = run_chunk(*args)
        return chunks[-1][1]

    def recording_below(draw, n, undecided, t):
        masks = []
        chunks[-1][2].append(masks)

        def recording_draw(k):
            masks.append(draw(k))
            return masks[-1]

        return below(recording_draw, n, undecided, t)

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(montecarlo, "_run_chunk", recording_chunk))
        stack.enter_context(mock.patch.object(montecarlo, "_below", recording_below))
        if chunk:
            stack.enter_context(
                mock.patch.object(montecarlo, "_chunk_samples", lambda depth: chunk)
            )
        if budget:
            stack.enter_context(mock.patch.object(montecarlo, "_CHUNK_BYTES", budget))
        yield chunks


def _chunk_tallies(tree, g, samples, seed, chunk=None):
    """The (delivered, accepted, unflipped) tallies of each chunk."""
    with _recorded(chunk) as chunks:
        estimate(tree, g, samples, seed)
    return [tallies for _, tallies, _ in chunks]


def _depth(tree):
    """Rows of the flip stack: as deep as the post-order walk ever gets."""
    height = depth = 0
    for node in postorder(tree):
        height += 1 if isinstance(node, Leaf) else -1
        depth = max(depth, height)
    return depth


def _row_bytes(n):
    """A row of n samples: ceil(n / 30) digits of 4 bytes, and the header."""
    return 4 * -(-n // 30) + montecarlo._ROW_HEADER


def test_chunks_split_the_samples_by_the_byte_budget():
    g = two_path_graph()
    tree = Purify(Swap(Leaf("c1"), Leaf("c2")), Swap(Leaf("c3"), Leaf("c4")))
    assert _depth(tree) == 3
    with _recorded() as chunks:
        estimate(tree, g, 5000, seed=12)
    assert [n for n, _, _ in chunks] == [5000]
    # at most 65,536 samples a chunk while the rows fit
    assert montecarlo._chunk_samples(3) == montecarlo._CHUNK_SAMPLES == 65536
    with _recorded() as chunks:
        estimate(tree, g, 200001, seed=12)
    assert [n for n, _, _ in chunks] == [50000, 50000, 50000, 50001]
    # 3 + _ROWS = 15 rows; a budget of 15 rows of 34 digits holds the
    # 1,020 samples that 34 digits hold, and one byte less holds 990
    budget = 15 * _row_bytes(1020)
    with mock.patch.object(montecarlo, "_CHUNK_BYTES", budget):
        assert montecarlo._chunk_samples(3) == 1020
    with mock.patch.object(montecarlo, "_CHUNK_BYTES", budget - 1):
        assert montecarlo._chunk_samples(3) == 990
    with _recorded(budget=budget) as chunks:
        estimate(tree, g, 5000, seed=12)
    # ceil(5000 / 1020) = 5 chunks, as even as they come
    assert [n for n, _, _ in chunks] == [1000] * 5
    with _recorded(budget=budget) as chunks:
        estimate(tree, g, 5003, seed=12)
    assert [n for n, _, _ in chunks] == [1000, 1001, 1000, 1001, 1001]


def test_chunks_run_as_a_stream():
    """estimate lists nothing per chunk: with 10**5 chunks ahead, it has
    allocated almost nothing when the first one starts."""
    g = build_graph([("c1", "A", "B", 0.9, 0.9)])

    class Started(Exception):
        pass

    def first_chunk(*args):
        raise Started

    tracemalloc.start()
    try:
        with mock.patch.object(montecarlo, "_run_chunk", first_chunk):
            with pytest.raises(Started):
                estimate(Leaf("c1"), g, (1 << 16) * 10**5, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10, peak


class _Started(Exception):
    pass


@pytest.mark.parametrize(
    "samples,refused",
    [(1 << 40, False), ((1 << 40) + 1, True), (10**20, True)],
    ids=["bound", "bound+1", "1e20"],
)
def test_samples_are_bounded(samples, refused):
    """estimate starts sampling 2**40 samples and refuses one more at once."""
    assert montecarlo._MAX_SAMPLES == 1 << 40
    g = build_graph([("c1", "A", "B", 0.9, 0.9)])

    def first_chunk(*args):
        raise _Started

    if refused:
        expected = pytest.raises(
            ValueError, match=r"^samples must be <= 2\*\*40 \(1,099,511,627,776\)$"
        )
    else:
        expected = pytest.raises(_Started)
    with mock.patch.object(montecarlo, "_run_chunk", first_chunk), expected:
        estimate(Leaf("c1"), g, samples, seed=0)


_THRESHOLD_CASES = [
    0.5,  # T = 2**52: one level
    0.75,  # two levels
    0.625,  # three levels
    1.0 - 2.0**-53,  # T = 2**53 - 1: 53 levels
    5e-324,  # T = 1: 53 levels
    0.0,  # T = 0: no k is below, no level
    1.0,  # T = 2**53: every k is below, no level
]


def _levels(t):
    """Bit levels from the top down to t's lowest set bit (0 for 0 or 2**53)."""
    return 0 if t in (0, 1 << 53) else 54 - (t & -t).bit_length()


def _first_difference(k, t):
    """The level (from 1) at which k's bits first differ from t's; 54 if never."""
    for level in range(1, 54):
        if (k >> (53 - level)) & 1 != (t >> (53 - level)) & 1:
            return level
    return 54


def _uniforms(t, rng):
    """53-bit integers around t: every pattern of t's leading levels (when
    there are at most 6) under random suffixes, t and its neighbours, the
    extremes and random draws."""
    levels = _levels(t)
    ks = {0, (1 << 53) - 1, 1 << 52, (1 << 52) - 1}
    ks |= {k for k in (t - 1, t, t + 1) if 0 <= k < 1 << 53}
    if 0 < levels <= 6:
        for prefix in range(1 << levels):
            for _ in range(3):
                suffix = rng.getrandbits(53 - levels)
                ks.add(prefix << (53 - levels) | suffix)
            ks.add(prefix << (53 - levels))
    ks |= {rng.getrandbits(53) for _ in range(20)}
    ks |= {t ^ (1 << rng.randrange(53)) for _ in range(20) if t < 1 << 53}
    return sorted(ks)


def _masks(ks):
    """The 53 level masks of uniforms ks: bit i of level j is bit 52 - j of ks[i]."""
    return [sum(((k >> (52 - j)) & 1) << i for i, k in enumerate(ks)) for j in range(53)]


def _feed(masks, n):
    """A draw(n) that hands out masks in turn, and the list of those drawn."""
    stream = iter(masks)
    drawn = []

    def draw(k):
        assert k == n
        drawn.append(next(stream))
        return drawn[-1]

    return draw, drawn


def _masks_needed(ks, undecided, t):
    """Levels a comparison of the samples of `undecided` with t must draw:
    down to t's lowest set bit, or to where the last of them is decided."""
    return max(
        (
            min(_first_difference(k, t), _levels(t))
            for i, k in enumerate(ks)
            if undecided >> i & 1
        ),
        default=0,
    )


@pytest.mark.parametrize(
    "p, lo",
    [(p, None) for p in _THRESHOLD_CASES]
    + [(p, lo) for p in _THRESHOLD_CASES for lo in _THRESHOLD_CASES if lo <= p],
)
def test_comparator_decides_k_below_t_exactly(p, lo):
    """Fixed masks through the comparator: each asked sample's bit is
    k < T, and the levels stop exactly when no undecided sample is left
    above T's lowest set bit.  With lo, a second comparison, against lo's
    threshold and over the samples the first found below, follows from the
    same stream, as a chunk's first leaf follows its success draw: it reads
    exactly the masks after the first comparison's."""
    rng = Random(f"{p}:{lo}")
    t = montecarlo._threshold(p)
    t_lo = montecarlo._threshold(lo) if lo is not None else 0
    assert t == math.ceil(p * 2**53) and t >> 53 == (p == 1.0)
    ks = _uniforms(t, rng) + _uniforms(t_lo, rng)
    ks_lo = ks[::-1]  # the second comparison's uniforms
    n = len(ks)
    for undecided in ((1 << n) - 1, rng.getrandbits(n), 0):
        first = _masks_needed(ks, undecided, t)
        stream = _masks(ks)[:first] + (_masks(ks_lo) if lo is not None else [])
        draw, drawn = _feed(stream, n)
        below = montecarlo._below(draw, n, undecided, t)
        for i, k in enumerate(ks):
            assert below >> i & 1 == (undecided >> i & 1 and k < t), (i, k)
        assert len(drawn) == first
        if lo is None:
            continue
        below_lo = montecarlo._below(draw, n, below, t_lo)
        for i, k in enumerate(ks_lo):
            assert below_lo >> i & 1 == (below >> i & 1 and k < t_lo), (i, k)
        assert len(drawn) == first + _masks_needed(ks_lo, below, t_lo)


def _comparisons(tree):
    """Comparisons of a chunk that runs to the end: the success draw, then
    one per leaf."""
    return 1 + sum(isinstance(node, Leaf) for node in postorder(tree))


def _check_against_scalar_walk(tree, g, chunks):
    nodes = postorder(tree)
    for n, tallies, masks in chunks:
        assert len(masks) <= _comparisons(tree)
        assert tallies == scalar_walk_tallies(nodes, g, n, masks)


# Probabilities at and next to the edges of [0, 1]: a uniform is never
# below 0, always below 1, below 5e-324 only when k = 0, and below
# 1 - 2**-53 unless k = 2**53 - 1.
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
        (f"c{i}", Channel("A", "B", _probability(draw, 0.5), _probability(draw, low)))
        for i in range(n)
    ]
    ops = OperationCosts(
        swap_success=_probability(draw, low),
        purify_success=_probability(draw, low),
        physical_acceptance=draw(st.booleans()),
    )
    trees = [Leaf(cid) for cid, _ in channels]
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


# (case, samples, chunk, seed) where every chunk of 97 samples stops at its
# success draw, and where the first stops early but a later one delivers:
# with acceptance on, the first chunk delivers some samples and stops once
# purifications have failed them all
_ALL_CHUNKS_STOP = [
    (_weak_chain_case(20, 0.5, True), 700, 97, 5),
    (_weak_chain_case(20, 0.5, False), 700, 97, 5),
]
_FIRST_CHUNK_STOPS = [
    (_weak_chain_case(12, 0.7, True), 700, 97, 0),
    (_weak_chain_case(16, 0.75, False), 700, 97, 2),
]


@settings(max_examples=150, deadline=None)
@given(
    _sampled_trees(),
    st.integers(1, 700),
    st.integers(1, 97),
    st.integers(0, 2**32 - 1),
)
# chunks of 97 leave a short last chunk of 700 samples
@example(_two_path_case(True), 700, 97, 5)
@example(_two_path_case(False), 700, 97, 5)
# chunks that stop early, acceptance on and off
@example(*_ALL_CHUNKS_STOP[0])
@example(*_ALL_CHUNKS_STOP[1])
@example(*_FIRST_CHUNK_STOPS[0])
@example(*_FIRST_CHUNK_STOPS[1])
def test_kernel_tallies_match_scalar_walk(case, samples, chunk, seed):
    tree, g = case
    with _recorded(chunk) as chunks:
        est = estimate(tree, g, samples, seed)
    assert len(chunks) == -(-samples // chunk)
    assert sum(n for n, _, _ in chunks) == samples
    _check_against_scalar_walk(tree, g, chunks)
    delivered = sum(tallies[0] for _, tallies, _ in chunks)
    assert est.success_hat == delivered / samples


@pytest.mark.parametrize(
    "case, samples, chunk, seed, every",
    [(*c, True) for c in _ALL_CHUNKS_STOP]
    + [(*c, False) for c in _FIRST_CHUNK_STOPS],
    ids=["all-on", "all-off", "first-on", "first-off"],
)
def test_stopping_examples_stop_the_chunks_they_name(
    case, samples, chunk, seed, every
):
    tree, g = case
    with _recorded(chunk) as chunks:
        estimate(tree, g, samples, seed)
    visited = [len(masks) for _, _, masks in chunks]
    assert len(visited) == -(-samples // chunk)
    delivered = sum(tallies[0] for _, tallies, _ in chunks)
    if every:
        assert visited == [1] * len(visited) and delivered == 0
    elif g.op_costs.physical_acceptance:
        assert 1 < visited[0] < _comparisons(tree) and delivered > 0
    else:
        assert visited[0] == 1 and delivered > 0


@pytest.mark.parametrize("seed", [1, 2])
def test_a_chunk_stops_once_every_sample_has_failed(seed):
    """A 40-leaf chain whose first leaf never delivers: S = 0, so each
    chunk makes its success comparison, which draws no mask, and stops
    before any flip, whatever the seed."""
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
    with _recorded(chunk=100) as chunks:
        estimate(tree, g, 1000, seed)
    assert len(chunks) == 10
    # S = 0 is T = 0: the success draw reads no mask and delivers nothing
    assert [masks for _, _, masks in chunks] == [[[]]] * 10
    assert [tallies for _, tallies, _ in chunks] == [(0, 0, 0)] * 10


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
    """Each chunk of a 1-leaf tree reads successive getrandbits(n) masks of
    random.Random(seed), chunk after chunk from one stream, bit i of a mask
    being the next bit of sample i's k, top bit first: first the success
    masks over every sample, delivered iff k < T(s), then the flip masks
    over the delivered samples only, flipped iff k' < T(1 - f).  Rebuilt
    here one sample at a time."""
    samples, chunk = 30001, 4096
    g = build_graph([("c1", "A", "B", fidelity, success)])
    tallies = _chunk_tallies(Leaf("c1"), g, samples, seed, chunk)
    hi = math.ceil(success * 2**53)
    lo = math.ceil((1.0 - fidelity) * 2**53)
    rng = Random(seed)

    def compare(n, asked, t):
        """Which of the samples in `asked` read a k below t."""
        prefixes, levels = [0] * n, 0
        while any(uniform_below(prefixes[i], levels, t) is None for i in asked):
            mask = rng.getrandbits(n)
            prefixes = [k << 1 | (mask >> i) & 1 for i, k in enumerate(prefixes)]
            levels += 1
        return [i for i in asked if uniform_below(prefixes[i], levels, t)]

    chunks = -(-samples // chunk)
    delivered = flipped = 0
    for c in range(chunks):
        n = samples * (c + 1) // chunks - samples * c // chunks
        alive = compare(n, range(n), hi)
        flipped += len(compare(n, alive, lo))  # no mask when alive is empty
        delivered += len(alive)
    assert len(tallies) == chunks
    assert [sum(column) for column in zip(*tallies)] == [
        delivered, delivered, delivered - flipped,
    ]


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
    """A chunk's traced peak stays within depth + _ROWS rows.  Fidelity 1/2
    flips half the samples at every leaf, so no flip row is sparse, and
    the 1,000-leaf right-deep chain runs under a 2 MiB budget, which then
    binds: its post-order lists 1,000 leaves before the first swap."""
    g, tree = series_chain(leaves, fidelity=0.5, shape=shape)
    binds = (shape, leaves) == ("right", 1000)
    if binds:
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 2 << 20)
    peaks = []
    run_chunk = montecarlo._run_chunk

    def measured(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run_chunk(*args)
        peaks.append((args[-1], tracemalloc.get_traced_memory()[1] - before))
        return result

    monkeypatch.setattr(montecarlo, "_run_chunk", measured)
    tracemalloc.start()
    try:
        estimate(tree, g, samples, seed=14)
    finally:
        tracemalloc.stop()
    rows = _depth(tree) + montecarlo._ROWS
    for n, peak in peaks:
        assert peak <= rows * _row_bytes(n) <= montecarlo._CHUNK_BYTES, (n, peak)
    if binds:
        # the budget splits the samples, and the stack fills half of it
        assert len(peaks) == 3
        assert max(peak for _, peak in peaks) >= montecarlo._CHUNK_BYTES // 2


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
        ((delivered, accepted, unflipped),) = _chunk_tallies(tree, g, samples, i)
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


def test_estimate_thread_count_never_changes_numbers():
    """estimate takes no thread count.  Its numbers on four chunks (50,000,
    50,000, 50,000 and 50,001 samples) were pinned at every thread count
    from 1 to 4 when it still took one, and pinned again once each sample
    drew its success once."""
    g = two_path_graph()
    tree = Purify(Swap(Leaf("c1"), Leaf("c2")), Swap(Leaf("c3"), Leaf("c4")))
    est = estimate(tree, g, 200001, seed=9)
    assert est == estimate(tree, g, 200001, seed=9)
    assert (est.fidelity_hat, est.success_hat) == (
        0.9529730022182547,
        0.4620726896365518,
    )
    assert (est.std_error_fidelity, est.std_error_success) == (
        0.0006963742307997007,
        0.0011148100204232403,
    )
    with pytest.raises(TypeError):
        estimate(tree, g, 200001, 9, 2)


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
    # a smaller sweep of the full oracle-agreement check; the standard
    # errors are those of the analytic rates, so that a run in which no
    # accepted sample flipped is not held to a standard error of 0
    n = 120000
    for seed in range(8):
        tree, g = random_strategy_tree(seeded(seed))
        analytic = evaluate_strategy(tree, g)
        est = estimate(tree, g, n, seed=seed)
        s, f = analytic.success, analytic.fidelity
        se_s = max(sqrt(s * (1.0 - s) / n), 1e-6)
        assert abs(est.success_hat - s) <= 4 * se_s
        if est.fidelity_hat is not None:
            accepted = round(est.success_hat * n)  # acceptance on: all delivered
            se_f = max(sqrt(f * (1.0 - f) / accepted), 1e-6)
            assert abs(est.fidelity_hat - f) <= 4 * se_f


def _z_scores(acceptance, trees, samples):
    """Success and fidelity z-scores of one estimate per random tree against
    its analytic cost, each at the analytic value's standard error; an
    outcome expected fewer than _SMALL_COUNT times in its base is left out,
    as its count is not near normal."""
    success, fidelity = [], []
    for i in range(trees):
        tree, g = random_strategy_tree(seeded(i), acceptance=acceptance)
        # the two modes read different streams: their scores are independent
        seed = 2 * i + acceptance
        ((delivered, accepted, unflipped),) = _chunk_tallies(tree, g, samples, seed)
        analytic = evaluate_strategy(tree, g)
        for rate, hits, base, scores in (
            (analytic.success, delivered, samples, success),
            (analytic.fidelity, unflipped, accepted, fidelity),
        ):
            if min(rate, 1.0 - rate) * base >= _SMALL_COUNT:
                scores.append((hits / base - rate) / sqrt(rate * (1.0 - rate) / base))
    return success, fidelity


@pytest.mark.parametrize("acceptance", [True, False], ids=["on", "off"])
def test_estimates_are_calibrated_against_analytic_costs(acceptance):
    """Over 400 random trees at 10,000 samples, the z-scores of success and
    of fidelity have a mean within 0.2 of 0 and a standard deviation within
    0.15 of 1: the estimate is neither biased nor over- or under-dispersed.
    """
    for scores in _z_scores(acceptance, 400, 10000):
        assert len(scores) >= 200
        assert abs(mean(scores)) <= 0.2
        assert 0.85 <= stdev(scores) <= 1.15


def _dropped_swap_success(f1, s1, f2, s2, ops):
    return algebra.swap_value(f1, f2), s1 * s2


def _dropped_purify_success(f1, s1, f2, s2, ops):
    agree = algebra.swap_value(f1, f2)
    return f1 * f2 / agree, s1 * s2 * (agree if ops.physical_acceptance else 1.0)


def _dropped_agreement(f1, s1, f2, s2, ops):
    agree = algebra.swap_value(f1, f2)
    return f1 * f2 / agree, s1 * s2 * ops.purify_success


def _ten_leaf_case(acceptance):
    ops = OperationCosts(
        swap_success=0.9, purify_success=0.9, physical_acceptance=acceptance
    )
    costs = [
        (0.9, 0.95), (0.8, 0.9), (0.85, 0.97), (0.75, 0.92), (0.95, 0.9),
        (0.7, 0.99), (0.88, 0.93), (0.8, 0.96), (0.92, 0.9), (0.78, 0.94),
    ]
    g = build_graph(
        [(f"c{i}", "A", "B", f, s) for i, (f, s) in enumerate(costs)], ops=ops
    )
    c = [Leaf(f"c{i}") for i in range(10)]
    tree = Swap(
        Purify(Swap(c[0], c[1]), Purify(c[2], c[3])),
        Purify(Swap(c[4], Purify(c[5], c[6])), Swap(c[7], Purify(c[8], c[9]))),
    )
    return tree, g


@pytest.mark.parametrize(
    "name, defect, acceptance",
    [
        ("swap_floats", _dropped_swap_success, True),
        ("swap_floats", _dropped_swap_success, False),
        ("purify_floats", _dropped_purify_success, True),
        ("purify_floats", _dropped_purify_success, False),
        ("purify_floats", _dropped_agreement, True),
    ],
    ids=["swap-on", "swap-off", "purify-on", "purify-off", "agreement-on"],
)
def test_estimate_catches_a_dropped_success_factor(name, defect, acceptance):
    """The kernel multiplies the success factors itself, from the graph, so a
    factor the algebra drops shows: the estimate lies more than 5 standard
    errors from the defective analytic cost and within 5 of the real one."""
    tree, g = _ten_leaf_case(acceptance)
    est = estimate(tree, g, 20000, seed=32)
    real = evaluate_strategy(tree, g)
    with mock.patch.object(algebra, name, defect):
        planted = evaluate_strategy(tree, g)
    assert abs(est.success_hat - real.success) <= 5 * est.std_error_success
    assert abs(est.fidelity_hat - real.fidelity) <= 5 * est.std_error_fidelity
    assert abs(est.success_hat - planted.success) > 5 * est.std_error_success


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

"""Cost-vector algebra: group laws, chains, log-loss, grids, dephasing.

The laws are stated through swap_fidelity and purify_fidelity, the
fidelities of the kernels swap_floats and purify_floats; the chains, the
swap inverse and the dephasing closed form are test oracles in _reference.
"""
import math
import random
import tracemalloc

import pytest
from hypothesis import assume, given, strategies as st

from _generators import build_graph
from _reference import (
    dephasing_bell_fidelity,
    purify_chain,
    purify_fidelity,
    swap_chain,
    swap_fidelity,
    swap_inverse,
)
from qnet import (
    AlgebraDomainError,
    CostVector,
    GridSpec,
    GridStrategy,
    OperationCosts,
    grid_cost,
    purify_acceptance,
    reduce_to_fixpoint,
)
from qnet.algebra import (
    _purify_copies,
    _swap_copies,
    check_cost,
    purify_cost,
    purify_floats,
    swap_cost,
    swap_value,
    to_log_loss,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# strictly usable fidelities, open at both ends
usable = st.floats(min_value=0.5, max_value=1.0, exclude_min=True, exclude_max=True)
interior = st.floats(min_value=0.01, max_value=0.99)
probs = st.floats(min_value=1e-6, max_value=1.0)


def test_swap_known_values():
    assert swap_fidelity(0.9, 0.9) == 0.8200000000000001
    assert swap_fidelity(0.8, 0.7) == 0.6199999999999999
    assert swap_fidelity(1.0, 1.0) == 1.0
    assert swap_fidelity(0.5, 0.77) == 0.5


def test_purify_known_values():
    assert purify_fidelity(0.7, 0.7) == 0.8448275862068965
    assert purify_fidelity(0.8, 0.8) == 0.64 / 0.68
    assert purify_fidelity(0.82, 0.82) == 0.9540295119182747
    assert purify_acceptance(0.7, 0.7) == 0.58


@given(unit, unit)
def test_swap_commutes(a, b):
    assert swap_fidelity(a, b) == swap_fidelity(b, a)


@given(unit, unit)
def test_purify_commutes(a, b):
    denom = a * b + (1.0 - a) * (1.0 - b)
    assume(denom > 1e-12)
    assert purify_fidelity(a, b) == purify_fidelity(b, a)
    assert purify_acceptance(a, b) == purify_acceptance(b, a)


@given(unit, unit, unit)
def test_swap_associates(a, b, c):
    left = swap_fidelity(swap_fidelity(a, b), c)
    right = swap_fidelity(a, swap_fidelity(b, c))
    assert abs(left - right) <= 1e-12


@given(interior, interior, interior)
def test_purify_associates(a, b, c):
    left = purify_fidelity(purify_fidelity(a, b), c)
    right = purify_fidelity(a, purify_fidelity(b, c))
    assert abs(left - right) <= 1e-12


@given(unit)
def test_swap_identity(f):
    assert swap_fidelity(f, 1.0) == f


# Exact as long as f / 2 does not underflow into the subnormal range and
# round; that caps the domain from below at twice the smallest normal double.
@given(st.floats(min_value=math.ldexp(1.0, -1021), max_value=1.0))
def test_purify_identity(f):
    assert purify_fidelity(f, 0.5) == f
    assert purify_fidelity(0.0, 0.5) == 0.0


@given(unit)
def test_swap_inverse_law(f):
    assume(abs(f - 0.5) >= 0.05)
    assert abs(swap_value(f, swap_inverse(f)) - 1.0) <= 1e-9


def test_swap_inverse_examples():
    assert swap_inverse(1.0) == 1.0
    assert swap_inverse(0.75) == 1.5
    assert swap_inverse(0.0) == 0.0
    # just past the puncture the inverse is formal, and huge
    assert swap_inverse(0.5 + 2e-9) > 1e8


@pytest.mark.parametrize("f", [0.5, 0.5 + 1e-10, 0.5 - 1e-10, 0.5 + 5e-10])
def test_swap_inverse_puncture(f):
    with pytest.raises(AlgebraDomainError):
        swap_inverse(f)


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_purify_inverse_law(f):
    # rounding in 1 - f is amplified by 1/(4f(1-f)), hence the end margins
    assert abs(purify_fidelity(f, 1.0 - f) - 0.5) <= 1e-9


def test_purify_singular_pair():
    with pytest.raises(AlgebraDomainError):
        purify_fidelity(1.0, 0.0)
    with pytest.raises(AlgebraDomainError):
        purify_chain([0.0, 1.0])
    # the agreement swap_value(1, f) is f: 2e-12 clears SINGULAR_EPS, 1e-12 does not
    assert purify_fidelity(1.0, 2e-12) == 1.0
    assert purify_floats(1.0, 1.0, 2e-12, 1.0, OperationCosts()) == (1.0, 2e-12)
    for singular in (
        lambda: purify_fidelity(1.0, 1e-12),
        lambda: purify_floats(1.0, 1.0, 1e-12, 1.0, OperationCosts()),
    ):
        with pytest.raises(AlgebraDomainError, match="singular purification input"):
            singular()


# strictness drowns in rounding within a few ulps of 1/2, so stay clear of it
away_from_half = st.floats(min_value=0.500001, max_value=0.999999)


@given(away_from_half, away_from_half)
def test_swap_degrades(f1, f2):
    assert swap_fidelity(f1, f2) < min(f1, f2)


@given(usable, usable)
def test_purify_never_hurts(f1, f2):
    assert purify_fidelity(f1, f2) >= max(f1, f2)


@given(away_from_half, away_from_half)
def test_purify_strictly_improves(f1, f2):
    assert purify_fidelity(f1, f2) > max(f1, f2)


@given(unit, unit)
def test_results_stay_in_range(a, b):
    assert 0.0 <= swap_fidelity(a, b) <= 1.0
    denom = a * b + (1.0 - a) * (1.0 - b)
    assume(denom > 1e-12)
    assert 0.0 <= purify_fidelity(a, b) <= 1.0
    assert 0.0 <= purify_acceptance(a, b) <= 1.0


def test_chain_known_values():
    assert swap_chain([0.9, 0.9, 0.9]) == 0.7560000000000001
    assert abs(purify_chain([0.7, 0.7, 0.7]) - 0.343 / 0.370) <= 1e-12
    assert swap_chain([1.0] * 7) == 1.0


@given(unit)
def test_chain_of_one(f):
    assert swap_chain([f]) == f
    assert purify_chain([f]) == f


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_purify_chain_identity_elements(f):
    assert purify_chain([f, 0.5, 0.5]) == f


def test_empty_chains_rejected():
    with pytest.raises(AlgebraDomainError):
        swap_chain([])
    with pytest.raises(AlgebraDomainError):
        purify_chain([])


@given(st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=8))
def test_purify_chain_matches_binary_fold(fs):
    acc = fs[0]
    for f in fs[1:]:
        acc = purify_fidelity(acc, f)
    assert abs(purify_chain(fs) - acc) <= 1e-12


@given(st.lists(unit, min_size=1, max_size=8))
def test_swap_chain_matches_binary_fold(fs):
    acc = fs[0]
    for f in fs[1:]:
        acc = swap_fidelity(acc, f)
    assert abs(swap_chain(fs) - acc) <= 1e-12


def test_log_loss_fixed_points():
    assert to_log_loss(1.0) == 0.0
    assert to_log_loss(0.0) == math.inf
    assert abs(to_log_loss(math.exp(-1.0)) - 1.0) <= 1e-12
    # the infinity marker of a certain failure absorbs any sum
    assert to_log_loss(0.0) + to_log_loss(0.5) == math.inf


@given(probs, probs)
def test_log_loss_composes_multiplicatively(p1, p2):
    total = to_log_loss(p1) + to_log_loss(p2)
    assert abs(math.exp(-total) - p1 * p2) <= 1e-12


def test_log_loss_example_pair():
    total = to_log_loss(0.9) + to_log_loss(0.8)
    assert abs(total - (-math.log(0.72))) <= 1e-12


@given(probs)
def test_log_loss_round_trip(p):
    assert abs(math.exp(-to_log_loss(p)) - p) <= 1e-12


def test_fidelity_validation():
    # A formal inverse is a plain float that every physical entry refuses.
    formal = swap_inverse(0.75)
    assert type(formal) is float and formal == 1.5
    for build in (
        lambda: CostVector(formal, 0.5),
        lambda: check_cost(formal, 0.5),
        lambda: purify_acceptance(formal, 0.9),
        lambda: purify_chain([0.9, formal]),
        lambda: GridSpec(1, 1, formal, 0.8),
    ):
        with pytest.raises(AlgebraDomainError, match=r"^fidelity 1\.5 outside \[0, 1\]$"):
            build()


def test_cost_vector_validation():
    with pytest.raises(AlgebraDomainError):
        CostVector(1.2, 0.5)
    with pytest.raises(AlgebraDomainError):
        CostVector(0.9, -0.1)
    with pytest.raises(AlgebraDomainError):
        OperationCosts(swap_success=1.5)


def test_grid_spec_validation():
    with pytest.raises(AlgebraDomainError):
        GridSpec(0, 3, 0.9, 0.9)
    with pytest.raises(AlgebraDomainError):
        GridSpec(2, 0, 0.9, 0.9)
    with pytest.raises(AlgebraDomainError):
        GridSpec(2, 3, 1.5, 0.9)


def test_grid_single_channel_is_passthrough():
    assert grid_cost(GridSpec(1, 1, 0.8, 0.7)) == CostVector(0.8, 0.7)


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.55, max_value=0.99),
    st.floats(min_value=0.1, max_value=1.0),
    st.sampled_from(list(GridStrategy)),
)
def test_grid_success_is_exact_power_for_trivial_ops(b, d, f, s, strategy):
    ops = OperationCosts(1.0, 1.0, physical_acceptance=False)
    got = grid_cost(GridSpec(b, d, f, s, strategy), ops)
    assert got.success == s ** (b * d)


def _grid_fidelity_by_odds(b, d, f, strategy):
    # independent route: purification multiplies odds, swapping multiplies bias
    def purify_n(base, n):
        odds = (base / (1.0 - base)) ** n
        return odds / (1.0 + odds)

    def swap_n(base, n):
        bias = (2.0 * base - 1.0) ** n
        return (1.0 + bias) / 2.0

    if strategy is GridStrategy.PURIFY_THEN_SWAP:
        return swap_n(purify_n(f, b), d)
    return purify_n(swap_n(f, d), b)


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.55, max_value=0.95),
    st.sampled_from(list(GridStrategy)),
)
def test_grid_fidelity_matches_odds_arithmetic(b, d, f, strategy):
    got = grid_cost(GridSpec(b, d, f, 0.9, strategy))
    assert abs(got.fidelity - _grid_fidelity_by_odds(b, d, f, strategy)) <= 1e-9


def test_grid_two_by_three_example():
    got = grid_cost(GridSpec(2, 3, 0.9, 0.9, GridStrategy.PURIFY_THEN_SWAP))
    assert got.fidelity == swap_chain([purify_chain([0.9, 0.9])] * 3)
    assert abs(got.fidelity - 0.9642997054598743) <= 1e-12
    # channel factor 0.9^6, one acceptance factor per rung
    assert abs(got.success - 0.9**6 * swap_fidelity(0.9, 0.9) ** 3) <= 1e-12


@pytest.mark.parametrize("strategy", list(GridStrategy))
@pytest.mark.parametrize("f", [0.6, 0.75, 0.9])
def test_grid_monotonicity(strategy, f):
    fids_b = [grid_cost(GridSpec(b, 3, f, 0.9, strategy)).fidelity for b in range(1, 9)]
    assert all(x < y for x, y in zip(fids_b, fids_b[1:]))
    fids_d = [grid_cost(GridSpec(3, d, f, 0.9, strategy)).fidelity for d in range(1, 9)]
    assert all(x > y for x, y in zip(fids_d, fids_d[1:]))
    succ_b = [grid_cost(GridSpec(b, 3, f, 0.9, strategy)).success for b in range(1, 9)]
    succ_d = [grid_cost(GridSpec(3, d, f, 0.9, strategy)).success for d in range(1, 9)]
    assert all(x > y for x, y in zip(succ_b, succ_b[1:]))
    assert all(x > y for x, y in zip(succ_d, succ_d[1:]))


def test_grid_breadth_drives_fidelity_to_one():
    fids = [
        grid_cost(GridSpec(b, 2, 0.75, 0.9)).fidelity for b in range(1, 13)
    ]
    assert all(x < y for x, y in zip(fids, fids[1:]))
    assert fids[-1] > 0.9999


def test_swap_cost_multiplies_success():
    ops = OperationCosts(swap_success=0.5)
    got = swap_cost(CostVector(0.9, 0.8), CostVector(0.9, 0.5), ops)
    assert got.fidelity == swap_fidelity(0.9, 0.9)
    assert abs(got.success - 0.8 * 0.5 * 0.5) <= 1e-15


def test_purify_cost_acceptance_switch():
    on = OperationCosts(purify_success=0.9, physical_acceptance=True)
    off = OperationCosts(purify_success=0.9, physical_acceptance=False)
    a, b = CostVector(0.7, 0.6), CostVector(0.7, 0.5)
    with_acc = purify_cost(a, b, on)
    without = purify_cost(a, b, off)
    assert with_acc.fidelity == without.fidelity == purify_fidelity(0.7, 0.7)
    assert abs(without.success - 0.6 * 0.5 * 0.9) <= 1e-15
    assert abs(with_acc.success - without.success * 0.58) <= 1e-15


def test_dephasing_fidelity_fixed_points():
    assert dephasing_bell_fidelity(1.0) == 1.0
    assert dephasing_bell_fidelity(0.0) == 0.5
    assert dephasing_bell_fidelity(0.8) == 0.9
    with pytest.raises(AlgebraDomainError, match=r"^channel strength 1\.2 outside \[0, 1\]$"):
        dephasing_bell_fidelity(1.2)


@given(unit)
def test_dephasing_fidelity_linear_form(p):
    assert dephasing_bell_fidelity(p) == (1.0 + p) / 2.0


@pytest.mark.parametrize("strategy", list(GridStrategy))
def test_grid_cost_survives_underflowing_chain_products(strategy):
    # prod(F) = 0.57**100 and prod(1 - F) = 0.43**100 sum to about 4e-25,
    # far below the singular threshold, yet the pairwise reduction of the
    # same 100 parallel channels purifies without trouble.
    spec = GridSpec(100, 1, 0.57, 0.9, strategy)
    got = grid_cost(spec)
    g = build_graph([(f"c{i:03d}", "A", "B", 0.57, 0.9) for i in range(100)])
    (want,) = reduce_to_fixpoint(g).graph.channels.values()
    assert abs(got.fidelity - want.fidelity) <= 1e-12
    assert abs(got.success - want.success) <= 1e-9 * want.success


def _per_round_acceptance_product(base, count):
    """The acceptance product as first written: a fresh chain every round."""
    total = 1.0
    for i in range(1, count):
        total *= purify_acceptance(purify_chain([base] * i), base)
    return total


def test_acceptance_product_matches_per_round_chains():
    rng = random.Random(4242)
    cases = [(base, 200) for base in (0.0, 0.5, 1.0, 0.57, 0.999)]
    cases += [(rng.random(), rng.randint(1, 200)) for _ in range(60)]
    cases += [(rng.uniform(0.5, 1.0), rng.randint(1, 200)) for _ in range(60)]
    for base, count in cases:
        got = _purify_copies(base, count)
        want = purify_chain([base] * count), _per_round_acceptance_product(base, count)
        assert got == want, (base, count)


def test_grid_cost_is_linear_in_breadth():
    # 20,000 rounds of acceptance; one chain per round would take minutes.
    got = grid_cost(GridSpec(20_000, 2, 0.9, 0.99))
    assert got.fidelity == 1.0
    assert got.success == 0.0


def test_swap_copies_match_swap_chain():
    rng = random.Random(4343)
    cases = [(base, 200) for base in (0.0, 0.5, 1.0, 0.57, 0.999)]
    cases += [(rng.random(), rng.randint(1, 200)) for _ in range(60)]
    cases += [(rng.uniform(0.5, 1.0), rng.randint(1, 2000)) for _ in range(20)]
    for base, count in cases:
        assert _swap_copies(base, count) == swap_chain([base] * count), (base, count)


@pytest.mark.parametrize("strategy", list(GridStrategy))
def test_grid_cost_folds_without_lists(strategy):
    """A grid 10**6 channels deep is folded over its depth: grid_cost holds
    no list of it, where [rung] * depth alone would take 8 MB."""
    tracemalloc.start()
    try:
        grid_cost(GridSpec(10, 10**6, 0.9, 0.9, strategy))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, peak

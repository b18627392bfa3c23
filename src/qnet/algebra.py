"""Cost-vector algebra for entanglement distribution.

A link is scored by a pair (fidelity, success probability).  Entanglement
swapping composes links in series, purification composes them in parallel,
and success probabilities multiply.  Log-loss turns the multiplicative
success bookkeeping into an additive one.
"""
from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

__all__ = [
    "AlgebraDomainError",
    "CostVector",
    "GridSpec",
    "GridStrategy",
    "OperationCosts",
    "grid_cost",
    "purify_acceptance",
    "purify_cost",
    "swap_cost",
]

SINGULAR_EPS = 1e-12


class AlgebraDomainError(ValueError):
    """Raised for inputs outside an operation's domain."""


_SUCCESS = "success probability"


def _checked(x: float, what: str = "fidelity") -> float:
    """x as a float, refused unless it lies in [0, 1]; what names it."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise AlgebraDomainError(f"{what} {x!r} outside [0, 1]")
    return x


@classmethod
def _make_checked(cls, iterable):
    """namedtuple's _make, which _replace calls, through cls's own checks."""
    return cls(*iterable)


class CostVector(namedtuple("CostVector", "fidelity success")):
    """(fidelity, success probability) of one entangled pair."""

    __slots__ = ()
    _make = _make_checked

    def __new__(cls, fidelity: float, success: float):
        return tuple.__new__(cls, (_checked(fidelity), _checked(success, _SUCCESS)))


def check_cost(fidelity: float, success: float) -> None:
    """Refuse plain floats outside [0, 1] with CostVector's error."""
    if not (0.0 <= fidelity <= 1.0 and 0.0 <= success <= 1.0):
        _checked(fidelity)
        _checked(success, _SUCCESS)


class OperationCosts(
    namedtuple("OperationCosts", "swap_success purify_success physical_acceptance")
):
    """Success factors charged per operation.

    physical_acceptance controls whether the state-dependent acceptance
    probability of a purification round multiplies the success probability.
    """

    __slots__ = ()
    _make = _make_checked

    def __new__(
        cls,
        swap_success: float = 1.0,
        purify_success: float = 1.0,
        physical_acceptance: bool = True,
    ):
        swap = _checked(swap_success, _SUCCESS)
        purify = _checked(purify_success, _SUCCESS)
        if not isinstance(physical_acceptance, bool):
            raise AlgebraDomainError("physical_acceptance must be a boolean")
        return tuple.__new__(cls, (swap, purify, physical_acceptance))


def swap_value(f1: float, f2: float) -> float:
    """Raw swap formula f1*f2 + (1-f1)*(1-f2), no domain checks.

    Exposed separately so group-law identities can be evaluated at formal
    (out-of-range) points.
    """
    return f1 * f2 + (1.0 - f1) * (1.0 - f2)


def purify_acceptance(f1: float, f2: float) -> float:
    """Probability that a purification round accepts (both measurements agree)."""
    return swap_value(_checked(f1), _checked(f2))


# Running products prod(F) and prod(1 - F) of a purification chain, each as
# a mantissa in [1/2, 1) and a power of two: (kept, kept_exp, lost, lost_exp).
_ChainState = tuple[float, int, float, int]
_CHAIN_START: _ChainState = (1.0, 0, 1.0, 0)


def _chain_step(state: _ChainState, v: float) -> _ChainState:
    """Multiply one more fidelity into both running products."""
    kept, kept_exp, lost, lost_exp = state
    kept, e = math.frexp(kept * v)
    kept_exp += e
    lost, e = math.frexp(lost * (1.0 - v))
    lost_exp += e
    return kept, kept_exp, lost, lost_exp


def _chain_value(state: _ChainState) -> float:
    """prod(F) / (prod(F) + prod(1-F)) of the products in state."""
    kept, kept_exp, lost, lost_exp = state
    if kept == 0.0 or lost == 0.0:
        return 0.0 if kept == 0.0 else 1.0
    # Move the larger product into [1, 2); plain products are at most 1,
    # so this never scales below them.
    top = max(kept_exp, lost_exp) - 1
    kept = math.ldexp(kept, kept_exp - top)
    lost = math.ldexp(lost, lost_exp - top)
    return kept / (kept + lost)


def to_log_loss(p: float) -> float:
    """-ln(success); 0 maps to the +infinity marker."""
    x = _checked(p, _SUCCESS)
    if x == 0.0:
        return math.inf
    return -math.log(x) + 0.0


def swap_floats(
    f1: float, s1: float, f2: float, s2: float, ops: OperationCosts
) -> tuple[float, float]:
    """(fidelity, success) of swap_cost on plain floats, without range checks."""
    return swap_value(f1, f2), s1 * s2 * ops.swap_success


def purify_floats(
    f1: float, s1: float, f2: float, s2: float, ops: OperationCosts
) -> tuple[float, float]:
    """(fidelity, success) of purify_cost on plain floats.

    Raises AlgebraDomainError on a singular input, but checks no range.
    """
    agree = swap_value(f1, f2)
    if abs(agree) <= SINGULAR_EPS:
        raise AlgebraDomainError(f"singular purification input ({f1!r}, {f2!r})")
    s = s1 * s2 * ops.purify_success
    if ops.physical_acceptance:
        # the acceptance probability is the agreement itself
        s *= agree
    return (f1 * f2) / agree, s


def swap_cost(c1: CostVector, c2: CostVector, ops: OperationCosts) -> CostVector:
    """Cost vector of swapping two pairs at a shared repeater."""
    return CostVector(
        *swap_floats(c1.fidelity, c1.success, c2.fidelity, c2.success, ops)
    )


def purify_cost(c1: CostVector, c2: CostVector, ops: OperationCosts) -> CostVector:
    """Cost vector of purifying two pairs spanning the same nodes."""
    return CostVector(
        *purify_floats(c1.fidelity, c1.success, c2.fidelity, c2.success, ops)
    )


class GridStrategy(Enum):
    PURIFY_THEN_SWAP = "purify-then-swap"
    SWAP_THEN_PURIFY = "swap-then-purify"


# grid_cost folds over breadth and depth in loops that hold no list, but
# their time grows with each side: two sides of 10**6 take 2-3 s.
MAX_GRID_SIDE = 10**6


class GridSpec(
    namedtuple("GridSpec", "breadth depth channel_fidelity channel_success strategy")
):
    """A breadth x depth grid of identical channels.

    breadth parallel strands, each a chain of depth identical channels.
    """

    __slots__ = ()
    _make = _make_checked

    def __new__(
        cls,
        breadth: int,
        depth: int,
        channel_fidelity: float,
        channel_success: float,
        strategy: GridStrategy = GridStrategy.PURIFY_THEN_SWAP,
    ):
        if breadth < 1 or depth < 1:
            raise AlgebraDomainError("grid breadth and depth must be >= 1")
        if breadth > MAX_GRID_SIDE or depth > MAX_GRID_SIDE:
            raise AlgebraDomainError(
                f"grid breadth and depth must be <= {MAX_GRID_SIDE}"
            )
        fidelity = _checked(channel_fidelity)
        success = _checked(channel_success, _SUCCESS)
        return tuple.__new__(cls, (breadth, depth, fidelity, success, strategy))


def _purify_copies(base: float, count: int) -> tuple[float, float]:
    """Fidelity of purifying count copies of base down to one pair, and the
    product of the acceptance probabilities of its count - 1 rounds, in one
    pass: round i purifies the chain of i copies against one more copy, so
    its products carry over.
    """
    total = 1.0
    state = _chain_step(_CHAIN_START, base)
    for _ in range(1, count):
        total *= purify_acceptance(_chain_value(state), base)
        state = _chain_step(state, base)
    return _chain_value(state), total


def _swap_copies(base: float, count: int) -> float:
    """Fidelity of swapping count copies of base end to end: swap_value
    folded over the count without a list."""
    acc = base
    for _ in range(1, count):
        acc = swap_value(acc, base)
    return acc


def grid_cost(spec: GridSpec, ops: OperationCosts | None = None) -> CostVector:
    """End-to-end cost of a grid under the chosen operation order.

    PURIFY_THEN_SWAP purifies each rung of breadth channels, then swaps the
    depth purified segments; SWAP_THEN_PURIFY swaps each strand end to end,
    then purifies the breadth strand pairs.  The channel contribution to the
    success probability is computed in closed form, so for trivial operation
    costs it equals channel_success ** (breadth * depth) bit for bit.
    """
    if ops is None:
        ops = OperationCosts()
    f, s = spec.channel_fidelity, spec.channel_success
    b, d = spec.breadth, spec.depth
    success = s ** (b * d)
    if spec.strategy is GridStrategy.PURIFY_THEN_SWAP:
        rung, accepted = _purify_copies(f, b)
        fidelity = _swap_copies(rung, d)
        success *= ops.purify_success ** (d * (b - 1))
        success *= ops.swap_success ** (d - 1)
        if ops.physical_acceptance:
            success *= accepted ** d
    else:
        strand = _swap_copies(f, d)
        fidelity, accepted = _purify_copies(strand, b)
        success *= ops.swap_success ** (b * (d - 1))
        success *= ops.purify_success ** (b - 1)
        if ops.physical_acceptance:
            success *= accepted
    return CostVector(fidelity, success)

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


def swap_run(f: float, n: int) -> float:
    """Fidelity of n copies of f swapped end to end, for n >= 1.

    A run of swaps multiplies the bias 2f - 1, so this is
    (1 + (2f - 1)**n) / 2; a run of one is f itself.
    """
    if n == 1:
        return f
    return (1.0 + (2.0 * f - 1.0) ** n) / 2.0


def purify_run(f: float, n: int) -> tuple[float, float]:
    """Fidelity of n copies of f purified down to one pair, for n >= 1, and
    the product of the acceptance probabilities of its n - 1 rounds.

    A run of purifications multiplies the odds f / (1 - f), and its rounds'
    acceptances telescope to f**n + (1 - f)**n.  Both are taken through q,
    the ratio of the smaller of f and 1 - f to the larger, raised to n: q
    lies in [0, 1], so it cannot overflow.  The larger side's power is one
    pow, which underflows to 0 where a running product would stick at the
    smallest subnormal.  A run of one is (f, 1).
    """
    if n == 1:
        return f, 1.0
    lost = 1.0 - f
    big = max(f, lost)
    q = (min(f, lost) / big) ** n
    fidelity = 1.0 / (1.0 + q) if f >= lost else q / (1.0 + q)
    return fidelity, big**n * (1.0 + q)


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


# A bound on outside input, not on run time: grid_cost takes constant time.
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


def grid_cost(spec: GridSpec, ops: OperationCosts | None = None) -> CostVector:
    """End-to-end cost of a grid under the chosen operation order.

    PURIFY_THEN_SWAP purifies each rung of breadth channels, then swaps the
    depth purified segments; SWAP_THEN_PURIFY swaps each strand end to end,
    then purifies the breadth strand pairs.  Each run is one call of
    purify_run or swap_run, so the cost takes constant time.  The channel
    contribution to the success probability is computed in closed form, so
    for trivial operation costs it equals channel_success ** (breadth *
    depth) bit for bit.
    """
    if ops is None:
        ops = OperationCosts()
    f, s = spec.channel_fidelity, spec.channel_success
    b, d = spec.breadth, spec.depth
    success = s ** (b * d)
    if spec.strategy is GridStrategy.PURIFY_THEN_SWAP:
        rung, accepted = purify_run(f, b)
        fidelity = swap_run(rung, d)
        success *= ops.purify_success ** (d * (b - 1))
        success *= ops.swap_success ** (d - 1)
        if ops.physical_acceptance:
            success *= accepted ** d
    else:
        fidelity, accepted = purify_run(swap_run(f, d), b)
        success *= ops.swap_success ** (b * (d - 1))
        success *= ops.purify_success ** (b - 1)
        if ops.physical_acceptance:
            success *= accepted
    return CostVector(fidelity, success)

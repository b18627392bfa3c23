"""Cost-vector planning for entanglement distribution networks.

The package models each channel by a (fidelity, success probability)
pair and provides the two composition operations, swapping (series) and
purification (parallel), together with graph reduction, route planning,
and a Monte-Carlo cross-check of the analytic costs.
"""
from .algebra import (
    AlgebraDomainError,
    CostVector,
    GridSpec,
    GridStrategy,
    OperationCosts,
    dephasing_bell_fidelity,
    grid_cost,
    purify_acceptance,
    purify_chain,
    purify_cost,
    purify_fidelity,
    swap_chain,
    swap_cost,
    swap_fidelity,
    swap_inverse,
)
from .graph import (
    Channel,
    GraphFormatError,
    NetworkGraph,
    Node,
    NodeRole,
    parse_graph,
    serialize_graph,
)
from .reduction import (
    Leaf,
    Purify,
    ReductionError,
    ReductionResult,
    Swap,
    evaluate_strategy,
    is_fully_reduced_pair,
    reduce_to_fixpoint,
    serialize_strategy,
)
from .routing import (
    InfeasibleRouteError,
    RouteRequest,
    RouteResult,
    SearchBoundError,
    SearchKind,
    route,
)

__version__ = "0.1.0"

# Sampling loads on first use: montecarlo is needed only by simulate, so
# the planning commands never import it.
_LAZY = {
    "McEstimate": "montecarlo",
    "estimate": "montecarlo",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    """Module names, the lazy ones included, without loading them."""
    return sorted({*globals(), *_LAZY})


__all__ = [
    "AlgebraDomainError",
    "Channel",
    "CostVector",
    "GraphFormatError",
    "GridSpec",
    "GridStrategy",
    "InfeasibleRouteError",
    "Leaf",
    "McEstimate",
    "NetworkGraph",
    "Node",
    "NodeRole",
    "OperationCosts",
    "Purify",
    "ReductionError",
    "ReductionResult",
    "RouteRequest",
    "RouteResult",
    "SearchBoundError",
    "SearchKind",
    "Swap",
    "dephasing_bell_fidelity",
    "estimate",
    "evaluate_strategy",
    "grid_cost",
    "is_fully_reduced_pair",
    "parse_graph",
    "purify_acceptance",
    "purify_chain",
    "purify_cost",
    "purify_fidelity",
    "reduce_to_fixpoint",
    "route",
    "serialize_graph",
    "serialize_strategy",
    "swap_chain",
    "swap_cost",
    "swap_fidelity",
    "swap_inverse",
    "__version__",
]

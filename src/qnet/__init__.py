"""Cost-vector planning for entanglement distribution networks.

The package models each channel by a (fidelity, success probability)
pair and provides the two composition operations, swapping (series) and
purification (parallel), together with graph reduction, route planning,
and a Monte-Carlo cross-check of the analytic costs.
"""
# Each module's __all__ is its share of the package API, declared there.
from .algebra import *
from .graph import *
from .reduction import *
from .routing import *

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


__all__ = (
    algebra.__all__ + graph.__all__ + reduction.__all__ + routing.__all__
    + list(_LAZY) + ["__version__"]
)

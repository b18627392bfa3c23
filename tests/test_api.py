"""The package's public names, and the names other code imports by module."""
import importlib

import qnet
import qnet.cli
import qnet.montecarlo
from _generators import bridge_graph, two_path_graph
from qnet import RouteRequest, serialize_graph

MODULES = (qnet.algebra, qnet.graph, qnet.reduction, qnet.routing)


def test_package_names_are_declared_once():
    """qnet.__all__ is built from its modules' lists; only _LAZY repeats one."""
    assert set(qnet._LAZY) == set(qnet.montecarlo.__all__)
    assert len(qnet.__all__) == len(set(qnet.__all__))
    for module in MODULES:
        assert set(module.__all__) <= set(qnet.__all__), module.__name__


# The names perfbench/checks.py and perfbench/tracing.py import, and the
# attributes tracing._PATCHES wraps, by module.  A wrapped name that is gone
# is skipped there without a word and its metric reads 0, so each is pinned
# here.  graph_to_obj and harvest_paths are left out: qnet has neither.
IMPORTED = {
    "qnet": (
        "AlgebraDomainError", "CostVector", "GridSpec", "GridStrategy",
        "OperationCosts", "evaluate_strategy", "grid_cost", "parse_graph",
        "purify_cost", "swap_cost",
    ),
    "qnet.cli": (
        "parse_graph", "reduce_to_fixpoint", "route", "estimate",
        "evaluate_strategy", "canonical_dumps", "grid_cost", "run",
    ),
    "qnet.routing": ("reduce_to_fixpoint", "_exhaustive_search"),
    "qnet.reduction": ("strategy_leaves", "strategy_from_obj"),
}


def test_names_imported_by_module_exist():
    for module, names in IMPORTED.items():
        module = importlib.import_module(module)
        missing = [name for name in names if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_result_fields_read_by_trace_counters():
    """tracing._count reads these fields of what the wrapped calls return."""
    g = qnet.cli.parse_graph(serialize_graph(two_path_graph()))
    assert len(g.channels) == 4
    assert len(qnet.cli.reduce_to_fixpoint(g).trace.steps) == 3
    assert len(qnet.cli.reduce_to_fixpoint(g, series_only=True).trace.steps) == 2
    result = qnet.cli.route(bridge_graph(), RouteRequest("A", "B", 0.3))
    assert result.search.value == "ExhaustiveSearch"
    assert result.diagnostics.candidates_evaluated > 0

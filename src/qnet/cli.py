"""Command-line front end.

Subcommands: reduce, route, simulate, grid.  Every run writes exactly one
canonical JSON document to stdout (sorted keys, 17-significant-digit
floats); human-readable diagnostics go to stderr.  Exit codes: 0 success,
1 invalid input, 2 no feasible route, 3 search bound exceeded.
"""
from __future__ import annotations

import argparse
import gc
import json
import sys
from enum import IntEnum

from .algebra import GridSpec, GridStrategy, OperationCosts, grid_cost
from .graph import (
    GraphFormatError,
    NetworkGraph,
    _json_int,
    parse_graph,
    write_graph,
)
from .jsonutil import RawJSON, canonical_dumps, quote
from .reduction import (
    StepKind,
    StrategyTree,
    evaluate_strategy,
    reduce_to_fixpoint,
    serialize_strategy,
    strategy_from_obj,
)
from .routing import (
    DEFAULT_MAX_BRUTEFORCE_EDGES,
    RouteRequest,
    RouteResult,
    SearchBoundError,
    route,
)

__all__ = ["ExitCode", "main", "run"]


class ExitCode(IntEnum):
    OK = 0
    INVALID_INPUT = 1
    NO_ROUTE = 2
    BOUND_EXCEEDED = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of calling sys.exit."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValueError(message)


def _emit(doc: dict) -> None:
    sys.stdout.write(canonical_dumps(doc) + "\n")


def _fail(code: ExitCode, message: str, **context) -> int:
    _emit({"code": int(code), "message": message, "context": context})
    print(f"error: {message}", file=sys.stderr)
    return int(code)


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc.strerror}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="qnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_reduce = sub.add_parser("reduce", help="collapse a graph to its fixpoint")
    p_reduce.add_argument("graph", help="graph document path")
    p_reduce.add_argument(
        "--trace", action="store_true", help="include the full step trace"
    )

    p_route = sub.add_parser("route", help="plan a strategy between endpoints")
    p_route.add_argument("graph")
    p_route.add_argument("--source", required=True)
    p_route.add_argument("--target", required=True)
    p_route.add_argument("--min-success", type=float, required=True)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo check of a strategy")
    p_sim.add_argument("graph")
    p_sim.add_argument("--samples", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--strategy", help="strategy tree document path")
    p_sim.add_argument("--source")
    p_sim.add_argument("--target")
    p_sim.add_argument("--min-success", type=float)
    for p in (p_route, p_sim):
        p.add_argument(
            "--max-bruteforce-edges",
            type=int,
            default=DEFAULT_MAX_BRUTEFORCE_EDGES,
        )

    p_grid = sub.add_parser("grid", help="cost of a breadth x depth grid")
    p_grid.add_argument("--breadth", type=int, required=True)
    p_grid.add_argument("--depth", type=int, required=True)
    p_grid.add_argument("--fidelity", type=float, required=True)
    p_grid.add_argument("--success", type=float, required=True)
    p_grid.add_argument(
        "--strategy",
        choices=[s.value for s in GridStrategy],
        default=GridStrategy.PURIFY_THEN_SWAP.value,
    )
    p_grid.add_argument("--swap-success", type=float, default=1.0)
    p_grid.add_argument("--purify-success", type=float, default=1.0)
    p_grid.add_argument(
        "--physical-acceptance",
        action=argparse.BooleanOptionalAction,
        default=True,
    )
    return parser


# The engine range-checks every step's floats, so they are finite and
# take '%.17g' directly, as float_text would write them.
_STEP = '{"consumed":[%s,%s],"eliminated":%s,"fidelity":%.17g,"kind":%s,"produced":%s,"success":%.17g}'
_KIND_TEXT = {kind: quote(kind.value) for kind in StepKind}


def _write_trace(steps) -> str:
    """The canonical JSON array of a reduction trace's rows, as text."""
    return "[%s]" % ",".join([
        _STEP % (
            quote(first),
            quote(second),
            "null" if eliminated is None else quote(eliminated),
            fidelity + 0.0,
            _KIND_TEXT[kind],
            quote(produced),
            success + 0.0,
        )
        for kind, (first, second), eliminated, produced, fidelity, success in steps
    ])


def _cmd_reduce(args) -> int:
    g = parse_graph(_read(args.graph))
    result = reduce_to_fixpoint(g)
    doc = {
        "command": "reduce",
        "steps": len(result.trace.steps),
        "terminal": RawJSON(write_graph(result.graph)),
        "channels": [
            {
                "id": cid,
                "fidelity": fidelity,
                "success": success,
                "strategy": RawJSON(serialize_strategy(result.strategies[cid])),
            }
            for cid, (_, _, fidelity, success) in sorted(result.graph.channels.items())
        ],
    }
    if args.trace:
        doc["trace"] = RawJSON(_write_trace(result.trace.steps))
    _emit(doc)
    return int(ExitCode.OK)


def _route_request(args) -> RouteRequest:
    return RouteRequest(
        args.source, args.target, args.min_success, args.max_bruteforce_edges
    )


def _route_obj(result: RouteResult) -> dict:
    return {
        "command": "route",
        "search": result.search.value,
        "cost": None if result.cost is None else result.cost._asdict(),
        "strategy": None
        if result.strategy is None
        else RawJSON(serialize_strategy(result.strategy)),
        "subgraph": RawJSON(write_graph(result.subgraph)),
        "diagnostics": result.diagnostics._asdict(),
    }


def _cmd_route(args) -> int:
    g = parse_graph(_read(args.graph))
    result = route(g, _route_request(args))
    _emit(_route_obj(result))
    if result.strategy is None:
        print("error: no feasible route", file=sys.stderr)
        return int(ExitCode.NO_ROUTE)
    return int(ExitCode.OK)


def _default_strategy(g: NetworkGraph) -> StrategyTree:
    result = reduce_to_fixpoint(g)
    channels = result.graph.channels
    if len(channels) != 1:
        raise GraphFormatError(
            "graph does not reduce to a single channel; pass --strategy "
            "or --source/--target/--min-success"
        )
    (cid,) = channels
    return result.strategies[cid]


def _simulation_strategy(g: NetworkGraph, args) -> StrategyTree | None:
    """The strategy to sample, or None for an infeasible route request."""
    route_flags = [args.source, args.target, args.min_success]
    if args.strategy is not None and any(v is not None for v in route_flags):
        raise GraphFormatError("--strategy and route flags are mutually exclusive")
    if args.strategy is not None:
        try:
            obj = json.loads(_read(args.strategy).decode("utf-8"), parse_int=_json_int)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nested deeper than the JSON parser allows
            raise GraphFormatError(f"bad strategy document: {exc}") from None
        return strategy_from_obj(obj)
    if any(v is not None for v in route_flags):
        if not all(v is not None for v in route_flags):
            raise GraphFormatError(
                "route-driven simulation needs --source, --target "
                "and --min-success together"
            )
        return route(g, _route_request(args)).strategy
    return _default_strategy(g)


def estimate(*args, **kwargs):
    """montecarlo.estimate, imported on first use: only simulate samples."""
    from .montecarlo import estimate as run_estimate

    return run_estimate(*args, **kwargs)


def _cmd_simulate(args) -> int:
    from .montecarlo import check_sampling

    check_sampling(args.samples, args.seed)
    g = parse_graph(_read(args.graph))
    tree = _simulation_strategy(g, args)
    if tree is None:
        return _fail(ExitCode.NO_ROUTE, "no feasible route to simulate")
    # the algebra may refuse the strategy: refuse it before sampling
    analytic = evaluate_strategy(tree, g)
    est = estimate(tree, g, args.samples, args.seed)
    _emit(
        {
            "command": "simulate",
            "estimate": est._asdict(),
            "analytic": analytic._asdict(),
            "strategy": RawJSON(serialize_strategy(tree)),
        }
    )
    return int(ExitCode.OK)


def _cmd_grid(args) -> int:
    spec = GridSpec(
        breadth=args.breadth,
        depth=args.depth,
        channel_fidelity=args.fidelity,
        channel_success=args.success,
        strategy=GridStrategy(args.strategy),
    )
    ops = OperationCosts(
        swap_success=args.swap_success,
        purify_success=args.purify_success,
        physical_acceptance=args.physical_acceptance,
    )
    cost = grid_cost(spec, ops)
    _emit(
        {
            "command": "grid",
            **spec._asdict(),
            # canonical_dumps writes no enum member
            "strategy": spec.strategy.value,
            "op_costs": ops._asdict(),
            "cost": cost._asdict(),
        }
    )
    return int(ExitCode.OK)


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "reduce":
            return _cmd_reduce(args)
        if args.command == "route":
            return _cmd_route(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_grid(args)
    except SearchBoundError as exc:
        return _fail(ExitCode.BOUND_EXCEEDED, str(exc))
    except ValueError as exc:
        return _fail(ExitCode.INVALID_INPUT, str(exc))


def main(argv: list[str] | None = None) -> int:
    """Process entry of `python -m qnet` and the `qnet` script: run(argv)
    with the cyclic garbage collector switched off.

    A command builds its whole document, graph and reduction at once, and
    the collector's passes would re-traverse that growing heap to find
    cyclic garbage it does not hold: a command leaves a few hundred cyclic
    objects (the argument parser's), whatever the size of its document,
    and the process ends when the command does.  run(), which callers
    embedding qnet use, leaves the collector as it finds it.
    """
    gc.disable()
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())

"""Output checks applied to every report the benchmark collects.

A command that exits non-zero or prints no report has *failed*; it is
counted, not checked.  A command that exits 0 must print exactly one JSON
document that passes the checks for its subcommand, or the run is marked
incorrect.  References come from the program's public functions
(``evaluate_strategy``, ``grid_cost``) evaluated in this process.
"""
from __future__ import annotations

import json
import math
import sys

from qnet import (
    AlgebraDomainError,
    GridSpec,
    GridStrategy,
    OperationCosts,
    evaluate_strategy,
    grid_cost,
    parse_graph,
)
from qnet.reduction import strategy_from_obj

GRID_RTOL = 1e-9
COST_RTOL = 1e-12
MC_SIGMAS = 5.0
# One-sided tail probability of 5 standard deviations of a normal; used
# instead of MC_SIGMAS where a count is too small for the normal limit.
MC_TAIL = 2.9e-7
SMALL_COUNT = 25
# Strategy trees from successful commands may be nearly as deep as the
# child's recursion limit; the checks run a few frames deeper than that.
CHECK_RECURSION_LIMIT = 5000


def _close(a: float, b: float, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def _poisson_cdf(k: int, mean: float) -> float:
    """P(X <= k) for X ~ Poisson(mean)."""
    term = total = math.exp(-mean)
    for i in range(1, k + 1):
        term *= mean / i
        total += term
    return total


def _count_ok(k: int, n: int, p: float) -> bool:
    """Whether k is a plausible draw from Binomial(n, p), at 5 standard errors.

    Where either outcome is expected fewer than SMALL_COUNT times, the normal
    limit does not hold (one success where 0.03 are expected is 5.3 standard
    errors out, yet happens 3% of the time); the rarer outcome's count is then
    compared with Poisson tails of the same probability as 5 standard errors.
    """
    mean = n * p
    if min(mean, n - mean) >= SMALL_COUNT:
        return abs(k - mean) <= MC_SIGMAS * math.sqrt(mean * (1 - p))
    if n - mean < mean:
        k, mean = n - k, n - mean
    if k > mean + 200:
        return False
    at_most = _poisson_cdf(k, mean)
    at_least = 1.0 - _poisson_cdf(k - 1, mean) if k else 1.0
    return at_most >= MC_TAIL and at_least >= MC_TAIL


class Checker:
    """Checks reports against references and against earlier repeats."""

    def __init__(self, docs: dict[str, bytes]) -> None:
        self.docs = docs
        self._graphs: dict = {}
        self._first: dict[str, bytes] = {}
        self.errors: list[str] = []
        self.checked = 0
        self.unchecked = 0  # cases a reference could not be applied to

    def _graph(self, name):
        if name not in self._graphs:
            self._graphs[name] = parse_graph(self.docs[name])
        return self._graphs[name]

    def check(self, cmd, out: bytes) -> None:
        """Check one successful command's stdout; failures go to errors."""
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, CHECK_RECURSION_LIMIT))
        try:
            problem = self._problem(cmd, out)
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"malformed report: {exc!r}"
        finally:
            sys.setrecursionlimit(limit)
        self.checked += 1
        if problem:
            self.errors.append(f"{cmd.key} (threads={cmd.threads}): {problem}")

    def _problem(self, cmd, out: bytes) -> str | None:
        first = self._first.setdefault(cmd.key, out)
        if first != out:
            return "report differs from an earlier run of the same command"
        if out.count(b"\n") != 1 or not out.endswith(b"\n"):
            return "stdout is not exactly one line"
        try:
            report = json.loads(out)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        if not isinstance(report, dict) or report.get("command") != cmd.sub:
            return "report is not a document of the right command"
        return getattr(self, "_" + cmd.sub)(cmd, report)

    def _tree_cost(self, cmd, strategy):
        return evaluate_strategy(strategy_from_obj(strategy), self._graph(cmd.doc))

    def _reduce(self, cmd, report):
        for ch in report["channels"]:
            ref = self._tree_cost(cmd, ch["strategy"])
            if not (_close(ch["fidelity"], ref.fidelity, COST_RTOL)
                    and _close(ch["success"], ref.success, COST_RTOL)):
                return f"channel {ch['id']} cost differs from its strategy's cost"
        if cmd.grid is not None:
            g = cmd.grid
            try:
                ref = grid_cost(
                    GridSpec(g["breadth"], g["depth"], g["fidelity"], g["success"],
                             GridStrategy.SWAP_THEN_PURIFY),
                    OperationCosts(**g["ops"]),
                )
            except AlgebraDomainError:
                # The closed form is singular where prod(F) + prod(1 - F)
                # underflows its threshold; pairwise reduction is not.
                self.unchecked += 1
                return None
            if len(report["channels"]) != 1:
                return "uniform grid did not collapse to one channel"
            (ch,) = report["channels"]
            if not (_close(ch["fidelity"], ref.fidelity, GRID_RTOL)
                    and _close(ch["success"], ref.success, GRID_RTOL)):
                return "collapsed grid disagrees with grid_cost"
        return None

    def _route(self, cmd, report):
        if cmd.expect_search and report["search"] != cmd.expect_search:
            return f"search {report['search']}, expected {cmd.expect_search}"
        ref = self._tree_cost(cmd, report["strategy"])
        cost = report["cost"]
        if not (_close(cost["fidelity"], ref.fidelity, COST_RTOL)
                and _close(cost["success"], ref.success, COST_RTOL)):
            return "route cost differs from its strategy's cost"
        floor = float(cmd.args[cmd.args.index("--min-success") + 1])
        if cost["success"] < floor:
            return "route misses its success floor"
        return None

    def _simulate(self, cmd, report):
        ref = self._tree_cost(cmd, report["strategy"])
        if not (_close(report["analytic"]["fidelity"], ref.fidelity, COST_RTOL)
                and _close(report["analytic"]["success"], ref.success, COST_RTOL)):
            return "analytic cost differs from the strategy's cost"
        est = report["estimate"]
        n = est["samples"]
        if n != cmd.samples:
            return f"{n} samples reported, {cmd.samples} requested"
        delivered = round(est["success_hat"] * n)
        if not _count_ok(delivered, n, ref.success):
            return "success_hat is more than 5 standard errors from the analytic value"
        # Without physical acceptance the sampled fidelity is known to differ
        # from the analytic one (ROADMAP defect 4.2); it is not checked.
        if not cmd.acceptance or delivered == 0:
            self.unchecked += 1
            return None
        flipped = delivered - round(est["fidelity_hat"] * delivered)
        if not _count_ok(flipped, delivered, 1.0 - ref.fidelity):
            return "fidelity_hat is more than 5 standard errors from the analytic value"
        return None

    def _grid(self, cmd, report):
        a = cmd.args
        spec = GridSpec(
            int(a[a.index("--breadth") + 1]),
            int(a[a.index("--depth") + 1]),
            float(a[a.index("--fidelity") + 1]),
            float(a[a.index("--success") + 1]),
            GridStrategy(a[a.index("--strategy") + 1]),
        )
        ops = OperationCosts(physical_acceptance="--physical-acceptance" in a)
        ref = grid_cost(spec, ops)
        if report["cost"] != {"fidelity": ref.fidelity, "success": ref.success}:
            return "grid cost differs from grid_cost"
        return None

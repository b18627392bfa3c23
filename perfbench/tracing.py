"""The traced run: in-process spans around the CLI's calls into each layer.

``qnet.cli.run`` is called in this process with the names it (and
``qnet.routing``) looks up replaced by recording wrappers, so every span
follows the exact call order of the command line.  Spans carry a name, a
start, an end, the index of the span that caused them and a command id;
they are kept in memory and reduced to per-layer self times at the end.
Nothing under ``src/`` changes.
"""
from __future__ import annotations

import contextlib
import io
import os
import re
import statistics
import subprocess
import time
from dataclasses import dataclass

import qnet.cli
import qnet.routing
from qnet import CostVector, OperationCosts, purify_cost, swap_cost
from qnet.reduction import strategy_leaves

# Spans whose self time is reported; "cli.run" is each command's root.
SPANS = (
    "cli.run",
    "parse_graph",
    "reduce_to_fixpoint",
    "reduce_to_fixpoint.series_only",
    "harvest_paths",
    "residual_search",
    "route",
    "estimate",
    "evaluate_strategy",
    "graph_to_obj",
    "canonical_dumps",
    "grid_cost",
)

# The Monte Carlo kernel fills one float64 array of this many samples by
# the tree's slot count per chunk; montecarlo.chunk_bytes is computed from it.
MC_CHUNK_SAMPLES = 1 << 16


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a command root
    cmd: int


class Recorder:
    """In-memory span store plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.cmd = -1
        self.counts: dict[str, float] = {}
        self.estimates: list[tuple[int, int, int, float]] = []  # threads, samples, leaves, s

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.cmd))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> float:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        return span.end - span.start

    def close_command(self, root: int) -> None:
        """Close a command's root span, even if the command raised inside a child."""
        self._stack[:] = [root]
        self.close(root)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = dict.fromkeys(SPANS, 0.0)
        for i, s in enumerate(self.spans):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child[i]
        return out

    def child_time(self, parent_name: str, name: str) -> float:
        """Total time of name spans whose direct parent is a parent_name span."""
        return sum(
            s.end - s.start
            for s in self.spans
            if s.name == name and s.parent >= 0
            and self.spans[s.parent].name == parent_name
        )

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)


def _count(rec: Recorder, name: str, args, kwargs, result, seconds: float) -> None:
    if name == "parse_graph":
        rec.add("parse.channels", len(result.channels))
        rec.add("parse.bytes", len(args[0]))
        rec.add("parse.docs", 1)
    elif name == "reduce_to_fixpoint":
        rec.add("reduce.steps", len(result.trace.steps))
    elif name == "reduce_to_fixpoint.series_only":
        rec.add("kernel_reduce.steps", len(result.trace.steps))
    elif name == "harvest_paths":
        rec.add("harvest.sweeps", result[1])
    elif name == "route":
        if result.search.value == "ExhaustiveSearch":
            rec.add("route.candidates", result.diagnostics.candidates_evaluated)
    elif name == "residual_search":
        rec.add("kernel.searches", 1)
        rec.add("kernel.channels", len(args[0].channels))
    elif name == "estimate":
        threads = kwargs.get("threads", args[4] if len(args) > 4 else 1)
        leaves = len(strategy_leaves(args[0]))
        rec.estimates.append((threads, args[2], leaves, seconds))
    elif name == "graph_to_obj":
        rec.add("serialize.channels", len(result["edges"]))
    elif name == "canonical_dumps":
        rec.add("emit.bytes", len(result))


def _wrap(rec: Recorder, fn, name: str):
    def traced(*args, **kwargs):
        span_name = name
        if name == "reduce_to_fixpoint" and kwargs.get("series_only"):
            span_name = "reduce_to_fixpoint.series_only"
        idx = rec.open(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = rec.close(idx)
        _count(rec, span_name, args, kwargs, result, seconds)
        return result

    return traced


# (module, attribute, span).  route reaches the subset search through
# routing's private entry point, which residual_search also wraps; a name a
# later version no longer has is skipped and its time stays in the caller.
_PATCHES = (
    (qnet.cli, "parse_graph", "parse_graph"),
    (qnet.cli, "reduce_to_fixpoint", "reduce_to_fixpoint"),
    (qnet.cli, "route", "route"),
    (qnet.cli, "estimate", "estimate"),
    (qnet.cli, "evaluate_strategy", "evaluate_strategy"),
    (qnet.cli, "graph_to_obj", "graph_to_obj"),
    (qnet.cli, "canonical_dumps", "canonical_dumps"),
    (qnet.cli, "grid_cost", "grid_cost"),
    (qnet.routing, "harvest_paths", "harvest_paths"),
    (qnet.routing, "reduce_to_fixpoint", "reduce_to_fixpoint"),
    (qnet.routing, "_exhaustive_search", "residual_search"),
)


@contextlib.contextmanager
def _patched(rec: Recorder):
    saved = []
    try:
        for module, attr, span in _PATCHES:
            if hasattr(module, attr):
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, _wrap(rec, getattr(module, attr), span))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _run_inprocess(cmd, doc_path, nproc: int) -> float:
    """Wall time of one qnet.cli.run call in this process."""
    os.environ["QNET_THREADS"] = str(min(cmd.threads, nproc))
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            qnet.cli.run(cmd.argv(doc_path(cmd)))
    except Exception:
        pass  # the fresh-process loop already counted this command as failed
    return time.perf_counter() - start


def inprocess_pass(commands, doc_path, nproc: int, rec: Recorder):
    """Run each command through qnet.cli.run here, untraced and traced.

    The two runs of a command are back to back, so a slow spell of the
    machine hits both, and which goes first alternates, so the second run's
    warmer caches favour neither.  Each subcommand's first command also
    runs once, untimed, before all of them, so one-time lazy set-up in the
    program counts for neither.  Returns the untraced and traced wall times.
    """
    untraced, traced = [], []
    saved_threads = os.environ.get("QNET_THREADS")

    def run_traced(i, cmd):
        rec.cmd = i
        root = rec.open("cli.run")
        try:
            with _patched(rec):
                traced.append(_run_inprocess(cmd, doc_path, nproc))
        finally:
            rec.close_command(root)

    try:
        for cmd in {c.sub: c for c in reversed(commands)}.values():
            _run_inprocess(cmd, doc_path, nproc)
        for i, cmd in enumerate(commands):
            if i % 2:
                run_traced(i, cmd)
            untraced.append(_run_inprocess(cmd, doc_path, nproc))
            if not i % 2:
                run_traced(i, cmd)
    finally:
        if saved_threads is None:
            os.environ.pop("QNET_THREADS", None)
        else:
            os.environ["QNET_THREADS"] = saved_threads
    return untraced, traced


def import_probes(python: str, env: dict, cwd: str, repeats: int = 5) -> dict:
    """Fresh-process import costs: bare interpreter, qnet, and numpy's share."""
    interp, qnet_us, numpy_us = [], [], []
    line = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|(\s*)(\S+)")
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([python, "-c", "pass"], cwd=cwd, env=env, check=True)
        interp.append(time.perf_counter() - start)
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import qnet"],
            cwd=cwd, env=env, check=True, capture_output=True, text=True,
        )
        found = {}
        for m in line.finditer(proc.stderr):
            found.setdefault(m.group(3), int(m.group(1)))
        qnet_us.append(found.get("qnet", 0))
        numpy_us.append(found.get("numpy", 0))
    return {
        "import.interp_ms": statistics.median(interp) * 1e3,
        "import.qnet_ms": statistics.median(qnet_us) / 1e3,
        "import.numpy_ms": statistics.median(numpy_us) / 1e3,
    }


def algebra_probe(calls: int = 20000, repeats: int = 5) -> dict:
    """Nanoseconds per swap_cost and purify_cost call, median of repeats."""
    a, b = CostVector(0.9, 0.8), CostVector(0.85, 0.95)
    ops = OperationCosts(0.95, 0.9, True)
    out = {}
    for name, fn in (("swap", swap_cost), ("purify", purify_cost)):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn(a, b, ops)
            times.append((time.perf_counter() - start) / calls)
        out[f"algebra.{name}_cost_ns"] = statistics.median(times) * 1e9
    return out


def layer_metrics(rec: Recorder, untraced_walls, traced_walls, commands) -> dict:
    """Per-layer metrics from the in-process pass."""
    self_s = rec.self_times()
    c = rec.counts

    def per(total_s, n, scale):
        return total_s * scale / n if n else 0.0

    m = {f"self_ms.{name}": self_s.get(name, 0.0) * 1e3 for name in SPANS}
    n_cmd = len(commands)
    m["cli.run_ms"] = statistics.mean(untraced_walls) * 1e3
    untraced = sum(untraced_walls)
    m["trace.overhead_frac"] = sum(traced_walls) / untraced - 1 if untraced else 0.0
    m["graph.parse_us_per_channel"] = per(self_s["parse_graph"], c.get("parse.channels", 0), 1e6)
    m["graph.serialize_us_per_channel"] = per(
        self_s["graph_to_obj"], c.get("serialize.channels", 0), 1e6)
    m["graph.doc_bytes"] = c.get("parse.bytes", 0) / max(c.get("parse.docs", 0), 1)
    m["jsonutil.emit_ms"] = self_s["canonical_dumps"] * 1e3 / n_cmd
    m["jsonutil.report_bytes"] = c.get("emit.bytes", 0) / n_cmd
    steps = c.get("reduce.steps", 0)
    m["reduction.steps"] = steps
    m["reduction.us_per_step"] = per(self_s["reduce_to_fixpoint"], steps, 1e6)
    # A series-only pass often finds no step at all; it then counts as one.
    kernel_passes = sum(1 for s in rec.spans if s.name == "reduce_to_fixpoint.series_only")
    m["reduction.kernel_us_per_step"] = per(
        self_s["reduce_to_fixpoint.series_only"],
        max(c.get("kernel_reduce.steps", 0), kernel_passes), 1e6)
    sweeps = c.get("harvest.sweeps", 0)
    m["routing.harvest_sweeps"] = sweeps
    m["routing.harvest_ms"] = self_s["harvest_paths"] * 1e3
    m["routing.harvest_us_per_sweep"] = per(self_s["harvest_paths"], sweeps, 1e6)
    searches = c.get("kernel.searches", 0)
    candidates = c.get("route.candidates", 0)
    m["routing.kernel_channels"] = c.get("kernel.channels", 0) / searches if searches else 0.0
    m["routing.candidates"] = candidates
    m["routing.kernel_ms"] = self_s["residual_search"] * 1e3
    m["routing.us_per_candidate"] = per(self_s["residual_search"], candidates, 1e6)
    rate = {}
    for t in (1, 2):
        runs = [e for e in rec.estimates if e[0] == t]
        seconds = sum(e[3] for e in runs)
        rate[t] = sum(e[1] for e in runs) / seconds if seconds else 0.0
        m[f"montecarlo.samples_per_s.t{t}"] = rate[t]
    m["montecarlo.thread_speedup"] = rate[2] / rate[1] if rate[1] and rate[2] else 0.0
    t1 = [e for e in rec.estimates if e[0] == 1]
    leaf_samples = sum(e[1] * e[2] for e in t1)
    m["montecarlo.ns_per_leaf_sample"] = per(sum(e[3] for e in t1), leaf_samples, 1e9)
    # Slots per sample: two draws per leaf, one per operation, padded to 4.
    m["montecarlo.chunk_bytes"] = max(
        (min(s, MC_CHUNK_SAMPLES) * (-(-(3 * leaves - 1) // 4) * 4) * 8
         for _, s, leaves, _ in rec.estimates),
        default=0,
    )
    route_s = rec.total("route")
    m["share.harvest_of_route"] = rec.child_time("route", "harvest_paths") / route_s if route_s else 0.0
    m["share.kernel_of_route"] = rec.child_time("route", "residual_search") / route_s if route_s else 0.0
    sim_s = sum(traced_walls[i] for i, cmd in enumerate(commands) if cmd.sub == "simulate")
    m["share.estimate_of_simulate"] = rec.total("estimate") / sim_s if sim_s else 0.0
    return m


def route_breakdown(rec: Recorder) -> dict[str, float]:
    """Seconds spent in each direct child of route spans, plus route's own."""
    out: dict[str, float] = {}
    for s in rec.spans:
        if s.parent >= 0 and rec.spans[s.parent].name == "route":
            out[s.name] = out.get(s.name, 0.0) + s.end - s.start
    out["(route self)"] = rec.self_times()["route"]
    return out

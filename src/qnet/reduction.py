"""Series-parallel reduction of network graphs.

A series step eliminates a degree-2 repeater by swapping its two channels
into one; a parallel step purifies two channels spanning the same node pair.
Repeating both to a fixpoint collapses any series-parallel topology to a
single channel whose cost is independent of the step order; irreducible
remainders (bridge-like topologies) survive and are handed to search.

Every step is recorded in a trace, and every produced channel carries a
strategy tree saying which physical operations build it.
"""
from __future__ import annotations

import heapq
import re
from enum import Enum
from typing import Union

from ._value import Value
from .algebra import CostVector, purify_cost, swap_cost
from .graph import (
    Channel,
    GraphFormatError,
    NetworkGraph,
    Node,
    NodeRole,
    _check_id,
)
from .jsonutil import quote

__all__ = [
    "Leaf",
    "Purify",
    "ReductionError",
    "ReductionResult",
    "ReductionStep",
    "ReductionTrace",
    "StepKind",
    "StrategyTree",
    "Swap",
    "check_strategy",
    "evaluate_strategy",
    "fold",
    "is_fully_reduced_pair",
    "parallel_step",
    "postorder",
    "reduce_to_fixpoint",
    "replay_trace",
    "series_step",
    "strategy_from_obj",
    "strategy_leaves",
    "serialize_composite",
    "serialize_strategy",
]

_SYNTHETIC_ID_RE = re.compile(r"^r(\d+)$")


class ReductionError(ValueError):
    """Raised when a rewrite step does not apply."""


class Leaf(Value):
    __slots__ = _fields = ("channel",)
    channel: str


class _Operation(Value):
    __slots__ = _fields = ("left", "right")
    left: StrategyTree
    right: StrategyTree

    # Value's field-by-field versions recurse through the children; these
    # walk without recursion, so trees of any depth compare, hash and print.

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        mine, theirs = postorder(self), postorder(other)
        return len(mine) == len(theirs) and all(
            type(a) is type(b) and (type(a) is not Leaf or a == b)
            for a, b in zip(mine, theirs)
        )

    def __hash__(self) -> int:
        return fold(
            self, hash, lambda l, r: hash((Swap, l, r)), lambda l, r: hash((Purify, l, r))
        )

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list[StrategyTree | str] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
            elif isinstance(item, Leaf):
                out.append(repr(item))
            else:
                out.append(f"{type(item).__qualname__}(left=")
                stack += (")", item.right, ", right=", item.left)
        return "".join(out)


class Swap(_Operation):
    __slots__ = ()


class Purify(_Operation):
    __slots__ = ()


StrategyTree = Union[Leaf, Swap, Purify]


def postorder(tree: StrategyTree) -> list[StrategyTree]:
    """Every node of tree, children before parents, left before right.

    Strategy walks run over this list instead of recursing, so trees of any
    depth work.
    """
    nodes: list[StrategyTree] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, Leaf):
            stack += (node.left, node.right)
    nodes.reverse()
    return nodes


def fold(tree: StrategyTree, leaf, swap, purify):
    """Value of tree: leaf(channel) at leaves, swap or purify(left, right) above."""
    values: list = []
    for node in postorder(tree):
        if isinstance(node, Leaf):
            values.append(leaf(node.channel))
        else:
            right = values.pop()
            op = swap if isinstance(node, Swap) else purify
            values[-1] = op(values[-1], right)
    return values[0]


def strategy_from_obj(obj) -> StrategyTree:
    # Validate in document order, then build bottom-up.
    preorder: list = []
    stack = [obj]
    while stack:
        node = stack.pop()
        if not isinstance(node, dict) or "op" not in node:
            raise ValueError("strategy node must be an object with an 'op' field")
        op = node["op"]
        if op == "leaf":
            if set(node) != {"op", "channel"} or not isinstance(node["channel"], str):
                raise ValueError("leaf node needs exactly a string 'channel' field")
            preorder.append(Leaf(node["channel"]))
        elif op in ("swap", "purify"):
            if set(node) != {"op", "left", "right"}:
                raise ValueError(f"{op} node needs exactly 'left' and 'right'")
            preorder.append(Swap if op == "swap" else Purify)
            stack += (node["right"], node["left"])
        else:
            raise ValueError(f"unknown strategy op {op!r}")
    built: list[StrategyTree] = []
    for item in reversed(preorder):
        # an operation's left child is on top, its right child below
        built.append(item if isinstance(item, Leaf) else item(built.pop(), built.pop()))
    return built[0]


_OPEN = '{"left":'
_MIDDLE = {Swap: ',"op":"swap","right":', Purify: ',"op":"purify","right":'}


def serialize_strategy(tree: StrategyTree) -> str:
    """Canonical JSON text of a tree (as canonical_dumps would write its
    object form); used in reports and for tie-breaking."""
    out: list[str] = []
    stack: list = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Leaf):
            out.append('{"channel":%s,"op":"leaf"}' % quote(item.channel))
        else:
            out.append(_OPEN)
            stack += ("}", item.right, _MIDDLE[type(item)], item.left)
    return "".join(out)


def serialize_composite(
    kind: type[Swap] | type[Purify], left: str, right: str
) -> str:
    """serialize_strategy(kind(l, r)), given the serializations of l and r."""
    return _OPEN + left + _MIDDLE[kind] + right + "}"


def strategy_leaves(tree: StrategyTree) -> list[str]:
    """Channel ids at the leaves, left to right."""
    return [n.channel for n in postorder(tree) if isinstance(n, Leaf)]


class StepKind(Enum):
    SERIES = "series"
    PARALLEL = "parallel"


class ReductionStep(Value):
    __slots__ = _fields = ("kind", "consumed", "eliminated", "produced", "cost")
    kind: StepKind
    consumed: tuple[str, str]
    eliminated: str | None
    produced: str
    cost: CostVector


class ReductionTrace(Value):
    __slots__ = _fields = ("steps", "terminal_nodes", "terminal_channels")
    steps: tuple[ReductionStep, ...]
    terminal_nodes: tuple[str, ...]
    terminal_channels: tuple[str, ...]


class ReductionResult(Value):
    __slots__ = _fields = ("graph", "trace", "strategies")
    graph: NetworkGraph
    trace: ReductionTrace
    strategies: dict[str, StrategyTree]


def _synthetic_start(g: NetworkGraph) -> int:
    top = -1
    for cid in g.channels:
        m = _SYNTHETIC_ID_RE.match(cid)
        if m:
            top = max(top, int(m.group(1)))
    return top + 1


class _Engine:
    """Mutable rewrite machinery; every reduction step runs here.

    run() reduces to a fixpoint: parallel steps are exhausted before series
    steps, and within each kind the candidate carrying the lowest channel id
    goes first.  pairs[p] is a heap of exactly the live ids spanning node
    pair p; par_heap holds an entry for the smallest id of every pair with
    two or more, plus stale entries dropped when they reach the top.  The
    whole run is O(|E| log |E|).  series() and parallel() apply one named
    step after checking that it applies.  A caller uses run() or the checked
    steps, never both: a given produced id may take an id that _fresh_id
    would hand out later.
    """

    def __init__(self, g: NetworkGraph) -> None:
        self.ops = g.op_costs
        self.roles = {nid: n.role for nid, n in g.nodes.items()}
        self.chan: dict[str, Channel] = {}
        self.inc: dict[str, set[str]] = {nid: set() for nid in self.roles}
        self.pairs: dict[frozenset, list[str]] = {}
        self.trees: dict[str, StrategyTree] = {}
        self.steps: list[ReductionStep] = []
        self.next_id = _synthetic_start(g)
        self.par_heap: list[str] = []
        self.ser_heap: list[tuple[str, str]] = []
        for c in g.channels.values():
            self._add_channel(c, Leaf(c.id))
        for nid in self.roles:
            self._maybe_series_candidate(nid)

    def _maybe_series_candidate(self, nid: str) -> None:
        if (
            self.roles.get(nid) is NodeRole.ROUTER
            and len(self.inc[nid]) == 2
        ):
            heapq.heappush(self.ser_heap, (min(self.inc[nid]), nid))

    def _add_channel(self, c: Channel, tree: StrategyTree) -> None:
        self.chan[c.id] = c
        self.inc[c.a].add(c.id)
        self.inc[c.b].add(c.id)
        members = self.pairs.setdefault(c.pair, [])
        heapq.heappush(members, c.id)
        self.trees[c.id] = tree
        if len(members) >= 2:
            heapq.heappush(self.par_heap, members[0])

    def _drop_channel(self, cid: str) -> None:
        c = self.chan.pop(cid)
        self.inc[c.a].discard(cid)
        self.inc[c.b].discard(cid)
        members = self.pairs[c.pair]
        if members[0] == cid:
            heapq.heappop(members)
        else:
            # only a checked parallel() drops a channel other than the smallest
            members.remove(cid)
            heapq.heapify(members)
        if not members:
            del self.pairs[c.pair]
        del self.trees[cid]

    def _fresh_id(self) -> str:
        cid = f"r{self.next_id}"
        self.next_id += 1
        return cid

    def _apply_parallel(self, c1: Channel, c2: Channel, produced: str) -> None:
        cost = purify_cost(c1.cost, c2.cost, self.ops)
        tree = Purify(self.trees[c1.id], self.trees[c2.id])
        self.steps.append(
            ReductionStep(
                StepKind.PARALLEL, (c1.id, c2.id), None, produced, cost
            )
        )
        self._drop_channel(c1.id)
        self._drop_channel(c2.id)
        self._add_channel(Channel(produced, c1.a, c1.b, cost), tree)
        self._maybe_series_candidate(c1.a)
        self._maybe_series_candidate(c1.b)

    def _apply_series(self, nid: str, produced: str) -> None:
        cid1, cid2 = sorted(self.inc[nid])
        c1, c2 = self.chan[cid1], self.chan[cid2]
        u, w = c1.other(nid), c2.other(nid)
        cost = swap_cost(c1.cost, c2.cost, self.ops)
        tree = Swap(self.trees[cid1], self.trees[cid2])
        self.steps.append(
            ReductionStep(StepKind.SERIES, (cid1, cid2), nid, produced, cost)
        )
        self._drop_channel(cid1)
        self._drop_channel(cid2)
        del self.roles[nid]
        del self.inc[nid]
        self._add_channel(Channel(produced, u, w, cost), tree)
        self._maybe_series_candidate(u)
        self._maybe_series_candidate(w)

    def _next_parallel(self) -> tuple[Channel, Channel] | None:
        while self.par_heap:
            cid = self.par_heap[0]
            c = self.chan.get(cid)
            members = self.pairs[c.pair] if c is not None else ()
            if len(members) < 2 or members[0] != cid:
                heapq.heappop(self.par_heap)
                continue
            return c, self.chan[min(members[1:3])]
        return None

    def _next_series(self) -> str | None:
        while self.ser_heap:
            key, nid = self.ser_heap[0]
            if (
                self.roles.get(nid) is not NodeRole.ROUTER
                or len(self.inc.get(nid, ())) != 2
            ):
                heapq.heappop(self.ser_heap)
                continue
            cid1, cid2 = sorted(self.inc[nid])
            if key != cid1:
                # the change that moved the key pushed a current entry
                heapq.heappop(self.ser_heap)
                continue
            c1, c2 = self.chan[cid1], self.chan[cid2]
            if c1.other(nid) == c2.other(nid):
                heapq.heappop(self.ser_heap)
                continue
            return nid
        return None

    def run(self, series_only: bool = False) -> None:
        while True:
            if not series_only:
                pick = self._next_parallel()
                if pick is not None:
                    self._apply_parallel(*pick, self._fresh_id())
                    continue
            nid = self._next_series()
            if nid is not None:
                self._apply_series(nid, self._fresh_id())
                continue
            break

    def _produced_id(self, produced: str | None, consumed: tuple[str, str]) -> str:
        if produced is None:
            return self._fresh_id()
        _check_id("channel", produced)
        if produced in self.chan and produced not in consumed:
            # the channel dict would silently replace a live channel
            raise GraphFormatError(f"duplicate channel id {produced!r}")
        return produced

    def series(self, router: str, produced: str | None = None) -> ReductionStep:
        """Eliminate a degree-2 repeater, swapping its channels into one."""
        role = self.roles.get(router)
        if role is None:
            raise GraphFormatError(f"unknown node {router!r}")
        if role is not NodeRole.ROUTER:
            raise ReductionError(f"cannot eliminate endpoint {router!r}")
        incident = self.inc[router]
        if len(incident) != 2:
            raise ReductionError(
                f"router {router!r} has degree {len(incident)}, need exactly 2"
            )
        consumed = tuple(sorted(incident))
        u, w = (self.chan[cid].other(router) for cid in consumed)
        if u == w:
            raise ReductionError(
                f"both channels at {router!r} lead to {u!r}; purify them instead"
            )
        self._apply_series(router, self._produced_id(produced, consumed))
        return self.steps[-1]

    def parallel(
        self, first: str, second: str, produced: str | None = None
    ) -> ReductionStep:
        """Purify two channels spanning the same nodes into one."""
        if first == second:
            raise ReductionError(f"cannot purify channel {first!r} with itself")
        for cid in (first, second):
            if cid not in self.chan:
                raise GraphFormatError(f"unknown channel {cid!r}")
        c1, c2 = sorted((self.chan[first], self.chan[second]), key=lambda c: c.id)
        if c1.pair != c2.pair:
            raise ReductionError(
                f"channels {first!r} and {second!r} are not parallel"
            )
        self._apply_parallel(c1, c2, self._produced_id(produced, (c1.id, c2.id)))
        return self.steps[-1]

    def result(self) -> ReductionResult:
        nodes = [Node(nid, role) for nid, role in self.roles.items()]
        graph = NetworkGraph(nodes, self.chan.values(), self.ops)
        trace = ReductionTrace(
            steps=tuple(self.steps),
            terminal_nodes=tuple(sorted(self.roles)),
            terminal_channels=tuple(sorted(self.chan)),
        )
        return ReductionResult(graph, trace, dict(self.trees))


def reduce_to_fixpoint(
    g: NetworkGraph, series_only: bool = False
) -> ReductionResult:
    """Apply rewrite steps until none applies.

    Parallel steps are always exhausted before series steps, and ties go to
    the candidate with the lowest channel id, so the trace is deterministic.
    With series_only=True only repeater eliminations run, leaving every
    purification decision to the caller.
    """
    engine = _Engine(g)
    engine.run(series_only)
    return engine.result()


def series_step(
    g: NetworkGraph, router_id: str, produced_id: str | None = None
) -> tuple[NetworkGraph, ReductionStep]:
    """Eliminate a degree-2 repeater, swapping its channels into one."""
    engine = _Engine(g)
    step = engine.series(router_id, produced_id)
    return engine.result().graph, step


def parallel_step(
    g: NetworkGraph, first_id: str, second_id: str, produced_id: str | None = None
) -> tuple[NetworkGraph, ReductionStep]:
    """Purify two channels spanning the same nodes into one."""
    engine = _Engine(g)
    step = engine.parallel(first_id, second_id, produced_id)
    return engine.result().graph, step


def replay_trace(g: NetworkGraph, trace: ReductionTrace) -> NetworkGraph:
    """Re-apply a recorded trace step by step, checking each step applies."""
    engine = _Engine(g)
    for step in trace.steps:
        if step.kind is StepKind.SERIES:
            replayed = engine.series(step.eliminated, step.produced)
        else:
            replayed = engine.parallel(*step.consumed, step.produced)
        if replayed.consumed != step.consumed:
            raise ReductionError(
                f"trace step {step!r} consumed {replayed.consumed} on replay"
            )
    return engine.result().graph


def is_fully_reduced_pair(g: NetworkGraph, source: str, target: str) -> bool:
    """True when g is exactly {source, target} joined by one channel."""
    g.node(source)
    g.node(target)
    if source == target:
        raise GraphFormatError("source and target must differ")
    if set(g.nodes) != {source, target}:
        return False
    chans = g.channels
    if len(chans) != 1:
        return False
    (c,) = chans.values()
    return c.pair == frozenset((source, target))


def check_strategy(tree: StrategyTree, g: NetworkGraph) -> None:
    """Every leaf must name a channel of g, and no channel may appear twice."""
    seen = set()
    for cid in strategy_leaves(tree):
        g.channel(cid)
        if cid in seen:
            raise ReductionError(f"channel {cid!r} consumed twice by strategy")
        seen.add(cid)


def evaluate_strategy(tree: StrategyTree, g: NetworkGraph) -> CostVector:
    """Cost of executing a strategy tree against a graph's channels.

    Each channel may be consumed by at most one leaf.
    """
    check_strategy(tree, g)
    ops = g.op_costs
    return fold(
        tree,
        lambda cid: g.channel(cid).cost,
        lambda a, b: swap_cost(a, b, ops),
        lambda a, b: purify_cost(a, b, ops),
    )

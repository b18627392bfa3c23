"""Series-parallel reduction of network graphs.

A series step eliminates a degree-2 repeater by swapping its two channels
into one; a parallel step purifies two channels spanning the same node pair.
Repeating both to a fixpoint collapses any series-parallel topology to a
single channel whose cost is independent of the step order; irreducible
remainders (bridge-like topologies) survive and are handed to search.

Every step is recorded in a trace as one plain row, a ReductionStep
(kind, consumed, eliminated, produced, fidelity, success), and every
produced channel carries a strategy tree saying which physical operations
build it.
"""
from __future__ import annotations

import heapq
import re
from collections import namedtuple
from enum import Enum

from . import algebra
from .algebra import CostVector, check_cost, purify_floats, swap_floats
from .graph import Channel, GraphFormatError, NetworkGraph, NodeRole
from .jsonutil import quote

__all__ = [
    "Leaf",
    "Purify",
    "ReductionError",
    "ReductionResult",
    "Swap",
    "evaluate_strategy",
    "is_fully_reduced_pair",
    "reduce_to_fixpoint",
    "serialize_strategy",
]

_SYNTHETIC_ID_RE = re.compile(r"^r(\d+)$")


class ReductionError(ValueError):
    """Raised when a strategy names one channel twice (check_strategy)."""


Leaf = namedtuple("Leaf", "channel")


class _Operation:
    """Swap's and Purify's equality, hash and repr.

    A tuple's own versions recurse through the children; these walk
    without recursion, so trees of any depth compare, hash and print.  Swap and
    Purify of the same children differ, and each equals the plain tuple
    (left, right), as tuple comparison finds.
    """

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        mine, theirs = postorder(self), postorder(other)
        return len(mine) == len(theirs) and all(
            type(a) is type(b) and (type(a) is not Leaf or a == b)
            for a, b in zip(mine, theirs)
        )

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

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


class Swap(_Operation, namedtuple("Swap", "left right")):
    __slots__ = ()


class Purify(_Operation, namedtuple("Purify", "left right")):
    __slots__ = ()


StrategyTree = Leaf | Swap | Purify


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


ReductionStep = namedtuple(
    "ReductionStep", "kind consumed eliminated produced fidelity success"
)
ReductionStep.__doc__ = """One rewrite step: a plain row, not a validated record.

    The engine fills it from values it has checked itself, so it carries
    the produced channel's cost as two floats rather than a CostVector.
    """


ReductionTrace = namedtuple("ReductionTrace", "steps")
ReductionResult = namedtuple("ReductionResult", "graph trace strategies")


def _synthetic_start(g: NetworkGraph) -> int:
    top = -1
    for m in map(_SYNTHETIC_ID_RE.match, g.channels):
        if m:
            top = max(top, int(m.group(1)))
    return top + 1


class _Engine:
    """Mutable rewrite machinery of reduce_to_fixpoint.

    run() reduces to a fixpoint: parallel steps are exhausted before series
    steps, and within each kind the candidate carrying the lowest channel id
    goes first; routers that tie on it go in id order.  A live channel is
    the Channel row chan[id] = (a, b, fidelity, success), a <= b; inc[n]
    holds the live ids at live node n.  pairs[(a, b)] is a heap of exactly
    the live ids spanning a and b.  ser_heap holds the lower id of every
    router of two channels, plus stale entries dropped when they reach the
    top.  A ser_heap entry names a channel, not a router: the channel's
    ends a <= b are tried in that order, the order of routers that tie on
    it, so the heap compares plain strings.  par_heap holds the smallest
    id of every pair of two or more, and nothing else whenever it is
    popped.  Parallel steps exhaust before any series step, so a series
    step pushes only into a pair that held at most one channel and no
    entry; a parallel step pops its pair's only entry and consumes it with
    the next smallest id, so a channel with an entry leaves chan only by
    that pop.  A series-only run pops nothing, and consumes no channel of
    a pair of two or more: none sits at a router of two channels with
    distinct far ends.  Each engine runs once.  The run is O(|E| log |E|).

    chan starts as a copy of the graph's rows, and result() hands the live
    ones to the graph it returns.  swap_floats and purify_floats compose
    them and check_cost checks each result.  Each step's ReductionStep, its
    produced Channel row and its Swap or Purify node are all made by
    tuple.__new__, the node once both children are known, so no record is
    validated per step.
    """

    def __init__(self, g: NetworkGraph) -> None:
        self.graph = g
        self.routers = {nid for nid, n in g.nodes.items() if n.role is NodeRole.ROUTER}
        self.inc: dict[str, set[str]] = {nid: set() for nid in g.nodes}
        self.chan = g.channels.copy()
        self.pairs: dict[tuple[str, str], list[str]] = {}
        self.trees: dict[str, StrategyTree] = {}
        routers, inc, pairs, trees = self.routers, self.inc, self.pairs, self.trees
        for cid, (a, b, _, _) in self.chan.items():
            inc[a].add(cid)
            inc[b].add(cid)
            pairs.setdefault((a, b), []).append(cid)
            trees[cid] = tuple.__new__(Leaf, (cid,))
        self.steps: list[ReductionStep] = []
        self.next_id = _synthetic_start(g)
        for members in pairs.values():
            heapq.heapify(members)
        self.par_heap = [m[0] for m in pairs.values() if len(m) > 1]
        self.ser_heap = [
            min(ids) for nid, ids in inc.items() if len(ids) == 2 and nid in routers
        ]
        heapq.heapify(self.par_heap)
        heapq.heapify(self.ser_heap)

    def run(self, series_only: bool = False) -> None:
        ops, routers, inc, chan, pairs, trees, steps = (
            self.graph.op_costs, self.routers, self.inc, self.chan,
            self.pairs, self.trees, self.steps,
        )
        par_heap, ser_heap = self.par_heap, self.ser_heap
        push, pop = heapq.heappush, heapq.heappop
        swap, purify, check = swap_floats, purify_floats, check_cost
        new_row = tuple.__new__
        row, SERIES, PARALLEL = ReductionStep, StepKind.SERIES, StepKind.PARALLEL
        next_id = self.next_id
        while True:
            if par_heap and not series_only:
                # The parallel step: the top and the next id of its pair.
                cid1 = pop(par_heap)
                u, w, f1, s1 = chan.pop(cid1)
                members = pairs[u, w]
                pop(members)
                cid2 = pop(members)
                _, _, f2, s2 = chan.pop(cid2)
                f, s = purify(f1, s1, f2, s2, ops)
                kind, eliminated, op = PARALLEL, None, Purify
                at_u, at_w = inc[u], inc[w]
                at_u.remove(cid1)
                at_u.remove(cid2)
                at_w.remove(cid1)
                at_w.remove(cid2)
            else:
                # The series step: the router of two channels, to two
                # distinct nodes, whose lower id is the lowest; of the two
                # ends of that channel, a <= b, the lower goes first.
                nid = None
                while ser_heap and nid is None:
                    cid1 = ser_heap[0]
                    if cid1 in chan:
                        a1, b1, f1, s1 = chan[cid1]
                        for nid in (a1, b1):
                            ids = inc[nid]
                            if len(ids) == 2 and nid in routers:
                                first, second = ids
                                cid2 = second if first == cid1 else first
                                if cid1 < cid2:
                                    a2, b2, f2, s2 = chan[cid2]
                                    u = b1 if a1 == nid else a1
                                    w = b2 if a2 == nid else a2
                                    if u != w:
                                        break
                        else:
                            nid = None
                    pop(ser_heap)
                if nid is None:
                    break  # no step applies
                f, s = swap(f1, s1, f2, s2, ops)
                kind, eliminated, op = SERIES, nid, Swap
                # a router of two channels is the only node of both pairs
                del chan[cid1], chan[cid2], pairs[a1, b1], pairs[a2, b2], inc[nid]
                at_u, at_w = inc[u], inc[w]
                at_u.remove(cid1)
                at_w.remove(cid2)
                if w < u:
                    u, w, at_u, at_w = w, u, at_w, at_u
            check(f, s)
            produced = f"r{next_id}"
            next_id += 1
            steps.append(new_row(row, (kind, (cid1, cid2), eliminated, produced, f, s)))
            trees[produced] = new_row(op, (trees.pop(cid1), trees.pop(cid2)))
            chan[produced] = new_row(Channel, (u, w, f, s))
            members = pairs.setdefault((u, w), [])
            push(members, produced)
            if len(members) > 1:
                push(par_heap, members[0])
            at_u.add(produced)
            if len(at_u) == 2 and u in routers:
                push(ser_heap, min(at_u))
            at_w.add(produced)
            if len(at_w) == 2 and w in routers:
                push(ser_heap, min(at_w))
        self.next_id = next_id

    def result(self) -> ReductionResult:
        g = self.graph
        nodes = g.nodes
        graph = NetworkGraph(
            [nodes[nid] for nid in self.inc], self.chan.items(), g.op_costs
        )
        trace = ReductionTrace(tuple(self.steps))
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


def is_fully_reduced_pair(g: NetworkGraph, source: str, target: str) -> bool:
    """True when g is exactly {source, target} joined by one channel."""
    g.node(source)
    g.node(target)
    if source == target:
        raise GraphFormatError("source and target must differ")
    if set(g.nodes) != {source, target}:
        return False
    rows = g.channels
    if len(rows) != 1:
        return False
    ((a, b, _, _),) = rows.values()
    return {a, b} == {source, target}


def check_strategy(tree: StrategyTree, g: NetworkGraph) -> list[StrategyTree]:
    """postorder(tree), once each leaf in turn names a channel of g (else
    GraphFormatError) that no earlier leaf named (else ReductionError)."""
    nodes = postorder(tree)
    seen = set()
    for node in nodes:
        if isinstance(node, Leaf):
            cid = node.channel
            g.channel(cid)
            if cid in seen:
                raise ReductionError(f"channel {cid!r} consumed twice by strategy")
            seen.add(cid)
    return nodes


def evaluate_strategy(tree: StrategyTree, g: NetworkGraph) -> CostVector:
    """Cost of executing a strategy tree against a graph's channels.

    check_strategy checks every leaf before the walk composes the rows'
    floats over its list through algebra's swap_floats and purify_floats,
    read at the call as swap_cost reads them; check_cost checks each step.
    """
    nodes = check_strategy(tree, g)
    ops, rows = g.op_costs, g.channels
    swap, purify = algebra.swap_floats, algebra.purify_floats
    values: list[tuple[float, float]] = []
    for node in nodes:
        if isinstance(node, Leaf):
            values.append(rows[node.channel][2:])
        else:
            right = values.pop()
            kernel = swap if isinstance(node, Swap) else purify
            values[-1] = kernel(*values[-1], *right, ops)
            check_cost(*values[-1])
    return CostVector(*values[0])

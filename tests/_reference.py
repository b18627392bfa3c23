"""Reference implementations that the optimized code paths are checked against.

simple_paths lists every simple source-target path through routers by
depth-first enumeration, and reference_block is the union of their
channels: what qnet.routing._block must find by Hopcroft and Tarjan's
walk.  Its feasible paths are what qnet.routing._floor_prune must keep.

reference_canonical_dumps is the canonical JSON emitter as first written:
one isinstance chain per value and one json.dumps call per string and per
key.  reference_step_obj is the plain-data form a reduction step had in
reports, and graph_to_obj that of a version-1 graph document.  Whatever
qnet.jsonutil.canonical_dumps and the report templates write must equal
what these give.

scalar_walk_tallies is an independent oracle for the bit-sliced Monte
Carlo kernel.  It is fed the masks the kernel drew for each comparison of
one chunk (the success draw, then each leaf's flip) and walks the tree one
sample at a time: it reads each sample's 53-bit uniform k top bit first
from those masks, decides k < T from that prefix alone, and refuses a
prefix that leaves a decision open for a sample that still delivers.  Its
delivered / accepted / unflipped tallies must equal the chunk's exactly,
with physical acceptance on or off.

philox_two_draw_tallies is the Monte Carlo kernel as it was before it drew
one uniform per leaf: two Philox draws per leaf (delivery, then flip), one
per operation, padded to whole 4-draw blocks.  It samples the same
distribution from another stream, so it is a statistical oracle only:
qnet.montecarlo.estimate must agree with it within a fixed number of
standard errors.

reference_exhaustive_search is the kernel subset search as it was before
it pruned partial strategies below the success floor: every candidate is
scored through swap_cost/purify_cost into a CostVector, and every split of a
subset is taken in the order (sub, other) with sub < other.
qnet.routing._exhaustive_search must return the same strategy and cost, or
None, and never evaluate more candidates.

DensityMatrix4, dephase_bell and bell_fidelity are the dephasing channel
as quantum mechanics writes it: a Bell pair whose phase flips with
probability 1 - p, built explicitly as a 4x4 two-qubit density matrix.
The closed form dephasing_bell_fidelity, (1 + p) / 2, must equal the
matrix's overlap with the Bell pair, so the algebra is checked against the
physics rather than against itself.

swap_fidelity and purify_fidelity are the fidelity halves of
qnet.algebra.swap_floats and purify_floats under free operations, the
kernels every command composes with; the algebra's laws are stated
through them.  swap_chain and purify_chain fold a sequence of fidelities
(purify_chain through the grid's scaled running products), and
swap_inverse gives the formal inverse f / (2f - 1); grid_cost's folds
over copies are checked against the chains.

Rewriter is a plain series/parallel rewriter, written apart from
qnet.reduction._Engine: it keeps one dict of Channel rows, scans it at
every step (O(|E|) a step), and checks each named step as the package's
single-step functions once did, with their messages.  series_step,
parallel_step and replay_trace drive it one step or one `qnet reduce
--trace` document at a time; Rewriter.fixpoint applies the engine's order
(parallel before series, lowest channel id first), so reduce_to_fixpoint's
trace must equal its steps one for one.

brute_force_best is the reference optimum for graphs of up to 8 channels:
it merges virtual pairs two at a time in every order, without reduction,
sharing only the pair-merge rule and tie-break of qnet.routing.  route
must match it.
"""
from __future__ import annotations

import json
import math
import re

import numpy as np

from qnet.algebra import (
    AlgebraDomainError,
    CostVector,
    OperationCosts,
    _CHAIN_START,
    _chain_step,
    _chain_value,
    _checked,
    purify_cost,
    purify_floats,
    swap_cost,
    swap_floats,
    swap_value,
)
from qnet.graph import Channel, GraphFormatError, NetworkGraph, NodeRole
from qnet.jsonutil import RawJSON
from qnet.reduction import (
    Leaf,
    Purify,
    ReductionError,
    ReductionStep,
    StepKind,
    StrategyTree,
    Swap,
    serialize_composite,
    serialize_strategy,
)
from qnet.routing import (
    SearchBoundError,
    _check_endpoints,
    _pair_join,
    _rank,
)


def simple_paths(
    g: NetworkGraph, source: str, target: str
) -> list[tuple[tuple[str, ...], float]]:
    """Every simple source-target path through routers, with its success.

    A path is a tuple of channel ids; parallel channels give distinct
    paths.  Its success is the product of its channels' successes and one
    swap_success per interior router.
    """
    _check_endpoints(g, source, target)
    found = []

    def extend(node: str, visited: set[str], path: list[str]) -> None:
        for cid, c in g.channels.items():
            if node not in (c.a, c.b):
                continue
            far = c.b if node == c.a else c.a
            if far == target:
                hops = path + [cid]
                success = 1.0
                for hop in hops:
                    success *= g.channel(hop).success
                for _ in range(len(hops) - 1):
                    success *= g.op_costs.swap_success
                found.append((tuple(hops), success))
            elif far not in visited and g.node(far).role is NodeRole.ROUTER:
                extend(far, visited | {far}, path + [cid])

    extend(source, {source}, [])
    return found


def reference_block(paths: list[tuple[tuple[str, ...], float]]) -> set[str]:
    """Ids of the channels on the paths simple_paths listed."""
    return {cid for path, _ in paths for cid in path}


def _emit(obj, out: list[str]) -> None:
    if isinstance(obj, RawJSON):
        out.append(obj)
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r} has no JSON form")
        out.append("%.17g" % (obj + 0.0))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_canonical_dumps(obj) -> str:
    """Serialize to canonical JSON text (no trailing newline)."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def reference_step_obj(step) -> dict:
    return {
        "kind": step.kind.value,
        "consumed": list(step.consumed),
        "eliminated": step.eliminated,
        "produced": step.produced,
        "fidelity": step.fidelity,
        "success": step.success,
    }


def graph_to_obj(g: NetworkGraph) -> dict:
    """Plain-data form of a graph (the version-1 document layout)."""
    return {
        "version": 1,
        "op_costs": {
            "swap_success": g.op_costs.swap_success,
            "purify_success": g.op_costs.purify_success,
            "physical_acceptance": g.op_costs.physical_acceptance,
        },
        "nodes": [
            {"id": n.id, "role": n.role.value}
            for n in sorted(g.nodes.values(), key=lambda n: n.id)
        ],
        "edges": [
            {
                "id": cid,
                "a": c.a,
                "b": c.b,
                "fidelity": c.fidelity,
                "success": c.success,
            }
            for cid, c in sorted(g.channels.items())
        ],
    }


def _walk_tallies(
    nodes: list[StrategyTree],
    g: NetworkGraph,
    leaf_bits: list[tuple[np.ndarray, np.ndarray]],
    op_bits: list[np.ndarray],
) -> tuple[int, int, int]:
    """Delivered / accepted / accepted-and-unflipped counts of the samples.

    leaf_bits holds every leaf's (delivered, flipped) rows in post-order,
    op_bits every operation's success row in post-order.  Each node's value
    is (delivered, flipped, agreed), agreed meaning that the flips agreed at
    every purification below it; with physical acceptance on, a
    disagreement fails the purification instead.
    """
    physical = g.op_costs.physical_acceptance
    leaf_iter = iter(leaf_bits)
    op_iter = iter(op_bits)
    values: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for node in nodes:
        if isinstance(node, Leaf):
            delivered, flipped = next(leaf_iter)
            values.append((delivered, flipped, np.ones_like(delivered)))
            continue
        db, zb, ab = values.pop()
        da, za, aa = values.pop()
        ok = da & db & next(op_iter)
        if isinstance(node, Swap):
            values.append((ok, za ^ zb, aa & ab))
        elif physical:
            values.append((ok & (za == zb), za, aa & ab))
        else:
            values.append((ok, za, aa & ab & (za == zb)))
    ((delivered, flipped, agreed),) = values
    accepted = delivered & agreed
    return (
        int(np.count_nonzero(delivered)),
        int(np.count_nonzero(accepted)),
        int(np.count_nonzero(accepted & ~flipped)),
    )


def _op_success(node: StrategyTree, g: NetworkGraph) -> float:
    ops = g.op_costs
    return ops.swap_success if isinstance(node, Swap) else ops.purify_success


_UNIT = 1 << 53


def uniform_below(prefix: int, levels: int, t: int) -> bool | None:
    """Whether k < t for a 53-bit k whose top `levels` bits are prefix.

    None when those bits do not decide it.  t = 2**53 holds for every k.
    """
    if t == _UNIT:
        return True
    top = t >> (53 - levels)
    if prefix != top:
        return prefix < top
    if t & ((1 << (53 - levels)) - 1) == 0:
        return False  # k >= t: t has no set bit below the prefix
    return None


def _prefixes(masks: list[int], n: int) -> list[int]:
    """Each sample's prefix of k: bit i of the j-th mask is its bit 52 - j."""
    if not masks:
        return [0] * n
    columns = [format(m, f"0{n}b")[::-1] for m in masks]
    return [int("".join(bits), 2) for bits in zip(*columns)]


def scalar_walk_tallies(
    nodes: list[StrategyTree],
    g: NetworkGraph,
    n: int,
    masks: list[list[int]],
) -> tuple[int, int, int]:
    """Delivered / accepted / accepted-and-unflipped tallies of n samples.

    masks[0] holds the masks of the success draw, one uniform per sample
    against S, the product in post-order of every leaf's and operation's
    success probability; masks[1 + j] those of the j-th leaf's flip, against
    1 - fidelity.  The list is shorter when the chunk stopped early, which
    is right only if every sample had failed by then.  A purification tests
    agreement.  Each sample carries, per node, (flipped, agreed), agreed
    meaning that the flips agreed at every purification below it; with
    physical acceptance on, a disagreement fails the sample instead.
    `alive` is the running AND of the success draw and those agreements: a
    decision the masks leave open is an error for a sample still alive, and
    harmless otherwise, as such a sample can no longer reach the tallies.
    """
    physical = g.op_costs.physical_acceptance

    def threshold(p: float) -> int:
        return math.ceil(p * float(_UNIT))

    success = 1.0
    flip_thresholds = []
    for node in nodes:
        if isinstance(node, Leaf):
            cost = g.channel(node.channel)
            success *= cost.success
            flip_thresholds.append(threshold(1.0 - cost.fidelity))
        else:
            success *= _op_success(node, g)
    plans = []  # per comparison: (threshold, prefixes, levels)
    for j, t in enumerate([threshold(success)] + flip_thresholds):
        if j < len(masks):
            plans.append((t, _prefixes(masks[j], n), len(masks[j])))
        else:
            plans.append((t, None, None))
    tallies = [0, 0, 0]
    for i in range(n):

        def read(plan, alive):
            t, prefixes, levels = plan
            if prefixes is None:  # the chunk stopped before this comparison
                assert not alive, f"sample {i} still delivers where the chunk stopped"
                return False
            below = uniform_below(prefixes[i], levels, t)
            if below is None:
                assert not alive, f"sample {i} left undecided against {t}"
                return False
            return below

        alive = read(plans[0], True)
        leaf_plans = iter(plans[1:])
        values: list[tuple[bool, bool]] = []
        for node in nodes:
            if isinstance(node, Leaf):
                values.append((read(next(leaf_plans), alive), True))
                continue
            zb, ab = values.pop()
            za, aa = values.pop()
            agree = za == zb
            if isinstance(node, Swap):
                values.append((za != zb, aa and ab))
            elif physical:
                alive = alive and agree
                values.append((za, aa and ab))
            else:
                values.append((za, aa and ab and agree))
        ((flipped, agreed),) = values
        accepted = alive and agreed
        tallies[0] += alive
        tallies[1] += accepted
        tallies[2] += accepted and not flipped
    return tuple(tallies)


def philox_two_draw_tallies(
    nodes: list[StrategyTree],
    g: NetworkGraph,
    seed: int,
    samples: int,
) -> tuple[int, int, int]:
    """The tallies of the two-draw Philox kernel, for samples [0, samples).

    Each sample owns 3 * leaves - 1 draws of the Philox stream keyed by the
    seed, padded to a multiple of 4; their columns follow the post-order
    nodes: a leaf's delivery u1 < s and flip u2 < 1 - fidelity, then one
    column per operation for its success.
    """
    leaves = (len(nodes) + 1) // 2
    width = -(-(3 * leaves - 1) // 4) * 4
    draws = np.random.Generator(np.random.Philox(key=seed)).random(
        samples * width
    ).reshape(samples, width)
    leaf_bits, op_bits = [], []
    col = 0
    for node in nodes:
        if isinstance(node, Leaf):
            cost = g.channel(node.channel)
            leaf_bits.append(
                (
                    draws[:, col] < cost.success,
                    draws[:, col + 1] < 1.0 - cost.fidelity,
                )
            )
            col += 2
        else:
            op_bits.append(draws[:, col] < _op_success(node, g))
            col += 1
    return _walk_tallies(nodes, g, leaf_bits, op_bits)


# Frontier entry: (fidelity, success, serialization, tree, cost).
_Entry = tuple[float, float, str, StrategyTree, CostVector]


def _compose(
    cost: CostVector, kind: type[Swap] | type[Purify], a: _Entry, b: _Entry
) -> _Entry:
    """Entry for kind(a, b), children ordered by serialization."""
    if b[2] < a[2]:
        a, b = b, a
    ser = serialize_composite(kind, a[2], b[2])
    return cost.fidelity, cost.success, ser, kind(a[3], b[3]), cost


def _frontier_add(
    entries: list[_Entry],
    cost: CostVector,
    kind: type[Swap] | type[Purify],
    a: _Entry,
    b: _Entry,
) -> None:
    """Insert the candidate kind(a, b) into a Pareto frontier over (F, s).

    A candidate weakly dominated by an entry is dropped, except that an
    exact (fidelity, success) tie keeps whichever of the two has the
    lexicographically smaller serialization; a surviving candidate evicts
    every entry it weakly dominates.  The candidate's serialization (the
    children's stored strings, composed in serialization order) and its
    tree node are built only when it survives or ties exactly; most
    candidates are dominated and never need either.

    Pruning is sound because both operations are monotone in each
    operand's fidelity, and in success, while every fidelity is at least
    1/2.  Swapping gives 1/2 + 2(f1 - 1/2)(f2 - 1/2), which decreases in
    one operand once the other is below 1/2, so callers must guarantee
    F >= 1/2 on every channel; swap and purify preserve it.
    """
    fid, succ = cost.fidelity, cost.success
    for k, e in enumerate(entries):
        if e[0] >= fid and e[1] >= succ:
            if e[0] == fid and e[1] == succ:
                cand = _compose(cost, kind, a, b)
                if cand[2] < e[2]:
                    entries[k] = cand
            return
    entries[:] = [e for e in entries if not (fid >= e[0] and succ >= e[1])]
    entries.append(_compose(cost, kind, a, b))


def reference_exhaustive_search(
    g: NetworkGraph, source: str, target: str, min_success: float
) -> tuple[tuple[StrategyTree, CostVector] | None, int]:
    """Best feasible strategy over every series/parallel composition.

    Dynamic programming over (channel subset, node pair): each state keeps
    the Pareto-optimal ways to build one virtual pair from exactly that
    subset.  Swapping joins two disjoint subsets sharing one router (the
    router may serve other subsets again, which plain graph reduction
    cannot express); purification joins two disjoint subsets over the
    same pair.  Returns (best, candidate trees evaluated).

    Raises AlgebraDomainError for a channel of fidelity below 1/2, where
    Pareto pruning would be unsound (see _frontier_add).
    """
    ids = sorted(g.channels)
    roles = {nid: n.role for nid, n in g.nodes.items()}
    ops = g.op_costs
    span = tuple(sorted((source, target)))
    frontiers: list[dict[tuple[str, str], list[_Entry]]] = [
        {} for _ in range(1 << len(ids))
    ]
    for i, cid in enumerate(ids):
        c = g.channel(cid)
        if c.fidelity < 0.5:
            raise AlgebraDomainError(
                f"kernel channel {cid!r} has fidelity {c.fidelity!r} "
                "below 1/2; the exhaustive search is exact only for "
                "fidelities >= 1/2"
            )
        tree = Leaf(cid)
        ser = serialize_strategy(tree)
        frontiers[1 << i][(c.a, c.b)] = [
            (c.fidelity, c.success, ser, tree, CostVector(c.fidelity, c.success))
        ]
    joins: dict = {}
    evaluated = 0
    for mask in range(3, 1 << len(ids)):
        if mask & (mask - 1) == 0:
            continue
        frontier = frontiers[mask]
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub < other and frontiers[sub] and frontiers[other]:
                for pa, ea in frontiers[sub].items():
                    for pb, eb in frontiers[other].items():
                        key = (pa, pb)
                        if key not in joins:
                            joins[key] = _pair_join(pa, pb, roles)
                        join = joins[key]
                        if join is None:
                            continue
                        produced, kind = join
                        merge = purify_cost if kind is Purify else swap_cost
                        bucket = frontier.setdefault(produced, [])
                        for a in ea:
                            for b in eb:
                                cost = merge(a[4], b[4], ops)
                                evaluated += 1
                                _frontier_add(bucket, cost, kind, a, b)
            sub = (sub - 1) & mask
    best = min(
        (
            entry
            for mask in range(1, 1 << len(ids))
            for entry in frontiers[mask].get(span, [])
            if entry[1] >= min_success
        ),
        key=lambda entry: _rank(*entry[:3]),
        default=None,
    )
    if best is None:
        return None, evaluated
    return (best[3], best[4]), evaluated


# Operation costs that charge nothing.
FREE = OperationCosts(1.0, 1.0, False)
PUNCTURE_EPS = 1e-9


def swap_fidelity(f1: float, f2: float) -> float:
    """Fidelity after entanglement swapping two pairs, by swap_floats."""
    return swap_floats(f1, 1.0, f2, 1.0, FREE)[0]


def purify_fidelity(f1: float, f2: float) -> float:
    """Fidelity after one purification round, conditioned on acceptance,
    by purify_floats; a singular pair raises AlgebraDomainError."""
    return purify_floats(f1, 1.0, f2, 1.0, FREE)[0]


def swap_inverse(f: float) -> float:
    """The fidelity g with swap_value(f, g) == 1, namely f / (2f - 1).

    Undefined at the domain puncture f = 1/2.  The result is physical only
    for f in {0, 1}; everything else is a formal value outside [0, 1],
    which every physical entry point refuses.
    """
    x = _checked(f)
    if abs(x - 0.5) <= PUNCTURE_EPS:
        raise AlgebraDomainError(f"no inverse at domain puncture f={x!r}")
    return x / (2.0 * x - 1.0) + 0.0


def swap_chain(fs) -> float:
    """Left fold of swap_value over a non-empty sequence of fidelities."""
    vals = [_checked(f) for f in fs]
    if not vals:
        raise AlgebraDomainError("swap_chain of empty sequence")
    acc = vals[0]
    for v in vals[1:]:
        acc = swap_value(acc, v)
    return acc


def purify_chain(fs) -> float:
    """Fidelity of purifying n pairs down to one: prod(F) / (prod(F) + prod(1-F)).

    The running products are the grid's, a mantissa and a power of two
    each, so long chains do not underflow; only both products being
    exactly zero is singular.
    """
    vals = [_checked(f) for f in fs]
    if not vals:
        raise AlgebraDomainError("purify_chain of empty sequence")
    state = _CHAIN_START
    for v in vals:
        state = _chain_step(state, v)
    if state[0] == state[2] == 0.0:
        raise AlgebraDomainError("singular purification input in chain")
    return _chain_value(state)


def dephasing_bell_fidelity(p: float) -> float:
    """Bell-pair fidelity (1 + p) / 2 after a dephasing channel of strength p."""
    return (1.0 + _checked(p, "channel strength")) / 2.0


_BELL = np.zeros((4, 4), dtype=np.complex128)
_BELL[0, 0] = _BELL[0, 3] = _BELL[3, 0] = _BELL[3, 3] = 0.5
_Z1 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(np.complex128)


class DensityMatrix4:
    """A two-qubit density matrix: Hermitian, unit trace, positive."""

    def __init__(self, matrix: np.ndarray) -> None:
        m = np.asarray(matrix, dtype=np.complex128)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("matrix is not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
            raise ValueError("trace differs from 1 by more than 1e-12")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -1e-10:
            raise ValueError(f"negative eigenvalue {eigs.min()} below -1e-10")
        self.matrix = m
        self.matrix.setflags(write=False)

    def __repr__(self) -> str:
        return f"DensityMatrix4(trace={np.trace(self.matrix).real:.3f})"


def dephase_bell(p: float) -> DensityMatrix4:
    """Bell pair through a dephasing channel of strength p.

    With probability p the state is untouched; otherwise it is replaced by
    the dephasing steady state (the average of the state and its image
    under Z on one qubit).
    """
    p = _checked(p, "channel strength")
    steady = 0.5 * (_BELL + _Z1 @ _BELL @ _Z1)
    return DensityMatrix4(p * _BELL + (1.0 - p) * steady)


def bell_fidelity(state: DensityMatrix4) -> float:
    """Overlap of a two-qubit state with the Bell pair (|00> + |11>)/sqrt(2)."""
    return float(np.real(np.trace(_BELL @ state.matrix)))


class InfeasibleRouteError(Exception):
    """brute_force_best found no strategy that meets the success floor.

    qnet's own route never raises: it answers such a request with a
    RouteResult of search SearchKind.INFEASIBLE and no strategy.
    """


def brute_force_best(
    g: NetworkGraph, source: str, target: str, min_success: float
) -> tuple[StrategyTree, CostVector]:
    """Reference optimum by exhaustive merging, independent of the reducer.

    Explores every way of combining channels two at a time (purify on equal
    node pairs, swap through repeaters) and keeps the best feasible pair
    spanning source-target.  Limited to 8 channels.  Raises
    InfeasibleRouteError when no strategy meets min_success.
    """
    _check_endpoints(g, source, target)
    if len(g.channels) > 8:
        raise SearchBoundError(
            f"{len(g.channels)} channels exceed the brute-force bound of 8"
        )
    roles = {nid: n.role for nid, n in g.nodes.items()}
    span = tuple(sorted((source, target)))

    # virtual pair: (node pair, fidelity, success, serialization, tree)
    initial = tuple(
        sorted(
            (
                tuple(sorted((c.a, c.b))),
                c.fidelity,
                c.success,
                serialize_strategy(Leaf(cid)),
                Leaf(cid),
            )
            for cid, c in g.channels.items()
        )
    )
    best = None
    seen: set = set()
    stack = [initial]
    while stack:
        state = stack.pop()
        key = tuple(v[:3] for v in state)
        if key in seen:
            continue
        seen.add(key)
        for pair, f, s, ser, tree in state:
            if pair == span and s >= min_success:
                if best is None or _rank(f, s, ser) < _rank(*best[:3]):
                    best = (f, s, ser, tree)
        n = len(state)
        for i in range(n):
            for j in range(i + 1, n):
                pa, fa, sa, sera, ta = state[i]
                pb, fb, sb, serb, tb = state[j]
                join = _pair_join(pa, pb, roles)
                if join is None:
                    continue
                merged_pair, kind = join
                ca = CostVector(fa, sa)
                cb = CostVector(fb, sb)
                if kind is Purify:
                    denom = fa * fb + (1.0 - fa) * (1.0 - fb)
                    if denom <= 1e-12:
                        continue
                    cost = purify_cost(ca, cb, g.op_costs)
                else:
                    cost = swap_cost(ca, cb, g.op_costs)
                merged = (
                    merged_pair,
                    cost.fidelity,
                    cost.success,
                    serialize_composite(kind, sera, serb),
                    kind(ta, tb),
                )
                rest = state[:i] + state[i + 1 : j] + state[j + 1 :]
                stack.append(tuple(sorted(rest + (merged,))))
    if best is None:
        raise InfeasibleRouteError(
            f"no strategy reaches success {min_success!r}"
        )
    fid, succ, _, tree = best
    return tree, CostVector(fid, succ)


def _far_end(c: Channel, node: str) -> str:
    return c.b if node == c.a else c.a


class Rewriter:
    """Channels of a graph under checked series and parallel steps.

    A step's produced id is the one given or, if none, r<n> for the next n
    past every 'r<n>' channel id of the graph it started from.
    """

    def __init__(self, g: NetworkGraph) -> None:
        self.nodes = dict(g.nodes)
        self.channels = dict(g.channels)
        self.ops = g.op_costs
        self.trees = {cid: Leaf(cid) for cid in self.channels}
        self.steps: list[ReductionStep] = []
        numbers = [int(cid[1:]) for cid in self.channels if re.fullmatch(r"r\d+", cid)]
        self.next_id = max(numbers, default=-1) + 1

    def graph(self) -> NetworkGraph:
        return NetworkGraph(self.nodes.values(), self.channels.items(), self.ops)

    def _at(self, node: str) -> list[str]:
        return sorted(cid for cid, c in self.channels.items() if node in (c.a, c.b))

    def _apply(self, kind, id1, id2, ends, eliminated, produced) -> ReductionStep:
        if produced is None:
            produced = f"r{self.next_id}"
            self.next_id += 1
        elif not isinstance(produced, str) or not re.fullmatch(r"\S{1,64}", produced):
            raise GraphFormatError(
                f"channel id {produced!r} must be 1-64 non-whitespace characters"
            )
        elif produced in self.channels and produced not in (id1, id2):
            raise GraphFormatError(f"duplicate channel id {produced!r}")
        if kind is StepKind.SERIES:
            combine, tree = swap_cost, Swap
        else:
            combine, tree = purify_cost, Purify
        c1, c2 = self.channels[id1], self.channels[id2]
        cost = combine(CostVector(*c1[2:]), CostVector(*c2[2:]), self.ops)
        step = ReductionStep(
            kind, (id1, id2), eliminated, produced, cost.fidelity, cost.success
        )
        self.trees[produced] = tree(self.trees.pop(id1), self.trees.pop(id2))
        del self.channels[id1], self.channels[id2]
        self.channels[produced] = Channel(*sorted(ends), cost.fidelity, cost.success)
        self.steps.append(step)
        return step

    def series(self, router: str, produced: str | None = None) -> ReductionStep:
        """Eliminate a router of two channels, swapping them into one."""
        if router not in self.nodes:
            raise GraphFormatError(f"unknown node {router!r}")
        if self.nodes[router].role is not NodeRole.ROUTER:
            raise ReductionError(f"cannot eliminate endpoint {router!r}")
        at = self._at(router)
        if len(at) != 2:
            raise ReductionError(f"router {router!r} has degree {len(at)}, need exactly 2")
        u, w = (_far_end(self.channels[cid], router) for cid in at)
        if u == w:
            raise ReductionError(
                f"both channels at {router!r} lead to {u!r}; purify them instead"
            )
        step = self._apply(StepKind.SERIES, *at, (u, w), router, produced)
        del self.nodes[router]
        return step

    def parallel(
        self, first: str, second: str, produced: str | None = None
    ) -> ReductionStep:
        """Purify two channels spanning the same nodes into one."""
        if first == second:
            raise ReductionError(f"cannot purify channel {first!r} with itself")
        for cid in (first, second):
            if cid not in self.channels:
                raise GraphFormatError(f"unknown channel {cid!r}")
        c1, c2 = self.channels[first], self.channels[second]
        if (c1.a, c1.b) != (c2.a, c2.b):
            raise ReductionError(f"channels {first!r} and {second!r} are not parallel")
        return self._apply(
            StepKind.PARALLEL, *sorted((first, second)), (c1.a, c1.b), None, produced
        )

    def moves(self) -> list[tuple]:
        """Every step that applies: ("parallel", id, id) for each two
        channels of one span, lower id first, in sorted order; then
        ("series", router) for each router of two channels to two distinct
        nodes, by its lower channel id and then its own id."""
        spans: dict[tuple[str, str], list[str]] = {}
        at: dict[str, list[tuple[str, Channel]]] = {}
        for cid in sorted(self.channels):
            c = self.channels[cid]
            spans.setdefault((c.a, c.b), []).append(cid)
            at.setdefault(c.a, []).append((cid, c))
            at.setdefault(c.b, []).append((cid, c))
        parallel = sorted(
            ("parallel", ids[i], ids[j])
            for ids in spans.values()
            for i in range(len(ids))
            for j in range(i + 1, len(ids))
        )
        series = sorted(
            (pair[0][0], nid)
            for nid, pair in at.items()
            if self.nodes[nid].role is NodeRole.ROUTER
            and len(pair) == 2
            and _far_end(pair[0][1], nid) != _far_end(pair[1][1], nid)
        )
        return parallel + [("series", nid) for _, nid in series]

    def apply(self, move: tuple) -> ReductionStep:
        if move[0] == "series":
            return self.series(*move[1:])
        return self.parallel(*move[1:])

    def fixpoint(self, series_only: bool = False) -> list[ReductionStep]:
        """Steps until none applies, in reduce_to_fixpoint's order: the
        first parallel move while there is one, else the first series move
        (parallel moves are skipped with series_only)."""
        while True:
            moves = [m for m in self.moves() if m[0] == "series" or not series_only]
            if not moves:
                return self.steps
            self.apply(moves[0])


def series_step(
    g: NetworkGraph, router_id: str, produced_id: str | None = None
) -> tuple[NetworkGraph, ReductionStep]:
    """Eliminate a router of two channels, swapping them into one."""
    rewriter = Rewriter(g)
    step = rewriter.series(router_id, produced_id)
    return rewriter.graph(), step


def parallel_step(
    g: NetworkGraph, first_id: str, second_id: str, produced_id: str | None = None
) -> tuple[NetworkGraph, ReductionStep]:
    """Purify two channels spanning the same nodes into one."""
    rewriter = Rewriter(g)
    step = rewriter.parallel(first_id, second_id, produced_id)
    return rewriter.graph(), step


def replay_trace(g: NetworkGraph, document: str | bytes) -> NetworkGraph:
    """g rewritten by the trace of a `qnet reduce --trace` report.

    Each step must apply and consume the channels the report names, in its
    order, and yield the fidelity and success the report prints.  Only the
    report's last member, "trace", is decoded: the strategies before it
    nest as deep as the reduction, deeper than json.loads reads on a long
    ladder.
    """
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    start = document.rindex('"trace":') + len('"trace":')
    rewriter = Rewriter(g)
    for entry in json.JSONDecoder().raw_decode(document, start)[0]:
        if entry["kind"] == "series":
            step = rewriter.series(entry["eliminated"], entry["produced"])
        else:
            step = rewriter.parallel(*entry["consumed"], entry["produced"])
        if list(step.consumed) != entry["consumed"]:
            raise ReductionError(f"trace step {entry!r} consumed {step.consumed} on replay")
        cost = (step.fidelity, step.success)
        if cost != (entry["fidelity"], entry["success"]):
            raise ReductionError(f"trace step {entry!r} costs {cost} on replay")
    return rewriter.graph()

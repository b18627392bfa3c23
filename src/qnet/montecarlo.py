"""Monte-Carlo validation of the cost algebra.

One vectorised executor runs a strategy tree over many samples at once.
Each sample tracks a (delivered, phase_flipped) pair per node.  A channel
reads one uniform u: it delivers if u < success and arrives phase-flipped
if u < success * (1 - fidelity), so a delivered pair is flipped with
probability 1 - fidelity.  An operation reads one more uniform for its own
success.  Swapping XORs the flip bits of its inputs, purification
post-selects on agreement.  Estimates tally delivery and flip rates over
the samples; a 4x4 density-matrix path provides an independent quantum
mechanical check for the dephasing channel.

With physical acceptance off, a purification whose flips disagree still
delivers, as the algebra charges no acceptance to success; the fidelity is
then estimated over the delivered samples that agreed at every
purification, the post-selected state the algebra's fidelity describes.

The draws are laid out node-major: post-order node j's draw for sample i
is draw j * samples + i of the PCG64DXSM stream seeded by the seed.  A
worker walks the tree once per chunk of samples, one node at a time,
filling one row of draws and jumping ahead (advance) to the next node's
row; so estimates are bit-identical no matter how the work is chunked or
how many workers run it.  They depend on the sample count as a whole: the
first k samples of a run are not a k-sample run.

Every operation only ANDs deliveries, so a sample's root delivers exactly
when every delivery bit the walk reads holds: the walk keeps one running
delivered row and a stack of flip rows.  Success multiplies across the
tree, so on a large tree every sample of a chunk often fails long before
the root; such a chunk stops drawing, as nothing it would still draw can
change its tallies.
"""
from __future__ import annotations

from math import sqrt

import numpy as np

from ._value import Value, _set
from .algebra import _checked
from .graph import NetworkGraph
from .reduction import Leaf, StrategyTree, Swap, check_strategy, postorder

__all__ = [
    "DensityMatrix4",
    "McEstimate",
    "bell_fidelity",
    "dephase_bell",
    "estimate",
]

# A chunk holds at most this many samples, and a worker at most this many
# bytes: per sample, 8 for the draw row, 1 each for the compare, delivered
# and agreement rows and 1 for each row of the flip stack, plus
# _SPARE_BYTES for its bit generator, generator and row views (about 4 KiB
# traced).  A thread's memory stays bounded whatever the size or shape of
# the tree.
_CHUNK_SAMPLES = 1 << 16
_CHUNK_BYTES = 32 << 20
_SPARE_BYTES = 1 << 16


class McEstimate(Value):
    __slots__ = _fields = (
        "fidelity_hat",
        "success_hat",
        "std_error_fidelity",
        "std_error_success",
        "samples",
        "seed",
    )
    fidelity_hat: float | None
    success_hat: float
    std_error_fidelity: float | None
    std_error_success: float
    samples: int
    seed: int

    def __init__(
        self,
        fidelity_hat: float | None,
        success_hat: float,
        std_error_fidelity: float | None,
        std_error_success: float,
        samples: int,
        seed: int,
    ) -> None:
        _set(self, "fidelity_hat", fidelity_hat)
        _set(self, "success_hat", success_hat)
        _set(self, "std_error_fidelity", std_error_fidelity)
        _set(self, "std_error_success", std_error_success)
        _set(self, "samples", samples)
        _set(self, "seed", seed)


def _run_worker(
    steps: list[tuple[type[StrategyTree], float, float]],
    depth: int,
    acceptance: bool,
    seed: int,
    samples: int,
    ranges: list[tuple[int, int]],
) -> tuple[int, int, int]:
    """Delivered / accepted / accepted-and-unflipped tallies over the ranges.

    A delivered sample is accepted when its flips agree at every
    purification; with physical acceptance on, a disagreement already
    fails the purification, so every delivered sample is accepted.

    steps holds one (kind, p, q) per post-order node: a leaf's success s
    and s * (1 - fidelity), an operation's success and 0.  Node j's draw
    for sample i is draw j * samples + i of the seed's PCG64DXSM stream.
    For each range the worker jumps to its first sample, then per node
    fills one row of draws and jumps past the other samples to the next
    node's row.  Every operation only ANDs deliveries, so the root
    delivers exactly when every bit the walk reads holds: each leaf's
    u < s, each operation's u < p and, with acceptance on, each
    purification's agreement.  One delivered row keeps that running AND.
    A leaf arrives flipped if u < q (given delivery u / s is uniform, and
    the flip of a sample that fails is never counted) and pushes its flip
    row onto a stack of depth rows; a swap XORs its operands' flips into
    the left one, a purification compares them.  From every 8th node on,
    a chunk in which every sample has failed stops drawing: its tallies
    are 0, and the rows it skips belong to no other chunk.  The buffers
    are allocated once, for the largest range.
    """
    most = max(count for _, count in ranges)
    draw_buf = np.empty(most)
    hit_buf = np.empty(most, dtype=np.bool_)
    delivered_buf = np.empty(most, dtype=np.bool_)
    agreed_buf = np.empty(most, dtype=np.bool_)
    flip_buf = np.empty((depth, most), dtype=np.bool_)
    n_delivered = n_accepted = n_unflipped = 0
    for start, count in ranges:
        u, hit = draw_buf[:count], hit_buf[:count]
        delivered, flipped = delivered_buf[:count], flip_buf[:, :count]
        agreed = agreed_buf[:count]  # all agreements, acceptance off
        agreed.fill(True)
        bits = np.random.PCG64DXSM(seed)
        bits.advance(start)
        draw = np.random.Generator(bits).random
        top = 0
        for j, (kind, p, q) in enumerate(steps):
            if j and j % 8 == 0 and not delivered.any():
                break  # every sample has failed
            draw(out=u)
            bits.advance(samples - count)
            if j:
                np.less(u, p, out=hit)
                delivered &= hit
            else:  # node 0 is a leaf: it starts the running AND
                np.less(u, p, out=delivered)
            if kind is Leaf:
                np.less(u, q, out=flipped[top])
                top += 1
                continue
            top -= 1
            za, zb = flipped[top - 1], flipped[top]
            if kind is Swap:
                za ^= zb
                continue
            np.equal(za, zb, out=zb)
            if acceptance:
                delivered &= zb
            else:
                agreed &= zb
        else:  # the walk reached the root
            n_delivered += int(np.count_nonzero(delivered))
            delivered &= agreed
            n_accepted += int(np.count_nonzero(delivered))
            flipped = flipped[0]
            np.greater(delivered, flipped, out=flipped)  # accepted and unflipped
            n_unflipped += int(np.count_nonzero(flipped))
    return n_delivered, n_accepted, n_unflipped


def estimate(
    tree: StrategyTree,
    g: NetworkGraph,
    samples: int,
    seed: int,
    threads: int = 1,
) -> McEstimate:
    """Monte-Carlo estimate of a strategy's fidelity and success probability.

    The estimate depends only on (tree, graph, samples, seed); the thread
    count changes wall time, never the numbers.  fidelity_hat and its
    standard error are None when no sample was accepted.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed {seed} outside [0, 2**128)")
    check_strategy(tree, g)
    ops = g.op_costs
    steps: list[tuple[type[StrategyTree], float, float]] = []
    height = depth = 0
    for node in postorder(tree):
        if isinstance(node, Leaf):
            cost = g.channel(node.channel).cost
            flip = cost.success * (1.0 - cost.fidelity)
            steps.append((Leaf, cost.success, flip))
            height += 1
            depth = max(depth, height)
        else:
            swap = isinstance(node, Swap)
            success = ops.swap_success if swap else ops.purify_success
            steps.append((type(node), success, 0.0))
            height -= 1
    room = (_CHUNK_BYTES - _SPARE_BYTES) // (11 + depth)
    chunk = max(1, min(_CHUNK_SAMPLES, room))
    # Each worker walks an even contiguous share of the samples in chunks.
    workers = min(threads, -(-samples // chunk))
    bounds = [samples * k // workers for k in range(workers + 1)]
    shares = [
        [(start, min(chunk, end - start)) for start in range(begin, end, chunk)]
        for begin, end in zip(bounds, bounds[1:])
    ]
    acceptance = ops.physical_acceptance

    def run(ranges: list[tuple[int, int]]) -> tuple[int, int, int]:
        return _run_worker(steps, depth, acceptance, seed, samples, ranges)

    if workers == 1:
        tallies = [run(shares[0])]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            tallies = list(pool.map(run, shares))
    delivered, accepted, unflipped = (sum(t) for t in zip(*tallies))

    success_hat = delivered / samples
    se_success = sqrt(success_hat * (1.0 - success_hat) / samples)
    if accepted == 0:
        return McEstimate(None, success_hat, None, se_success, samples, seed)
    fidelity_hat = unflipped / accepted
    se_fidelity = sqrt(fidelity_hat * (1.0 - fidelity_hat) / accepted)
    return McEstimate(
        fidelity_hat, success_hat, se_fidelity, se_success, samples, seed
    )


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

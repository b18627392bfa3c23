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

Sample i always consumes draws [i * width, (i + 1) * width) of the
PCG64DXSM stream seeded by the seed, width = 2 * leaves - 1, reached by
jumping ahead; so estimates are bit-identical no matter how the work is
chunked or how many workers run it.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .algebra import AlgebraDomainError
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
# bytes: 8 of draws and 1 of compare results per draw and 1 more per leaf
# for its flip compare (the transposed rows reuse the bytes of the draws),
# plus _SPARE_BYTES for the iteration buffers numpy allocates inside a
# compare (np.getbufsize() elements of each of its three operands, about
# 136 KiB) and the walk's array views.  A thread's memory stays bounded
# whatever the size of the tree.
_CHUNK_SAMPLES = 1 << 16
_CHUNK_BYTES = 32 << 20
_CELL_BYTES = 9
_SPARE_BYTES = 1 << 18


@dataclass(frozen=True)
class McEstimate:
    fidelity_hat: float | None
    success_hat: float
    std_error_fidelity: float | None
    std_error_success: float
    samples: int
    seed: int


def _thresholds(
    nodes: list[StrategyTree], g: NetworkGraph
) -> tuple[np.ndarray, np.ndarray]:
    """The rows each sample's draws are compared against.

    The first row has one column per draw: every leaf's success, in
    post-order, then every operation's success, in post-order.  The second
    has one column per leaf: the success times the flip probability, which
    the leaf's draw is compared against a second time.
    """
    ops = g.op_costs
    leaf_success: list[float] = []
    op_success: list[float] = []
    flip: list[float] = []
    for node in nodes:
        if isinstance(node, Leaf):
            cost = g.channel(node.channel).cost
            leaf_success.append(cost.success)
            flip.append(cost.success * (1.0 - cost.fidelity))
        elif isinstance(node, Swap):
            op_success.append(ops.swap_success)
        else:
            op_success.append(ops.purify_success)
    return np.array(leaf_success + op_success), np.array(flip)


def _run_worker(
    nodes: list[StrategyTree],
    probs: np.ndarray,
    flip_probs: np.ndarray,
    acceptance: bool,
    seed: int,
    ranges: list[tuple[int, int]],
) -> tuple[int, int, int]:
    """Delivered / accepted / accepted-and-unflipped tallies over the ranges.

    A delivered sample is accepted when its flips agree at every
    purification; with physical acceptance on, a disagreement already
    fails the purification, so every delivered sample is accepted.

    Sample i's draws are the width = 2 * leaves - 1 draws of the seed's
    PCG64DXSM stream that start at draw i * width: one per leaf, then one
    per operation.  A leaf delivers if its draw u is below its success s
    and arrives flipped if u < s * (1 - fidelity); given delivery u / s is
    uniform, and the flip of an undelivered leaf is never read.

    The buffers are allocated once, for the largest range, and reused:
    each range is drawn, compared against probs and its leaf columns
    against flip_probs into width + leaves compare results a sample, and
    transposed so that every column is one contiguous row.  The walk then
    combines rows in place; each row belongs to exactly one node, so
    nothing it overwrites is read again.
    """
    width = len(probs)
    leaves = len(flip_probs)
    cols = width + leaves
    most = max(count for _, count in ranges)
    draw_buf = np.empty(most * width)
    row_buf = draw_buf.view(np.bool_)  # the draws are dead once compared
    hit_buf = np.empty(most * cols, dtype=np.bool_)
    n_delivered = n_accepted = n_unflipped = 0
    for start, count in ranges:
        draws = draw_buf[: count * width].reshape(count, width)
        hits = hit_buf[: count * cols].reshape(count, cols)
        rows = row_buf[: count * cols].reshape(cols, count)
        bits = np.random.PCG64DXSM(seed)
        bits.advance(start * width)
        np.random.Generator(bits).random(out=draws)
        np.less(draws, probs, out=hits[:, :width])
        np.less(draws[:, :leaves], flip_probs, out=hits[:, width:])
        np.copyto(rows, hits.T)
        values: list[tuple[np.ndarray, np.ndarray]] = []
        accepted = None  # conjunction of the agreements, acceptance off
        leaf = 0
        op = leaves
        for node in nodes:
            if isinstance(node, Leaf):
                values.append((rows[leaf], rows[width + leaf]))
                leaf += 1
                continue
            db, zb = values.pop()
            da, za = values.pop()
            ok = rows[op]
            ok &= da
            ok &= db
            if isinstance(node, Swap):
                za ^= zb
            else:
                np.equal(za, zb, out=zb)
                if acceptance:
                    ok &= zb
                elif accepted is None:
                    accepted = zb
                else:
                    accepted &= zb
            values.append((ok, za))
            op += 1
        ((delivered, flipped),) = values
        n_delivered += int(np.count_nonzero(delivered))
        if accepted is not None:
            delivered &= accepted
        n_accepted += int(np.count_nonzero(delivered))
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
    nodes = postorder(tree)
    probs, flip_probs = _thresholds(nodes, g)
    sample_bytes = _CELL_BYTES * len(probs) + len(flip_probs)
    room = (_CHUNK_BYTES - _SPARE_BYTES) // sample_bytes
    chunk = max(1, min(_CHUNK_SAMPLES, room))
    # Each worker walks an even contiguous share of the samples in chunks.
    workers = min(threads, -(-samples // chunk))
    bounds = [samples * k // workers for k in range(workers + 1)]
    shares = [
        [(start, min(chunk, end - start)) for start in range(begin, end, chunk)]
        for begin, end in zip(bounds, bounds[1:])
    ]
    acceptance = g.op_costs.physical_acceptance
    with ThreadPoolExecutor(max_workers=workers) as pool:
        tallies = list(
            pool.map(
                lambda ranges: _run_worker(
                    nodes, probs, flip_probs, acceptance, seed, ranges
                ),
                shares,
            )
        )
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
    if not 0.0 <= p <= 1.0:
        raise AlgebraDomainError(f"channel strength {p!r} outside [0, 1]")
    steady = 0.5 * (_BELL + _Z1 @ _BELL @ _Z1)
    return DensityMatrix4(p * _BELL + (1.0 - p) * steady)


def bell_fidelity(state: DensityMatrix4) -> float:
    """Overlap of a two-qubit state with the Bell pair (|00> + |11>)/sqrt(2)."""
    return float(np.real(np.trace(_BELL @ state.matrix)))

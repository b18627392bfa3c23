"""Monte-Carlo validation of the cost algebra.

One vectorised executor runs a strategy tree over many samples at once.
Each sample tracks a (delivered, phase_flipped) pair per node: a channel
delivers with its success probability and arrives phase-flipped with
probability 1 - fidelity.  Swapping XORs the flip bits of its inputs,
purification post-selects on agreement.  Estimates tally delivery and flip
rates over the samples; a 4x4 density-matrix path provides an independent
quantum mechanical check for the dephasing channel.

With physical acceptance off, a purification whose flips disagree still
delivers, as the algebra charges no acceptance to success; the fidelity is
then estimated over the delivered samples that agreed at every
purification, the post-selected state the algebra's fidelity describes.

Sample i always consumes the same counter-indexed slice of the Philox
stream keyed by the seed, so estimates are bit-identical no matter how the
work is chunked or how many workers run it.
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
# bytes: 8 of draws and 1 of compare results per draw (the transposed rows
# reuse the bytes of the draws), so a thread's memory stays bounded whatever
# the size of the tree.
_CHUNK_SAMPLES = 1 << 16
_CHUNK_BYTES = 32 << 20
_CELL_BYTES = 9


@dataclass(frozen=True)
class McEstimate:
    fidelity_hat: float | None
    success_hat: float
    std_error_fidelity: float | None
    std_error_success: float
    samples: int
    seed: int


def _probabilities(
    nodes: list[StrategyTree], g: NetworkGraph, width: int
) -> np.ndarray:
    """The row each sample's draws are compared against, column by column.

    Columns follow the post-order nodes: a leaf's success and flip
    probability, then one column per operation for its success; the
    padding columns are never read.
    """
    ops = g.op_costs
    probs: list[float] = []
    for node in nodes:
        if isinstance(node, Leaf):
            cost = g.channel(node.channel).cost
            probs += (cost.success, 1.0 - cost.fidelity)
        elif isinstance(node, Swap):
            probs.append(ops.swap_success)
        else:
            probs.append(ops.purify_success)
    probs += [0.0] * (width - len(probs))
    return np.array(probs, dtype=np.float64)


def _run_worker(
    nodes: list[StrategyTree],
    probs: np.ndarray,
    acceptance: bool,
    seed: int,
    ranges: list[tuple[int, int]],
) -> tuple[int, int, int]:
    """Delivered / accepted / accepted-and-unflipped tallies over the ranges.

    A delivered sample is accepted when its flips agree at every
    purification; with physical acceptance on, a disagreement already
    fails the purification, so every delivered sample is accepted.

    Sample i's draws are the width draws of the seed's Philox stream that
    start at draw i * width.  The buffers are allocated once, for the
    largest range, and reused: each range is drawn, compared against probs
    in one dense pass, and transposed so that every column is one
    contiguous row.  The walk then combines rows in place; each row belongs
    to exactly one node, so nothing it overwrites is read again.
    """
    width = len(probs)
    cells = max(count for _, count in ranges) * width
    draw_buf = np.empty(cells)
    row_buf = draw_buf.view(np.bool_)  # the draws are dead once compared
    hit_buf = np.empty(cells, dtype=np.bool_)
    n_delivered = n_accepted = n_unflipped = 0
    for start, count in ranges:
        draws = draw_buf[: count * width].reshape(count, width)
        hits = hit_buf[: count * width].reshape(count, width)
        rows = row_buf[: count * width].reshape(width, count)
        bits = np.random.Philox(key=seed)
        bits.advance(start * width // 4)
        np.random.Generator(bits).random(out=draws)
        np.less(draws, probs, out=hits)
        np.copyto(rows, hits.T)
        values: list[tuple[np.ndarray, np.ndarray]] = []
        accepted = None  # conjunction of the agreements, acceptance off
        col = 0
        for node in nodes:
            if isinstance(node, Leaf):
                values.append((rows[col], rows[col + 1]))
                col += 2
                continue
            db, zb = values.pop()
            da, za = values.pop()
            ok = rows[col]
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
            col += 1
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
    check_strategy(tree, g)
    nodes = postorder(tree)
    leaves = (len(nodes) + 1) // 2
    # 3 * leaves - 1 draws, padded to whole 4-draw blocks of the Philox stream
    width = -(-(3 * leaves - 1) // 4) * 4
    probs = _probabilities(nodes, g, width)
    chunk = max(1, min(_CHUNK_SAMPLES, _CHUNK_BYTES // (_CELL_BYTES * width)))
    ranges = [
        (start, min(chunk, samples - start))
        for start in range(0, samples, chunk)
    ]
    workers = min(threads, len(ranges))
    acceptance = g.op_costs.physical_acceptance
    with ThreadPoolExecutor(max_workers=workers) as pool:
        tallies = list(
            pool.map(
                lambda k: _run_worker(
                    nodes, probs, acceptance, seed, ranges[k::workers]
                ),
                range(workers),
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

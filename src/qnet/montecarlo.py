"""Monte-Carlo validation of the cost algebra.

One vectorised executor runs a strategy tree over many samples at once.
Each sample tracks a (delivered, phase_flipped) pair per node: a channel
delivers with its success probability and arrives phase-flipped with
probability 1 - fidelity.  Swapping XORs the flip bits of its inputs,
purification post-selects on agreement.  Estimates tally delivery and flip
rates over the samples; a 4x4 density-matrix path provides an independent
quantum mechanical check for the dephasing channel.

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

# A chunk holds at most this many samples and this many bytes of draws, so
# a thread's memory stays bounded whatever the size of the tree.
_CHUNK_SAMPLES = 1 << 16
_CHUNK_BYTES = 32 << 20


@dataclass(frozen=True)
class McEstimate:
    fidelity_hat: float | None
    success_hat: float
    std_error_fidelity: float | None
    std_error_success: float
    samples: int
    seed: int


def _run_chunk(
    nodes: list[StrategyTree],
    g: NetworkGraph,
    seed: int,
    start: int,
    count: int,
    width: int,
) -> tuple[int, int]:
    """Delivered / delivered-and-unflipped tallies for samples [start, start+count).

    Each sample owns width draws; their columns follow the post-order
    nodes: two per leaf, one per operation.
    """
    bits = np.random.Philox(key=seed)
    bits.advance(start * width // 4)
    draws = np.random.Generator(bits).random(count * width).reshape(count, width)
    ops = g.op_costs
    values: list[tuple[np.ndarray, np.ndarray]] = []
    col = 0
    for node in nodes:
        if isinstance(node, Leaf):
            cost = g.channel(node.channel).cost
            delivered = draws[:, col] < cost.success
            flipped = draws[:, col + 1] < (1.0 - cost.fidelity)
            values.append((delivered, flipped))
            col += 2
            continue
        db, zb = values.pop()
        da, za = values.pop()
        if isinstance(node, Swap):
            ok = da & db & (draws[:, col] < ops.swap_success)
            values.append((ok, za ^ zb))
        else:
            ok = da & db & (draws[:, col] < ops.purify_success)
            if ops.physical_acceptance:
                ok = ok & (za == zb)
            values.append((ok, za))
        col += 1
    ((delivered, flipped),) = values
    n_delivered = int(np.count_nonzero(delivered))
    n_unflipped = int(np.count_nonzero(delivered & ~flipped))
    return n_delivered, n_unflipped


def estimate(
    tree: StrategyTree,
    g: NetworkGraph,
    samples: int,
    seed: int,
    threads: int = 1,
) -> McEstimate:
    """Monte-Carlo estimate of a strategy's fidelity and success probability.

    The estimate depends only on (tree, graph, samples, seed); the thread
    count changes wall time, never the numbers.
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
    chunk = max(1, min(_CHUNK_SAMPLES, _CHUNK_BYTES // (8 * width)))
    ranges = [
        (start, min(chunk, samples - start))
        for start in range(0, samples, chunk)
    ]
    with ThreadPoolExecutor(max_workers=min(threads, len(ranges))) as pool:
        tallies = list(
            pool.map(lambda rc: _run_chunk(nodes, g, seed, *rc, width), ranges)
        )
    delivered = sum(t[0] for t in tallies)
    unflipped = sum(t[1] for t in tallies)

    success_hat = delivered / samples
    se_success = sqrt(success_hat * (1.0 - success_hat) / samples)
    if delivered == 0:
        return McEstimate(None, 0.0, None, se_success, samples, seed)
    fidelity_hat = unflipped / delivered
    se_fidelity = sqrt(fidelity_hat * (1.0 - fidelity_hat) / delivered)
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

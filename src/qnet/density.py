"""A 4x4 density-matrix check of the dephasing channel.

The cost algebra models a channel of fidelity F as a Bell pair whose phase
flips with probability 1 - F.  This module builds that state explicitly,
as a two-qubit density matrix, so that the closed-form
algebra.dephasing_bell_fidelity can be checked against quantum mechanics
rather than against itself.  It is the only part of qnet that uses numpy;
qnet resolves its names on first use, so nothing else pays for the import.
"""
from __future__ import annotations

import numpy as np

from .algebra import _checked

__all__ = ["DensityMatrix4", "bell_fidelity", "dephase_bell"]

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

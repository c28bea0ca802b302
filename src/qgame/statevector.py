"""Gate matrices and the tensor-structured apply shared by every engine.

A gate is an angle-free (name, targets) record. Its matrix comes from
`gate_matrix(gate, chi)`, where chi is the run's entangling angle, read
only by J and J-dagger. `apply_matrix` updates the 2-qubit game's
amplitude vectors and, in `noise.outcome_law`, density matrices stored as
2n-qubit vectors, through reshape/transpose, never through explicit
2^n x 2^n matrices.

Basis convention, used everywhere in this package: basis index bit i
corresponds to qubit i with qubit 0 MOST significant. For a 2-qubit
register holding players (A, B), the flat index is 2*a + b, i.e. the
ket |a b> reads left to right.

Global phase is never normalized away. Downstream code only consumes
probabilities, so phase conventions
are asserted at the probability level only.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

CHI_MAX = np.pi / 4
_CHI_TOL = 1e-12  # radians
_ROWS = np.arange(4)


def xx_rotation(chi) -> np.ndarray:
    """4x4 entangling matrix: cos(chi) on the diagonal, -i sin(chi) on the
    anti-diagonal, coupling |00>:|11> and |01>:|10>.

    Accepts any real angle, or an array of angles for a stack of matrices;
    the conjugate gate is xx_rotation(-chi).
    """
    chi = np.asarray(chi, dtype=float)
    c, s = np.cos(chi)[..., None], -1j * np.sin(chi)[..., None]
    mat = np.zeros(chi.shape + (4, 4), dtype=np.complex128)
    mat[..., _ROWS, _ROWS] = c
    mat[..., _ROWS, _ROWS[::-1]] = s
    return mat


def _fixed(rows) -> Callable:
    mat = np.array(rows, dtype=np.complex128)
    mat.flags.writeable = False  # one instance serves every caller
    return lambda chi: mat


# name -> matrix as a function of the run's angle
_MATRICES = {
    "I": _fixed(np.eye(2)),
    "X": _fixed([[0, 1], [1, 0]]),
    "Y": _fixed([[0, -1j], [1j, 0]]),
    "Z": _fixed([[1, 0], [0, -1]]),
    "H": _fixed(np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)),
    "CNOT": _fixed([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "CZ": _fixed(np.diag([1, 1, 1, -1])),
    "J": xx_rotation,
    "JDAG": lambda chi: xx_rotation(-chi),
}


class Gate(NamedTuple):
    """A gate's name (I, X, Y, Z, H, CNOT, CZ, J or JDAG) and its target
    qubits; two-qubit targets are (control, target)."""

    name: str
    targets: tuple[int, ...]


def gate_matrix(gate: Gate, chi) -> np.ndarray:
    """The gate's unitary at entangling angle chi (an array of angles gives
    J and J-dagger as a stack; every other gate ignores chi)."""
    return _MATRICES[gate.name](chi)


def check_chi(chi) -> None:
    """The one range check on protocol angles, in radians: [0, pi/4], one angle at a time."""
    for value in np.ravel(chi).tolist():
        if not 0.0 <= value <= CHI_MAX + _CHI_TOL:
            raise ValueError(f"chi={value} outside [0, pi/4]")


def apply_matrix(amps: np.ndarray, mat: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the target axes of a 2^n amplitude vector.

    Leading axes of `amps` are a batch of independent vectors; `mat` is one
    matrix for all of them or a stack with the same leading axes.
    """
    k = len(targets)
    batch = amps.shape[:-1]
    lead = list(range(len(batch)))
    rest = [q for q in range(n) if q not in targets]
    perm = lead + [len(batch) + q for q in (*targets, *rest)]
    work = amps.reshape(*batch, *[2] * n).transpose(perm).reshape(*batch, 2**k, -1)
    work = mat @ work
    return work.reshape(*batch, *[2] * n).transpose(np.argsort(perm)).reshape(*batch, -1)


def apply_gate(amps: np.ndarray, gate: Gate, chi: float) -> np.ndarray:
    """One gate on a 2^n amplitude vector at entangling angle chi."""
    return apply_matrix(amps, gate_matrix(gate, chi), gate.targets, amps.shape[-1].bit_length() - 1)

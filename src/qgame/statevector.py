"""Dense complex statevector simulator for 2-5 qubits.

Basis convention, used everywhere in this package: basis index bit i
corresponds to qubit i with qubit 0 MOST significant. For a 2-qubit
register holding players (A, B), the flat index is 2*a + b, i.e. the
ket |a b> reads left to right. Gate application uses tensor-structured
updates (reshape/transpose), never explicit 2^n x 2^n matrices.

Global phase is never normalized away. Downstream code only consumes
probabilities, so phase conventions
are asserted at the probability level only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

CHI_MAX = np.pi / 4
_CHI_TOL = 1e-12  # radians

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
_PAULIS = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
# targets = (control, target)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    dtype=np.complex128,
)
_CZ = np.diag([1, 1, 1, -1]).astype(np.complex128)


def xx_rotation(chi: float) -> np.ndarray:
    """4x4 entangling matrix: cos(chi) on the diagonal, -i sin(chi) on the
    anti-diagonal, coupling |00>:|11> and |01>:|10>.

    Accepts any real angle; the conjugate gate is xx_rotation(-chi).
    """
    c, s = np.cos(chi), np.sin(chi)
    return np.array(
        [
            [c, 0, 0, -1j * s],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [-1j * s, 0, 0, c],
        ],
        dtype=np.complex128,
    )


class GateKind(Enum):
    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"
    H = "H"
    CNOT = "CNOT"
    CZ = "CZ"
    J = "J"
    JDAG = "JDAG"


_ONE_QUBIT = {GateKind.I, GateKind.X, GateKind.Y, GateKind.Z, GateKind.H}


@dataclass(frozen=True)
class Gate:
    """A gate instance: kind, target qubits, and the angle for J variants."""

    kind: GateKind
    targets: tuple[int, ...]
    chi: float | None = None

    def __post_init__(self) -> None:
        want = 1 if self.kind in _ONE_QUBIT else 2
        if len(self.targets) != want:
            raise ValueError(f"{self.kind.value} takes {want} target(s), got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate targets {self.targets}")
        if self.kind in (GateKind.J, GateKind.JDAG):
            if self.chi is None:
                raise ValueError("J gates need chi")
        elif self.chi is not None:
            raise ValueError(f"{self.kind.value} takes no chi")

    def matrix(self) -> np.ndarray:
        if self.kind in (GateKind.J, GateKind.JDAG):
            check_chi(self.chi)
            sign = 1.0 if self.kind is GateKind.J else -1.0
            return xx_rotation(sign * self.chi)
        if self.kind is GateKind.H:
            return _H
        if self.kind is GateKind.CNOT:
            return _CNOT
        if self.kind is GateKind.CZ:
            return _CZ
        return _PAULIS[self.kind.value]


def check_chi(chi: float) -> None:
    """The one range check on a protocol angle, in radians: [0, pi/4]."""
    if not 0.0 <= chi <= CHI_MAX + _CHI_TOL:
        raise ValueError(f"chi={chi} outside [0, pi/4]")


@dataclass(frozen=True)
class StateVector:
    """Immutable amplitudes over the computational basis of 2-5 qubits."""

    amplitudes: np.ndarray
    qubit_count: int

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128).copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        if not 2 <= self.qubit_count <= 5:
            raise ValueError(f"qubit_count {self.qubit_count} outside [2, 5]")
        if amps.shape != (2**self.qubit_count,):
            raise ValueError(
                f"need {2**self.qubit_count} amplitudes for {self.qubit_count} qubits, got {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: |psi| = {norm}")

    @classmethod
    def ground(cls, qubit_count: int) -> "StateVector":
        amps = np.zeros(2**qubit_count, dtype=np.complex128)
        amps[0] = 1.0
        return cls(amps, qubit_count)


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


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    n = state.qubit_count
    for q in gate.targets:
        if not 0 <= q < n:
            raise ValueError(f"target {q} out of range for {n} qubits")
    out = apply_matrix(state.amplitudes, gate.matrix(), gate.targets, n)
    return StateVector(out, n)


def probabilities(state: StateVector) -> np.ndarray:
    """|amplitude|^2 per basis outcome; sums to 1 within 1e-12."""
    return np.abs(state.amplitudes) ** 2

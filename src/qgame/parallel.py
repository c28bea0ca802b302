"""Parallelized 5-qubit circuits that play all 16 strategy pairs in two runs.

Qubit layout: (A, B, aux1, aux2, aux3) = indices (0, 1, 2, 3, 4), qubit 0
most significant. The three aux qubits are put in uniform superposition;
aux1 controls an X on A, aux2 a Z on A, aux3 a Z on B. Each aux outcome
(x, y, z) therefore tags a branch in which players effectively applied
U_A = Z^y X^x and U_B = Z^z. The I-circuit covers U_B in {I, Z}; the
X-variant adds an unconditional X on B just before unentangling,
shifting coverage to U_B in {X, Y}. Composite operators only match the
bare strategy gates up to phase (ZX = iY, XZ = -iY), which is invisible
in the measured probabilities.

Each variant's gate list is a constant; only the entangling angle varies
between runs. The circuits' outcome law, noise-free or not, is
`noise.outcome_law`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from qgame.game import Strategy
from qgame.statevector import Gate, check_chi

QUBIT_A, QUBIT_B, AUX1, AUX2, AUX3 = range(5)
N_QUBITS = 5
N_OUTCOMES = 2**N_QUBITS


class Variant(Enum):
    I_CIRCUIT = "I"
    X_CIRCUIT = "X"


class EmptyBranchError(ValueError):
    """A parsed branch holds zero population; downstream math would divide by it."""


@dataclass(frozen=True)
class ParallelCircuit:
    variant: Variant
    chi: float
    gate_sequence: tuple[Gate, ...]


_PREPARE = (
    Gate("H", (AUX1,)),
    Gate("H", (AUX2,)),
    Gate("H", (AUX3,)),
    Gate("J", (QUBIT_A, QUBIT_B)),
    Gate("CNOT", (AUX1, QUBIT_A)),
    Gate("CZ", (AUX2, QUBIT_A)),
    Gate("CZ", (AUX3, QUBIT_B)),
)
_UNENTANGLE = Gate("JDAG", (QUBIT_A, QUBIT_B))
_GATE_SEQUENCES = {
    Variant.I_CIRCUIT: (*_PREPARE, _UNENTANGLE),
    Variant.X_CIRCUIT: (*_PREPARE, Gate("X", (QUBIT_B,)), _UNENTANGLE),
}


def build_circuit(variant: Variant, chi: float) -> ParallelCircuit:
    check_chi(chi)
    return ParallelCircuit(variant, chi, _GATE_SEQUENCES[variant])


# (x, y) -> U_A, shared by both variants
_UA_BY_XY = {
    (0, 0): Strategy.I,
    (1, 0): Strategy.X,
    (0, 1): Strategy.Z,
    (1, 1): Strategy.Y,
}


def branch_strategies(variant: Variant, x: int, y: int, z: int) -> tuple[Strategy, Strategy]:
    """Strategy pair evaluated by the branch with aux outcome (x, y, z)."""
    u_a = _UA_BY_XY[(x, y)]
    if variant is Variant.I_CIRCUIT:
        u_b = Strategy.Z if z else Strategy.I
    else:
        u_b = Strategy.Y if z else Strategy.X
    return u_a, u_b


def branch_map(variant: Variant) -> dict[tuple[int, int, int], tuple[Strategy, Strategy]]:
    return {
        (x, y, z): branch_strategies(variant, x, y, z)
        for x in (0, 1)
        for y in (0, 1)
        for z in (0, 1)
    }


def branch_indices(x: int, y: int, z: int) -> list[int]:
    """Flat outcome indices of (A, B, x, y, z) for the four (A, B) values."""
    tail = 4 * x + 2 * y + z
    return [16 * a + 8 * b + tail for a in (0, 1) for b in (0, 1)]


def _branch_table(mapping) -> tuple[tuple, np.ndarray, tuple]:
    """(aux keys, their (n, 4) outcome indices, their strategy pairs) in mapping order."""
    keys = tuple(mapping)
    index = np.array([branch_indices(*key) for key in keys], dtype=np.intp).reshape(-1, 4)
    return keys, index, tuple(mapping[key] for key in keys)


_CANONICAL_TABLES = {variant: _branch_table(branch_map(variant)) for variant in Variant}


def _table(variant: Variant, mapping) -> tuple[tuple, np.ndarray, tuple]:
    return _CANONICAL_TABLES[variant] if mapping is None else _branch_table(mapping)


def branch_distributions(counts: np.ndarray, variant: Variant, mapping=None) -> tuple[np.ndarray, np.ndarray]:
    """Split each row of a (..., 32) stack of populations into its 8 branches.

    Returns the (..., 8, 4) per-branch outcome distributions, each
    renormalized to sum 1, and the (..., 8) mask of branches with zero
    total, whose distributions are zero. Branches follow the order of
    `mapping`, by default the variant's `branch_map`.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape[-1:] != (N_OUTCOMES,):
        raise ValueError(f"expected {N_OUTCOMES} outcome entries, got {counts.shape}")
    if (counts < 0).any():
        raise ValueError("negative populations")
    _, index, _ = _table(variant, mapping)
    subs = counts[..., index]
    totals = subs.sum(axis=-1)
    empty = totals <= 0
    return subs / np.where(empty, 1.0, totals)[..., None], empty


def parse_branches(
    counts: np.ndarray, variant: Variant, mapping=None
) -> dict[tuple[Strategy, Strategy], np.ndarray]:
    """Split a 32-outcome population into 8 per-pair conditional distributions.

    `counts` is a 32-vector of counts or frequencies; this is one row of
    `branch_distributions`. A branch with zero total raises EmptyBranchError
    rather than silently emitting zeros.
    """
    if np.ndim(counts) != 1:
        raise ValueError(f"expected {N_OUTCOMES} outcome entries, got {np.shape(counts)}")
    dists, empty = branch_distributions(counts, variant, mapping)
    keys, _, pairs = _table(variant, mapping)
    if empty.any():
        x, y, z = keys[np.argmax(empty)]
        raise EmptyBranchError(
            f"branch (x,y,z)=({x},{y},{z}) of {variant.value}-circuit has zero population"
        )
    return dict(zip(pairs, dists))

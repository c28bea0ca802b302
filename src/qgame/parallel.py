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

A circuit is its gate tuple: `build_circuit` checks the angle and returns
the variant's constant tuple; only the angle varies between runs. The
circuits' outcome law, noise-free or not, is `noise.outcome_law`.

This module alone knows the outcome-bit layout. Both variants share one
branch table: `branch_distributions` splits any stack of 32-outcome
populations into the 8 aux branches, and `BRANCH_PAIRS` names the strategy
pair that each branch of each variant plays.
"""

from __future__ import annotations

import itertools
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


def build_circuit(variant: Variant, chi: float) -> tuple[Gate, ...]:
    """Check the entangling angle `chi` and return the variant's gate tuple."""
    check_chi(chi)
    return _GATE_SEQUENCES[variant]


# both variants share one branch table: branch 4x + 2y + z holds aux outcome (x, y, z)
_AUX_KEYS = tuple(itertools.product((0, 1), repeat=3))
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
    return {key: branch_strategies(variant, *key) for key in _AUX_KEYS}


def branch_indices(x: int, y: int, z: int) -> list[int]:
    """Flat outcome indices of (A, B, x, y, z) for the four (A, B) values."""
    tail = 4 * x + 2 * y + z
    return [16 * a + 8 * b + tail for a in (0, 1) for b in (0, 1)]


_BRANCH_INDEX = np.array([branch_indices(*key) for key in _AUX_KEYS])  # [branch, 2A + B]: outcome
# BRANCH_PAIRS[v, branch]: the strategy pair 4*a + b that the branch plays in variant v
BRANCH_PAIRS = np.array([[4 * a + b for a, b in branch_map(variant).values()] for variant in Variant])


def branch_distributions(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each row of a (..., 32) stack of populations into its 8 branches.

    Returns the (..., 8, 4) per-branch outcome distributions, each
    renormalized to sum 1, and the (..., 8) branch totals. A branch whose
    total is zero has a zero distribution. Branches are in aux-outcome
    order, the same for both variants; `BRANCH_PAIRS` names their pairs.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape[-1:] != (N_OUTCOMES,):
        raise ValueError(f"expected {N_OUTCOMES} outcome entries, got {counts.shape}")
    if (counts < 0).any():
        raise ValueError("negative populations")
    subs = counts[..., _BRANCH_INDEX]
    totals = subs.sum(axis=-1)
    return subs / np.where(totals <= 0, 1.0, totals)[..., None], totals


def parse_branches(counts: np.ndarray, variant: Variant) -> dict[tuple[Strategy, Strategy], np.ndarray]:
    """Split a 32-outcome population into 8 per-pair conditional distributions.

    `counts` is a 32-vector of counts or frequencies; this is one row of
    `branch_distributions`. A branch with zero total raises EmptyBranchError
    rather than silently emitting zeros.
    """
    if np.ndim(counts) != 1:
        raise ValueError(f"expected {N_OUTCOMES} outcome entries, got {np.shape(counts)}")
    dists, totals = branch_distributions(counts)
    if (totals <= 0).any():
        x, y, z = _AUX_KEYS[np.argmax(totals <= 0)]
        raise EmptyBranchError(
            f"branch (x,y,z)=({x},{y},{z}) of {variant.value}-circuit has zero population"
        )
    return dict(zip(branch_map(variant).values(), dists))

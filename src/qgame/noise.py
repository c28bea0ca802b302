"""Experiment emulation: finite shots, gate depolarization, angle
miscalibration, readout confusion, SPAM correction, stochastic type
assignment.

Every noise source acts on each shot independently, so a run's outcome
counts are exactly Multinomial(shots, E[p]), where E[p] is the
noise-averaged outcome distribution. `outcome_law` computes E[p] exactly.
Before readout, the outcome probabilities are a trig polynomial in the
entangling angle, so their values at a few fixed angle nodes determine
them at every angle. Those node values come from one density-matrix
evolution through the gates, each gate followed by its depolarizing
channel, with the nodes' density matrices evolving together as one stack.
It runs once per (gates, qubit count, depolarization probabilities) and is
cached, so a sweep evolves each circuit once, not once per angle, and
models that differ only in readout, angle error or seed share it. The law
at an angle is then a weighted sum of the node values, the weights folding
in the systematic offset and the Gaussian spread of the angle, followed by
`readout_matrix(noise, n)`, cached per noise model. SPAM correction takes
the same `NoiseModel` and inverts that matrix, whose 5-qubit condition
number and inverse are computed once, so it cannot invert a map the
emulation did not apply, and correcting a stack of pools is one matrix
product per pool. It fails a pool whose clipped negative mass exceeds
2 sqrt(total), beyond the pool's shot noise. Sampling then draws counts,
never per-shot outcomes: `sample_outcomes` is one multinomial draw of
`outcome_law`, with the same (gates, n, chi, noise) arguments, for every
circuit. The type split draws a binomial per outcome count. A population
is a plain 32-entry count array, and each single-row function is the
one-row case of its stacked form.

Reproducibility contract: one master seed; every consumer derives an
independent child stream keyed by integers (angle, circuit variant,
purpose) so that evaluation order and a subset of the angles cannot change
any cell's random numbers. `child_rng` builds the stream of key `key` the
documented numpy way, `np.random.default_rng(np.random.SeedSequence(
master_seed, spawn_key=key))`, so it needs a master seed in [0, 2**64) and
non-negative key entries. numpy imports numpy.random lazily, and only a
run that draws calls `child_rng`.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from qgame.config import NoiseModel
from qgame.parallel import N_OUTCOMES, N_QUBITS
from qgame.statevector import Gate, apply_matrix, gate_matrix

# purpose tags for child stream derivation
PURPOSE_SAMPLE = 0
PURPOSE_SPLIT = 1
PURPOSE_CALIBRATION = 2

_COND_LIMIT = 1e8
# a row fails when its negative mass exceeds this many sqrt(total), the scale of its shot noise
_NEGATIVE_SIGMAS = 2.0


class SpamCorrectionError(ValueError):
    """Readout matrix unusable or corrected populations meaningfully negative."""


def child_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic child stream for (master seed, integer key path)."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def _crosstalk_map(gamma: float, n_qubits: int) -> np.ndarray:
    """Symmetric nearest-channel bleed: a bright channel lights up a dark
    neighbor with probability gamma, applied per ordered adjacent pair."""
    bleed = np.eye(4)  # on a pair (a, b): |10> stays with 1 - gamma, else turns |11>
    bleed[2:, 2] = 1 - gamma, gamma
    total = np.eye(2**n_qubits)
    for src in range(n_qubits - 1):
        for pair in ((src, src + 1), (src + 1, src)):
            total = apply_matrix(total.T, bleed, pair, n_qubits).T  # each column of total in turn
    return total


@lru_cache(maxsize=8)
def readout_matrix(noise: NoiseModel, n_qubits: int = N_QUBITS) -> np.ndarray:
    """The read-only column-stochastic map from true to observed outcome
    probabilities on `n_qubits`, one per noise model: each qubit's bit flips
    on its own, then the crosstalk bleed acts."""
    p01, p10 = noise.readout_flip_0to1, noise.readout_flip_1to0
    single = np.array([[1 - p01, p10], [p01, 1 - p10]])  # column j = true bit j, rows = observed bit
    matrix = reduce(np.kron, [single] * n_qubits, np.array([[1.0]]))  # qubit 0 the most significant bit
    matrix = _crosstalk_map(noise.crosstalk, n_qubits) @ matrix  # the identity at crosstalk 0
    matrix.flags.writeable = False
    return matrix


@lru_cache(maxsize=8)
def _readout_inverse(noise: NoiseModel) -> tuple[float, np.ndarray | None]:
    """The 5-qubit readout matrix's condition number and read-only inverse,
    computed once per noise model; no inverse past the condition limit."""
    matrix = readout_matrix(noise, N_QUBITS)  # the key outcome_law caches it under
    cond = float(np.linalg.cond(matrix))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        return cond, None
    inverse = np.linalg.inv(matrix)
    inverse.flags.writeable = False
    return cond, inverse


def spam_correct_stack(counts: np.ndarray, noise: NoiseModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert the readout matrix of `noise` on every row of a (..., 32) stack of counts.

    Negative results are clipped and the row rescaled to its total. A row's
    negative mass, its clipped sum minus its corrected sum, is shot noise
    while it stays within 2 sqrt(total); more means the readout model does
    not match the data, and so does a row that clipping leaves empty.
    Returns the corrected stack, the mask of rows that fail, whose corrected
    values mean nothing, and each row's negative mass. An unusable matrix
    raises for the whole stack.
    """
    cond, inverse = _readout_inverse(noise)
    if inverse is None:
        raise SpamCorrectionError(f"confusion matrix ill-conditioned (cond={cond:.3g})")
    counts = np.ascontiguousarray(counts, dtype=float)
    # one matrix-vector product per row, so a row's result does not depend on the stack
    corrected = (inverse @ counts[..., None])[..., 0]
    total = counts.sum(axis=-1)
    clipped = np.clip(corrected, 0.0, None)
    scale = clipped.sum(axis=-1)
    negative = scale - corrected.sum(axis=-1)
    failed = (negative > _NEGATIVE_SIGMAS * np.sqrt(total)) | (scale <= 0)
    return clipped * (total / np.where(failed, 1.0, scale))[..., None], failed, negative


def spam_correct(counts: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """One 32-entry count array's case of `spam_correct_stack`; a failed row raises."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (N_OUTCOMES,):
        raise ValueError(f"expected {N_OUTCOMES} entries, got {counts.shape}")
    if not np.isfinite(counts).all() or (counts < 0).any():
        raise ValueError("counts must be finite and nonnegative")
    corrected, failed, negative = spam_correct_stack(counts, noise)
    if failed:
        total = counts.sum()
        if negative > _NEGATIVE_SIGMAS * np.sqrt(total):  # else clipping left nothing
            raise SpamCorrectionError(
                f"corrected negative mass {negative:.4g} above {_NEGATIVE_SIGMAS:g} sqrt(total) = "
                f"{_NEGATIVE_SIGMAS * np.sqrt(total):.4g} of total {total:.4g}"
            )
        raise SpamCorrectionError("correction wiped out all population")
    return corrected


class ChiEstimate(NamedTuple):
    value: float
    sigma: float


def estimate_chi_from_counts(ones: float, shots: int) -> ChiEstimate:
    """Invert P(|11>) = sin^2(chi). Binomial error propagation through
    arcsin(sqrt(.)) gives a constant sigma = 1/(2 sqrt(N)); the degenerate
    all-zero / all-one counts fall back to the rule-of-three 95% bound."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    if not 0 <= ones <= shots:
        raise ValueError(f"count {ones} outside [0, {shots}]")
    bound = np.arcsin(np.sqrt(min(3.0 / shots, 1.0)))
    if ones == 0:
        return ChiEstimate(0.0, float(bound))
    if ones == shots:
        return ChiEstimate(float(np.pi / 2), float(bound))
    return ChiEstimate(float(np.arcsin(np.sqrt(ones / shots))), float(1.0 / (2.0 * np.sqrt(shots))))


# ---------------------------------------------------------------------------
# exact outcome law and count sampling


def _twirl(rho: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Full Pauli twirl of `targets` in each row of a stack of density
    matrices: each target is traced out and replaced by I/2."""
    tensor = rho.reshape(-1, *[2] * (2 * n))
    for t in targets:
        half = np.trace(tensor, axis1=1 + t, axis2=1 + n + t) / 2
        tensor = np.moveaxis(np.multiply.outer(np.eye(2), half), (0, 1), (1 + t, 1 + n + t))
    return tensor.reshape(rho.shape)


def _noisy_diagonals(
    gates: tuple[Gate, ...], n: int, chis: np.ndarray, single_qubit_depol: float, two_qubit_depol: float
) -> np.ndarray:
    """Outcome probabilities before readout, one row per entangling angle.

    The density matrices at all angles evolve as one stack of 2n-qubit
    vectors: U acts on the row axes (0..n-1), conj(U) on the column axes
    (n..2n-1). `gate_matrix` gives J and J-dagger one matrix per angle;
    every other gate and the depolarization act on the whole stack at
    once. A uniform non-identity Pauli error with probability `prob`
    equals a mix with the full twirl at weight prob * 4^k / (4^k - 1).
    """
    rho = np.zeros((len(chis), 4**n), dtype=np.complex128)
    rho[:, 0] = 1.0
    for gate in gates:
        mat = gate_matrix(gate, chis)
        columns = tuple(n + t for t in gate.targets)
        rho = apply_matrix(apply_matrix(rho, mat, gate.targets, 2 * n), mat.conj(), columns, 2 * n)
        k = len(gate.targets)
        prob = two_qubit_depol if k == 2 else single_qubit_depol
        weight = prob * 4**k / (4**k - 1)
        rho = (1 - weight) * rho + weight * _twirl(rho, gate.targets, n)
    return rho.reshape(len(chis), 2**n, 2**n).diagonal(axis1=1, axis2=2).real


@lru_cache(maxsize=8)
def _node_diagonals(
    gates: tuple[Gate, ...], n: int, single_qubit_depol: float, two_qubit_depol: float
) -> tuple[np.ndarray, np.ndarray]:
    """The angle nodes 2 pi j / (2 degree + 1) and the outcome probabilities
    before readout at each, evaluated once per (gates, n, depolarization
    probabilities): no other noise source acts before readout.

    Every J and J-dagger adds 2 to the degree of the probabilities as a
    trig polynomial in the angle (degree 4 for the parallelized circuits),
    so 2 * degree + 1 equally spaced nodes determine them at every angle.
    """
    degree = 2 * sum(gate.name in ("J", "JDAG") for gate in gates)
    nodes = 2 * np.pi * np.arange(2 * degree + 1) / (2 * degree + 1)
    # a copy: the diagonal view would keep the whole density-matrix stack alive
    diagonals = _noisy_diagonals(gates, n, nodes, single_qubit_depol, two_qubit_depol).copy()
    nodes.flags.writeable = diagonals.flags.writeable = False
    return nodes, diagonals


def outcome_law(gates: tuple[Gate, ...], n: int, nominal_chi: float, noise: NoiseModel) -> np.ndarray:
    """Exact per-shot outcome distribution (length 2**n) under `noise`.

    Every J and J-dagger of a shot uses the same angle, c + N(0, sigma^2)
    with c = nominal + offset. Interpolating through the node values of
    `_node_diagonals` (degree d, nodes theta_j) and damping frequency m by
    exp(-m^2 sigma^2 / 2) gives the Gaussian average exactly, as
    sum_j w_j diag(theta_j) with weights shifted by c:
    w_j = (1 + 2 sum_m exp(-m^2 sigma^2 / 2) cos(m (theta_j - c))) / (2d + 1).
    `readout_matrix(noise, n)` then acts on the average.
    """
    nodes, diagonals = _node_diagonals(gates, n, noise.single_qubit_depol, noise.two_qubit_depol)
    freqs = np.arange(1, len(nodes) // 2 + 1)
    damping = np.exp(-0.5 * (freqs * noise.chi_jitter_sigma) ** 2)
    chi = nominal_chi + noise.chi_offset
    weights = (1 + 2 * damping @ np.cos(np.outer(freqs, nodes - chi))) / len(nodes)
    probs = np.clip(readout_matrix(noise, n) @ (weights @ diagonals), 0.0, None)
    return probs / probs.sum()


def sample_outcomes(
    gates: tuple[Gate, ...],
    n: int,
    nominal_chi: float,
    noise: NoiseModel,
    shots: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Outcome counts (length 2**n) of `shots` independent noisy runs: every
    noise source acts on each shot alone, so the counts are exactly
    Multinomial(shots, outcome_law)."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    if rng is None:
        rng = np.random.default_rng(noise.seed)
    return rng.multinomial(shots, outcome_law(gates, n, nominal_chi, noise))


def split_counts(counts: np.ndarray, p, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Assign each shot to the B1 pool with probability p, else B2, and
    return the two pools' counts. `counts` is one 32-entry count array or a
    (..., 32) stack, p one probability or an array that broadcasts against
    it; per entry the B1 share is Binomial(count, p), the law of one coin
    per shot, drawn in C order of the broadcast shape from `rng`, so its
    rows draw one after another from the same stream."""
    bad = ~((np.ravel(p) >= 0.0) & (np.ravel(p) <= 1.0))  # NaN fails both
    if bad.any():
        raise ValueError(f"p={np.ravel(p)[np.argmax(bad)]} outside [0, 1]")
    counts = np.asarray(counts)
    to_b1 = rng.binomial(counts, p)
    return to_b1, counts - to_b1


_CALIBRATION_GATES = (Gate("J", (0, 1)),)


def measure_chi(
    noise: NoiseModel, nominal_chi: float, shots: int, rng: np.random.Generator | None = None
) -> ChiEstimate:
    """Emulate a calibration run: prepare |00>, entangle, measure, and read
    the angle back from the |11> population."""
    counts = sample_outcomes(_CALIBRATION_GATES, 2, nominal_chi, noise, shots, rng)
    return estimate_chi_from_counts(int(counts[3]), shots)

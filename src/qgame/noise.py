"""Experiment emulation: finite shots, gate depolarization, angle
miscalibration, readout confusion, SPAM correction, stochastic type
assignment.

Every noise source acts on each shot independently, so a run's outcome
counts are exactly Multinomial(shots, E[p]), where E[p] is the
noise-averaged outcome distribution. `outcome_law` computes E[p] exactly:
it evolves the density matrix through the gates with each gate's
depolarizing channel, averages the Gaussian spread of the entangling angle
in closed form over a few quadrature nodes whose density matrices evolve
together as one stack, and applies the readout confusion matrix, the same
matrix that SPAM correction inverts. A confusion matrix computes its
condition number and inverse once, so correcting a pool is one
matrix-vector product, and a stack of pools is corrected in one call.
Sampling then draws counts, never per-shot
outcomes, and the type split draws a binomial per outcome count.

Reproducibility contract: one master seed; every consumer derives an
independent child stream keyed by integers (grid point, circuit variant,
purpose) so that evaluation order and grid subsetting cannot change any
cell's random numbers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from qgame.game import array_eq
from qgame.parallel import N_OUTCOMES, N_QUBITS, ParallelCircuit
from qgame.statevector import Gate, apply_matrix, gate_matrix

# purpose tags for child stream derivation
PURPOSE_SAMPLE = 0
PURPOSE_SPLIT = 1
PURPOSE_CALIBRATION = 2

_COND_LIMIT = 1e8
_NEGATIVE_FLOOR = 1e-3  # fraction of total population


class SpamCorrectionError(ValueError):
    """Confusion matrix unusable or corrected populations meaningfully negative."""


def child_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic child stream for (master seed, integer key path)."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(key)))


def config_number(name: str, value) -> float:
    """A config number as a float: a finite real, not a bool or a string."""
    # bool is an int subclass; a JSON true must not count as 1
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}: expected a number, got {value!r}")
    # json.load reads NaN and Infinity, which slip past every order check
    if not math.isfinite(value):
        raise ValueError(f"{name}: expected a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class NoiseModel:
    single_qubit_depol: float = 0.0
    two_qubit_depol: float = 0.0
    readout_flip_0to1: float = 0.0
    readout_flip_1to0: float = 0.0
    crosstalk: float = 0.0
    chi_offset: float = 0.0
    chi_jitter_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name != "seed":
                object.__setattr__(self, f.name, config_number(f.name, getattr(self, f.name)))
        for name in ("single_qubit_depol", "two_qubit_depol", "readout_flip_0to1", "readout_flip_1to0", "crosstalk"):
            value = getattr(self, name)
            if not 0.0 <= value <= 0.5:
                raise ValueError(f"{name}={value} outside [0, 0.5]")
        if self.chi_jitter_sigma < 0:
            raise ValueError("chi_jitter_sigma must be >= 0")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")

    @classmethod
    def default_profile(cls, seed: int = 0) -> "NoiseModel":
        """Hardware-like emulation defaults: 0.5% / 1.5% depolarization per
        one-/two-qubit gate, 0.6% symmetric readout flips, and a small
        systematic offset plus shot-to-shot spread of the entangling angle.
        """
        return cls(
            single_qubit_depol=0.005,
            two_qubit_depol=0.015,
            readout_flip_0to1=0.006,
            readout_flip_1to0=0.006,
            chi_offset=0.002 * np.pi,
            chi_jitter_sigma=0.004 * np.pi,
            seed=seed,
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseModel":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown noise fields: {sorted(extra)}")
        return cls(**data)


@dataclass(frozen=True)
class PopulationVector:
    """Counts (or frequencies) over the 32 five-qubit outcomes."""

    counts: np.ndarray

    __eq__ = array_eq

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=float).copy()
        if counts.shape != (N_OUTCOMES,):
            raise ValueError(f"expected {N_OUTCOMES} entries, got {counts.shape}")
        if not np.isfinite(counts).all() or (counts < 0).any():
            raise ValueError("counts must be finite and nonnegative")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> float:
        return float(self.counts.sum())


def _per_qubit_confusion(p01: float, p10: float) -> np.ndarray:
    # column j = true bit j, rows = observed bit
    return np.array([[1 - p01, p10], [p01, 1 - p10]])


def _crosstalk_map(gamma: float, n_qubits: int) -> np.ndarray:
    """Symmetric nearest-channel bleed: a bright channel lights up a dark
    neighbor with probability gamma, applied per ordered adjacent pair."""
    size = 2**n_qubits
    total = np.eye(size)
    for src in range(n_qubits - 1):
        for a, b in ((src, src + 1), (src + 1, src)):
            step = np.zeros((size, size))
            bit_a = 1 << (n_qubits - 1 - a)
            bit_b = 1 << (n_qubits - 1 - b)
            for s in range(size):
                if (s & bit_a) and not (s & bit_b):
                    step[s, s] = 1 - gamma
                    step[s | bit_b, s] = gamma
                else:
                    step[s, s] = 1.0
            total = step @ total
    return total


@dataclass(frozen=True)
class ConfusionMatrix:
    """Column-stochastic map from true to observed outcome probabilities.

    The matrix is immutable, so its condition number and inverse are
    computed once, on first use, and kept on the instance.
    """

    matrix: np.ndarray

    __eq__ = array_eq

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float).copy()
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("confusion matrix must be square")
        if (matrix < -1e-12).any():
            raise ValueError("confusion entries must be nonnegative")
        sums = matrix.sum(axis=0)
        if np.abs(sums - 1.0).max() > 1e-9:
            raise ValueError("confusion matrix columns must sum to 1")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    @lru_cache(maxsize=8)
    def from_flips(
        cls, p01: float, p10: float, n_qubits: int = N_QUBITS, crosstalk: float = 0.0
    ) -> "ConfusionMatrix":
        """One shared instance per parameter set, so every caller reuses its
        factorization."""
        single = _per_qubit_confusion(p01, p10)
        full = np.array([[1.0]])
        for _ in range(n_qubits):
            full = np.kron(full, single)
        if crosstalk > 0:
            full = _crosstalk_map(crosstalk, n_qubits) @ full
        return cls(full)

    @classmethod
    def from_noise(cls, noise: NoiseModel, n_qubits: int = N_QUBITS) -> "ConfusionMatrix":
        return cls.from_flips(noise.readout_flip_0to1, noise.readout_flip_1to0, n_qubits, noise.crosstalk)

    def apply(self, probs: np.ndarray) -> np.ndarray:
        return self.matrix @ probs

    @cached_property
    def condition(self) -> float:
        return float(np.linalg.cond(self.matrix))

    @cached_property
    def inverse(self) -> np.ndarray:
        inverse = np.linalg.inv(self.matrix)
        inverse.flags.writeable = False
        return inverse


def spam_correct_stack(
    counts: np.ndarray, confusion: ConfusionMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert the confusion map on every row of a (..., 32) stack of counts.

    Small negative results (within 0.1% of the row's total) are clipped and
    the row rescaled to its total; anything worse means the confusion model
    does not match the data. Returns the corrected stack, the mask of rows
    that fail, whose corrected values mean nothing, and each row's most
    negative corrected value. An unusable matrix raises for the whole stack.
    """
    if confusion.matrix.shape[0] != N_OUTCOMES:
        raise ValueError("confusion matrix size does not match population vector")
    cond = confusion.condition
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SpamCorrectionError(f"confusion matrix ill-conditioned (cond={cond:.3g})")
    counts = np.ascontiguousarray(counts, dtype=float)
    # one matrix-vector product per row, so a row's result does not depend on the stack
    corrected = (confusion.inverse @ counts[..., None])[..., 0]
    total = counts.sum(axis=-1)
    worst = corrected.min(axis=-1)
    clipped = np.clip(corrected, 0.0, None)
    scale = clipped.sum(axis=-1)
    failed = (worst < -_NEGATIVE_FLOOR * total) | (scale <= 0)
    return clipped * (total / np.where(failed, 1.0, scale))[..., None], failed, worst


def spam_correct(populations: PopulationVector, confusion: ConfusionMatrix) -> PopulationVector:
    """One population's case of `spam_correct_stack`; a failed row raises."""
    corrected, failed, worst = spam_correct_stack(populations.counts, confusion)
    if failed:
        if worst < 0:  # else every entry was 0 and clipping left nothing
            raise SpamCorrectionError(
                f"corrected population {worst:.4g} below -{_NEGATIVE_FLOOR} of total {populations.total:.4g}"
            )
        raise SpamCorrectionError("correction wiped out all population")
    return PopulationVector(corrected)


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


def _noisy_diagonals(gates: tuple[Gate, ...], n: int, chis: np.ndarray, noise: NoiseModel) -> np.ndarray:
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
        prob = noise.two_qubit_depol if k == 2 else noise.single_qubit_depol
        weight = prob * 4**k / (4**k - 1)
        rho = (1 - weight) * rho + weight * _twirl(rho, gate.targets, n)
    return rho.reshape(len(chis), 2**n, 2**n).diagonal(axis1=1, axis2=2).real


def outcome_law(gates: tuple[Gate, ...], n: int, nominal_chi: float, noise: NoiseModel) -> np.ndarray:
    """Exact per-shot outcome distribution (length 2**n) under `noise`.

    Every J and J-dagger of a shot uses the same angle, nominal + offset +
    N(0, sigma^2), and each adds 2 to the degree of the outcome
    probabilities as a trig polynomial in it (degree 4 for the parallelized
    circuits). Sampling them at 2 * degree + 1 equally spaced offsets and
    damping frequency k by exp(-k^2 sigma^2 / 2) gives the Gaussian average
    exactly; the weights below fold that into one quadrature rule. The
    circuit runs once, at all nodes together.
    """
    degree = 2 * sum(gate.name in ("J", "JDAG") for gate in gates)
    nodes = 2 * np.pi * np.arange(2 * degree + 1) / (2 * degree + 1)
    freqs = np.arange(1, degree + 1)
    damping = np.exp(-0.5 * (freqs * noise.chi_jitter_sigma) ** 2)
    weights = (1 + 2 * damping @ np.cos(np.outer(freqs, nodes))) / len(nodes)
    chi = nominal_chi + noise.chi_offset
    probs = weights @ _noisy_diagonals(gates, n, chi + nodes, noise)
    probs = np.clip(ConfusionMatrix.from_noise(noise, n).apply(probs), 0.0, None)
    return probs / probs.sum()


def sample_gate_outcomes(
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


def sample_outcomes(
    circuit: ParallelCircuit, noise: NoiseModel, shots: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """32-entry outcome counts of one parallelized circuit."""
    return sample_gate_outcomes(circuit.gate_sequence, N_QUBITS, circuit.chi, noise, shots, rng)


def bayesian_split(
    counts: np.ndarray, p: float, rng: np.random.Generator
) -> tuple[PopulationVector, PopulationVector]:
    """Assign each shot to the B1 pool with probability p, else B2. Per
    outcome the B1 share is Binomial(count, p), the law of one coin per shot."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    counts = np.asarray(counts)
    to_b1 = rng.binomial(counts, p)
    return PopulationVector(to_b1), PopulationVector(counts - to_b1)


_CALIBRATION_GATES = (Gate("J", (0, 1)),)


def measure_chi(
    noise: NoiseModel, nominal_chi: float, shots: int, rng: np.random.Generator | None = None
) -> ChiEstimate:
    """Emulate a calibration run: prepare |00>, entangle, measure, and read
    the angle back from the |11> population."""
    counts = sample_gate_outcomes(_CALIBRATION_GATES, 2, nominal_chi, noise, shots, rng)
    return estimate_chi_from_counts(int(counts[3]), shots)

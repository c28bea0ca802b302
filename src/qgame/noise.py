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
the readout confusion matrix, the same matrix that SPAM correction inverts.
A confusion matrix computes its condition number and inverse once, so
correcting a pool is one matrix-vector product, and a stack of pools is
corrected in one call. Sampling then draws counts, never per-shot
outcomes, and the type split draws a binomial per outcome count. A
population is a plain 32-entry count array, and each single-row function
is the one-row case of its stacked form.

Reproducibility contract: one master seed; every consumer derives an
independent child stream keyed by integers (grid point, circuit variant,
purpose) so that evaluation order and grid subsetting cannot change any
cell's random numbers. The stream of key `key` is bit-identical to
`np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))`.
`child_rngs` derives a (K, m) batch of keys at once: numpy's SeedSequence
hash constants follow the same sequence for every key of one length, so
the pool mixing and `generate_state` run as array arithmetic over all K
keys, and each PCG64 is seeded from its precomputed words through the
`ISeedSequence` interface. Every key entry must lie in [0, 2**32), one
32-bit word, and the master seed in [0, 2**64). `child_rng` is the one-row
case.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


class _Hash:
    """SeedSequence's multiplicative hash, its constant advancing per call.
    The words are Python ints or uint64 arrays holding 32-bit values; every
    product of two such values fits in 64 bits, and the mask keeps its low 32."""

    def __init__(self, init: int, mult: int) -> None:
        self.const, self.mult = init, mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = self.const * self.mult & _MASK32
        value = value * self.const & _MASK32
        return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _seed_states(master_seed: int, keys: np.ndarray) -> np.ndarray:
    """PCG64 seed words, one (4,) uint64 row per key row: numpy's
    `SeedSequence(master_seed, spawn_key=row).generate_state(4, np.uint64)`.

    The master seed's two 32-bit words, padded with zeros to the pool size,
    come before every key, so they fill and mix the pool the same way for
    all keys, in Python ints. The hash constants follow one sequence for
    every key of the same length, so each key word is mixed in with uint64
    arithmetic over all rows at once.
    """
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in (master_seed & _MASK32, master_seed >> 32, 0, 0)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    pool = [np.full(len(keys), word, dtype=np.uint64) for word in pool]
    for column in keys.T.astype(np.uint64):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(column))
    # generate_state(4, uint64): eight 32-bit words, cycling the pool, paired little-endian
    output = _Hash(_INIT_B, _MULT_B)
    words = [output(pool[i % _POOL_SIZE]) for i in range(8)]
    return np.stack([words[2 * j] | words[2 * j + 1] << 32 for j in range(4)], axis=1)


@lru_cache(maxsize=1)
def _state_words() -> type:
    """The seed sequence class that hands PCG64 its precomputed state words,
    built on first use: numpy imports numpy.random lazily, and a run that
    draws nothing (analytic mode) should not load it."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("precomputed words serve PCG64's generate_state(4, np.uint64) only")
            return self.words

    return StateWords


def child_rngs(master_seed: int, keys) -> list[np.random.Generator]:
    """One child stream per row of a (K, m) array of integer keys, each
    bit-identical to `np.random.default_rng(np.random.SeedSequence(
    master_seed, spawn_key=row))`. The seed must lie in [0, 2**64) and every
    key entry in [0, 2**32), one 32-bit word each. The bit generators hold
    their seed words, not a SeedSequence, so they cannot `spawn`."""
    if isinstance(master_seed, bool) or not isinstance(master_seed, numbers.Integral):
        raise ValueError(f"master seed must be an int, got {master_seed!r}")
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master seed {master_seed} outside [0, 2**64)")
    array = np.asarray(keys)
    if array.ndim != 2:
        raise ValueError(f"keys must be a (K, m) array, got shape {array.shape}")
    if not isinstance(keys, np.ndarray):
        # numpy reads a bool among a list's ints as 0 or 1
        for value in itertools.chain.from_iterable(keys):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"key entries must be ints, got {value!r}")
    if array.size:
        if array.dtype.kind not in "iu":
            raise ValueError(f"key entries must be ints in [0, 2**32), got dtype {array.dtype}")
        if array.min() < 0 or array.max() >= 2**32:
            raise ValueError("key entries outside [0, 2**32)")
    states, state_words = _seed_states(int(master_seed), array), _state_words()
    return [np.random.Generator(np.random.PCG64(state_words(words))) for words in states]


def child_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic child stream for (master seed, integer key path): the
    one-row case of `child_rngs`."""
    return child_rngs(master_seed, [key])[0]


def config_number(name: str, value) -> float:
    """A config number as a float: a finite real, not a bool or a string."""
    # bool is an int subclass (a JSON true must not count as 1); a float or int skips the slow ABC check
    if type(value) not in (float, int) and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
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

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

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


def spam_correct(counts: np.ndarray, confusion: ConfusionMatrix) -> np.ndarray:
    """One 32-entry count array's case of `spam_correct_stack`; a failed row raises."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (N_OUTCOMES,):
        raise ValueError(f"expected {N_OUTCOMES} entries, got {counts.shape}")
    if not np.isfinite(counts).all() or (counts < 0).any():
        raise ValueError("counts must be finite and nonnegative")
    corrected, failed, worst = spam_correct_stack(counts, confusion)
    if failed:
        if worst < 0:  # else every entry was 0 and clipping left nothing
            raise SpamCorrectionError(
                f"corrected population {worst:.4g} below -{_NEGATIVE_FLOOR} of total {counts.sum():.4g}"
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
    The readout matrix then acts on the average.
    """
    nodes, diagonals = _node_diagonals(gates, n, noise.single_qubit_depol, noise.two_qubit_depol)
    freqs = np.arange(1, len(nodes) // 2 + 1)
    damping = np.exp(-0.5 * (freqs * noise.chi_jitter_sigma) ** 2)
    chi = nominal_chi + noise.chi_offset
    weights = (1 + 2 * damping @ np.cos(np.outer(freqs, nodes - chi))) / len(nodes)
    probs = np.clip(ConfusionMatrix.from_noise(noise, n).apply(weights @ diagonals), 0.0, None)
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


def split_counts(counts: np.ndarray, p: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Assign each shot to the B1 pool with probability p, else B2, and
    return the two pools' counts. `counts` is one 32-entry count array or a
    (..., 32) stack; per entry the B1 share is Binomial(count, p), the law
    of one coin per shot, drawn in C order from `rng`, so a stack's rows
    draw one after another from the same stream."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    counts = np.asarray(counts)
    to_b1 = rng.binomial(counts, p)
    return to_b1, counts - to_b1


_CALIBRATION_GATES = (Gate("J", (0, 1)),)


def measure_chi(
    noise: NoiseModel, nominal_chi: float, shots: int, rng: np.random.Generator | None = None
) -> ChiEstimate:
    """Emulate a calibration run: prepare |00>, entangle, measure, and read
    the angle back from the |11> population."""
    counts = sample_gate_outcomes(_CALIBRATION_GATES, 2, nominal_chi, noise, shots, rng)
    return estimate_chi_from_counts(int(counts[3]), shots)

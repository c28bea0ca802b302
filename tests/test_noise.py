"""Shot sampling, noise channels, SPAM correction, and the type split."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qgame.noise import (
    ChiEstimate,
    ConfusionMatrix,
    NoiseModel,
    PopulationVector,
    SpamCorrectionError,
    bayesian_split,
    child_rng,
    estimate_chi_from_counts,
    measure_chi,
    outcome_law,
    sample_gate_outcomes,
    sample_outcomes,
    spam_correct,
)
from qgame.parallel import N_QUBITS, Variant, build_circuit
from qgame.statevector import Gate

from oracles import CALIBRATION_GATES, parallel_gates, trajectory_counts

ZERO = NoiseModel()
HEAVY = replace(
    NoiseModel.default_profile(),
    single_qubit_depol=0.05,
    two_qubit_depol=0.10,
    readout_flip_0to1=0.03,
    readout_flip_1to0=0.05,
    chi_jitter_sigma=0.2,
)
CALIBRATION = (Gate("J", (0, 1)),)  # the angle-calibration circuit


def zero_noise_law(circuit):
    return outcome_law(circuit.gate_sequence, N_QUBITS, circuit.chi, ZERO)


def binomial_bound(prob: float, shots: int, n_sigma: float = 5.0) -> float:
    return n_sigma * np.sqrt(max(prob * (1 - prob), 1e-12) / shots)


class TestSampling:
    def test_zero_noise_frequencies_match_exact_distribution(self):
        circuit = build_circuit(Variant.I_CIRCUIT, np.pi / 8)
        exact = zero_noise_law(circuit)
        shots = 50_000
        counts = sample_outcomes(circuit, ZERO, shots, np.random.default_rng(11))
        assert counts.sum() == shots
        for idx in range(32):
            assert abs(counts[idx] / shots - exact[idx]) < binomial_bound(exact[idx], shots)

    def test_depolarization_rate_on_single_gate(self):
        # X then depol(p): error branch applies uniform X/Y/Z, two of which
        # return the qubit to |0>, so P(0) = 2p/3
        gates = (Gate("X", (0,)),)
        noise = NoiseModel(single_qubit_depol=0.3)
        shots = 60_000
        counts = sample_gate_outcomes(gates, 1, 0.0, noise, shots, np.random.default_rng(3))
        assert counts.sum() == shots
        assert abs(counts[0] / shots - 0.2) < binomial_bound(0.2, shots)

    def test_readout_flip_rate_in_trajectory_path(self):
        gates: tuple = ()
        noise = NoiseModel(readout_flip_0to1=0.25)
        shots = 40_000
        counts = sample_gate_outcomes(gates, 1, 0.0, noise, shots, np.random.default_rng(5))
        assert abs(counts[1] / shots - 0.25) < binomial_bound(0.25, shots)

    def test_same_seed_reproduces_outcomes(self):
        circuit = build_circuit(Variant.I_CIRCUIT, 0.2)
        noise = NoiseModel.default_profile(seed=99)
        first = sample_outcomes(circuit, noise, 4_000)
        second = sample_outcomes(circuit, noise, 4_000)
        assert np.array_equal(first, second)

    def test_child_streams_are_keyed_not_ordered(self):
        a = child_rng(42, 1, 2, 3).integers(0, 2**31, 5)
        b = child_rng(42, 1, 2, 3).integers(0, 2**31, 5)
        c = child_rng(42, 1, 2, 4).integers(0, 2**31, 5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_shots_must_be_positive(self):
        circuit = build_circuit(Variant.I_CIRCUIT, 0.1)
        with pytest.raises(ValueError):
            sample_outcomes(circuit, ZERO, 0)


def chi2_sf(stat: float, dof: int) -> float:
    """Upper tail of the chi-squared law, from the series of the lower
    regularized incomplete gamma function."""
    a, x = dof / 2, stat / 2
    term = total = 1.0 / a
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= x / (a + n)
        total += term
    return 1.0 - total * math.exp(a * math.log(x) - x - math.lgamma(a))


REFERENCE_SHOTS = 200_000


class TestOutcomeLaw:
    @pytest.mark.parametrize("profile", ["default", "heavy"])
    @pytest.mark.parametrize("circuit", ["I", "X", "calibration"])
    def test_matches_per_shot_trajectories(self, profile, circuit):
        noise = NoiseModel.default_profile() if profile == "default" else HEAVY
        chi = 0.15 * np.pi
        if circuit == "calibration":
            gates, reference_gates, n = CALIBRATION, CALIBRATION_GATES, 2
        else:
            gates, reference_gates, n = build_circuit(Variant(circuit), chi).gate_sequence, parallel_gates(circuit), 5
        observed = trajectory_counts(
            reference_gates,
            n,
            chi + noise.chi_offset,
            REFERENCE_SHOTS,
            seed=2024,
            sigma=noise.chi_jitter_sigma,
            depol_1q=noise.single_qubit_depol,
            depol_2q=noise.two_qubit_depol,
            flip_01=noise.readout_flip_0to1,
            flip_10=noise.readout_flip_1to0,
        )
        expected = outcome_law(gates, n, chi, noise) * REFERENCE_SHOTS
        # outcomes expected fewer than 5 times are pooled into one bin
        small = expected < 5
        if small.any():
            observed = np.append(observed[~small], observed[small].sum())
            expected = np.append(expected[~small], expected[small].sum())
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert chi2_sf(stat, len(expected) - 1) > 1e-3

    @pytest.mark.parametrize("n", [5, 2])
    def test_jitter_average_is_exact(self, n):
        # dense Gauss-Hermite quadrature over the angle spread, each node a
        # jitter-free law at the shifted angle
        chi = 0.15 * np.pi
        gates = build_circuit(Variant.X_CIRCUIT, chi).gate_sequence if n == 5 else CALIBRATION
        nodes, weights = np.polynomial.hermite_e.hermegauss(40)
        weights /= weights.sum()
        fixed = replace(HEAVY, chi_jitter_sigma=0.0)
        quadrature = sum(
            w * outcome_law(gates, n, chi + HEAVY.chi_jitter_sigma * x, fixed) for x, w in zip(nodes, weights)
        )
        assert np.abs(outcome_law(gates, n, chi, HEAVY) - quadrature).max() < 1e-12


class TestNoiseModel:
    def test_probability_fields_bounded(self):
        with pytest.raises(ValueError, match="two_qubit_depol"):
            NoiseModel(two_qubit_depol=0.6)
        with pytest.raises(ValueError):
            NoiseModel(readout_flip_1to0=-0.01)
        with pytest.raises(ValueError):
            NoiseModel(chi_jitter_sigma=-1e-3)
        with pytest.raises(ValueError, match="crosstalk"):
            NoiseModel(crosstalk=0.6)

    def test_dict_round_trip(self):
        noise = NoiseModel.default_profile(seed=17)
        assert NoiseModel.from_dict(noise.to_dict()) == noise

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            NoiseModel.from_dict({"dephasing": 0.1})


class TestConfusion:
    def test_classical_outcome_retention(self):
        # survival of a definite 5-bit outcome under independent 1% flips
        conf = ConfusionMatrix.from_flips(0.01, 0.01)
        for outcome in (0, 9, 31):
            assert conf.matrix[outcome, outcome] == pytest.approx(0.99**5, abs=1e-15)

    def test_columns_stochastic_with_crosstalk(self):
        conf = ConfusionMatrix.from_flips(0.02, 0.01, crosstalk=0.03)
        sums = conf.matrix.sum(axis=0)
        assert np.abs(sums - 1.0).max() < 1e-12
        assert (conf.matrix >= 0).all()

    def test_crosstalk_moves_population_to_neighbor(self):
        conf = ConfusionMatrix.from_noise(NoiseModel(crosstalk=0.1))
        # outcome 10000: qubit 0 bright, qubit 1 dark -> bleeds toward 11000
        src = 0b10000
        assert conf.matrix[0b11000, src] > 0.09
        assert conf.matrix[src, src] < 1.0

    def test_rejects_non_stochastic(self):
        bad = np.eye(32)
        bad[0, 0] = 0.9
        with pytest.raises(ValueError, match="sum to 1"):
            ConfusionMatrix(bad)


class TestSpamCorrection:
    def test_round_trip_recovers_true_populations(self):
        circuit = build_circuit(Variant.X_CIRCUIT, np.pi / 8)
        truth = zero_noise_law(circuit) * 30_000
        conf = ConfusionMatrix.from_flips(0.006, 0.006)
        smeared = PopulationVector(conf.apply(truth))
        corrected = spam_correct(smeared, conf)
        assert np.abs(corrected.counts - truth).max() < 1e-9
        assert corrected.total == pytest.approx(30_000)

    def test_identity_confusion_is_noop(self):
        pops = PopulationVector(np.full(32, 10.0))
        corrected = spam_correct(pops, ConfusionMatrix(np.eye(32)))
        assert np.allclose(corrected.counts, pops.counts)

    def test_correction_improves_sampled_estimate(self):
        circuit = build_circuit(Variant.I_CIRCUIT, np.pi / 8)
        exact = zero_noise_law(circuit)
        noise = NoiseModel(readout_flip_0to1=0.01, readout_flip_1to0=0.012)
        shots = 200_000
        raw = PopulationVector(sample_outcomes(circuit, noise, shots, np.random.default_rng(21)))
        conf = ConfusionMatrix.from_noise(noise)
        corrected = spam_correct(raw, conf)
        err_raw = np.abs(raw.counts / raw.total - exact).sum()
        err_corrected = np.abs(corrected.counts / corrected.total - exact).sum()
        assert err_corrected < err_raw

    def test_inconsistent_populations_raise(self):
        # a pure observed outcome is impossible under nonzero flips, and the
        # inversion goes strongly negative on neighboring channels
        counts = np.zeros(32)
        counts[0] = 1_000.0
        conf = ConfusionMatrix.from_flips(0.006, 0.006)
        with pytest.raises(SpamCorrectionError, match="below"):
            spam_correct(PopulationVector(counts), conf)

    def test_matches_linear_solve_on_random_pools(self):
        # the cached inverse stands in for a solve per call
        rng = np.random.default_rng(17)
        conf = ConfusionMatrix.from_flips(0.03, 0.05, crosstalk=0.02)
        for _ in range(20):
            truth = rng.dirichlet(np.ones(32)) * rng.integers(100, 100_000)
            pops = PopulationVector(conf.apply(truth))
            want = np.linalg.solve(conf.matrix, pops.counts)
            got = spam_correct(pops, conf).counts
            assert np.abs(got - want).max() <= 1e-12 * pops.total
        # and the negative floor rejects exactly what the solve rejects
        counts = np.zeros(32)
        counts[0] = 1_000.0
        worst = np.linalg.solve(conf.matrix, counts).min()
        message = f"corrected population {worst:.4g} below -0.001 of total {1000.0:.4g}"
        with pytest.raises(SpamCorrectionError) as caught:
            spam_correct(PopulationVector(counts), conf)
        assert str(caught.value) == message

    def test_singular_confusion_rejected(self):
        conf = ConfusionMatrix.from_flips(0.5, 0.5)
        pops = PopulationVector(np.full(32, 1.0))
        with pytest.raises(SpamCorrectionError, match="ill-conditioned"):
            spam_correct(pops, conf)

    def test_small_negatives_clipped_and_total_preserved(self):
        conf = ConfusionMatrix.from_flips(0.006, 0.006)
        truth = np.zeros(32)
        truth[3] = 995.0
        truth[7] = 5.0
        smeared = conf.apply(truth)
        # nudge one channel just below its consistent value
        smeared[1] = max(smeared[1] - 0.4, 0.0)
        corrected = spam_correct(PopulationVector(smeared), conf)
        assert (corrected.counts >= 0).all()
        assert corrected.total == pytest.approx(smeared.sum())


class TestBayesianSplit:
    def test_split_sizes_are_binomial(self):
        counts = np.zeros(32, dtype=np.int64)
        counts[0] = 100_000
        pool_b1, pool_b2 = bayesian_split(counts, 0.3, np.random.default_rng(12))
        assert pool_b1.total + pool_b2.total == 100_000
        assert abs(pool_b1.total / 100_000 - 0.3) < binomial_bound(0.3, 100_000)

    def test_degenerate_probabilities(self):
        counts = np.ones(32, dtype=np.int64)
        all_b1, none_b1 = bayesian_split(counts, 1.0, np.random.default_rng(0))
        assert all_b1.total == 32 and none_b1.total == 0
        none_b2, all_b2 = bayesian_split(counts, 0.0, np.random.default_rng(0))
        assert none_b2.total == 0 and all_b2.total == 32

    def test_split_preserves_counts_per_outcome(self):
        counts = np.random.default_rng(8).multinomial(5_000, np.full(32, 1 / 32))
        pool_b1, pool_b2 = bayesian_split(counts, 0.4, np.random.default_rng(4))
        combined = pool_b1.counts + pool_b2.counts
        assert np.array_equal(combined, counts.astype(float))

    def test_split_is_independent_of_outcome_value(self):
        # each pool's frequencies estimate the same underlying distribution
        circuit = build_circuit(Variant.I_CIRCUIT, 0.1 * np.pi)
        counts = sample_outcomes(circuit, ZERO, 120_000, np.random.default_rng(31))
        pool_b1, _ = bayesian_split(counts, 0.5, np.random.default_rng(9))
        full = counts / counts.sum()
        diff = np.abs(pool_b1.counts / pool_b1.total - full)
        assert diff.max() < 5.0 * np.sqrt(0.25 / pool_b1.total)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            bayesian_split(np.zeros(32, dtype=int), 1.2, np.random.default_rng(0))


class TestChiMeasurement:
    def test_exact_inversion_on_noiseless_counts(self):
        chi = 0.125 * np.pi
        shots = 640_000
        est = estimate_chi_from_counts(shots * np.sin(chi) ** 2, shots)
        assert est.value == pytest.approx(chi, abs=1e-12)
        assert est.sigma == pytest.approx(1 / (2 * np.sqrt(shots)))

    def test_rule_of_three_at_zero_counts(self):
        est = estimate_chi_from_counts(0, 1_000)
        assert est.value == 0.0
        assert est.sigma == pytest.approx(np.arcsin(np.sqrt(3 / 1_000)))

    def test_offset_shifts_measured_angle(self):
        noise = NoiseModel(chi_offset=0.002 * np.pi)
        shots = 400_000
        est = measure_chi(noise, 0.025 * np.pi, shots, np.random.default_rng(13))
        assert isinstance(est, ChiEstimate)
        assert abs(est.value - 0.027 * np.pi) < 5 * est.sigma

    def test_measurement_tracks_nominal_angle_without_noise(self):
        shots = 300_000
        for chi in (0.05 * np.pi, 0.2 * np.pi):
            est = measure_chi(ZERO, chi, shots, np.random.default_rng(2))
            assert abs(est.value - chi) < 5 * est.sigma

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            estimate_chi_from_counts(-1, 100)
        with pytest.raises(ValueError):
            estimate_chi_from_counts(101, 100)
        with pytest.raises(ValueError):
            estimate_chi_from_counts(5, 0)


class TestPopulationVector:
    def test_shape_and_sign_validation(self):
        with pytest.raises(ValueError):
            PopulationVector(np.zeros(16))
        bad = np.zeros(32)
        bad[2] = -1.0
        with pytest.raises(ValueError):
            PopulationVector(bad)

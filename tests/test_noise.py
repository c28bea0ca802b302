"""Shot sampling, noise channels, SPAM correction, and the type split."""

import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame.noise import (
    ChiEstimate,
    ConfusionMatrix,
    PURPOSE_CALIBRATION,
    NoiseModel,
    SpamCorrectionError,
    child_rng,
    estimate_chi_from_counts,
    measure_chi,
    outcome_law,
    sample_outcomes,
    spam_correct,
    spam_correct_stack,
    split_counts,
    _crosstalk_map,
)
from qgame.parallel import N_QUBITS, Variant, build_circuit
from qgame.statevector import Gate

from oracles import (
    CALIBRATION_GATES,
    crosstalk_map_dense,
    parallel_gates,
    reference_child_rng,
    reference_outcome_law,
    trajectory_counts,
)

ZERO = NoiseModel()
HEAVY = replace(
    NoiseModel.default_profile(),
    single_qubit_depol=0.05,
    two_qubit_depol=0.10,
    readout_flip_0to1=0.03,
    readout_flip_1to0=0.05,
    chi_jitter_sigma=0.2,
)
CROSSTALK_HEAVY = replace(HEAVY, crosstalk=0.03, chi_offset=0.05)
NOISE_IDS = ["zero", "default", "crosstalk-heavy"]
CALIBRATION = (Gate("J", (0, 1)),)  # the angle-calibration circuit


def zero_noise_law(variant, chi):
    return outcome_law(build_circuit(variant, chi), N_QUBITS, chi, ZERO)


def binomial_bound(prob: float, shots: int, n_sigma: float = 5.0) -> float:
    return n_sigma * np.sqrt(max(prob * (1 - prob), 1e-12) / shots)


class TestSampling:
    def test_zero_noise_frequencies_match_exact_distribution(self):
        gates, chi = build_circuit(Variant.I_CIRCUIT, np.pi / 8), np.pi / 8
        exact = zero_noise_law(Variant.I_CIRCUIT, chi)
        shots = 50_000
        counts = sample_outcomes(gates, N_QUBITS, chi, ZERO, shots, np.random.default_rng(11))
        assert counts.sum() == shots
        for idx in range(32):
            assert abs(counts[idx] / shots - exact[idx]) < binomial_bound(exact[idx], shots)

    def test_depolarization_rate_on_single_gate(self):
        # X then depol(p): error branch applies uniform X/Y/Z, two of which
        # return the qubit to |0>, so P(0) = 2p/3
        gates = (Gate("X", (0,)),)
        noise = NoiseModel(single_qubit_depol=0.3)
        shots = 60_000
        counts = sample_outcomes(gates, 1, 0.0, noise, shots, np.random.default_rng(3))
        assert counts.sum() == shots
        assert abs(counts[0] / shots - 0.2) < binomial_bound(0.2, shots)

    def test_readout_flip_rate_in_trajectory_path(self):
        gates: tuple = ()
        noise = NoiseModel(readout_flip_0to1=0.25)
        shots = 40_000
        counts = sample_outcomes(gates, 1, 0.0, noise, shots, np.random.default_rng(5))
        assert abs(counts[1] / shots - 0.25) < binomial_bound(0.25, shots)

    def test_same_seed_reproduces_outcomes(self):
        gates = build_circuit(Variant.I_CIRCUIT, 0.2)
        noise = NoiseModel.default_profile(seed=99)
        first = sample_outcomes(gates, N_QUBITS, 0.2, noise, 4_000)
        second = sample_outcomes(gates, N_QUBITS, 0.2, noise, 4_000)
        assert np.array_equal(first, second)

    def test_child_streams_are_keyed_not_ordered(self):
        a = child_rng(42, 1, 2, 3).integers(0, 2**31, 5)
        b = child_rng(42, 1, 2, 3).integers(0, 2**31, 5)
        c = child_rng(42, 1, 2, 4).integers(0, 2**31, 5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("circuit", ["I", "X", "calibration"])
    def test_counts_are_one_multinomial_draw_of_the_outcome_law(self, circuit):
        # the sweep's sample streams rest on this draw order
        noise, chi, shots = NoiseModel.default_profile(seed=5), 0.15 * np.pi, 30_000
        gates, n = (CALIBRATION, 2) if circuit == "calibration" else (build_circuit(Variant(circuit), chi), N_QUBITS)
        law = outcome_law(gates, n, chi, noise)
        counts = sample_outcomes(gates, n, chi, noise, shots, np.random.default_rng(41))
        assert np.array_equal(counts, np.random.default_rng(41).multinomial(shots, law))
        # without a generator, the noise model's seed seeds a fresh one
        unseeded = sample_outcomes(gates, n, chi, noise, shots)
        assert np.array_equal(unseeded, np.random.default_rng(5).multinomial(shots, law))

    def test_shots_must_be_positive(self):
        gates = build_circuit(Variant.I_CIRCUIT, 0.1)
        with pytest.raises(ValueError):
            sample_outcomes(gates, N_QUBITS, 0.1, ZERO, 0)


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
            gates, reference_gates, n = build_circuit(Variant(circuit), chi), parallel_gates(circuit), 5
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
        gates = build_circuit(Variant.X_CIRCUIT, chi) if n == 5 else CALIBRATION
        nodes, weights = np.polynomial.hermite_e.hermegauss(40)
        weights /= weights.sum()
        fixed = replace(HEAVY, chi_jitter_sigma=0.0)
        quadrature = sum(
            w * outcome_law(gates, n, chi + HEAVY.chi_jitter_sigma * x, fixed) for x, w in zip(nodes, weights)
        )
        assert np.abs(outcome_law(gates, n, chi, HEAVY) - quadrature).max() < 1e-12

    @pytest.mark.parametrize("noise", [ZERO, NoiseModel.default_profile(), CROSSTALK_HEAVY], ids=NOISE_IDS)
    @pytest.mark.parametrize("circuit", ["I", "X", "calibration", "empty"])
    @settings(max_examples=25, deadline=None)
    @given(chi=st.floats(0.0, np.pi / 4))
    def test_node_law_matches_per_angle_evolution(self, noise, circuit, chi):
        gates, n = {
            "I": (build_circuit(Variant.I_CIRCUIT, 0.0), N_QUBITS),
            "X": (build_circuit(Variant.X_CIRCUIT, 0.0), N_QUBITS),
            "calibration": (CALIBRATION, 2),
            "empty": ((), 2),
        }[circuit]
        law = outcome_law(gates, n, chi, noise)
        assert np.abs(law - reference_outcome_law(gates, n, chi, noise)).max() <= 1e-14


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
        assert NoiseModel.from_dict(asdict(noise)) == noise

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            NoiseModel.from_dict({"dephasing": 0.1})

    @pytest.mark.parametrize("block", ["abc", 5, None, [1]], ids=["string", "int", "null", "list"])
    def test_non_object_block_rejected(self, block):
        # a string was once read as a list of unknown fields, a number as "not iterable"
        with pytest.raises(ValueError, match="^noise must be a JSON object$"):
            NoiseModel.from_dict(block)

    @pytest.mark.parametrize(
        "seed", [np.int64(3), np.int32(3), np.uint8(3), np.uint64(2**64 - 1)], ids=["int64", "int32", "uint8", "uint64-max"]
    )
    def test_numpy_integer_seed_stored_as_plain_int(self, seed):
        noise = NoiseModel.default_profile(seed)
        assert noise.seed == int(seed) and type(noise.seed) is int
        assert noise == NoiseModel.default_profile(int(seed))
        assert type(asdict(noise)["seed"]) is int

    @pytest.mark.parametrize(
        "seed, message",
        [
            (True, "must be an int"),
            (np.bool_(True), "must be an int"),
            (1.0, "must be an int"),
            ("3", "must be an int"),
            (-1, "must fit in 64 bits"),
            (2**64, "must fit in 64 bits"),
            (np.int64(-1), "must fit in 64 bits"),
        ],
        ids=["bool", "numpy-bool", "float", "string", "negative", "two-to-the-64", "numpy-negative"],
    )
    def test_seed_outside_64_bit_ints_rejected(self, seed, message):
        with pytest.raises(ValueError, match=f"^seed {message}"):
            NoiseModel(seed=seed)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1], ids=["zero", "one-word-max", "two-words", "max"])
def test_child_rng_is_the_documented_seed_sequence_stream(seed):
    # one- and two-word master seeds, with the largest angle key the config allows
    key = (250_000, 1, PURPOSE_CALIBRATION)
    stream, reference = child_rng(seed, *key), reference_child_rng(seed, *key)
    assert stream.bit_generator.state == reference.bit_generator.state
    assert np.array_equal(stream.binomial(1_000, 0.3, 8), reference.binomial(1_000, 0.3, 8))


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

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("gamma", [0.0, 0.01, 0.03, 0.1, 1 / 3, 0.37, 0.5])
    def test_crosstalk_map_matches_dense_steps_bit_for_bit(self, gamma, n):
        # one 4x4 bleed per ordered adjacent pair, applied through apply_matrix, against dense 2^n steps
        assert _crosstalk_map(gamma, n).tobytes() == crosstalk_map_dense(gamma, n).tobytes()

    def test_rejects_non_stochastic(self):
        bad = np.eye(32)
        bad[0, 0] = 0.9
        with pytest.raises(ValueError, match="sum to 1"):
            ConfusionMatrix(bad)


class TestSpamCorrection:
    def test_round_trip_recovers_true_populations(self):
        truth = zero_noise_law(Variant.X_CIRCUIT, np.pi / 8) * 30_000
        conf = ConfusionMatrix.from_flips(0.006, 0.006)
        corrected = spam_correct(conf.apply(truth), conf)
        assert np.abs(corrected - truth).max() < 1e-9
        assert corrected.sum() == pytest.approx(30_000)

    def test_identity_confusion_is_noop(self):
        pops = np.full(32, 10.0)
        corrected = spam_correct(pops, ConfusionMatrix(np.eye(32)))
        assert np.allclose(corrected, pops)

    def test_correction_improves_sampled_estimate(self):
        gates, chi = build_circuit(Variant.I_CIRCUIT, np.pi / 8), np.pi / 8
        exact = zero_noise_law(Variant.I_CIRCUIT, chi)
        noise = NoiseModel(readout_flip_0to1=0.01, readout_flip_1to0=0.012)
        shots = 200_000
        raw = sample_outcomes(gates, N_QUBITS, chi, noise, shots, np.random.default_rng(21))
        conf = ConfusionMatrix.from_noise(noise)
        corrected = spam_correct(raw, conf)
        err_raw = np.abs(raw / raw.sum() - exact).sum()
        err_corrected = np.abs(corrected / corrected.sum() - exact).sum()
        assert err_corrected < err_raw

    def test_inconsistent_populations_raise(self):
        # a pure observed outcome is impossible under nonzero flips, and the
        # inversion goes strongly negative on neighboring channels
        counts = np.zeros(32)
        counts[0] = 1_000.0
        conf = ConfusionMatrix.from_flips(0.006, 0.006)
        with pytest.raises(SpamCorrectionError, match="below"):
            spam_correct(counts, conf)

    def test_matches_linear_solve_on_random_pools(self):
        # the cached inverse stands in for a solve per call
        rng = np.random.default_rng(17)
        conf = ConfusionMatrix.from_flips(0.03, 0.05, crosstalk=0.02)
        for _ in range(20):
            truth = rng.dirichlet(np.ones(32)) * rng.integers(100, 100_000)
            pops = conf.apply(truth)
            want = np.linalg.solve(conf.matrix, pops)
            got = spam_correct(pops, conf)
            assert np.abs(got - want).max() <= 1e-12 * pops.sum()
        # and the negative floor rejects exactly what the solve rejects
        counts = np.zeros(32)
        counts[0] = 1_000.0
        worst = np.linalg.solve(conf.matrix, counts).min()
        message = f"corrected population {worst:.4g} below -0.001 of total {1000.0:.4g}"
        with pytest.raises(SpamCorrectionError) as caught:
            spam_correct(counts, conf)
        assert str(caught.value) == message

    def test_singular_confusion_rejected(self):
        conf = ConfusionMatrix.from_flips(0.5, 0.5)
        with pytest.raises(SpamCorrectionError, match="ill-conditioned"):
            spam_correct(np.full(32, 1.0), conf)

    def test_small_negatives_clipped_and_total_preserved(self):
        conf = ConfusionMatrix.from_flips(0.006, 0.006)
        truth = np.zeros(32)
        truth[3] = 995.0
        truth[7] = 5.0
        smeared = conf.apply(truth)
        # nudge one channel just below its consistent value
        smeared[1] = max(smeared[1] - 0.4, 0.0)
        corrected = spam_correct(smeared, conf)
        assert (corrected >= 0).all()
        assert corrected.sum() == pytest.approx(smeared.sum())


    def test_stack_rows_match_single_calls(self):
        # sampled pools clip small negatives; a pure outcome breaks the
        # floor and an all-zero row leaves nothing after clipping
        conf = ConfusionMatrix.from_flips(0.006, 0.006)
        rng = np.random.default_rng(23)
        law = conf.apply(rng.dirichlet(np.full(32, 0.3)))
        stack = rng.multinomial(3_000, law / law.sum(), size=(3, 4)).astype(float)
        stack[0, 1] = 0.0
        stack[0, 1, 5] = 800.0
        stack[2, 3] = 0.0
        corrected, failed, worst = spam_correct_stack(stack, conf)
        assert failed[0, 1] and failed[2, 3] and failed.sum() == 2
        for index in np.ndindex(failed.shape):
            pops = stack[index]
            if not failed[index]:
                np.testing.assert_allclose(corrected[index], spam_correct(pops, conf), rtol=0, atol=1e-12)
                continue
            with pytest.raises(SpamCorrectionError) as caught:
                spam_correct(pops, conf)
            if pops.sum() > 0:
                want = f"corrected population {worst[index]:.4g} below -0.001 of total {pops.sum():.4g}"
            else:
                want = "correction wiped out all population"
            assert str(caught.value) == want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_readout_model_mismatch_fails_every_row(self, seed):
        # 300k-shot rows of both circuits at four angles, corrected by a readout
        # model that disagrees with the data about crosstalk 0.03. Data without
        # crosstalk under an inverse with it goes 2300-3700 counts negative,
        # 4-7 sqrt(total): a floor that passes it hides a real mismatch. The
        # other way round, the plain inverse leaves a valid distribution, which
        # no negativity check can tell from a matched one.
        chis = (0.0, 0.1 * np.pi, 0.2 * np.pi, np.pi / 4)
        flips = dict(readout_flip_0to1=0.006, readout_flip_1to0=0.006)

        def counts(noise):
            return np.array([
                [sample_outcomes(build_circuit(variant, chi), N_QUBITS, chi, noise, 300_000, child_rng(seed, i, v))
                 for i, chi in enumerate(chis)]
                for v, variant in enumerate(Variant)
            ])

        plain = ConfusionMatrix.from_flips(0.006, 0.006)
        crosstalk = ConfusionMatrix.from_flips(0.006, 0.006, crosstalk=0.03)
        data, data_crosstalk = counts(NoiseModel(**flips)), counts(NoiseModel(**flips, crosstalk=0.03))
        _, failed, worst = spam_correct_stack(data, crosstalk)
        assert failed.all() and (worst < -4 * np.sqrt(300_000)).all()
        for rows, conf in ((data, plain), (data_crosstalk, crosstalk), (data_crosstalk, plain)):
            assert not spam_correct_stack(rows, conf)[1].any()

    def test_shape_and_sign_validation(self):
        conf = ConfusionMatrix.from_flips(0.006, 0.006)
        with pytest.raises(ValueError, match="expected 32 entries"):
            spam_correct(np.zeros(16), conf)
        with pytest.raises(ValueError, match="expected 32 entries"):
            spam_correct(np.ones((2, 32)), conf)  # a stack goes through spam_correct_stack
        for value in (-1.0, np.nan, np.inf):
            bad = np.zeros(32)
            bad[2] = value
            with pytest.raises(ValueError, match="finite and nonnegative"):
                spam_correct(bad, conf)


class TestBayesianSplit:
    def test_split_sizes_are_binomial(self):
        counts = np.zeros(32, dtype=np.int64)
        counts[0] = 100_000
        pool_b1, pool_b2 = split_counts(counts, 0.3, np.random.default_rng(12))
        assert pool_b1.sum() + pool_b2.sum() == 100_000
        assert abs(pool_b1.sum() / 100_000 - 0.3) < binomial_bound(0.3, 100_000)

    def test_degenerate_probabilities(self):
        counts = np.ones(32, dtype=np.int64)
        all_b1, none_b1 = split_counts(counts, 1.0, np.random.default_rng(0))
        assert all_b1.sum() == 32 and none_b1.sum() == 0
        none_b2, all_b2 = split_counts(counts, 0.0, np.random.default_rng(0))
        assert none_b2.sum() == 0 and all_b2.sum() == 32

    def test_split_preserves_counts_per_outcome(self):
        counts = np.random.default_rng(8).multinomial(5_000, np.full(32, 1 / 32))
        pool_b1, pool_b2 = split_counts(counts, 0.4, np.random.default_rng(4))
        assert np.array_equal(pool_b1 + pool_b2, counts)

    def test_split_is_independent_of_outcome_value(self):
        # each pool's frequencies estimate the same underlying distribution
        gates = build_circuit(Variant.I_CIRCUIT, 0.1 * np.pi)
        counts = sample_outcomes(gates, N_QUBITS, 0.1 * np.pi, ZERO, 120_000, np.random.default_rng(31))
        pool_b1, _ = split_counts(counts, 0.5, np.random.default_rng(9))
        full = counts / counts.sum()
        diff = np.abs(pool_b1 / pool_b1.sum() - full)
        assert diff.max() < 5.0 * np.sqrt(0.25 / pool_b1.sum())

    @pytest.mark.parametrize("p", [0.0, 0.03, 0.5, 0.97, 1.0])
    def test_stack_rows_draw_one_after_another_from_one_stream(self, p):
        counts = np.random.default_rng(5).multinomial(30_000, np.full(32, 1 / 32), size=2)
        stacked = split_counts(counts, p, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        rows = [split_counts(row, p, rng) for row in counts]
        for t in range(2):
            assert np.array_equal(stacked[t], [row[t] for row in rows])

    @pytest.mark.parametrize("bad", [1.2, -0.1, math.nan])
    def test_p_out_of_range(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"p={bad} outside [0, 1]")):
            split_counts(np.zeros(32, dtype=int), bad, np.random.default_rng(0))

    def test_p_column_draws_each_row_in_turn_from_one_stream(self):
        # (variant, p, outcome): every p of the first row, then every p of the second
        counts = np.random.default_rng(5).multinomial(30_000, np.full(32, 1 / 32), size=2)
        p_grid = np.array([0.0, 0.01, 0.3, 0.5, 0.99, 1.0])
        stacked = split_counts(np.broadcast_to(counts[:, None], (2, 6, 32)), p_grid[:, None], np.random.default_rng(7))
        rng = np.random.default_rng(7)
        for v in range(2):
            for n, p in enumerate(p_grid):
                b1 = rng.binomial(counts[v], p)
                assert np.array_equal(stacked[0][v, n], b1)
                assert np.array_equal(stacked[1][v, n], counts[v] - b1)

    @pytest.mark.parametrize("bad", [1.2, -0.1, math.nan])
    def test_p_array_out_of_range_names_the_first_bad_value(self, bad):
        p = np.array([[0.5], [bad], [2.0], [0.1]])
        with pytest.raises(ValueError, match=re.escape(f"p={bad} outside [0, 1]")):
            split_counts(np.zeros((4, 32), dtype=int), p, np.random.default_rng(0))


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

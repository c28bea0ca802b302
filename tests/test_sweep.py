"""Sweep engine, serialization, parallelization verifier, and CLI."""

import ast
import csv
import hashlib
import importlib.util
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgame.noise
import qgame.sweep
from qgame.cli import main
from qgame.equilibrium import DELTA_SHOTS, EquilibriumReport
from qgame.game import STRATEGIES, profile_from_names
from qgame.noise import PURPOSE_SAMPLE, PURPOSE_SPLIT, NoiseModel, sample_outcomes, split_counts
from qgame.parallel import Variant, branch_indices, branch_map, build_circuit
from qgame.sweep import (
    DEFAULT_CHI_GRID_PI,
    DEFAULT_P_GRID,
    CellResult,
    ConfigError,
    ExperimentConfig,
    SweepResult,
    _analytic_reports,
    _split_pools,
    emit_report,
    load_result,
    rmsd_analysis,
    run_sweep,
    threshold_rows,
    verify_parallelization,
    write_csv,
)

from oracles import (
    bayes_tensor_dense,
    brute_force_equilibria,
    reference_analytic_reports,
    reference_child_rng,
    reference_emit,
    reference_shot_sweep,
    reference_verify_rows,
    reference_write_csv,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"


def analytic_config(**kw) -> ExperimentConfig:
    return ExperimentConfig(mode="analytic", **kw)


def shot_config(**kw) -> ExperimentConfig:
    kw.setdefault("noise", NoiseModel())
    return ExperimentConfig(mode="shots", **kw)


def emitted_rows(result: SweepResult, out_dir) -> list[dict]:
    with open(emit_report(result, out_dir)["csv"], newline="") as handle:
        return list(csv.DictReader(handle))


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.chi_grid_pi == DEFAULT_CHI_GRID_PI
        assert cfg.p_grid == DEFAULT_P_GRID
        assert len(cfg.chi_grid_pi) == 11
        assert len(cfg.p_grid) == 101
        assert cfg.effective_delta == 0.0
        assert shot_config().effective_delta == DELTA_SHOTS

    def test_explicit_delta_wins(self):
        assert shot_config(delta=0.03).effective_delta == 0.03

    def test_json_round_trip(self, tmp_path):
        cfg = shot_config(seed=11, noise=NoiseModel.default_profile(seed=11), delta=0.2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_json(path) == cfg

    def test_validation_failures(self):
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig(mode="exact")
        with pytest.raises(ConfigError, match="ascending"):
            ExperimentConfig(chi_grid_pi=(0.1, 0.05))
        with pytest.raises(ConfigError, match="outside"):
            ExperimentConfig(chi_grid_pi=(0.3,))
        with pytest.raises(ConfigError, match="nonempty"):
            ExperimentConfig(p_grid=())
        with pytest.raises(ConfigError, match="positive"):
            ExperimentConfig(shots=0)
        with pytest.raises(ConfigError, match="delta"):
            ExperimentConfig(delta=-0.1)
        with pytest.raises(ConfigError):
            ExperimentConfig(tracked_profile="ABC")
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_dict({"mode": "analytic", "bogus": 1})
        with pytest.raises(ConfigError, match="noise"):
            ExperimentConfig.from_dict({"noise": {"single_qubit_depol": 0.9}})

    @pytest.mark.parametrize("grids", [((0.25 + 5e-13,), (0.5,)), ((0.0,), (1 + 5e-13,))])
    def test_grid_just_past_the_bound_is_rejected_or_sweeps(self, grids):
        # the config and the game once checked each bound with different
        # tolerances, so these passed validation and then crashed the sweep
        try:
            cfg = ExperimentConfig(chi_grid_pi=grids[0], p_grid=grids[1])
        except ConfigError:
            return
        result = run_sweep(cfg)
        assert all(cell.error is None for cell in result.cells)

    @pytest.mark.parametrize(
        "name, grid",
        [("p_grid", (0.25, 0.2500004)), ("p_grid", (0.5, 0.5000004)), ("chi_grid_pi", (0.1, 0.1000004))],
    )
    def test_shot_grid_points_sharing_a_stream_key_are_rejected(self, name, grid):
        # both points would draw on one keyed stream: identical or mirrored pools
        with pytest.raises(ConfigError, match=re.escape(f"{name} points {grid[0]!r} and {grid[1]!r}")):
            shot_config(**{name: grid})
        analytic_config(**{name: grid})  # analytic mode draws no streams
        shot_config(**{name: (grid[0], grid[0] + 1e-6)})

    def test_overrides_revalidate(self):
        with pytest.raises(ConfigError):
            replace(ExperimentConfig(), mode="nope")
        assert replace(ExperimentConfig(), seed=5).seed == 5


class TestAnalyticSweep:
    def test_classical_cell_has_both_reference_equilibria(self):
        cfg = analytic_config(chi_grid_pi=(0.0,), p_grid=(0.0,))
        cell = run_sweep(cfg).cells[0]
        report = cell.report
        assert report.contains(profile_from_names("IXI"))
        assert report.contains(profile_from_names("ZYZ"))
        for payoffs in report.payoffs:
            assert payoffs == (11.0, 10.0, 9.0)
        assert cell.rmsd == 0.0
        assert cell.chi_measured_pi == cell.chi_nominal_pi

    def test_strong_entanglement_empties_the_midpoint(self):
        cfg = analytic_config(p_grid=(0.5,))
        result = run_sweep(cfg)
        by_chi = {c.chi_nominal_pi: c for c in result.cells}
        for chi_pi in (0.2, 0.225, 0.25):
            assert by_chi[chi_pi].report.empty
            assert by_chi[chi_pi].rmsd is None
        assert not by_chi[0.0].report.empty

    def test_transition_column_matches_reference_point(self):
        cfg = analytic_config(chi_grid_pi=(0.05,))
        result = run_sweep(cfg)
        chi_pi, thresholds = result.transitions[0]
        assert chi_pi == 0.05
        assert thresholds == (0.17,)
        assert abs(thresholds[0] - 0.16) <= 0.01 + 1e-12
        mid = [c for c in result.cells if c.p == 0.5][0]
        assert mid.report.empty

    def test_analytic_ignores_noise_and_shots(self):
        base = analytic_config(chi_grid_pi=(0.1,), p_grid=(0.0, 0.3, 0.9))
        noisy = analytic_config(
            chi_grid_pi=(0.1,),
            p_grid=(0.0, 0.3, 0.9),
            shots=17,
            noise=NoiseModel.default_profile(seed=3),
            seed=99,
        )
        cells_a = run_sweep(base).cells
        cells_b = run_sweep(noisy).cells
        for a, b in zip(cells_a, cells_b):
            assert a.report == b.report
            assert a.rmsd == b.rmsd

    def test_analytic_run_does_not_load_numpy_random(self):
        # numpy 2 imports numpy.random lazily; a run that draws nothing should
        # not pay for it in import time or memory
        script = (
            "import sys, numpy; before = 'numpy.random' in sys.modules\n"
            "from qgame.sweep import ExperimentConfig, run_sweep\n"
            "run_sweep(ExperimentConfig(chi_grid_pi=(0.1,), p_grid=(0.3,)))\n"
            "assert ('numpy.random' in sys.modules) == before"
        )
        src = Path(qgame.sweep.__file__).resolve().parents[1]
        subprocess.run([sys.executable, "-c", script], check=True, env={**os.environ, "PYTHONPATH": str(src)})

    def test_cells_match_brute_force_oracle(self):
        chi_pi, p = 0.075, 0.4
        cfg = analytic_config(chi_grid_pi=(chi_pi,), p_grid=(p,))
        report = run_sweep(cfg).cells[0].report
        rows_b1 = [[[11, 9], [1, 10]], [[10, 1], [6, 6]]]
        rows_b2 = [[[11, 9], [1, 6]], [[10, 1], [6, 0]]]
        a, b1, b2 = bayes_tensor_dense(chi_pi * np.pi, rows_b1, rows_b2, p)
        expected = brute_force_equilibria(a, b1, b2, 0.0)
        assert [tuple(int(s) for s in pr) for pr in report.profiles] == expected

    @pytest.mark.parametrize("delta", [0.0, 0.1])
    @pytest.mark.parametrize("chi", [0.0, 0.1 * np.pi, np.pi / 4])
    @pytest.mark.parametrize("custom", [False, True], ids=["default-tables", "custom-tables"])
    def test_column_solve_matches_per_p_reference(self, chi, delta, custom):
        # at chi = 0, p = 0 eight profiles tie, so the profile order is checked too
        tables = ExperimentConfig().tables
        if custom:
            tables = ExperimentConfig(
                payoff_rows_b1=[[[3, 3], [0, 5]], [[5, 0], [1, 1]]],
                payoff_rows_b2=[[[2, 1], [0, 0]], [[0, 0], [1, 2]]],
            ).tables
        got = _analytic_reports(chi, tables, DEFAULT_P_GRID, delta)
        assert got == reference_analytic_reports(chi, tables, DEFAULT_P_GRID, delta)
        if chi == 0.0 and not custom:
            assert len(got[0].profiles) == 8


class TestShotSweep:
    def test_zero_noise_classical_cell_matches_analytic(self):
        shot = shot_config(chi_grid_pi=(0.0,), p_grid=(0.0,), shots=20_000, seed=5)
        analytic = analytic_config(chi_grid_pi=(0.0,), p_grid=(0.0,), delta=DELTA_SHOTS)
        shot_report = run_sweep(shot).cells[0].report
        ref_report = run_sweep(analytic).cells[0].report
        assert shot_report.profiles == ref_report.profiles
        for got, want in zip(shot_report.payoffs, ref_report.payoffs):
            assert np.abs(np.array(got) - np.array(want)).max() < 0.1

    def test_degenerate_p_uses_full_dataset_for_empty_pool(self):
        result = run_sweep(shot_config(chi_grid_pi=(0.1,), p_grid=(0.0, 1.0), shots=8_000, seed=2))
        for cell in result.cells:
            assert cell.error is None
            assert not cell.report.empty
            # all three payoff components populated despite one empty pool
            assert all(len(pay) == 3 for pay in cell.report.payoffs)

    def test_zero_noise_rmsd_is_small(self):
        # reference payoffs sit at the measured angle, so the calibration
        # run must be deep enough not to dominate the comparison
        cfg = shot_config(
            chi_grid_pi=(0.1,), p_grid=(0.2,), shots=30_000, calibration_shots=400_000, seed=8
        )
        cell = run_sweep(cfg).cells[0]
        assert cell.error is None
        assert cell.rmsd is not None and cell.rmsd < 0.1

    def test_measured_angle_recorded(self):
        result = run_sweep(shot_config(chi_grid_pi=(0.125,), p_grid=(0.5,), shots=10_000, seed=1))
        (chi_pi, estimate), = result.chi_measurements
        assert chi_pi == 0.125
        assert abs(estimate.value - 0.125 * np.pi) < 5 * estimate.sigma
        assert result.cells[0].chi_measured_pi == pytest.approx(estimate.value / np.pi)

    def test_starved_shots_record_cell_errors(self):
        cfg = shot_config(chi_grid_pi=(0.25,), p_grid=(0.5,), shots=40, seed=0)
        result = run_sweep(cfg)
        cell = result.cells[0]
        assert cell.error is not None and "branch" in cell.error
        assert cell.report is None and cell.rmsd is None
        # the transition scan has nothing to work with at this angle
        assert result.transitions[0][1] is None

    def test_readout_matrix_factored_once_per_sweep(self, monkeypatch):
        calls = {"cond": 0, "inv": 0}

        def counting(name, real):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(np.linalg, "cond", counting("cond", np.linalg.cond))
        monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
        noise = NoiseModel(readout_flip_0to1=0.004, readout_flip_1to0=0.006, seed=4)
        cfg = shot_config(chi_grid_pi=(0.05, 0.1), p_grid=(0.2, 0.5, 0.8), shots=60_000, seed=4, noise=noise)
        result = run_sweep(cfg)
        # 24 corrected pools, one factorization
        assert all(cell.error is None for cell in result.cells)
        assert calls["cond"] <= 1 and calls["inv"] <= 1

    @pytest.mark.parametrize("n_chi", [1, 5])
    def test_each_circuit_evolved_once_per_sweep(self, monkeypatch, n_chi):
        calls = {"n": 0}
        real = qgame.noise._noisy_diagonals

        def counting(*args):
            calls["n"] += 1
            return real(*args)

        monkeypatch.setattr(qgame.noise, "_noisy_diagonals", counting)
        qgame.noise._node_diagonals.cache_clear()
        chi_grid_pi = tuple(0.05 * i for i in range(n_chi))
        noise = NoiseModel.default_profile()
        # the node values depend on the depolarization alone, so a model that
        # differs in seed or angle offset reuses them
        for model in (noise, replace(noise, seed=1), replace(noise, chi_offset=0.01)):
            run_sweep(shot_config(chi_grid_pi=chi_grid_pi, p_grid=(0.3, 0.7), shots=2_000, noise=model))
        # the two variants plus the calibration circuit, whatever the number of angles
        assert calls["n"] <= 3

    def test_sweep_derives_its_streams_in_two_batches(self, monkeypatch):
        seed_sequences, batches = {"n": 0}, {"n": 0}
        seed_sequence, child_rngs = np.random.SeedSequence, qgame.sweep.child_rngs

        def counting_seed_sequence(*args, **kwargs):
            seed_sequences["n"] += 1
            return seed_sequence(*args, **kwargs)

        def counting_child_rngs(*args):
            batches["n"] += 1
            return child_rngs(*args)

        monkeypatch.setattr(np.random, "SeedSequence", counting_seed_sequence)
        monkeypatch.setattr(qgame.sweep, "child_rngs", counting_child_rngs)
        run_sweep(shot_config(chi_grid_pi=(0.05, 0.15, 0.25), p_grid=DEFAULT_P_GRID, shots=2_000))
        # one SeedSequence per stream would make 3 * (2 sample + 1 calibration + 101 split) = 312
        assert seed_sequences["n"] == 0
        # every angle's sample and calibration streams, then every grid point's split stream
        assert batches["n"] == 2

    @pytest.mark.parametrize("seed", [0, 1])
    def test_split_pools_match_per_key_split_counts(self, seed):
        cfg = shot_config(p_grid=DEFAULT_P_GRID, shots=30_000, seed=seed, noise=NoiseModel.default_profile(seed))
        chi_pi, chi_key = 0.15, 150_000
        counts = np.array([
            sample_outcomes(
                build_circuit(variant, chi_pi * np.pi),
                cfg.noise,
                cfg.shots,
                reference_child_rng(seed, chi_key, v, PURPOSE_SAMPLE),
            )
            for v, variant in enumerate(Variant)
        ])
        split_key = [(chi_key, 0, PURPOSE_SPLIT, round(p * 10**6)) for p in cfg.p_grid]
        pools = _split_pools(cfg, counts, [reference_child_rng(seed, *key) for key in split_key])
        for n, p in enumerate(cfg.p_grid):
            # one stream per grid point: the I-circuit's split, then the X-circuit's
            rng = reference_child_rng(seed, *split_key[n])
            for v in range(len(Variant)):
                for t, pool in enumerate(split_counts(counts[v], p, rng)):
                    # an emptied pool falls back to the full dataset
                    expected = pool if pool.sum() > 0 else counts[v]
                    assert np.array_equal(pools[v, t, n], expected)

    def test_sweep_split_streams_are_keyed_per_grid_point(self, monkeypatch):
        # each (chi, p) point has one split stream, keyed (chi, 0, PURPOSE_SPLIT, p):
        # the I-circuit's pools are its first 32 draws, exactly a split of the
        # I-circuit's counts alone, and the X-circuit's pools are the next 32
        seed, split_pools, drawn = 3, qgame.sweep._split_pools, []

        def recording_split_pools(cfg, counts, rngs):
            pools = split_pools(cfg, counts, rngs)
            drawn.append((counts, pools))
            return pools

        monkeypatch.setattr(qgame.sweep, "_split_pools", recording_split_pools)
        cfg = shot_config(chi_grid_pi=(0.05, 0.2), p_grid=DEFAULT_P_GRID, seed=seed,
                          noise=NoiseModel.default_profile(seed))
        run_sweep(cfg)
        assert len(drawn) == len(cfg.chi_grid_pi)
        for chi_pi, (counts, pools) in zip(cfg.chi_grid_pi, drawn):
            for n, p in enumerate(cfg.p_grid):
                rng = reference_child_rng(seed, round(chi_pi * 10**6), 0, PURPOSE_SPLIT, round(p * 10**6))
                i_b1, i_b2 = split_counts(counts[0], p, rng)
                x_b1 = rng.binomial(counts[1], p)
                for v, t, pool, full in ((0, 0, i_b1, counts[0]), (0, 1, i_b2, counts[0]),
                                         (1, 0, x_b1, counts[1]), (1, 1, counts[1] - x_b1, counts[1])):
                    assert np.array_equal(pools[v, t, n], pool if pool.sum() > 0 else full)

    def test_sub_grid_reproduces_the_full_grid_cells(self):
        # every stream is keyed by grid values, not positions, so a sub-grid
        # run draws the same shots and splits as the full default-grid run
        noise = NoiseModel.default_profile(0)
        full = run_sweep(shot_config(noise=noise))
        # at p = 0.01 both angles' cells fail in the full run
        sub = run_sweep(shot_config(chi_grid_pi=(0.05, 0.2), p_grid=(0.0, 0.01, 0.13, 0.5, 0.77, 1.0), noise=noise))
        cells = {(cell.chi_nominal_pi, cell.p): cell for cell in full.cells}
        assert sub.cells == tuple(cells[cell.chi_nominal_pi, cell.p] for cell in sub.cells)
        assert 0 < sum(cell.error is not None for cell in sub.cells) < len(sub.cells)
        assert sub.chi_measurements == tuple(m for m in full.chi_measurements if m[0] in (0.05, 0.2))

    def test_crosstalk_is_emulated_and_corrected(self):
        # emulation and SPAM correction share one readout matrix, crosstalk included
        for seed in range(3):
            noise = NoiseModel(readout_flip_0to1=0.006, readout_flip_1to0=0.006, crosstalk=0.03, seed=seed)
            cfg = shot_config(chi_grid_pi=(0.0,), p_grid=(0.0,), shots=300_000, seed=seed, noise=noise)
            cell = run_sweep(cfg).cells[0]
            assert cell.error is None
            assert cell.rmsd < 0.15

    @pytest.mark.parametrize(
        "seed, noise",
        [
            (0, NoiseModel.default_profile(0)),
            (1, NoiseModel.default_profile(1)),
            (0, NoiseModel(readout_flip_0to1=0.5, readout_flip_1to0=0.5)),
        ],
        ids=["default-seed0", "default-seed1", "singular-readout"],
    )
    def test_column_matches_per_cell_reference(self, seed, noise):
        # p near 0 and 1 leaves small pools, whose correction fails at
        # these seeds; a singular readout matrix fails every cell
        p_grid = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.5, 0.96, 0.97, 0.98, 0.99, 1.0)
        cfg = shot_config(chi_grid_pi=(0.05, 0.2), p_grid=p_grid, seed=seed, noise=noise)
        result = run_sweep(cfg)
        cells, transitions, measurements = reference_shot_sweep(cfg)
        assert any(cell.error is not None for cell in cells)
        assert len(result.cells) == len(cells)
        for got, want in zip(result.cells, cells):
            assert (got.chi_nominal_pi, got.chi_measured_pi, got.p) == (want.chi_nominal_pi, want.chi_measured_pi, want.p)
            assert got.error == want.error
            assert (got.report is None) == (want.report is None)
            assert (got.rmsd is None) == (want.rmsd is None)
            if want.report is not None:
                assert got.report.profiles == want.report.profiles
                np.testing.assert_allclose(got.report.payoffs, want.report.payoffs, rtol=0, atol=1e-12)
            if want.rmsd is not None:
                assert abs(got.rmsd - want.rmsd) <= 1e-12
        assert result.transitions == tuple(transitions)
        assert result.chi_measurements == tuple(measurements)

    def test_tiny_pools_under_readout_noise_fail_their_cells(self):
        # at p = 0.01 to 0.03 the B1 pools hold 1 to 3 of 100 shots; the
        # readout inverse spreads clipped mass into every branch, so only
        # the raw pool shows which branches are empty
        noise = NoiseModel(readout_flip_0to1=5e-4, readout_flip_1to0=5e-4)
        cfg = shot_config(chi_grid_pi=(0.2,), p_grid=(0.01, 0.02, 0.03), shots=100, seed=0, noise=noise)
        result = run_sweep(cfg)
        for cell in result.cells:
            assert cell.report is None and cell.rmsd is None
            assert cell.error is not None and cell.error.endswith("has zero population")
        cells, transitions, _ = reference_shot_sweep(cfg)
        assert [cell.error for cell in result.cells] == [cell.error for cell in cells]
        assert result.transitions == tuple(transitions) == ((0.2, None),)

    def test_first_failure_in_cell_order_names_the_error(self, monkeypatch):
        # the I-circuit's shots miss a whole branch, and the X-circuit's all
        # sit in one outcome, which breaks the SPAM floor; the I-circuit
        # comes first, so its empty branch names the cell's error
        counts = {Variant.I_CIRCUIT: np.full(32, 100), Variant.X_CIRCUIT: np.zeros(32, dtype=int)}
        counts[Variant.I_CIRCUIT][branch_indices(1, 1, 1)] = 0
        counts[Variant.X_CIRCUIT][0] = 3_200
        monkeypatch.setattr(qgame.sweep, "sample_outcomes", lambda circuit, *args: counts[circuit.variant])
        cfg = shot_config(chi_grid_pi=(0.1,), p_grid=(0.5,), noise=NoiseModel(readout_flip_0to1=0.005))
        cell = run_sweep(cfg).cells[0]
        assert cell.error == "branch (x,y,z)=(1,1,1) of I-circuit has zero population"
        counts[Variant.I_CIRCUIT][:] = 100
        cell = run_sweep(cfg).cells[0]
        assert cell.error is not None and cell.error.startswith("corrected population")

    def test_same_seed_same_result(self):
        cfg = shot_config(chi_grid_pi=(0.075,), p_grid=(0.3, 0.7), shots=5_000, seed=13,
                          noise=NoiseModel.default_profile(seed=13))
        assert run_sweep(cfg) == run_sweep(cfg)


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


class TestTracedBenchmark:
    def test_analytic_sweep_goes_through_the_traced_names(self):
        # one payoff evolution for both games and one Bayesian mix per angle,
        # each looked up where the tracer wraps it
        cfg = analytic_config(chi_grid_pi=(0.05, 0.25))
        with load_layertrace().Tracer() as tracer:
            run_sweep(cfg)
        assert tracer.counts["game.payoff_tensor.calls"] == len(cfg.chi_grid_pi)
        assert tracer.counts["bayesian.compose.calls"] == len(cfg.chi_grid_pi)

    def test_payoff_tensor_evolves_all_pairs_in_one_stack(self):
        # at most four gate applications per payoff array; evolving the
        # strategy pairs one at a time takes 64
        cfg = analytic_config(chi_grid_pi=(0.05, 0.25))
        with load_layertrace().Tracer() as tracer:
            run_sweep(cfg)
        calls = tracer.counts["game.payoff_tensor.calls"]
        assert calls > 0
        assert tracer.counts["statevector.apply_gate.calls"] <= 4 * calls

    def test_layer_counts_account_for_failed_cells(self):
        # the starved sweep above, widened to p = 0 and 1 where one pool
        # falls back to the full dataset, so cells both fail and succeed
        layertrace = load_layertrace()
        cfg = shot_config(chi_grid_pi=(0.25,), p_grid=(0.0, 0.5, 1.0), shots=40, seed=0)
        with layertrace.Tracer() as tracer:
            result = run_sweep(cfg)
        failed = sum(cell.error is not None for cell in result.cells)
        assert 0 < failed < len(result.cells)
        counts = tracer.counts
        errors = counts["noise.spam_correct.errors"] + counts["parallel.parse_branches.errors"]
        # each failed cell makes exactly one single-cell call, the one that fails
        assert counts["noise.spam_correct.calls"] + counts["parallel.parse_branches.calls"] == errors == failed
        # the solved cells go through the stacked solve and RMSD, not the traced one-row names
        assert counts["equilibrium.nash_equilibria.calls"] == 0
        assert counts["equilibrium.rmsd_at_equilibrium.calls"] == 0

    def test_tiny_pool_failures_replay_one_error_each(self):
        # cells that fail on a branch empty only in the raw pool still make
        # exactly one single-cell call, the failing raw parse
        layertrace = load_layertrace()
        noise = NoiseModel(readout_flip_0to1=5e-4, readout_flip_1to0=5e-4)
        cfg = shot_config(chi_grid_pi=(0.2,), p_grid=(0.01, 0.02, 0.03, 0.5), shots=100, seed=0, noise=noise)
        with layertrace.Tracer() as tracer:
            result = run_sweep(cfg)
        failed = sum(cell.error is not None for cell in result.cells)
        assert failed == 3
        counts = tracer.counts
        errors = counts["noise.spam_correct.errors"] + counts["parallel.parse_branches.errors"]
        assert counts["noise.spam_correct.calls"] + counts["parallel.parse_branches.calls"] == errors == failed
        assert counts["equilibrium.nash_equilibria.calls"] == 0
        assert counts["equilibrium.rmsd_at_equilibrium.calls"] == 0

    def test_singular_readout_fails_every_cell_with_one_spam_call_each(self):
        # an unusable readout matrix fails every cell at its first step, the
        # I-circuit's B1 correction, so each cell makes one failing spam_correct call
        cfg = shot_config(chi_grid_pi=(0.05, 0.2), p_grid=(0.0, 0.5, 1.0), shots=2_000,
                          noise=NoiseModel(readout_flip_0to1=0.5, readout_flip_1to0=0.5))
        with load_layertrace().Tracer() as tracer:
            result = run_sweep(cfg)
        assert all(cell.error is not None and "ill-conditioned" in cell.error for cell in result.cells)
        counts = tracer.counts
        assert counts["noise.spam_correct.calls"] == counts["noise.spam_correct.errors"] == len(result.cells)
        assert counts["parallel.parse_branches.calls"] == 0

    def test_traced_split_alias_is_never_called(self):
        # the tracer's split counter reads `.total`, which a count array lacks,
        # so the sweep must not call the name it traces
        cfg = shot_config(chi_grid_pi=(0.25,), p_grid=(0.0, 0.5, 1.0), shots=40, seed=0)
        with load_layertrace().Tracer() as tracer:
            run_sweep(cfg)
        assert tracer.counts["noise.bayesian_split.calls"] == 0
        assert qgame.sweep.bayesian_split is qgame.noise.split_counts


class TestSerialization:
    def test_csv_layout_and_determinism(self, tmp_path):
        cfg = shot_config(chi_grid_pi=(0.0, 0.05), p_grid=(0.0, 0.5), shots=4_000, seed=21)
        result = run_sweep(cfg)
        paths_a = emit_report(result, tmp_path / "a")
        paths_b = emit_report(run_sweep(cfg), tmp_path / "b")
        with open(paths_a["csv"], "rb") as fa, open(paths_b["csv"], "rb") as fb:
            assert fa.read() == fb.read()
        with open(paths_a["json"], "rb") as fa, open(paths_b["json"], "rb") as fb:
            assert fa.read() == fb.read()
        with open(paths_a["csv"]) as handle:
            header = handle.readline().strip()
        assert header == (
            "chi_nominal_pi,chi_measured_pi,p,n_equilibria,profile,"
            "payoff_A,payoff_B1,payoff_B2,rmsd,delta,mode,seed"
        )

    def test_default_analytic_csv_matches_pinned_digest(self, tmp_path):
        # the digest is read from the benchmark's source: importing run.py
        # would rewrite os.environ
        tree = ast.parse((PERFBENCH / "run.py").read_text())
        pinned = next(
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["ANALYTIC_CSV_SHA256"]
        )
        paths = emit_report(run_sweep(ExperimentConfig(mode="analytic")), tmp_path)
        data = Path(paths["csv"]).read_bytes()
        without_seed = b"\n".join(line.rsplit(b",", 1)[0] for line in data.split(b"\n"))
        assert hashlib.sha256(without_seed).hexdigest() == pinned

    def test_default_analytic_json_matches_pinned_digest(self, tmp_path):
        paths = emit_report(run_sweep(ExperimentConfig(mode="analytic")), tmp_path)
        digest = hashlib.sha256(Path(paths["json"]).read_bytes()).hexdigest()
        assert digest == "ceee114b03a6bb589ea4c50cd02546f8186526e9f460c1a5bb26c52ca6069066"

    def test_default_noisy_shot_sweep_matches_pinned_digests(self, tmp_path):
        # the benchmark's shots_noisy workload at seed 0, which fails 55 cells
        cfg = ExperimentConfig(mode="shots", noise=NoiseModel.default_profile(0), seed=0)
        paths = emit_report(run_sweep(cfg), tmp_path)
        digests = [hashlib.sha256(Path(paths[fmt]).read_bytes()).hexdigest() for fmt in ("csv", "json")]
        assert digests == [
            "9e9c00ad286bbe6cc5f2962a6d872087a6e8ac889994cd2ababc7753540f5250",
            "e6822cd08e6468b3b558435a9085a2bfc27e251866be63dfa4819701a6d79129",
        ]

    def test_multi_equilibrium_cell_spans_rows(self, tmp_path):
        cfg = analytic_config(chi_grid_pi=(0.0,), p_grid=(0.0,))
        rows = emitted_rows(run_sweep(cfg), tmp_path)
        assert len(rows) == 8
        assert {r["n_equilibria"] for r in rows} == {"8"}
        assert all((r["chi_nominal_pi"], r["p"]) == ("0.0", "0.0") for r in rows)

    def test_empty_cell_row(self, tmp_path):
        cfg = analytic_config(chi_grid_pi=(0.25,), p_grid=(0.5,))
        rows = emitted_rows(run_sweep(cfg), tmp_path)
        assert len(rows) == 1
        assert rows[0]["n_equilibria"] == "0"
        assert rows[0]["profile"] == ""
        assert rows[0]["payoff_A"] == ""

    def test_failed_cell_row_blanks_equilibrium_fields(self, tmp_path):
        cfg = analytic_config(chi_grid_pi=(0.1,), p_grid=(0.5,))
        base = run_sweep(cfg)
        failed = SweepResult(
            config=base.config,
            cells=(CellResult(0.1, 0.1, 0.5, None, None, error="boom"),),
            transitions=((0.1, None),),
            chi_measurements=base.chi_measurements,
        )
        row = emitted_rows(failed, tmp_path)[0]
        assert row["n_equilibria"] == ""
        assert row["profile"] == ""

    def test_json_round_trip_exact(self, tmp_path):
        cfg = shot_config(
            chi_grid_pi=(0.0, 0.125),
            p_grid=(0.0, 0.4, 1.0),
            shots=6_000,
            seed=34,
            noise=NoiseModel.default_profile(seed=34),
        )
        result = run_sweep(cfg)
        paths = emit_report(result, tmp_path)
        assert load_result(paths["json"]) == result
        # schema 3: the cell holds chi and p, the config holds delta, the
        # tracked profile and the window; reports and transitions hold only
        # what the solver computed
        data = json.loads(Path(paths["json"]).read_text())
        assert data["schema_version"] == 3
        assert {"delta", "tracked_profile", "transition_window"} <= set(data["config"])
        assert {"chi_nominal_pi", "p"} <= set(data["cells"][0])
        reports = [cell["report"] for cell in data["cells"] if cell["report"] is not None]
        assert reports and all(set(report) == {"profiles", "payoffs"} for report in reports)
        assert len(data["transitions"]) == 2
        assert all(set(entry) == {"chi_pi", "thresholds"} for entry in data["transitions"])

    def test_round_trip_preserves_error_cells(self, tmp_path):
        cfg = shot_config(chi_grid_pi=(0.25,), p_grid=(0.5,), shots=40, seed=0)
        result = run_sweep(cfg)
        assert result.cells[0].error is not None
        paths = emit_report(result, tmp_path)
        assert load_result(paths["json"]) == result

    def test_schema_version_checked(self, tmp_path):
        cfg = analytic_config(chi_grid_pi=(0.0,), p_grid=(0.0,))
        paths = emit_report(run_sweep(cfg), tmp_path)
        data = json.loads(open(paths["json"]).read())
        # 2 is the layout before reports and transitions lost their copied keys
        for version in (99, 2):
            data["schema_version"] = version
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(data))
            with pytest.raises(ConfigError, match="schema_version"):
                load_result(bad)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: json.dumps({key: value for key, value in data.items() if key != "cells"}),
            lambda data: json.dumps({**data, "cells": [{**data["cells"][0], "report": 5}]}),
            lambda data: json.dumps({**data, "transitions": None}),
            lambda data: json.dumps(data).replace('"profiles": ["', '"profiles": ["QQQ", "', 1),
            lambda data: json.dumps([data]),
            lambda data: json.dumps(data)[:-40],
            # cell (chi=0, p=0) holds 8 equilibria
            lambda data: with_first_payoffs(data, lambda payoffs: payoffs[:1]),
            lambda data: with_first_payoffs(data, lambda payoffs: [[1.0]] + payoffs[1:]),
            lambda data: with_first_payoffs(data, lambda payoffs: [["1.5", True, 2]] + payoffs[1:]),
            lambda data: with_first_payoffs(data, lambda payoffs: [[1.5, True, 2]] + payoffs[1:]),
            lambda data: with_first_cell(data, p="abc"),
            lambda data: with_first_cell(data, chi_nominal_pi=0.7),
            lambda data: with_first_cell(data, p=0.5),
            lambda data: with_first_cell(data, chi_measured_pi=True),
            lambda data: with_first_cell(data, rmsd="0.0"),
            lambda data: json.dumps({**data, "cells": data["cells"] * 2}),
            lambda data: json.dumps({**data, "transitions": data["transitions"] * 2}),
            lambda data: json.dumps({**data, "chi_measurements": []}),
            # a cell has a null report and rmsd exactly when its error is a string
            lambda data: with_first_cell(data, report=None, rmsd=None, error=7),
            lambda data: with_first_cell(data, report=None, rmsd=None, error=["x"]),
            lambda data: with_first_cell(data, error=7),
            lambda data: with_first_cell(data, error="failed"),
            lambda data: with_first_cell(data, report=None, rmsd=None, error=None),
            lambda data: with_first_cell(data, report=None, error="failed"),
        ],
        ids=[
            "no-cells",
            "report-not-object",
            "null-transitions",
            "unknown-profile",
            "top-level-list",
            "truncated",
            "one-payoff-row-for-8-profiles",
            "payoff-row-not-3-entries",
            "payoff-string",
            "payoff-bool",
            "p-not-a-number",
            "chi-off-grid",
            "p-off-grid",
            "chi-measured-bool",
            "rmsd-string",
            "more-cells-than-grid-points",
            "more-transitions-than-angles",
            "no-measurements",
            "failed-cell-error-number",
            "failed-cell-error-list",
            "report-and-error-number",
            "report-and-error-string",
            "null-report-null-error",
            "failed-cell-with-rmsd",
        ],
    )
    def test_malformed_result_file_is_config_error(self, tmp_path, corrupt):
        cfg = analytic_config(chi_grid_pi=(0.0,), p_grid=(0.0,))
        data = json.loads(Path(emit_report(run_sweep(cfg), tmp_path)["json"]).read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(corrupt(data))
        with pytest.raises(ConfigError, match="bad result file .*bad.json"):
            load_result(bad)

    def test_inconsistent_cell_names_its_index(self, tmp_path):
        cfg = analytic_config(chi_grid_pi=(0.0, 0.1), p_grid=(0.0, 0.5))
        data = json.loads(Path(emit_report(run_sweep(cfg), tmp_path)["json"]).read_text())
        data["cells"][2] = {**data["cells"][2], "report": None, "rmsd": None}
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(data))
        message = "cell 2 has a null report, rmsd None and error None; "
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_result(path)

    @pytest.mark.parametrize("bad", ["1.5", True, None])
    def test_payoff_that_is_not_a_number_names_its_cell(self, tmp_path, bad):
        cfg = analytic_config(chi_grid_pi=(0.0, 0.1), p_grid=(0.0, 0.5))
        data = json.loads(Path(emit_report(run_sweep(cfg), tmp_path)["json"]).read_text())
        data["cells"][3]["report"]["payoffs"][0][1] = bad
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=re.escape(f"cell 3: payoffs: expected a number, got {bad!r}")):
            load_result(path)

    def test_integer_and_non_finite_payoffs_load_as_floats(self, tmp_path):
        cfg = analytic_config(chi_grid_pi=(0.0,), p_grid=(0.5,))
        data = json.loads(Path(emit_report(run_sweep(cfg), tmp_path)["json"]).read_text())
        data["cells"][0]["report"]["payoffs"][0] = [2, float("nan"), -float("inf")]
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(data))
        a, b1, b2 = load_result(path).cells[0].report.payoffs[0]
        assert (type(a), a, math.isnan(b1), b2) == (float, 2.0, True, -math.inf)

    def test_result_cells_out_of_grid_order_name_the_first_misplaced_cell(self, tmp_path):
        # run_sweep emits the cells chi-major; these two are swapped
        cfg = analytic_config(chi_grid_pi=(0.0, 0.1), p_grid=(0.0, 0.5))
        data = json.loads(Path(emit_report(run_sweep(cfg), tmp_path)["json"]).read_text())
        data["cells"][1], data["cells"][2] = data["cells"][2], data["cells"][1]
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(data))
        message = "cell 1 at (chi_nominal_pi, p) = (0.1, 0.0), expected (0.0, 0.5)"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_result(path)

    @pytest.mark.parametrize(
        "key, fields, message",
        [
            ("transitions", {"chi_pi": "abc"}, "transitions chi_pi: expected a number, got 'abc'"),
            ("transitions", {"chi_pi": 0.2}, "transitions chi_pi [0.2, 0.1] are not the config grid"),
            ("transitions", {"thresholds": ["x"]}, "thresholds: expected a number, got 'x'"),
            ("transitions", {"thresholds": [0.5, 0.0]}, "thresholds [0.5, 0.0] are not ascending points"),
            ("transitions", {"thresholds": [0.5, 0.5]}, "thresholds [0.5, 0.5] are not ascending points"),
            ("transitions", {"thresholds": [0.25]}, "thresholds [0.25] are not ascending points"),
            ("chi_measurements", {"chi_nominal_pi": 0.7}, "chi_nominal_pi [0.7, 0.1] are not the config grid"),
            ("chi_measurements", {"value_rad": "zz"}, "value_rad: expected a number, got 'zz'"),
            ("chi_measurements", {"sigma_rad": float("nan")}, "sigma_rad: expected a finite number, got nan"),
        ],
    )
    def test_result_transitions_and_measurements_are_checked(self, tmp_path, key, fields, message):
        # one entry per angle of the grid, in grid order; thresholds are grid p values
        cfg = analytic_config(chi_grid_pi=(0.0, 0.1), p_grid=(0.0, 0.5))
        data = json.loads(Path(emit_report(run_sweep(cfg), tmp_path)["json"]).read_text())
        path = tmp_path / "head.json"
        path.write_text(with_first(data, key, **fields))
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_result(path)

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["nonexistent", "directory"])
    def test_unreadable_result_file_is_config_error(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(ConfigError, match=f"cannot read result file {re.escape(str(path))}: "):
            load_result(path)


def with_first(data: dict, key: str, **fields) -> str:
    """The result document with fields of the first entry of list `key` replaced."""
    return json.dumps({**data, key: [{**data[key][0], **fields}, *data[key][1:]]})


def with_first_cell(data: dict, **fields) -> str:
    """The result document with fields of its first cell replaced."""
    return json.dumps({**data, "cells": [{**data["cells"][0], **fields}, *data["cells"][1:]]})


def with_first_payoffs(data: dict, change) -> str:
    """The result document with its first cell's payoff rows changed."""
    cell = data["cells"][0]
    report = {**cell["report"], "payoffs": change(cell["report"]["payoffs"])}
    return json.dumps({**data, "cells": [{**cell, "report": report}, *data["cells"][1:]]})


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ANY_FLOAT = st.floats()  # NaN, both infinities, both zeros and subnormals included
PROFILE = st.sampled_from(list(itertools.product(STRATEGIES, repeat=3)))
EQUILIBRIA = st.lists(st.tuples(PROFILE, st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT)), min_size=1, max_size=8).map(
    lambda pairs: EquilibriumReport(*map(tuple, zip(*pairs)))
)
# the three kinds of cell a sweep writes: solved, empty (no equilibrium) and failed
SOLVED_CELL = st.builds(
    lambda measured, p, report, rmsd: CellResult(0.1, measured, p, report, rmsd),
    ANY_FLOAT,
    ANY_FLOAT,
    st.one_of(EQUILIBRIA, st.just(EquilibriumReport((), ()))),
    st.none() | ANY_FLOAT,
)
FAILED_CELL = st.builds(
    lambda measured, p, error: CellResult(0.1, measured, p, None, None, error), ANY_FLOAT, ANY_FLOAT, st.text()
)


def hand_built_result(cells, transitions=None) -> SweepResult:
    base = run_sweep(analytic_config(chi_grid_pi=(0.1,), p_grid=(0.5,)))
    return SweepResult(base.config, tuple(cells), transitions or ((0.1, None),), base.chi_measurements)


class TestEmitterMatchesReference:
    """emit_report writes the bytes of csv.writer and json.dump(indent=2)."""

    @staticmethod
    def assert_matches_reference(result: SweepResult, out_dir) -> None:
        out_dir = Path(out_dir)
        paths = emit_report(result, out_dir / "emitted")
        csv_bytes, json_bytes = reference_emit(result, out_dir / "reference")
        assert Path(paths["csv"]).read_bytes() == csv_bytes
        assert Path(paths["json"]).read_bytes() == json_bytes

    def test_default_analytic_sweep(self, tmp_path):
        self.assert_matches_reference(run_sweep(ExperimentConfig(mode="analytic")), tmp_path)

    def test_starved_shot_sweep_with_failed_cells(self, tmp_path):
        cfg = shot_config(chi_grid_pi=(0.0, 0.25), p_grid=(0.0, 0.02, 0.5, 1.0), shots=40, seed=0)
        result = run_sweep(cfg)
        assert 0 < sum(cell.error is not None for cell in result.cells) < len(result.cells)
        self.assert_matches_reference(result, tmp_path)

    def test_empty_equilibrium_cell(self, tmp_path):
        result = run_sweep(analytic_config(chi_grid_pi=(0.25,), p_grid=(0.5,)))
        assert result.cells[0].report.empty
        self.assert_matches_reference(result, tmp_path)

    def test_hand_built_cells_with_awkward_strings_and_non_finite_floats(self, tmp_path):
        profile = profile_from_names("ZYX")
        cells = (
            CellResult(0.1, 0.1, 0.5, None, None, error='quote " backslash \\ newline \n tab \t é 😀'),
            CellResult(0.1, 0.1, 0.6, EquilibriumReport((), ()), None),
            CellResult(0.1, 0.1, 0.7, EquilibriumReport((profile,), ((math.inf, -math.inf, math.nan),)), math.nan),
        )
        self.assert_matches_reference(hand_built_result(cells), tmp_path)

    def test_no_cells(self, tmp_path):
        self.assert_matches_reference(hand_built_result(()), tmp_path)

    def test_emit_load_emit_is_byte_identical(self, tmp_path):
        cfg = shot_config(chi_grid_pi=(0.0, 0.25), p_grid=(0.0, 0.02, 0.5, 1.0), shots=40, seed=0)
        first = emit_report(run_sweep(cfg), tmp_path / "first")
        second = emit_report(load_result(first["json"]), tmp_path / "second")
        for fmt in ("csv", "json"):
            assert Path(first[fmt]).read_bytes() == Path(second[fmt]).read_bytes()

    @given(p=FINITE, rmsd=FINITE, payoffs=st.tuples(FINITE, FINITE, FINITE))
    @example(p=-0.0, rmsd=5e-324, payoffs=(1e16, 1e300, -0.0))
    @settings(max_examples=60, deadline=None)
    def test_any_finite_floats(self, p, rmsd, payoffs):
        report = EquilibriumReport((profile_from_names("IXI"),), (payoffs,))
        result = hand_built_result((CellResult(0.1, 0.1, p, report, rmsd),))
        with tempfile.TemporaryDirectory() as out_dir:
            self.assert_matches_reference(result, out_dir)

    IXI = profile_from_names("IXI")

    @given(cells=st.lists(st.one_of(SOLVED_CELL, FAILED_CELL), min_size=1, max_size=6))
    @example(
        cells=[
            CellResult(0.1, -0.0, 5e-324, EquilibriumReport((IXI,), ((math.nan, -0.0, 1e300),)), None),
            CellResult(0.1, math.inf, 0.0, EquilibriumReport((), ()), math.nan),
            CellResult(0.1, 0.1, -math.inf, None, None, error='"\\\n😀'),
        ]
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_cells_with_any_floats_and_errors(self, cells):
        with tempfile.TemporaryDirectory() as out_dir:
            self.assert_matches_reference(hand_built_result(cells), out_dir)

    def test_numpy_floats_are_written_as_plain_floats(self, tmp_path):
        # np.float64 is a float, so json.dump writes its float repr; so must the CSV
        report = EquilibriumReport((profile_from_names("IXI"),), ((np.float64(1.5), 2.0, np.float64(-0.0)),))
        numpy_cell = CellResult(0.1, np.float64(0.1), np.float64(0.5), report, np.float64(0.25))
        plain_cell = CellResult(0.1, 0.1, 0.5, EquilibriumReport(report.profiles, ((1.5, 2.0, -0.0),)), 0.25)
        self.assert_matches_reference(hand_built_result((numpy_cell,)), tmp_path / "numpy")
        numpy_paths = emit_report(hand_built_result((numpy_cell,)), tmp_path / "numpy")
        plain_paths = emit_report(hand_built_result((plain_cell,)), tmp_path / "plain")
        for fmt in ("csv", "json"):
            assert Path(numpy_paths[fmt]).read_bytes() == Path(plain_paths[fmt]).read_bytes()
        assert b"np.float64" not in Path(numpy_paths["csv"]).read_bytes()


RMSD_COLUMNS = ("chi_nominal_pi", "chi_measured_pi", "mean_rmsd", "max_rmsd", "n_cells")
THRESHOLD_COLUMNS = ("chi_pi", "profile", "thresholds", "window")
VERIFY_COLUMNS = ("chi_pi", "variant", "max_linf", "aux_marginal_dev", "passed", "worst_branch")


class TestTableCsvMatchesReference:
    """write_csv writes the bytes of csv.writer for every table it serves."""

    @staticmethod
    def assert_matches_reference(path, columns, rows, ref_dir) -> None:
        reference = Path(ref_dir) / Path(path).name
        reference_write_csv(reference, columns, rows)
        assert Path(path).read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize(
        "config",
        [
            analytic_config(chi_grid_pi=(0.0, 0.05, 0.25)),
            shot_config(chi_grid_pi=(0.05, 0.25), p_grid=(0.0, 0.5, 1.0), shots=40, seed=0),
        ],
        ids=["analytic", "starved-shots"],
    )
    def test_cli_rmsd_and_thresholds_tables(self, tmp_path, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config.to_dict()))
        for command in ("rmsd", "thresholds"):
            main([command, "--config", str(path), "--out", str(tmp_path / "cli")])
        result = run_sweep(config)
        self.assert_matches_reference(tmp_path / "cli" / "rmsd.csv", RMSD_COLUMNS, rmsd_analysis(result), tmp_path)
        self.assert_matches_reference(
            tmp_path / "cli" / "thresholds.csv", THRESHOLD_COLUMNS, threshold_rows(result), tmp_path
        )

    def test_cli_verify_table(self, tmp_path):
        assert main(["verify", "--chi-grid", "0,0.125,0.25", "--out", str(tmp_path / "cli")]) == 0
        rows = verify_parallelization((0.0, 0.125, 0.25))
        self.assert_matches_reference(tmp_path / "cli" / "verify.csv", VERIFY_COLUMNS, rows, tmp_path)

    def test_hand_built_none_and_empty_fields(self, tmp_path):
        cells = (CellResult(0.1, 0.1, 0.5, None, None, error="failed"),)
        result = hand_built_result(cells, transitions=((0.1, None), (0.2, ())))
        rmsd_rows, rows = rmsd_analysis(result), threshold_rows(result)
        assert rmsd_rows[0]["mean_rmsd"] is None
        assert [row["thresholds"] for row in rows] == [None, []]
        write_csv(tmp_path / "out" / "rmsd.csv", RMSD_COLUMNS, rmsd_rows)
        write_csv(tmp_path / "out" / "thresholds.csv", THRESHOLD_COLUMNS, rows)
        self.assert_matches_reference(tmp_path / "out" / "rmsd.csv", RMSD_COLUMNS, rmsd_rows, tmp_path)
        self.assert_matches_reference(tmp_path / "out" / "thresholds.csv", THRESHOLD_COLUMNS, rows, tmp_path)

    def test_numpy_float_fields_are_written_as_plain_floats(self, tmp_path):
        plain = {"chi_nominal_pi": 0.1, "chi_measured_pi": 0.1, "mean_rmsd": 0.5, "max_rmsd": None, "n_cells": 3}
        numpy_row = {**plain, "chi_measured_pi": np.float64(0.1), "mean_rmsd": np.float64(0.5)}
        write_csv(tmp_path / "numpy.csv", RMSD_COLUMNS, [numpy_row])
        write_csv(tmp_path / "plain.csv", RMSD_COLUMNS, [plain])
        assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert (tmp_path / "numpy.csv").read_text().splitlines()[1] == "0.1,0.1,0.5,,3"
        self.assert_matches_reference(tmp_path / "numpy.csv", RMSD_COLUMNS, [numpy_row], tmp_path / "ref")


class TestAnalyses:
    def test_rmsd_analysis_zero_for_analytic(self):
        cfg = analytic_config(chi_grid_pi=(0.0, 0.05), p_grid=(0.0, 0.1))
        rows = rmsd_analysis(run_sweep(cfg))
        assert [r["chi_nominal_pi"] for r in rows] == [0.0, 0.05]
        assert all(r["mean_rmsd"] == 0.0 for r in rows)
        assert all(r["n_cells"] == 2 for r in rows)

    def test_threshold_rows_shape(self):
        cfg = analytic_config(chi_grid_pi=(0.05,))
        rows = threshold_rows(run_sweep(cfg))
        assert rows == [{"chi_pi": 0.05, "profile": "IXI", "thresholds": [0.17], "window": 3}]


class TestVerifyParallelization:
    def test_default_grid_passes(self):
        rows = verify_parallelization()
        assert len(rows) == 22  # 11 angles x 2 variants
        assert all(r["passed"] for r in rows)
        assert max(r["max_linf"] for r in rows) < 1e-10
        assert max(r["aux_marginal_dev"] for r in rows) < 1e-12

    @pytest.mark.parametrize(
        "grid", [DEFAULT_CHI_GRID_PI, tuple(i / 400 for i in range(101))], ids=["default-grid", "101-angles"]
    )
    def test_rows_match_dict_based_reference(self, grid):
        rows = verify_parallelization(grid)
        assert rows == reference_verify_rows(grid)
        assert all(type(row["passed"]) is bool for row in rows)

    def test_corrupted_branch_map_is_caught(self, monkeypatch):
        # I-circuit branches (0,0,0) and (0,0,1) claim each other's pair
        pairs = qgame.sweep.BRANCH_PAIRS.copy()
        pairs[0, [0, 1]] = pairs[0, [1, 0]]
        monkeypatch.setattr(qgame.sweep, "BRANCH_PAIRS", pairs)
        rows = verify_parallelization((0.1,))
        bad = [r for r in rows if r["variant"] == "I"][0]
        good = [r for r in rows if r["variant"] == "X"][0]
        assert not bad["passed"]
        assert bad["worst_branch"] != ""
        assert good["passed"]
        mapping = dict(branch_map(Variant.I_CIRCUIT))
        keys = sorted(mapping)
        mapping[keys[0]], mapping[keys[1]] = mapping[keys[1]], mapping[keys[0]]
        assert rows == reference_verify_rows((0.1,), branch_maps={Variant.I_CIRCUIT: mapping})


class TestCli:
    def test_sweep_writes_outputs(self, tmp_path, capsys):
        code = main(["sweep", "--mode", "analytic", "--out", str(tmp_path), "--seed", "4"])
        assert code == 0
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep.json").exists()
        assert "cells evaluated" in capsys.readouterr().out

    def test_seed_override_lands_in_output(self, tmp_path):
        main(["sweep", "--mode", "analytic", "--out", str(tmp_path), "--seed", "77"])
        result = load_result(tmp_path / "sweep.json")
        assert result.config.seed == 77

    def test_verify_csv_holds_plain_numbers_and_booleans(self, tmp_path):
        assert main(["verify", "--chi-grid", "0,0.125,0.25", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "verify.csv").read_text()
        assert "np." not in text
        rows = list(csv.DictReader(text.splitlines()))
        assert len(rows) == 6 and all(row["passed"] == "true" for row in rows)

    def test_verify_passes_on_default_grid(self, capsys):
        assert main(["verify", "--chi-grid", "0,0.125,0.25"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_bad_chi_grid_is_config_error(self, capsys):
        assert main(["verify", "--chi-grid", "0.4"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": -1},
            {"seed": 2**64},
            {"seed": 1.5},
            {"seed": True},
            {"shots": 1000.5},
            {"shots": True},
            {"calibration_shots": 300.5},
            {"calibration_shots": True},
            {"shots": 2**63},
            {"calibration_shots": 2**63},
            {"transition_window": 2.5},
            {"transition_window": True},
        ],
        ids=[
            "seed-negative",
            "seed-too-big",
            "seed-float",
            "seed-bool",
            "shots-float",
            "shots-bool",
            "calibration-shots-float",
            "calibration-shots-bool",
            "shots-too-big",
            "calibration-shots-too-big",
            "window-float",
            "window-bool",
        ],
    )
    def test_non_integer_or_out_of_range_count_is_config_error(self, tmp_path, capsys, override):
        # seeds, shot counts and the window are ints; JSON floats and true
        # once passed validation and then crashed the sweep or ran silently,
        # and a shot count of 2**63 overflowed the sampler's C long
        config = {"mode": "shots", "chi_grid_pi": [0.1], "p_grid": [0.5], "shots": 500, **override}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            {"noise": {"chi_jitter_sigma": float("nan")}},
            {"noise": {"chi_offset": float("nan")}},
            {"noise": {"chi_offset": float("inf")}},
            {"p_grid": [0.1, float("nan")]},
            {"delta": float("nan")},
        ],
        ids=["jitter-nan", "offset-nan", "offset-inf", "p-grid-nan", "delta-nan"],
    )
    def test_non_finite_config_number_is_config_error(self, tmp_path, capsys, override):
        # json.load reads NaN and Infinity literals; each of these once passed
        # validation and then crashed the sweep or emptied every equilibrium set
        config = {"mode": "shots", "chi_grid_pi": [0.1], "p_grid": [0.5], "shots": 500, **override}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            {"chi_grid_pi": ["a"]},
            {"p_grid": [0.1, "0.5"]},
            {"chi_grid_pi": [False]},
            {"p_grid": [True]},
            {"delta": True},
            {"noise": {"chi_offset": True}},
            {"noise": {"seed": "5"}},
            {"noise": {"seed": 1.7}},
            {"noise": {"seed": True}},
            {"payoff_rows_b1": [[[True, 9], [1, 10]], [[10, 1], [6, 6]]]},
            {"payoff_rows_b2": [[["11", 9], [1, 6]], [[10, 1], [6, 0]]]},
        ],
        ids=[
            "chi-grid-string",
            "p-grid-string",
            "chi-grid-bool",
            "p-grid-bool",
            "delta-bool",
            "noise-offset-bool",
            "noise-seed-string",
            "noise-seed-float",
            "noise-seed-bool",
            "payoff-row-bool",
            "payoff-row-string",
        ],
    )
    def test_non_numeric_config_number_is_config_error(self, tmp_path, capsys, override):
        # a string entry once ended in a ValueError traceback; a JSON true or
        # false passed as 1 or 0, and "delta": true ran with delta = 1; the
        # noise seed took "5", 1.7 and true as 5, 1 and 1, and a payoff entry
        # true or "11" ran as 1.0 or 11.0 and was echoed back as given
        config = {"mode": "shots", "chi_grid_pi": [0.1], "p_grid": [0.5], "shots": 500, **override}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_cell_failures_exit_code(self, tmp_path, capsys):
        cfg = shot_config(chi_grid_pi=(0.25,), p_grid=(0.5,), shots=40, seed=0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert "failed" in capsys.readouterr().err

    def test_thresholds_command(self, tmp_path, capsys):
        cfg = analytic_config(chi_grid_pi=(0.05,))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert main(["thresholds", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert "0.17" in capsys.readouterr().out
        assert (tmp_path / "thresholds.csv").exists()

    def test_rmsd_command(self, tmp_path, capsys):
        cfg = shot_config(chi_grid_pi=(0.05,), p_grid=(0.0, 0.5), shots=4_000, seed=6)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert main(["rmsd", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "rmsd.csv").exists()
        assert "mean_rmsd" in (tmp_path / "rmsd.csv").read_text()

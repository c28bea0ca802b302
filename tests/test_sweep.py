"""Sweep engine, serialization, parallelization verifier, and CLI."""

import ast
import csv
import functools
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
import threading
import tracemalloc
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgame.cli
import qgame.noise
import qgame.sweep
from qgame.cli import main
from qgame.config import DEFAULT_CHI_GRID_PI, DEFAULT_P_GRID, DELTA_SHOTS, ConfigError, ExperimentConfig, NoiseModel
from qgame.equilibrium import (
    EquilibriumReport,
    best_equilibria_stack,
    nash_columns,
)
from qgame.game import DEFAULT_PAYOFF_ROWS_B1, PROFILES, profile_from_names
from qgame.noise import PURPOSE_CALIBRATION, PURPOSE_SAMPLE, PURPOSE_SPLIT, sample_outcomes, split_counts
from qgame.parallel import N_QUBITS, Variant, build_circuit
from qgame.sweep import (
    CellResult,
    SweepResult,
    _analytic_payoffs,
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
    assert_whole_cell,
    bayes_tensor_dense,
    branch_indices,
    branch_map,
    brute_force_equilibria,
    max_payoff_profile,
    reference_analytic_reports,
    reference_child_rng,
    reference_emit,
    reference_rmsd_rows,
    reference_shot_sweep,
    reference_sweep_records,
    reference_verify_rows,
    reference_write_csv,
    result_from_records,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"


def assert_columns_match_reports(columns, reports) -> None:
    """`nash_columns`' counts, flat profiles and payoff rows are those of `reports`, row after row."""
    _, counts, flat, payoffs = columns
    assert counts == [len(report.profiles) for report in reports]
    assert [PROFILES[index] for index in flat] == [profile for report in reports for profile in report.profiles]
    assert list(zip(*payoffs)) == [row for report in reports for row in report.payoffs]


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
        path.write_text(json.dumps(asdict(cfg)))
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
        with pytest.raises(ConfigError, match=re.escape("shots=0 outside [1, 2**63)")):
            ExperimentConfig(shots=0)
        with pytest.raises(ConfigError, match="delta"):
            ExperimentConfig(delta=-0.1)
        with pytest.raises(ConfigError):
            ExperimentConfig(tracked_profile="ABC")
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_dict({"mode": "analytic", "bogus": 1})
        with pytest.raises(ConfigError, match="noise"):
            ExperimentConfig.from_dict({"noise": {"single_qubit_depol": 0.9}})

    def test_unknown_keys_of_mixed_types_are_config_error(self):
        # a dict built in Python may mix key types, which sorting them once raised a bare TypeError on
        with pytest.raises(ConfigError, match=re.escape("unknown config fields: [1, 'a']")):
            ExperimentConfig.from_dict({1: 2, "a": 3})
        with pytest.raises(ConfigError, match=re.escape("bad noise model: unknown noise fields: [0, 'b']")):
            ExperimentConfig.from_dict({"noise": {0: 1, "b": 2}})

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

    def test_shot_angles_sharing_a_stream_key_are_rejected(self):
        # both angles would draw on the same keyed streams: identical shots and pools
        grid = (0.1, 0.1000004)
        with pytest.raises(ConfigError, match=re.escape(f"chi_grid_pi points {grid[0]!r} and {grid[1]!r}")):
            shot_config(chi_grid_pi=grid)
        analytic_config(chi_grid_pi=grid)  # analytic mode draws no streams
        shot_config(chi_grid_pi=(grid[0], grid[0] + 1e-6))

    @pytest.mark.parametrize("grid", [(0.25, 0.2500004), (0.5, 0.5000004)])
    def test_p_values_in_one_millionth_draw_their_own_pools(self, grid):
        # p is in no stream key: the angle's one split stream draws each p's pools in turn
        cfg = shot_config(chi_grid_pi=(0.1,), p_grid=grid, shots=2_000)
        assert all(cell.error is None for cell in run_sweep(cfg).cells)
        counts = np.full((2, 32), 100)
        pools = _split_pools(cfg, counts, reference_child_rng(0, 100_000, 0, PURPOSE_SPLIT))
        assert not np.array_equal(pools[:, :, 0], pools[:, :, 1])

    @pytest.mark.parametrize("value", [5, None, ["I", "X", "I"]])
    def test_tracked_profile_that_is_not_a_string_names_the_field(self, tmp_path, capsys, value):
        # a non-string once raised a bare TypeError ("object of type 'int' has no len()"),
        # which was the whole message of a --config error
        for build in (lambda: ExperimentConfig(tracked_profile=value),
                      lambda: ExperimentConfig.from_dict({"tracked_profile": value})):
            with pytest.raises(ConfigError, match="^tracked_profile: bad profile string"):
                build()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tracked_profile": value}))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "tracked_profile" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, value", [("chi_grid_pi", 0.1), ("p_grid", np.array(0.5)), ("p_grid", np.full((2, 1), 0.5))]
    )
    def test_grid_that_is_not_a_list_names_its_field(self, name, value):
        # a number or a 0-d array once raised a bare TypeError ("not iterable"), and
        # a 2-d array was read row by row
        with pytest.raises(ConfigError, match=f"^{name}: expected a list of numbers, got "):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize("rows", [DEFAULT_PAYOFF_ROWS_B1, (((11, 9), (1, 10)), ((10, 1), (6, 6)))])
    def test_payoff_rows_array_is_stored_as_plain_numbers(self, rows):
        # an array of rows was rejected ("expected a number, got array(...)"), though the grids take arrays
        plain = ExperimentConfig(payoff_rows_b1=rows, payoff_rows_b2=rows)
        numpy_cfg = ExperimentConfig(payoff_rows_b1=np.array(rows), payoff_rows_b2=np.array(rows))
        assert numpy_cfg == plain and json.dumps(asdict(numpy_cfg)) == json.dumps(asdict(plain))
        entries = itertools.chain.from_iterable(itertools.chain.from_iterable(numpy_cfg.payoff_rows_b1))
        assert {type(entry) for entry in entries} == {type(rows[0][0][0])}

    @pytest.mark.parametrize(
        "config, field", [({"p_grid": [10**400]}, "p_grid"), ({"noise": {"single_qubit_depol": 10**400}}, "single_qubit_depol")],
        ids=["grid", "noise"],
    )
    def test_integer_too_large_for_a_float_is_config_error(self, tmp_path, capsys, config, field):
        # math.isfinite raised OverflowError on the int, which escaped the CLI as a traceback
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"{field}: expected a finite number, got an integer too large for a float" in err

    def test_grid_and_row_numbers_keep_their_type_or_name_the_bad_value(self):
        rows = [[[3, 3.5], [0, 5]], [[5, 0], [1, 1]]]
        cfg = ExperimentConfig(chi_grid_pi=[0, 0.1], p_grid=[0.0, 1], payoff_rows_b1=rows, payoff_rows_b2=rows)
        assert cfg.chi_grid_pi == (0.0, 0.1) and cfg.p_grid == (0.0, 1.0)
        assert all(type(value) is float for value in cfg.chi_grid_pi + cfg.p_grid)
        assert cfg.payoff_rows_b1 == (((3, 3.5), (0, 5)), ((5, 0), (1, 1)))
        assert [type(value) for value in cfg.payoff_rows_b1[0][0]] == [int, float]
        grid = ExperimentConfig(p_grid=[np.float64(0.5)]).p_grid
        assert grid == (0.5,) and type(grid[0]) is float
        for grid, message in (
            ([0.1, True], "p_grid: expected a number, got True"),
            ([0.1, math.nan], "p_grid: expected a finite number, got nan"),
            ([0.1, math.inf], "p_grid: expected a finite number, got inf"),
            ([0.1, "0.5"], "p_grid: expected a number, got '0.5'"),
        ):
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                ExperimentConfig(p_grid=grid)
        with pytest.raises(ConfigError, match=re.escape("payoff_rows_b2: expected a number, got True")):
            ExperimentConfig(payoff_rows_b2=[[[True, 3], [0, 5]], [[5, 0], [1, 1]]])
        # finite values whose sum overflows pass the per-value checks, and the range check fails
        with pytest.raises(ConfigError, match=re.escape("p_grid outside [0.0, 1.0]")):
            ExperimentConfig(p_grid=[1e308, 1.5e308])

    def test_delta_that_is_not_one_number_is_config_error(self):
        # an array delta once went row by row into a tuple, and the order check raised a bare TypeError
        with pytest.raises(ConfigError, match=re.escape("delta: expected a number, got array([0.1])")):
            ExperimentConfig(delta=np.array([0.1]))
        assert type(ExperimentConfig(delta=np.int64(1)).delta) is int

    def test_overrides_revalidate(self):
        with pytest.raises(ConfigError):
            replace(ExperimentConfig(), mode="nope")
        assert replace(ExperimentConfig(), seed=5).seed == 5


class TestAnalyticSweep:
    def test_classical_cell_has_both_reference_equilibria(self):
        cfg = analytic_config(chi_grid_pi=(0.0,), p_grid=(0.0,))
        cell = run_sweep(cfg).cells[0]
        report = cell.report
        assert profile_from_names("IXI") in report.profiles
        assert profile_from_names("ZYZ") in report.profiles
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
        got = nash_columns(*_analytic_payoffs([chi], tables, DEFAULT_P_GRID), delta)
        assert_columns_match_reports(got, reference_analytic_reports(chi, tables, DEFAULT_P_GRID, delta))
        if chi == 0.0 and not custom:
            assert got[1][0] == 8

    @pytest.mark.parametrize("delta", [0.0, 0.1])
    def test_grid_solve_matches_per_angle_references_in_chi_major_order(self, delta):
        # one evolution, one compose and one solve for three angles give each
        # angle's per-p reference reports, one angle after another; the shot
        # sweep reads its references off the same payoffs as best equilibria
        chis, tables = [0.0, 0.1 * np.pi, np.pi / 4], ExperimentConfig().tables
        payoffs = _analytic_payoffs(chis, tables, DEFAULT_P_GRID)
        want = [report for chi in chis for report in reference_analytic_reports(chi, tables, DEFAULT_P_GRID, delta)]
        assert_columns_match_reports(nash_columns(*payoffs, delta), want)
        best = best_equilibria_stack(*payoffs, delta)[0].tolist()
        assert best == [-1 if r.empty else PROFILES.index(max_payoff_profile(r)) for r in want]


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

    def test_each_column_builds_only_its_own_generators(self, monkeypatch):
        # per angle: 2 sample streams, 1 calibration stream and 1 split stream,
        # whatever the number of p, each keyed by the angle in millionths
        built, child_rng = [], qgame.sweep.child_rng

        def recording_child_rng(seed, *key):
            built.append(key)
            return child_rng(seed, *key)

        monkeypatch.setattr(qgame.sweep, "child_rng", recording_child_rng)
        chi_grid_pi = (0.05, 0.15, 0.25)
        run_sweep(shot_config(chi_grid_pi=chi_grid_pi, p_grid=(0.2, 0.5, 0.8, 1.0), shots=2_000))
        tails = [(0, PURPOSE_SAMPLE), (1, PURPOSE_SAMPLE), (0, PURPOSE_CALIBRATION), (0, PURPOSE_SPLIT)]
        assert built == [(round(chi_pi * 10**6), *tail) for chi_pi in chi_grid_pi for tail in tails]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_split_pools_match_per_row_split_counts(self, seed):
        cfg = shot_config(p_grid=DEFAULT_P_GRID, shots=30_000, seed=seed, noise=NoiseModel.default_profile(seed))
        chi_pi, chi_key = 0.15, 150_000
        counts = np.array([
            sample_outcomes(
                build_circuit(variant, chi_pi * np.pi),
                N_QUBITS,
                chi_pi * np.pi,
                cfg.noise,
                cfg.shots,
                reference_child_rng(seed, chi_key, v, PURPOSE_SAMPLE),
            )
            for v, variant in enumerate(Variant)
        ])
        split_key = (chi_key, 0, PURPOSE_SPLIT)
        pools = _split_pools(cfg, counts, reference_child_rng(seed, *split_key))
        # one stream per angle: every p of the I-circuit's split, then every p of the X-circuit's
        rng = reference_child_rng(seed, *split_key)
        for v in range(len(Variant)):
            for n, p in enumerate(cfg.p_grid):
                for t, pool in enumerate(split_counts(counts[v], p, rng)):
                    # an emptied pool falls back to the full dataset
                    expected = pool if pool.sum() > 0 else counts[v]
                    assert np.array_equal(pools[v, t, n], expected)

    def test_sweep_split_streams_are_keyed_per_angle(self, monkeypatch):
        # each angle has one split stream, keyed (chi, 0, PURPOSE_SPLIT): its
        # first 32 * P draws split the I-circuit's counts at every p in grid
        # order, and the next 32 * P the X-circuit's
        seed, split_pools, drawn = 3, qgame.sweep._split_pools, []

        def recording_split_pools(cfg, counts, rng):
            pools = split_pools(cfg, counts, rng)
            drawn.append((counts, pools))
            return pools

        monkeypatch.setattr(qgame.sweep, "_split_pools", recording_split_pools)
        cfg = shot_config(chi_grid_pi=(0.05, 0.2), p_grid=DEFAULT_P_GRID, seed=seed,
                          noise=NoiseModel.default_profile(seed))
        run_sweep(cfg)
        assert len(drawn) == len(cfg.chi_grid_pi)
        for chi_pi, (counts, pools) in zip(cfg.chi_grid_pi, drawn):
            rng = reference_child_rng(seed, round(chi_pi * 10**6), 0, PURPOSE_SPLIT)
            for v in range(len(Variant)):
                for n, p in enumerate(cfg.p_grid):
                    b1 = rng.binomial(counts[v], p)
                    for t, pool in enumerate((b1, counts[v] - b1)):
                        assert np.array_equal(pools[v, t, n], pool if pool.sum() > 0 else counts[v])

    def test_angle_subset_reproduces_the_full_grid_cells(self):
        # every stream is keyed by the angle's value, not its position, so a
        # run on a subset of the angles with the same p grid draws the same
        # shots and splits as the full default-grid run; at 2k shots the
        # pools at p near 0 and 1 are small enough to empty a branch
        noise = NoiseModel.default_profile(0)
        full = run_sweep(shot_config(noise=noise, shots=2_000))
        sub = run_sweep(shot_config(chi_grid_pi=(0.05, 0.2), noise=noise, shots=2_000))
        cells = {(cell.chi_nominal_pi, cell.p): cell for cell in full.cells}
        assert sub.cells == tuple(cells[cell.chi_nominal_pi, cell.p] for cell in sub.cells)
        assert len(sub.cells) == 2 * len(DEFAULT_P_GRID)
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
        "seed, noise, shots",
        [
            (0, NoiseModel.default_profile(0), 2_000),
            (1, NoiseModel.default_profile(1), 2_000),
            (0, NoiseModel(readout_flip_0to1=0.5, readout_flip_1to0=0.5), 30_000),
        ],
        ids=["default-seed0", "default-seed1", "singular-readout"],
    )
    def test_column_matches_per_cell_reference(self, seed, noise, shots):
        # at 2k shots, p near 0 and 1 leaves pools of 20 to 100 shots, some
        # with an empty branch at these seeds; a singular readout matrix
        # fails every cell
        p_grid = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.5, 0.96, 0.97, 0.98, 0.99, 1.0)
        cfg = shot_config(chi_grid_pi=(0.05, 0.2), p_grid=p_grid, shots=shots, seed=seed, noise=noise)
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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_profile_fails_no_cell(self, monkeypatch, seed):
        # every SPAM-corrected pool of the default profile keeps its negative mass far inside the
        # 2 sqrt(total) bound, at most 0.25 sqrt(total) at these seeds, so none of the default
        # grid's 1111 cells fails
        ratios, correct = [], qgame.sweep.spam_correct_stack

        def recording(counts, noise):
            corrected, failed, negative = correct(counts, noise)
            ratios.append((negative / np.sqrt(counts.sum(axis=-1))).max())
            return corrected, failed, negative

        monkeypatch.setattr(qgame.sweep, "spam_correct_stack", recording)
        result = run_sweep(ExperimentConfig(mode="shots", noise=NoiseModel.default_profile(seed), seed=seed))
        assert len(result.cell_columns.error) == 1111
        assert result.cell_columns.error.count(None) == 1111
        assert len(ratios) == 11 and max(ratios) < 0.5

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
        # sit in one outcome: at 100k shots its pools' negative mass breaks
        # the 2 sqrt(total) SPAM bound; the I-circuit comes first, so its
        # empty branch names the cell's error
        counts = {Variant.I_CIRCUIT: np.full(32, 100), Variant.X_CIRCUIT: np.zeros(32, dtype=int)}
        counts[Variant.I_CIRCUIT][branch_indices(1, 1, 1)] = 0
        counts[Variant.X_CIRCUIT][0] = 100_000
        variants = {build_circuit(variant, 0.0): variant for variant in Variant}  # a circuit is its gate tuple
        monkeypatch.setattr(qgame.sweep, "sample_outcomes", lambda gates, *args: counts[variants[gates]])
        cfg = shot_config(chi_grid_pi=(0.1,), p_grid=(0.5,), noise=NoiseModel(readout_flip_0to1=0.005))
        cell = run_sweep(cfg).cells[0]
        assert cell.error == "branch (x,y,z)=(1,1,1) of I-circuit has zero population"
        counts[Variant.I_CIRCUIT][:] = 100
        cell = run_sweep(cfg).cells[0]
        assert cell.error is not None and cell.error.startswith("corrected negative mass")

    def test_default_profile_sweep_peak_memory_stays_bounded(self):
        # the reduce stage runs one angle at a time, the next angle's split drawn
        # beside it on the executor's worker: 1.68 MB traced at peak, where
        # reducing the whole grid in one stack took 5.7-7.6 MB
        cfg = shot_config(noise=NoiseModel.default_profile(0))
        run_sweep(cfg)  # fills the outcome law's node cache
        tracemalloc.start()
        try:
            run_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6

    @pytest.mark.parametrize("fail, at", [(None, None), ("tensor_from_distributions", 5), ("split_counts", 4),
                                          ("split_counts", 1), ("best_equilibria_stack", 1)],
                             ids=["None", "tensor_from_distributions", "split_counts", "split_counts-first-angle",
                                  "best_equilibria_stack"])
    def test_split_worker_ends_with_the_sweep(self, monkeypatch, fail, at):
        # the type split's worker thread is joined before run_sweep returns or
        # raises, whether the calling thread raises in the third angle's reduce
        # (its fifth payoff call) or in the references pass while the first
        # angle's split is in flight, or the worker raises in the fourth or the
        # first angle's split
        if fail is not None:
            real, calls = getattr(qgame.sweep, fail), []

            def failing(*args):
                calls.append(args)
                if len(calls) == at:
                    raise RuntimeError(f"{fail} failed on call {at}")
                return real(*args)

            monkeypatch.setattr(qgame.sweep, fail, failing)
        cfg = shot_config(chi_grid_pi=(0.0, 0.05, 0.1, 0.15, 0.2), p_grid=(0.2, 0.5, 0.8), shots=2_000)
        before = threading.enumerate()
        if fail is None:
            run_sweep(cfg)
        else:
            with pytest.raises(RuntimeError, match=f"^{fail} failed on call {at}$"):
                run_sweep(cfg)
        assert threading.enumerate() == before

    def test_first_split_overlaps_the_references_pass(self, monkeypatch):
        # the first angle's split is handed to the worker before the calling
        # thread starts the references pass, so it draws beside that pass
        started, real_split, real_best = threading.Event(), qgame.sweep._split_pools, qgame.sweep.best_equilibria_stack

        def split(*args):
            started.set()
            return real_split(*args)

        def best(*args):
            assert started.wait(timeout=5), "the first split had not started when the references pass began"
            return real_best(*args)

        monkeypatch.setattr(qgame.sweep, "_split_pools", split)
        monkeypatch.setattr(qgame.sweep, "best_equilibria_stack", best)
        run_sweep(shot_config(chi_grid_pi=(0.0, 0.1), p_grid=(0.2, 0.8), shots=2_000))

    def test_split_holds_at_most_two_angles_pools(self, monkeypatch):
        # no angle's pools outlive its reduce: each reduce starts with every
        # earlier angle's pools freed, and each split with at most the
        # previous angle's pools held, whenever the worker gets to run
        real_split, real_reduce, drawn, at_split, at_reduce = qgame.sweep._split_pools, qgame.sweep._reduce, [], [], []

        def split(*args):
            at_split.append(sum(ref() is not None for ref in drawn))
            drawn.append(weakref.ref(pools := real_split(*args)))
            return pools

        def reduce(config, pools):
            angle = next(n for n, ref in enumerate(drawn) if ref() is pools)
            at_reduce.append(sum(ref() is not None for ref in drawn[:angle]))
            return real_reduce(config, pools)

        monkeypatch.setattr(qgame.sweep, "_split_pools", split)
        monkeypatch.setattr(qgame.sweep, "_reduce", reduce)
        run_sweep(shot_config(chi_grid_pi=(0.0, 0.05, 0.1, 0.15, 0.2), p_grid=(0.2, 0.5, 0.8), shots=2_000))
        assert at_reduce == [0] * 5
        assert max(at_split) <= 1

    def test_concurrent_sweeps_match_serial_ones(self):
        # three sweeps at once, each with its split worker, put six threads on
        # the cores with the interpreter switching between them as often as it
        # can; each angle's pools still reach that angle's reduce
        configs = [shot_config(chi_grid_pi=(0.0, 0.05, 0.1, 0.15), p_grid=(0.2, 0.5, 0.8), shots=2_000, seed=seed,
                               noise=NoiseModel.default_profile(seed)) for seed in (7, 8, 9)]
        expected, results = [run_sweep(cfg) for cfg in configs], [None] * len(configs)

        def sweep(n):
            results[n] = run_sweep(configs[n])

        threads = [threading.Thread(target=sweep, args=(n,)) for n in range(len(configs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected

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
        # one payoff evolution of every angle for both games and one Bayesian
        # mix of the whole grid, each looked up where the tracer wraps it
        cfg = analytic_config(chi_grid_pi=(0.05, 0.25))
        with load_layertrace().Tracer() as tracer:
            run_sweep(cfg)
        assert tracer.counts["game.payoff_tensor.calls"] == 1
        assert tracer.counts["bayesian.compose.calls"] == 1

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

    @pytest.mark.parametrize("mode", ["shots", "analytic"])
    def test_traced_names_run_on_the_calling_thread(self, monkeypatch, mode):
        # the tracer keeps one span stack without a lock, so each name it wraps
        # in qgame.sweep runs on the thread that called run_sweep, never on the
        # type split's worker
        called = []
        for module, attr, *_ in load_layertrace().TRACE_POINTS:
            if module is qgame.sweep:
                def recording(*args, _real=getattr(module, attr), _attr=attr, **kwargs):
                    called.append((_attr, threading.get_ident()))
                    return _real(*args, **kwargs)

                monkeypatch.setattr(qgame.sweep, attr, recording)
        cfg = shot_config(noise=NoiseModel.default_profile(0)) if mode == "shots" else analytic_config()
        qgame.sweep.run_sweep(cfg)
        names = {attr for attr, _ in called}
        assert {"run_sweep", "payoff_tensor", "compose", "detect_transitions"} <= names
        if mode == "shots":
            assert {"sample_outcomes", "measure_chi", "build_circuit", "tensor_from_distributions"} <= names
        assert {ident for _, ident in called} == {threading.get_ident()}

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
        assert digest == "469bf75cf09215f95e4e70c40a8ac9f0a465928013d85710bcc9dcad9b0c49b3"

    def test_default_noisy_shot_sweep_matches_pinned_digests(self, tmp_path):
        # the benchmark's shots_noisy workload at seed 0, which fails no cell; re-pinned when SPAM
        # correction's 0.1% negative floor, which failed 57 of its cells, gave way to the 2 sqrt(total)
        # bound on a pool's negative mass
        cfg = ExperimentConfig(mode="shots", noise=NoiseModel.default_profile(0), seed=0)
        paths = emit_report(run_sweep(cfg), tmp_path)
        digests = [hashlib.sha256(Path(paths[fmt]).read_bytes()).hexdigest() for fmt in ("csv", "json")]
        assert digests == [
            "b5506a661aa98e58496088df5d5249ac6ea0a430890e159a17f3ea65c7366bef",
            "83fd705bce078fd4361e97ffdca3bdfdfd64e5c9f152ed355c2dbfcd760c0723",
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
        failed = result_from_records(
            config=base.config,
            cells=(CellResult(0.1, 0.1, 0.5, None, None, error="boom"),),
            transitions=((0.1, None),),
            chi_measurements=base.chi_measurements,
        )
        row = emitted_rows(failed, tmp_path)[0]
        assert row["n_equilibria"] == ""
        assert row["profile"] == ""

    def test_numpy_config_numbers_emit_as_plain_numbers(self, tmp_path):
        # numpy integers once passed validation, then crashed the JSON writer after the whole sweep
        rows, grids = (((11, 9), (1, 10)), ((10, 1), (6, 6))), {"chi_grid_pi": (0.0, 0.1), "p_grid": (0.2, 0.7)}
        plain = analytic_config(payoff_rows_b1=rows, delta=0, **grids)
        numpy_rows = [[list(pair) for pair in row] for row in np.array(rows, dtype=np.int64)]
        numpy_cfg = analytic_config(payoff_rows_b1=numpy_rows, delta=np.int64(0), **grids)
        assert type(numpy_cfg.delta) is int and type(numpy_cfg.payoff_rows_b1[1][0][1]) is int
        paths = [emit_report(run_sweep(cfg), tmp_path / name) for name, cfg in (("plain", plain), ("numpy", numpy_cfg))]
        for fmt in ("csv", "json"):
            assert Path(paths[0][fmt]).read_bytes() == Path(paths[1][fmt]).read_bytes()

    def test_numpy_integer_counts_and_seed_run_and_emit_as_plain_ints(self, tmp_path):
        # numpy integers were rejected for these fields and the noise seed, though payoff rows and delta take them
        counts = {"shots": 4_000, "calibration_shots": 3_000, "transition_window": 2, "seed": 7,
                  "noise": NoiseModel.default_profile(7)}
        numpy_counts = {"shots": np.int64(4_000), "calibration_shots": np.int32(3_000),
                        "transition_window": np.uint8(2), "seed": np.uint64(7),
                        "noise": NoiseModel.default_profile(np.int64(7))}
        grids = {"chi_grid_pi": (0.05, 0.2), "p_grid": (0.1, 0.5, 0.9)}
        plain, numpy_cfg = (shot_config(**grids, **kw) for kw in (counts, numpy_counts))
        assert numpy_cfg == plain and type(numpy_cfg.noise.seed) is int
        assert all(type(getattr(numpy_cfg, name)) is int for name in counts if name != "noise")
        paths = [emit_report(run_sweep(cfg), tmp_path / name) for name, cfg in (("plain", plain), ("numpy", numpy_cfg))]
        for fmt in ("csv", "json"):
            assert Path(paths[0][fmt]).read_bytes() == Path(paths[1][fmt]).read_bytes()

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
        # schema 4: one column per cell field, one per equilibrium field cut
        # by n_equilibria; the config holds delta, the tracked profile and the
        # window; transitions hold only what the solver computed
        data = json.loads(Path(paths["json"]).read_text())
        assert data["schema_version"] == 4
        assert {"delta", "tracked_profile", "transition_window"} <= set(data["config"])
        cells, equilibria = data["cells"], data["equilibria"]
        assert list(cells) == ["chi_nominal_pi", "chi_measured_pi", "p", "n_equilibria", "rmsd", "error"]
        assert list(equilibria) == ["profile", "payoff_A", "payoff_B1", "payoff_B2"]
        assert all(len(column) == 6 for column in cells.values())
        counts = [len(cell.report.profiles) for cell in result.cells if cell.report is not None]
        assert counts == [count for count in cells["n_equilibria"] if count is not None]
        assert all(len(column) == sum(counts) for column in equilibria.values())
        assert len(data["transitions"]) == 2
        assert all(set(entry) == {"chi_pi", "thresholds"} for entry in data["transitions"])

    def test_loaded_records_are_cells_and_reports(self, tmp_path):
        # a named tuple equals a plain tuple of its fields, so equality alone
        # would not catch a loader that builds plain tuples
        cfg = shot_config(chi_grid_pi=(0.25,), p_grid=(0.0, 0.5, 1.0), shots=40, seed=0)
        loaded = load_result(emit_report(run_sweep(cfg), tmp_path)["json"])
        assert all(type(cell) is CellResult for cell in loaded.cells)
        reports = [cell.report for cell in loaded.cells if cell.report is not None]
        assert 0 < len(reports) < len(loaded.cells)
        assert all(type(report) is EquilibriumReport for report in reports)

    @pytest.mark.parametrize("noise", [None, NoiseModel.default_profile(0)], ids=["analytic", "shots_noisy"])
    def test_built_and_loaded_records_are_whole(self, tmp_path, noise):
        # every cell and report of a built, a noisy and a loaded sweep is a whole record; at 2k shots
        # the noisy sweep's pools at p near 0 and 1 empty a branch in some cells
        cfg = ExperimentConfig() if noise is None else ExperimentConfig(mode="shots", noise=noise, seed=0, shots=2_000)
        result = run_sweep(cfg)
        loaded = load_result(emit_report(result, tmp_path)["json"])
        if noise is not None:
            assert any(cell.error is not None for cell in result.cells)
        for cell in (*result.cells, *loaded.cells):
            assert_whole_cell(cell)

    @pytest.mark.parametrize("mode", ["analytic", "shots"])
    def test_records_are_immutable_and_hashable(self, mode):
        cfg = ExperimentConfig(mode=mode, chi_grid_pi=(0.05,), p_grid=(0.3, 0.7), shots=2_000)
        cells = run_sweep(cfg).cells
        cell, report = cells[0], cells[0].report
        for record, name, value in ((cell, "rmsd", 1.0), (cell, "report", None), (report, "profiles", ())):
            with pytest.raises(AttributeError):
                setattr(record, name, value)
        assert hash(cells) == hash(run_sweep(cfg).cells)
        assert len({cell, *cells}) == len(cells)

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
        # 3 is the row-wise layout of one object per cell, 2 the one before
        # reports and transitions lost their copied keys; neither is read
        for version in (3, 2, 99):
            data["schema_version"] = version
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(data))
            message = f"unsupported schema_version {version}, expected 4; re-run `qgame sweep`"
            with pytest.raises(ConfigError, match=re.escape(message)):
                load_result(bad)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (
                lambda data: json.dumps({key: value for key, value in data.items() if key != "cells"}),
                "KeyError: 'cells'",
            ),
            (lambda data: json.dumps({**data, "equilibria": 5}), "equilibria: expected an object of the columns"),
            (lambda data: json.dumps({**data, "transitions": None}), "TypeError"),
            (
                lambda data: with_first(data, "equilibria", profile="QQQ"),
                "cell 0: profile: expected a name like 'IXI', got 'QQQ'",
            ),
            (lambda data: json.dumps([data]), "AttributeError"),
            (lambda data: json.dumps(data)[:-40], "JSONDecodeError"),
            # cell (chi=0, p=0) holds 8 equilibria
            (
                lambda data: with_column(data, "equilibria", "payoff_A", lambda column: column[:1]),
                "equilibria.payoff_A: expected a list of length 8",
            ),
            (
                lambda data: with_column(data, "equilibria", "payoff_B2", None),
                "equilibria: expected an object of the columns",
            ),
            (
                lambda data: with_first(data, "equilibria", payoff_A="1.5"),
                "cell 0: payoff_A: expected a number, got '1.5'",
            ),
            (
                lambda data: with_first(data, "equilibria", payoff_B1=True),
                "cell 0: payoff_B1: expected a number, got True",
            ),
            (
                lambda data: with_first(data, "equilibria", payoff_A=10**400),
                "OverflowError: int too large to convert to float",
            ),
            (lambda data: with_first_cell(data, p="abc"), "cell 0: p: expected a number, got 'abc'"),
            (
                lambda data: with_first_cell(data, chi_nominal_pi=0.7),
                "cell 0 at (chi_nominal_pi, p) = (0.7, 0.0), expected (0.0, 0.0)",
            ),
            (
                lambda data: with_first_cell(data, p=0.5),
                "cell 0 at (chi_nominal_pi, p) = (0.0, 0.5), expected (0.0, 0.0)",
            ),
            (
                lambda data: with_first_cell(data, chi_measured_pi=True),
                "cell 0: chi_measured_pi: expected a number, got True",
            ),
            (lambda data: with_first_cell(data, rmsd="0.0"), "cell 0: rmsd: expected a number, got '0.0'"),
            # values no sweep writes: a negative rmsd or spread, an angle out of range
            (lambda data: with_first_cell(data, rmsd=-0.5), "cell 0: rmsd=-0.5 is negative"),
            (
                lambda data: with_first_cell(data, chi_measured_pi=0.3),
                "cell 0: chi_measured_pi=0.3, expected 0.0 from chi_measurements",
            ),
            (
                lambda data: with_first_cell(data, chi_measured_pi=-0.01),
                "cell 0: chi_measured_pi=-0.01, expected 0.0 from chi_measurements",
            ),
            (
                lambda data: with_first(data, "chi_measurements", sigma_rad=-0.1),
                "chi_nominal_pi 0.0: sigma_rad=-0.1 is negative",
            ),
            (
                lambda data: with_first(data, "chi_measurements", value_rad=1.6),
                "chi_nominal_pi 0.0: value_rad=1.6 outside",
            ),
            (
                lambda data: with_first(data, "chi_measurements", value_rad=-0.1),
                "chi_nominal_pi 0.0: value_rad=-0.1 outside",
            ),
            # an analytic sweep records each nominal angle with no spread
            (
                lambda data: with_first(data, "chi_measurements", value_rad=1.2, sigma_rad=0.3),
                "chi_nominal_pi 0.0: value_rad=1.2 and sigma_rad=0.3, expected 0.0 and 0.0 in analytic mode",
            ),
            (
                lambda data: json.dumps({**data, "cells": {name: column * 2 for name, column in data["cells"].items()}}),
                "cells.chi_nominal_pi: expected a list of length 1",
            ),
            (
                lambda data: json.dumps({**data, "transitions": data["transitions"] * 2}),
                "transitions chi_pi [0.0, 0.0] are not the config grid",
            ),
            (lambda data: json.dumps({**data, "chi_measurements": []}), "chi_nominal_pi [] are not the config grid"),
            # a cell has a null n_equilibria and rmsd exactly when its error is a string
            (
                lambda data: with_first_cell(data, n_equilibria=None, rmsd=None, error=7),
                "cell 0 has n_equilibria None, rmsd None and error 7;",
            ),
            (
                lambda data: with_first_cell(data, n_equilibria=None, rmsd=None, error=["x"]),
                "cell 0 has n_equilibria None, rmsd None and error ['x'];",
            ),
            (lambda data: with_first_cell(data, error=7), "cell 0 has n_equilibria 8, rmsd 0.0 and error 7;"),
            (
                lambda data: with_first_cell(data, error="failed"),
                "cell 0 has n_equilibria 8, rmsd 0.0 and error 'failed';",
            ),
            (
                lambda data: with_first_cell(data, n_equilibria=None, rmsd=None, error=None),
                "cell 0 has n_equilibria None, rmsd None and error None;",
            ),
            (
                lambda data: with_first_cell(data, n_equilibria=None, error="failed"),
                "cell 0 has n_equilibria None, rmsd 0.0 and error 'failed';",
            ),
            # the count that cuts the equilibrium columns, and the column blocks themselves
            (lambda data: with_first_cell(data, n_equilibria=9), "equilibria.profile: expected a list of length 9"),
            (
                lambda data: with_first_cell(data, n_equilibria=-1),
                "cell 0: n_equilibria: expected a count or null, got -1",
            ),
            (
                lambda data: with_first_cell(data, n_equilibria="8"),
                "cell 0: n_equilibria: expected a count or null, got '8'",
            ),
            (
                lambda data: with_first_cell(data, n_equilibria=True),
                "cell 0: n_equilibria: expected a count or null, got True",
            ),
            (lambda data: with_column(data, "cells", "rmsd", None), "cells: expected an object of the columns"),
            (
                lambda data: with_column(data, "cells", "extra", lambda column: [None]),
                "cells: expected an object of the columns",
            ),
            (lambda data: json.dumps({**data, "cells": [data["cells"]]}), "cells: expected an object of the columns"),
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
            "payoff-int-too-large",
            "p-not-a-number",
            "chi-off-grid",
            "p-off-grid",
            "chi-measured-bool",
            "rmsd-string",
            "rmsd-negative",
            "chi-measured-above-range",
            "chi-measured-negative",
            "sigma-negative",
            "chi-value-above-range",
            "chi-value-negative",
            "analytic-estimate-not-nominal",
            "more-cells-than-grid-points",
            "more-transitions-than-angles",
            "no-measurements",
            "failed-cell-error-number",
            "failed-cell-error-list",
            "report-and-error-number",
            "report-and-error-string",
            "null-report-null-error",
            "failed-cell-with-rmsd",
            "n-equilibria-past-the-columns",
            "n-equilibria-negative",
            "n-equilibria-string",
            "n-equilibria-bool",
            "missing-cell-column",
            "extra-cell-column",
            "cells-not-columns",
        ],
    )
    def test_malformed_result_file_is_config_error(self, tmp_path, corrupt, message):
        cfg = analytic_config(chi_grid_pi=(0.0,), p_grid=(0.0,))
        data = json.loads(Path(emit_report(run_sweep(cfg), tmp_path)["json"]).read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(corrupt(data))
        with pytest.raises(ConfigError, match="bad result file .*bad.json: ") as raised:
            load_result(bad)
        assert message in str(raised.value)

    def test_inconsistent_cell_names_its_index(self, tmp_path):
        cfg = analytic_config(chi_grid_pi=(0.0, 0.1), p_grid=(0.0, 0.5))
        data = json.loads(Path(emit_report(run_sweep(cfg), tmp_path)["json"]).read_text())
        data["cells"]["n_equilibria"][2] = data["cells"]["rmsd"][2] = None
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(data))
        message = "cell 2 has n_equilibria None, rmsd None and error None; "
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_result(path)

    def test_measured_angle_within_check_chi_tolerance_loads(self, tmp_path):
        # a config grid angle past pi/4 by less than check_chi's tolerance, which analytic mode measures as itself
        cfg = analytic_config(chi_grid_pi=(0.25 + 1e-14,), p_grid=(0.5,))
        path = emit_report(run_sweep(cfg), tmp_path)["json"]
        assert load_result(path).cells[0].chi_measured_pi == 0.25 + 1e-14

    def test_measured_angle_that_contradicts_chi_measurements_is_config_error(self, tmp_path):
        # shot mode records each angle's estimate clipped to [0, pi/4]; chi = 0 measures 0.0684 rad here
        cfg = shot_config(chi_grid_pi=(0.0, 0.1), p_grid=(0.2, 0.5), seed=3,
                          noise=NoiseModel.default_profile(3), calibration_shots=500)
        data = json.loads(Path(emit_report(run_sweep(cfg), tmp_path)["json"]).read_text())
        assert load_result(tmp_path / "sweep.json").cells[0].chi_measured_pi == data["cells"]["chi_measured_pi"][0]
        value = data["chi_measurements"][0]["value_rad"]
        data["cells"]["chi_measured_pi"][0:2] = 0.2, 0.01
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(data))
        message = f"cell 0: chi_measured_pi=0.2, expected {value / np.pi!r} from chi_measurements"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_result(path)

    def test_estimate_past_pi_over_4_is_recorded_at_pi_over_4(self, tmp_path):
        # the estimator reaches pi/2; the cells' measured angle saturates where the protocol does
        cfg = shot_config(chi_grid_pi=(0.25,), p_grid=(0.5,), seed=0, calibration_shots=10)
        data = json.loads(Path(emit_report(run_sweep(cfg), tmp_path)["json"]).read_text())
        data["chi_measurements"][0]["value_rad"], data["cells"]["chi_measured_pi"] = 1.5, [0.25]
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(data))
        assert load_result(path).cells[0].chi_measured_pi == 0.25

    @pytest.mark.parametrize("bad", ["1.5", True, None])
    def test_payoff_that_is_not_a_number_names_its_cell(self, tmp_path, bad):
        cfg = analytic_config(chi_grid_pi=(0.0, 0.1), p_grid=(0.0, 0.5))
        data = json.loads(Path(emit_report(run_sweep(cfg), tmp_path)["json"]).read_text())
        # the first equilibrium of cell 3 follows those of cells 0 to 2
        data["equilibria"]["payoff_B1"][sum(data["cells"]["n_equilibria"][:3])] = bad
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=re.escape(f"cell 3: payoff_B1: expected a number, got {bad!r}")):
            load_result(path)

    def test_integer_and_non_finite_payoffs_load_as_floats(self, tmp_path):
        cfg = analytic_config(chi_grid_pi=(0.0,), p_grid=(0.5,))
        data = json.loads(Path(emit_report(run_sweep(cfg), tmp_path)["json"]).read_text())
        equilibria = data["equilibria"]
        equilibria["payoff_A"][0], equilibria["payoff_B1"][0], equilibria["payoff_B2"][0] = 2, float("nan"), -float("inf")
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(data))
        a, b1, b2 = load_result(path).cells[0].report.payoffs[0]
        assert (type(a), a, math.isnan(b1), b2) == (float, 2.0, True, -math.inf)

    def test_result_cells_out_of_grid_order_name_the_first_misplaced_cell(self, tmp_path):
        # run_sweep emits the cells chi-major; these two are swapped
        cfg = analytic_config(chi_grid_pi=(0.0, 0.1), p_grid=(0.0, 0.5))
        data = json.loads(Path(emit_report(run_sweep(cfg), tmp_path)["json"]).read_text())
        for column in data["cells"].values():
            column[1], column[2] = column[2], column[1]
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
            ("chi_measurements", {"sigma_rad": -0.1}, "chi_nominal_pi 0.0: sigma_rad=-0.1 is negative"),
            ("cells", {"rmsd": -0.5}, "cell 0: rmsd=-0.5 is negative"),
            ("cells", {"chi_measured_pi": 0.3}, "cell 0: chi_measured_pi=0.3, expected 0.0 from chi_measurements"),
            ("chi_measurements", {"value_rad": 1.6}, "chi_nominal_pi 0.0: value_rad=1.6 outside [0, pi/2]"),
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

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_mutation_loads_back_or_is_config_error(self, data):
        # one change to a valid file: a column dropped, lengthened or shortened, an entry
        # replaced by a string, a bool, NaN, null or a list, or a count that no longer cuts
        # the equilibrium columns or is negative; never IndexError or any other exception
        result, text = mutation_sweep()
        document = json.loads(text)
        kind = data.draw(st.sampled_from(["drop", "lengthen", "shorten", "replace", "count"]), label="kind")
        block = document["cells"] if kind == "count" else document[data.draw(st.sampled_from(["cells", "equilibria"]))]
        name = "n_equilibria" if kind == "count" else data.draw(st.sampled_from(sorted(block)), label="column")
        column = block[name]
        index = data.draw(st.integers(0, len(column) - 1), label="index")
        if kind == "drop":
            del block[name]
        elif kind == "lengthen":
            column.insert(index, column[index])
        elif kind == "shorten":
            del column[index]
        elif kind == "replace":
            column[index] = data.draw(st.sampled_from(["1.5", "x", True, False, math.nan, None, [], [1.0]]))
        else:
            count = column[index] or 0
            column[index] = data.draw(st.sampled_from([count + 1, count - 1, -1]))
        mutated = json.dumps(document, separators=(",", ":")) + "\n"
        with tempfile.TemporaryDirectory() as out_dir:
            path = Path(out_dir) / "sweep.json"
            path.write_text(mutated)
            try:
                loaded = load_result(path)
            except ConfigError:
                return
            # what loads is a sweep in its own right: it writes the same bytes back
            assert Path(emit_report(loaded, Path(out_dir) / "again")["json"]).read_text() == mutated
            if mutated == text:
                assert loaded == result


# the benchmark's pinned workloads, on the default grid: (config, id)
PINNED_SWEEPS = [
    (ExperimentConfig(), "analytic-seed0"),
    *((ExperimentConfig(mode="shots", noise=NoiseModel.default_profile(seed), seed=seed), f"shots_noisy-seed{seed}")
      for seed in range(3)),
    (ExperimentConfig(mode="shots"), "shots_ideal-seed0"),
]


class TestColumnarResult:
    """A sweep is its columns; `cells` is a view of them built on first access."""

    @pytest.mark.parametrize("config", [config for config, _ in PINNED_SWEEPS], ids=[name for _, name in PINNED_SWEEPS])
    def test_columns_match_records_built_per_cell(self, tmp_path, config):
        result = run_sweep(config)
        cells, transitions = reference_sweep_records(config)
        assert result.cells == tuple(cells)
        assert result.transitions == tuple(transitions)
        assert result_from_records(config, cells, transitions, result.chi_measurements) == result
        assert load_result(emit_report(result, tmp_path)["json"]) == result

    def test_cells_view_gives_back_hand_built_records(self):
        result = run_sweep(shot_config(chi_grid_pi=(0.0, 0.25), p_grid=(0.0, 0.02, 0.5, 1.0), shots=40, seed=0))
        cells = result.cells[::-1]
        rebuilt = result_from_records(result.config, cells, result.transitions, result.chi_measurements)
        assert rebuilt.cells == cells
        assert rebuilt.cell_columns.n_equilibria == tuple(None if c.report is None else len(c.report.profiles)
                                                          for c in cells)
        empty = result_from_records(result.config, (), result.transitions, result.chi_measurements)
        assert empty.cells == () and empty.cell_columns == ((),) * 6 and empty.equilibrium_columns == ((),) * 4

    def test_pipeline_and_cli_build_no_cell_records(self, tmp_path, monkeypatch):
        config = shot_config(chi_grid_pi=(0.0, 0.25), p_grid=(0.0, 0.02, 0.5, 1.0), shots=40, seed=0)
        for cfg in (analytic_config(), config):
            result = run_sweep(cfg)
            loaded = load_result(emit_report(result, tmp_path / cfg.mode)["json"])
            rmsd_analysis(loaded)
            threshold_rows(loaded)
            assert "cells" not in vars(result) and "cells" not in vars(loaded)
        seen = []
        monkeypatch.setattr(qgame.cli, "run_sweep", lambda cfg: seen.append(run_sweep(cfg)) or seen[-1])
        monkeypatch.setattr(qgame.cli, "load_result", lambda path: seen.append(load_result(path)) or seen[-1])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(config)))
        out = tmp_path / "cli"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 3  # a starved sweep fails cells
        for command in ("rmsd", "thresholds"):
            assert main([command, "--from", str(out / "sweep.json"), "--out", str(out)]) == 3
        assert len(seen) == 3 and not any("cells" in vars(result) for result in seen)
        # built once on first access, then kept
        assert seen[0].cells is seen[0].cells and "cells" in vars(seen[0])


@functools.lru_cache(maxsize=None)
def mutation_sweep() -> tuple[SweepResult, str]:
    """A starved shot sweep with solved, empty and failed cells, and its sweep.json text."""
    result = run_sweep(shot_config(chi_grid_pi=(0.0, 0.25), p_grid=(0.0, 0.02, 0.5, 1.0), shots=40, seed=0))
    kinds = {"failed" if c.report is None else "empty" if c.report.empty else "solved" for c in result.cells}
    assert kinds == {"failed", "empty", "solved"}
    with tempfile.TemporaryDirectory() as out_dir:
        return result, Path(emit_report(result, out_dir)["json"]).read_text()


def with_first(data: dict, key: str, **fields) -> str:
    """The result document with fields of the first entry of `key` replaced:
    of a list of objects, or the first entry of each named column of a column block."""
    block = data[key]
    if isinstance(block, dict):
        first = {name: [fields[name], *column[1:]] if name in fields else column for name, column in block.items()}
    else:
        first = [{**block[0], **fields}, *block[1:]]
    return json.dumps({**data, key: first})


def with_first_cell(data: dict, **fields) -> str:
    """The result document with fields of its first cell replaced."""
    return with_first(data, "cells", **fields)


def with_column(data: dict, key: str, name: str, change) -> str:
    """The result document with column `name` of block `key` changed, or dropped when `change` is None."""
    block = {column: values for column, values in data[key].items() if column != name}
    if change is not None:
        block[name] = change(data[key].get(name, []))
    return json.dumps({**data, key: block})


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ANY_FLOAT = st.floats()  # NaN, both infinities, both zeros and subnormals included
PROFILE = st.sampled_from(PROFILES)
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
    return result_from_records(base.config, cells, transitions or ((0.1, None),), base.chi_measurements)


class TestEmitterMatchesReference:
    """emit_report writes the bytes of csv.writer and json.dump(separators=(",", ":"))."""

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

    def test_repeated_zeros_nans_and_infinities(self, tmp_path):
        # 0.0 and -0.0 are one dict key but print differently; NaN objects never compare equal
        nan, other_nan = math.nan, float("nan")
        names = ("IXI", "ZYX", "XXX", "IZY", "YYZ")
        report = EquilibriumReport(
            tuple(map(profile_from_names, names)),
            (
                (0.0, -0.0, 0.0),
                (-0.0, 0.0, -0.0),
                (nan, other_nan, nan),
                (math.inf, -math.inf, math.inf),
                (-math.inf, -0.0, other_nan),
            ),
        )
        cells = (
            CellResult(0.1, -0.0, 0.0, report, -0.0),
            CellResult(0.1, 0.0, -0.0, report, 0.0),
            CellResult(0.1, nan, math.inf, EquilibriumReport((), ()), other_nan),
            CellResult(0.1, -math.inf, nan, None, None, error="failed"),
            CellResult(0.1, -0.0, -0.0, report, nan),
        )
        self.assert_matches_reference(hand_built_result((cells[0],)), tmp_path / "one")
        self.assert_matches_reference(hand_built_result(cells), tmp_path / "several")
        self.assert_matches_reference(hand_built_result(cells[::-1]), tmp_path / "reversed")

    def test_one_value_as_chi_p_rmsd_and_payoff(self, tmp_path):
        value = 0.3
        report = EquilibriumReport((profile_from_names("IXI"),), ((value, np.float64(value), -value),))
        cells = (CellResult(value, value, value, report, value), CellResult(value, -value, value, report, None))
        self.assert_matches_reference(hand_built_result(cells), tmp_path)
        csv_lines = (tmp_path / "emitted" / "sweep.csv").read_text().splitlines()
        assert csv_lines[1].startswith("0.3,0.3,0.3,1,IXI,0.3,0.3,-0.3,0.3,")

    def test_no_state_carries_over_between_calls(self, tmp_path, monkeypatch):
        first = run_sweep(analytic_config(chi_grid_pi=(0.0, 0.1, 0.25)))
        second = hand_built_result(
            (CellResult(0.1, -0.0, 0.5, EquilibriumReport((profile_from_names("IXI"),), ((0.0, 0.5, 0.1),)), 0.0),)
        )
        calls = []
        for name, result in (("a", first), ("b", second), ("c", first)):
            formatted = []
            with monkeypatch.context() as patch:  # count the emitter's own float formatting
                patch.setattr(qgame.sweep, "_float_text", lambda value: formatted.append(value) or repr(float(value)))
                emit_report(result, tmp_path / name / "emitted")
            calls.append(formatted)
            self.assert_matches_reference(result, tmp_path / name)
        for result, formatted in zip((first, second, first), calls):
            values = [value for cell in result.cells for value in (cell.chi_nominal_pi, cell.chi_measured_pi, cell.p)]
            values += [cell.rmsd for cell in result.cells if cell.rmsd is not None]
            values += [value for cell in result.cells for row in cell.report.payoffs for value in row]
            values.append(result.config.effective_delta)  # the delta column, 0.0 here, formatted once per call
            # each distinct nonzero value once per call; zeros every time
            assert sorted(value for value in formatted if value) == sorted(set(value for value in values if value))
            assert sum(not value for value in formatted) == sum(not value for value in values)

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


# each table's columns as the spec: write_csv takes its header from the rows, the reference from these
RMSD_COLUMNS = ("chi_nominal_pi", "chi_measured_pi", "mean_rmsd", "max_rmsd", "n_cells")
THRESHOLD_COLUMNS = ("chi_pi", "profile", "thresholds", "window")
VERIFY_COLUMNS = ("chi_pi", "variant", "max_linf", "aux_marginal_dev", "passed", "worst_branch")


class TestTableCsvMatchesReference:
    """write_csv writes the bytes of csv.writer, under the spec's header, for every table it serves."""

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
        path.write_text(json.dumps(asdict(config)))
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
        write_csv(tmp_path / "out" / "rmsd.csv", rmsd_rows)
        write_csv(tmp_path / "out" / "thresholds.csv", rows)
        self.assert_matches_reference(tmp_path / "out" / "rmsd.csv", RMSD_COLUMNS, rmsd_rows, tmp_path)
        self.assert_matches_reference(tmp_path / "out" / "thresholds.csv", THRESHOLD_COLUMNS, rows, tmp_path)

    def test_numpy_float_fields_are_written_as_plain_floats(self, tmp_path):
        plain = {"chi_nominal_pi": 0.1, "chi_measured_pi": 0.1, "mean_rmsd": 0.5, "max_rmsd": None, "n_cells": 3}
        numpy_row = {**plain, "chi_measured_pi": np.float64(0.1), "mean_rmsd": np.float64(0.5)}
        write_csv(tmp_path / "numpy.csv", [numpy_row])
        write_csv(tmp_path / "plain.csv", [plain])
        assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert (tmp_path / "numpy.csv").read_text().splitlines()[1] == "0.1,0.1,0.5,,3"
        self.assert_matches_reference(tmp_path / "numpy.csv", RMSD_COLUMNS, [numpy_row], tmp_path / "ref")

    def test_empty_table_is_an_error(self, tmp_path):
        # the header comes from the first row, so a table without rows has none to write
        with pytest.raises(ValueError, match="no rows"):
            write_csv(tmp_path / "out" / "empty.csv", [])
        assert not (tmp_path / "out").exists()


class TestAnalyses:
    def test_rmsd_analysis_zero_for_analytic(self):
        cfg = analytic_config(chi_grid_pi=(0.0, 0.05), p_grid=(0.0, 0.1))
        rows = rmsd_analysis(run_sweep(cfg))
        assert [r["chi_nominal_pi"] for r in rows] == [0.0, 0.05]
        assert all(r["mean_rmsd"] == 0.0 for r in rows)
        assert all(r["n_cells"] == 2 for r in rows)

    @given(kinds=st.lists(st.sampled_from(["scored", "infinite", "empty", "failed"]), min_size=9, max_size=9),
           rmsds=st.lists(st.floats(0.0, 10.0), min_size=9, max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_rmsd_rows_match_per_angle_scan_of_grid_ordered_cells(self, kinds, rmsds):
        # hand-built cells in run_sweep's chi-major order: scored, infinite, empty and failed
        # cells mixed, so some angles have fewer scored cells than p values, or none
        base = run_sweep(analytic_config(chi_grid_pi=(0.0, 0.05, 0.1), p_grid=(0.2, 0.5, 0.8)))
        report, cells = base.cells[0].report, []
        for (chi_pi, p), kind, rmsd in zip(itertools.product((0.0, 0.05, 0.1), (0.2, 0.5, 0.8)), kinds, rmsds):
            measured = chi_pi + 0.01  # one measured angle per nominal one
            cells.append({
                "scored": CellResult(chi_pi, measured, p, report, rmsd),
                "infinite": CellResult(chi_pi, measured, p, report, math.inf),
                "empty": CellResult(chi_pi, measured, p, EquilibriumReport((), ()), None),
                "failed": CellResult(chi_pi, measured, p, None, None, "boom"),
            }[kind])
        result = result_from_records(base.config, cells, base.transitions, base.chi_measurements)
        assert rmsd_analysis(result) == reference_rmsd_rows(result)

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

    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        # the UnicodeDecodeError once escaped the CLI as a traceback and exit code 1
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {path} is not valid JSON: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_basename_is_not_an_option(self, capsys):
        # the file stem is always "sweep"
        with pytest.raises(SystemExit) as raised:
            main(["sweep", "--basename", "x"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --basename x" in capsys.readouterr().err

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

    def test_failed_verify_row_exits_3(self, tmp_path, capsys, monkeypatch):
        # I-circuit branches (0,0,0) and (0,0,1) claim each other's pair, so only the X-circuit row passes
        pairs = qgame.sweep.BRANCH_PAIRS.copy()
        pairs[0, [0, 1]] = pairs[0, [1, 0]]
        monkeypatch.setattr(qgame.sweep, "BRANCH_PAIRS", pairs)
        assert main(["verify", "--chi-grid", "0.1", "--out", str(tmp_path)]) == 3
        bad, good = verify_parallelization((0.1,))
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"chi=0.1pi I-circuit: max_linf={bad['max_linf']:.3e} aux_dev={bad['aux_marginal_dev']:.3e} "
            f"FAIL (worst branch {bad['worst_branch']})",
            f"chi=0.1pi X-circuit: max_linf={good['max_linf']:.3e} aux_dev={good['aux_marginal_dev']:.3e} pass",
        ]
        rows = list(csv.DictReader((tmp_path / "verify.csv").read_text().splitlines()))
        assert [(row["passed"], row["worst_branch"]) for row in rows] == [("false", bad["worst_branch"]), ("true", good["worst_branch"])]

    def test_bad_chi_grid_is_config_error(self, capsys):
        assert main(["verify", "--chi-grid", "0.4"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_deeply_nested_config_is_config_error(self, tmp_path, capsys):
        # json.load recurses once per nested list and raises RecursionError past the interpreter's limit
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: config {path} is not valid JSON: maximum recursion")
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"payoff_rows_b1": 5}, "payoff_rows_b1: rows must be 2x2 pairs, got shape ()"),
            ({"payoff_rows_b2": [[1, 2]]}, "payoff_rows_b2: rows must be 2x2 pairs, got shape (1, 2)"),
            ({"noise": "abc"}, "bad noise model: noise must be a JSON object"),
            ({"noise": 5}, "bad noise model: noise must be a JSON object"),
            ({"noise": None}, "bad noise model: noise must be a JSON object"),
            ({"noise": [1]}, "bad noise model: noise must be a JSON object"),
            ({"p_grid": 0.5}, "p_grid: expected a list of numbers, got 0.5"),
            ({"chi_grid_pi": None}, "chi_grid_pi: expected a list of numbers, got None"),
            ({"chi_grid_pi": "0.1"}, "chi_grid_pi: expected a list of numbers, got '0.1'"),
            ({"p_grid": {"a": 1}}, "p_grid: expected a list of numbers, got {'a': 1}"),
            ({"delta": [0.1]}, "delta: expected a number, got [0.1]"),
            ({"delta": []}, "delta: expected a number, got []"),
        ],
        ids=["payoff-rows-b1-scalar", "payoff-rows-b2-one-row", "noise-string", "noise-int", "noise-null",
             "noise-list", "p-grid-number", "chi-grid-null", "chi-grid-string", "p-grid-object", "delta-list",
             "delta-empty-list"],
    )
    def test_malformed_config_block_is_config_error_naming_its_field(self, tmp_path, capsys, override, message):
        # both payoff fields once raised the same unnamed shape error; a noise
        # string was read as a list of unknown fields, a number as "not iterable";
        # a grid number was "not iterable" too, and a grid string or object was
        # read item by item ("expected a number, got '0'"); a delta list was kept
        # as a tuple, and its order check raised "'<' not supported"
        config = {"mode": "shots", "chi_grid_pi": [0.1], "p_grid": [0.5], "shots": 500, **override}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(config)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_cell_failures_exit_code(self, tmp_path, capsys):
        cfg = shot_config(chi_grid_pi=(0.25,), p_grid=(0.5,), shots=40, seed=0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)))
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"1 grid cell(s) failed; see the cells.error column of {tmp_path / 'sweep.json'}\n"

    def test_thresholds_command(self, tmp_path, capsys):
        cfg = analytic_config(chi_grid_pi=(0.05,))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)))
        assert main(["thresholds", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert "0.17" in capsys.readouterr().out
        assert (tmp_path / "thresholds.csv").exists()

    @pytest.mark.parametrize(
        "config, code, marks",
        [
            # IXI stays an equilibrium over the whole grid: no transitions
            ({"chi_grid_pi": [0.05], "p_grid": [0.0, 0.01, 0.02]}, 0, ["none"]),
            # 20 shots empty a branch in every cell: each angle's transitions are unknown
            ({"mode": "shots", "shots": 20, "chi_grid_pi": [0, 0.1], "p_grid": [0.2, 0.5, 0.8]}, 3, ["n/a", "n/a"]),
        ],
        ids=["no-transitions", "every-cell-failed"],
    )
    def test_thresholds_print_none_or_n_a(self, tmp_path, capsys, config, code, marks):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["thresholds", "--config", str(path), "--out", str(tmp_path)]) == code
        lines = capsys.readouterr().out.splitlines()[1:]
        assert lines == [f"chi={float(chi)}pi profile=IXI transitions at p: {mark}"
                         for chi, mark in zip(config["chi_grid_pi"], marks)]
        # the table keeps a blank field for both
        rows = [f"{float(chi)},IXI,,3\n" for chi in config["chi_grid_pi"]]
        assert (tmp_path / "thresholds.csv").read_text() == "chi_pi,profile,thresholds,window\n" + "".join(rows)

    def test_huge_finite_payoffs_write_a_sweep_that_loads(self, tmp_path, capsys):
        # the deviations near 1e197 square past the float range; their RMSDs are computed scaled
        # by the largest payoff, finite and without a warning (RuntimeWarnings fail the tests)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "shots", "payoff_rows_b1": [[[1e200, 3], [0, 5]], [[5, 0], [1, 1]]],
                                    "chi_grid_pi": [0, 0.1], "p_grid": [0.2, 0.5]}))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
        rmsds = json.loads((tmp_path / "sweep.json").read_text())["cells"]["rmsd"]
        assert rmsds[:2] == [0.0, 0.0] and all(1e196 < rmsd < 1e198 for rmsd in rmsds[2:])
        assert main(["rmsd", "--from", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "saved")]) == 0

    def test_rmsd_command(self, tmp_path, capsys):
        cfg = shot_config(chi_grid_pi=(0.05,), p_grid=(0.0, 0.5), shots=4_000, seed=6)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)))
        assert main(["rmsd", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "rmsd.csv").exists()
        assert "mean_rmsd" in (tmp_path / "rmsd.csv").read_text()


class TestCliFromSavedSweep:
    """`rmsd` and `thresholds` with --from read a saved sweep.json and print
    what a fresh run of the same config prints."""

    @staticmethod
    def run_cli(capsys, argv) -> tuple[int, str, str]:
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "config, code",
        [
            (analytic_config(chi_grid_pi=(0.0, 0.05, 0.25)), 0),
            (shot_config(chi_grid_pi=(0.0, 0.25), p_grid=(0.0, 0.02, 0.5, 1.0), shots=40, seed=0), 3),
        ],
        ids=["analytic", "starved-shots"],
    )
    @pytest.mark.parametrize("command, table", [("rmsd", "rmsd.csv"), ("thresholds", "thresholds.csv")])
    def test_matches_fresh_run(self, tmp_path, capsys, config, code, command, table):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(asdict(config)))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "saved")]) == code
        out = str(tmp_path / "out")
        capsys.readouterr()
        fresh = self.run_cli(capsys, [command, "--config", str(cfg), "--out", out])
        fresh_table = (tmp_path / "out" / table).read_bytes()
        (tmp_path / "out" / table).unlink()
        loaded = self.run_cli(capsys, [command, "--from", str(tmp_path / "saved" / "sweep.json"), "--out", out])
        assert loaded == fresh
        assert fresh[0] == code
        assert (tmp_path / "out" / table).read_bytes() == fresh_table

    def test_huge_mean_rmsd_prints_four_significant_digits(self, tmp_path, capsys):
        # a 1e200 payoff puts the chi = 0.1 pi mean near 3.4e197, which a fixed-point format prints digit by digit
        config = {"mode": "shots", "payoff_rows_b1": [[[1e200, 3], [0, 5]], [[5, 0], [1, 1]]],
                  "chi_grid_pi": [0, 0.1], "p_grid": [0.2, 0.5]}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["sweep", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        code, out, _ = self.run_cli(capsys, ["rmsd", "--from", str(tmp_path / "sweep.json"), "--out", str(tmp_path)])
        with open(tmp_path / "rmsd.csv", newline="") as handle:
            means = [float(row["mean_rmsd"]) for row in csv.DictReader(handle)]
        assert code == 0 and f"{means[1]:.4g}" == "3.393e+197"
        assert out.splitlines()[1:] == [f"chi=0.0pi mean_rmsd={means[0]:.4g} over 2 cells",
                                        "chi=0.1pi mean_rmsd=3.393e+197 over 2 cells"]

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--config", "cfg.json"], "--config"),
            (["--mode", "analytic"], "--mode"),
            (["--seed", "1"], "--seed"),
            (["--mode", "shots", "--seed", "0"], "--mode, --seed"),
        ],
    )
    @pytest.mark.parametrize("command", ["rmsd", "thresholds"])
    def test_from_with_config_options_is_config_error(self, tmp_path, capsys, command, extra, named):
        saved = emit_report(run_sweep(analytic_config(chi_grid_pi=(0.1,), p_grid=(0.5,))), tmp_path)["json"]
        code, out, err = self.run_cli(capsys, [command, "--from", saved, *extra, "--out", str(tmp_path / "out")])
        assert code == 2
        assert out == ""
        assert err == f"config error: --from reads a finished sweep, so it cannot be combined with {named}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["rmsd", "thresholds"])
    @pytest.mark.parametrize(
        "text",
        ["{not json", '{"schema_version": 4}', '{"schema_version": 3}', "[]", b"\xff\xfe{}", None],
        ids=["syntax", "missing-keys", "old-schema", "not-an-object", "not-utf8", "missing-file"],
    )
    def test_malformed_or_missing_file_is_config_error(self, tmp_path, capsys, command, text):
        path = tmp_path / "sweep.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError) as raised:
            load_result(path)
        code, out, err = self.run_cli(capsys, [command, "--from", str(path), "--out", str(tmp_path / "out")])
        assert (code, out, err) == (2, "", f"config error: {raised.value}\n")

    def test_deeply_nested_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = self.run_cli(capsys, ["thresholds", "--from", str(path), "--out", str(tmp_path / "out")])
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: bad result file {path}: RecursionError: maximum recursion")
        assert not (tmp_path / "out").exists()

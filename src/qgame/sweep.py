"""Grid sweeps over the entangling angle and the type probability.

Two modes share one result schema. Analytic mode evaluates exact payoff
tensors on the grid. Shot mode emulates the experiment: for each angle it
draws one shot dataset per circuit variant, measures the angle from a
separate calibration run, then for every p re-splits the same dataset into
the two type pools, SPAM-corrects, parses branches into per-pair outcome
distributions, rebuilds payoff tensors, and solves for equilibria. Cell
failures (an empty branch after an unlucky split, an inconsistent SPAM
inversion) are recorded on the cell instead of aborting the sweep.

All angles are expressed in units of pi in configs and output files and in
radians inside the package.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from qgame.bayesian import compose
from qgame.equilibrium import (
    DELTA_ANALYTIC,
    DELTA_SHOTS,
    EquilibriumReport,
    NoEquilibriumError,
    detect_transitions,
    nash_equilibria,
    rmsd_at_equilibrium,
)
from qgame.game import (
    DEFAULT_PAYOFF_B1,
    DEFAULT_PAYOFF_B2,
    GameSpec,
    PayoffTable,
    final_state,
    payoff_tensor,
    profile_from_names,
    profile_names,
    tensor_from_distributions,
)
from qgame.noise import (
    PURPOSE_CALIBRATION,
    PURPOSE_SAMPLE,
    PURPOSE_SPLIT,
    ChiEstimate,
    ConfusionMatrix,
    NoiseModel,
    PopulationVector,
    SpamCorrectionError,
    bayesian_split,
    child_rng,
    measure_chi,
    outcome_law,
    sample_outcomes,
    spam_correct,
)
from qgame.parallel import (
    N_QUBITS,
    EmptyBranchError,
    Variant,
    branch_indices,
    branch_map,
    build_circuit,
    parse_branches,
)
from qgame.statevector import CHI_MAX, check_chi

SCHEMA_VERSION = 3
MODE_ANALYTIC = "analytic"
MODE_SHOTS = "shots"

_VARIANT_INDEX = {variant: idx for idx, variant in enumerate(Variant)}

DEFAULT_CHI_GRID_PI = tuple(i / 40 for i in range(11))  # 0 to 0.25 in steps of 0.025
DEFAULT_P_GRID = tuple(i / 100 for i in range(101))

_CSV_COLUMNS = (
    "chi_nominal_pi",
    "chi_measured_pi",
    "p",
    "n_equilibria",
    "profile",
    "payoff_A",
    "payoff_B1",
    "payoff_B2",
    "rmsd",
    "delta",
    "mode",
    "seed",
)


class ConfigError(ValueError):
    """Invalid experiment configuration or result file."""


def _as_nested_tuple(rows) -> tuple:
    if isinstance(rows, (list, tuple)):
        return tuple(_as_nested_tuple(r) for r in rows)
    return rows


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = MODE_ANALYTIC
    chi_grid_pi: tuple = DEFAULT_CHI_GRID_PI
    p_grid: tuple = DEFAULT_P_GRID
    delta: float | None = None  # None: 0 for analytic, 0.1 for shots
    shots: int = 30_000
    calibration_shots: int = 3_000
    seed: int = 0
    noise: NoiseModel = field(default_factory=NoiseModel)
    payoff_rows_b1: tuple = _as_nested_tuple(DEFAULT_PAYOFF_B1.to_rows())
    payoff_rows_b2: tuple = _as_nested_tuple(DEFAULT_PAYOFF_B2.to_rows())
    tracked_profile: str = "IXI"
    transition_window: int = 3

    def __post_init__(self) -> None:
        if self.mode not in (MODE_ANALYTIC, MODE_SHOTS):
            raise ConfigError(f"mode must be '{MODE_ANALYTIC}' or '{MODE_SHOTS}', got {self.mode!r}")
        object.__setattr__(self, "chi_grid_pi", tuple(float(c) for c in self.chi_grid_pi))
        object.__setattr__(self, "p_grid", tuple(float(p) for p in self.p_grid))
        object.__setattr__(self, "payoff_rows_b1", _as_nested_tuple(self.payoff_rows_b1))
        object.__setattr__(self, "payoff_rows_b2", _as_nested_tuple(self.payoff_rows_b2))
        # json.load accepts NaN and Infinity, which slip past every order check below
        numbers = (*self.chi_grid_pi, *self.p_grid) + (() if self.delta is None else (self.delta,))
        if any(isinstance(value, float) and not math.isfinite(value) for value in numbers):
            raise ConfigError("config numbers must be finite")
        # bool is an int subclass; a JSON true must not count as 1
        for name in ("shots", "calibration_shots", "transition_window", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an int, got {value!r}")
        if not 0 <= self.seed < 2**64:  # the range NoiseModel.seed takes
            raise ConfigError(f"seed={self.seed} outside [0, 2**64)")
        for name, grid in (("chi_grid_pi", self.chi_grid_pi), ("p_grid", self.p_grid)):
            if not grid:
                raise ConfigError(f"{name} must be nonempty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{name} must be strictly ascending")
        try:
            # the angles exactly as run_sweep computes them
            for chi_pi in self.chi_grid_pi:
                check_chi(chi_pi * np.pi)
        except ValueError as exc:
            raise ConfigError(f"chi_grid_pi: {exc}") from exc
        if self.p_grid[0] < 0.0 or self.p_grid[-1] > 1.0:  # as strict as compose
            raise ConfigError("p_grid outside [0.0, 1.0]")
        if self.shots <= 0 or self.calibration_shots <= 0 or self.transition_window <= 0:
            raise ConfigError("shots, calibration_shots and transition_window must be positive")
        if self.delta is not None and self.delta < 0:
            raise ConfigError("delta must be >= 0")
        if not isinstance(self.noise, NoiseModel):
            raise ConfigError("noise must be a NoiseModel")
        try:
            profile_from_names(self.tracked_profile)
            self.table_b1()
            self.table_b2()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def effective_delta(self) -> float:
        if self.delta is not None:
            return self.delta
        return DELTA_ANALYTIC if self.mode == MODE_ANALYTIC else DELTA_SHOTS

    def table_b1(self) -> PayoffTable:
        return PayoffTable.from_rows(self.payoff_rows_b1)

    def table_b2(self) -> PayoffTable:
        return PayoffTable.from_rows(self.payoff_rows_b2)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "noise":
                value = value.to_dict()
            elif f.name in ("chi_grid_pi", "p_grid"):
                value = list(value)
            elif f.name.startswith("payoff_rows"):
                value = json.loads(json.dumps(value))  # nested tuples to lists
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        payload = dict(data)
        if "noise" in payload and not isinstance(payload["noise"], NoiseModel):
            try:
                payload["noise"] = NoiseModel.from_dict(payload["noise"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad noise model: {exc}") from exc
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


@dataclass(frozen=True)
class CellResult:
    """One (chi, p) grid point. `error` set means the cell failed and
    carries no report; an empty report is a legitimate no-equilibrium cell."""

    chi_nominal_pi: float
    chi_measured_pi: float
    p: float
    report: EquilibriumReport | None
    rmsd: float | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    cells: tuple[CellResult, ...]
    # (chi_pi, thresholds of config.tracked_profile); None where every cell failed
    transitions: tuple[tuple[float, tuple[float, ...] | None], ...]
    chi_measurements: tuple[tuple[float, ChiEstimate], ...]

    def cells_at_chi(self, chi_pi: float) -> list[CellResult]:
        return [c for c in self.cells if c.chi_nominal_pi == chi_pi]


# ---------------------------------------------------------------------------
# analytic pipeline

def _analytic_column(
    config: ExperimentConfig, chi_pi: float, tables: tuple[PayoffTable, PayoffTable]
) -> list[CellResult]:
    spec = GameSpec(chi_pi * np.pi, *tables)
    tensor_b1 = payoff_tensor(spec, "B1")
    tensor_b2 = payoff_tensor(spec, "B2")
    delta = config.effective_delta
    cells = []
    for p in config.p_grid:
        report = nash_equilibria(compose(tensor_b1, tensor_b2, p), delta)
        # the analytic run is its own benchmark; no reference point exists
        # where the equilibrium set is empty
        cells.append(CellResult(chi_pi, chi_pi, p, report, None if report.empty else 0.0))
    return cells


# ---------------------------------------------------------------------------
# shot-emulation pipeline

def _chi_key(chi_pi: float) -> int:
    return round(chi_pi * 10**6)


def _p_key(p: float) -> int:
    return round(p * 10**6)


def _pool_or_fallback(pool: PopulationVector, full: PopulationVector) -> PopulationVector:
    # a pool emptied by the split (p at or near 0 or 1) estimates its game
    # tensor from the full unsplit dataset instead
    return pool if pool.total > 0 else full


def _shot_column(
    config: ExperimentConfig,
    chi_pi: float,
    tables: tuple[PayoffTable, PayoffTable],
    confusion: ConfusionMatrix,
) -> tuple[list[CellResult], ChiEstimate]:
    chi = chi_pi * np.pi
    noise = config.noise
    delta = config.effective_delta
    counts = {}
    full_pops = {}
    for variant in Variant:
        rng = child_rng(config.seed, _chi_key(chi_pi), _VARIANT_INDEX[variant], PURPOSE_SAMPLE)
        counts[variant] = sample_outcomes(build_circuit(variant, chi), noise, config.shots, rng)
        full_pops[variant] = PopulationVector(counts[variant])

    calibration_rng = child_rng(config.seed, _chi_key(chi_pi), 0, PURPOSE_CALIBRATION)
    estimate = measure_chi(noise, chi, config.calibration_shots, calibration_rng)
    # the estimator lives in [0, pi/2]; the protocol angle saturates at pi/4
    chi_ref = min(max(estimate.value, 0.0), CHI_MAX)
    chi_measured_pi = chi_ref / np.pi

    ref_spec = GameSpec(chi_ref, *tables)
    ref_b1 = payoff_tensor(ref_spec, "B1")
    ref_b2 = payoff_tensor(ref_spec, "B2")

    cells = []
    for p in config.p_grid:
        try:
            dists_b1: dict = {}
            dists_b2: dict = {}
            for variant in Variant:
                split_rng = child_rng(
                    config.seed, _chi_key(chi_pi), _VARIANT_INDEX[variant], PURPOSE_SPLIT, _p_key(p)
                )
                pool_b1, pool_b2 = bayesian_split(counts[variant], p, split_rng)
                pool_b1 = _pool_or_fallback(pool_b1, full_pops[variant])
                pool_b2 = _pool_or_fallback(pool_b2, full_pops[variant])
                dists_b1.update(parse_branches(spam_correct(pool_b1, confusion).counts, variant))
                dists_b2.update(parse_branches(spam_correct(pool_b2, confusion).counts, variant))
            observed_b1 = tensor_from_distributions(dists_b1, tables[0])
            observed_b2 = tensor_from_distributions(dists_b2, tables[1])
            observed = compose(observed_b1, observed_b2, p)
            report = nash_equilibria(observed, delta)
            try:
                rmsd = rmsd_at_equilibrium(observed, compose(ref_b1, ref_b2, p), delta)
            except NoEquilibriumError:
                rmsd = None  # no analytic benchmark at this grid point
            cells.append(CellResult(chi_pi, chi_measured_pi, p, report, rmsd))
        except (SpamCorrectionError, EmptyBranchError) as exc:
            cells.append(CellResult(chi_pi, chi_measured_pi, p, None, None, error=str(exc)))
    return cells, estimate


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Evaluate the full grid. Deterministic for a given config and seed."""
    tracked = profile_from_names(config.tracked_profile)
    tables = (config.table_b1(), config.table_b2())
    # one readout matrix per sweep: its factorization serves every cell
    confusion = ConfusionMatrix.from_noise(config.noise) if config.mode == MODE_SHOTS else None
    all_cells: list[CellResult] = []
    transitions: list[tuple[float, tuple[float, ...] | None]] = []
    measurements: list[tuple[float, ChiEstimate]] = []
    for chi_pi in config.chi_grid_pi:
        if config.mode == MODE_ANALYTIC:
            cells = _analytic_column(config, chi_pi, tables)
            measurements.append((chi_pi, ChiEstimate(chi_pi * np.pi, 0.0)))
        else:
            cells, estimate = _shot_column(config, chi_pi, tables, confusion)
            measurements.append((chi_pi, estimate))
        solved = [c for c in cells if c.report is not None]
        if solved:
            ps, reports = [c.p for c in solved], [c.report for c in solved]
            transitions.append((chi_pi, detect_transitions(ps, reports, tracked, config.transition_window)))
        else:
            transitions.append((chi_pi, None))
        all_cells.extend(cells)
    return SweepResult(config, tuple(all_cells), tuple(transitions), tuple(measurements))


# ---------------------------------------------------------------------------
# analyses over a finished sweep

def rmsd_analysis(result: SweepResult) -> list[dict]:
    """Per-angle aggregate of cell-level payoff deviations."""
    rows = []
    for chi_pi in result.config.chi_grid_pi:
        cells = result.cells_at_chi(chi_pi)
        values = [c.rmsd for c in cells if c.rmsd is not None]
        rows.append(
            {
                "chi_nominal_pi": chi_pi,
                "chi_measured_pi": cells[0].chi_measured_pi if cells else None,
                "mean_rmsd": float(np.mean(values)) if values else None,
                "max_rmsd": float(np.max(values)) if values else None,
                "n_cells": len(values),
            }
        )
    return rows


def threshold_rows(result: SweepResult) -> list[dict]:
    """Per-angle transition thresholds of the tracked profile."""
    rows = []
    for chi_pi, thresholds in result.transitions:
        rows.append(
            {
                "chi_pi": chi_pi,
                "profile": result.config.tracked_profile,
                "thresholds": None if thresholds is None else list(thresholds),
                "window": result.config.transition_window,
            }
        )
    return rows


def verify_parallelization(chi_grid_pi=DEFAULT_CHI_GRID_PI, branch_maps=None) -> list[dict]:
    """Compare every branch-conditional distribution against the two-qubit
    game evaluated directly; one row per (angle, circuit variant).

    `branch_maps` substitutes the branch-to-pair mapping (negative-control
    fixture); by default each variant uses its canonical mapping.
    """
    rows = []
    for chi_pi in chi_grid_pi:
        chi = float(chi_pi) * np.pi
        for variant in Variant:
            circuit = build_circuit(variant, chi)
            dist = outcome_law(circuit.gate_sequence, N_QUBITS, circuit.chi, NoiseModel())
            aux_dev = 0.0
            for x in range(2):
                for y in range(2):
                    for z in range(2):
                        weight = dist[branch_indices(x, y, z)].sum()
                        aux_dev = max(aux_dev, abs(weight - 0.125))
            mapping = None if branch_maps is None else branch_maps.get(variant)
            parsed = parse_branches(dist, variant, mapping=mapping)
            max_linf = 0.0
            worst = ""
            for pair in branch_map(variant).values():
                if pair not in parsed:
                    max_linf, worst = 1.0, f"{pair[0].name}{pair[1].name}"
                    continue
                direct = np.abs(final_state(chi, pair[0], pair[1])) ** 2
                linf = float(np.abs(parsed[pair] - direct).max())
                if linf > max_linf:
                    max_linf, worst = linf, f"{pair[0].name}{pair[1].name}"
            rows.append(
                {
                    "chi_pi": float(chi_pi),
                    "variant": variant.value,
                    "max_linf": max_linf,
                    "aux_marginal_dev": aux_dev,
                    "passed": max_linf < 1e-10 and aux_dev < 1e-12,
                    "worst_branch": worst,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# serialization

def _csv_field(value) -> str:
    """One CSV cell: blank for None, repr for floats (round-trip exact),
    lowercase booleans, and ';'-joined floats for lists."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return ";".join(repr(float(v)) for v in value)
    return str(value)


def write_csv(path, columns: tuple, rows: list[dict]) -> None:
    """Header plus one line per row, fields in `columns` order."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_field(row[col]) for col in columns])


def result_rows(result: SweepResult) -> list[dict]:
    """Flatten a sweep into CSV rows: one per equilibrium, one for an empty
    cell, one (with blank equilibrium fields) for a failed cell."""
    delta = result.config.effective_delta
    rows = []
    base = {"delta": delta, "mode": result.config.mode, "seed": result.config.seed}
    for cell in result.cells:
        shared = {
            "chi_nominal_pi": cell.chi_nominal_pi,
            "chi_measured_pi": cell.chi_measured_pi,
            "p": cell.p,
            "rmsd": cell.rmsd,
            **base,
        }
        if cell.report is None:
            rows.append(
                {**shared, "n_equilibria": None, "profile": "", "payoff_A": None, "payoff_B1": None, "payoff_B2": None}
            )
        elif cell.report.empty:
            rows.append(
                {**shared, "n_equilibria": 0, "profile": "", "payoff_A": None, "payoff_B1": None, "payoff_B2": None}
            )
        else:
            count = len(cell.report.profiles)
            for profile, payoffs in zip(cell.report.profiles, cell.report.payoffs):
                rows.append(
                    {
                        **shared,
                        "n_equilibria": count,
                        "profile": profile_names(profile),
                        "payoff_A": payoffs[0],
                        "payoff_B1": payoffs[1],
                        "payoff_B2": payoffs[2],
                    }
                )
    return rows


def _report_to_dict(report: EquilibriumReport | None) -> dict | None:
    if report is None:
        return None
    return {
        "profiles": [profile_names(pr) for pr in report.profiles],
        "payoffs": [list(pay) for pay in report.payoffs],
    }


def _report_from_dict(data: dict | None) -> EquilibriumReport | None:
    if data is None:
        return None
    return EquilibriumReport(
        profiles=tuple(profile_from_names(name) for name in data["profiles"]),
        payoffs=tuple(tuple(float(v) for v in pay) for pay in data["payoffs"]),
    )


def result_to_dict(result: SweepResult) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": result.config.to_dict(),
        "chi_measurements": [
            {"chi_nominal_pi": chi_pi, "value_rad": est.value, "sigma_rad": est.sigma}
            for chi_pi, est in result.chi_measurements
        ],
        "transitions": [
            {"chi_pi": chi_pi, "thresholds": None if thresholds is None else list(thresholds)}
            for chi_pi, thresholds in result.transitions
        ],
        "cells": [
            {
                "chi_nominal_pi": cell.chi_nominal_pi,
                "chi_measured_pi": cell.chi_measured_pi,
                "p": cell.p,
                "report": _report_to_dict(cell.report),
                "rmsd": cell.rmsd,
                "error": cell.error,
            }
            for cell in result.cells
        ],
    }


def result_from_dict(data: dict) -> SweepResult:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {data.get('schema_version')!r}")
    return SweepResult(
        config=ExperimentConfig.from_dict(data["config"]),
        cells=tuple(
            CellResult(
                chi_nominal_pi=c["chi_nominal_pi"],
                chi_measured_pi=c["chi_measured_pi"],
                p=c["p"],
                report=_report_from_dict(c["report"]),
                rmsd=c["rmsd"],
                error=c["error"],
            )
            for c in data["cells"]
        ),
        transitions=tuple(
            (t["chi_pi"], None if t["thresholds"] is None else tuple(t["thresholds"]))
            for t in data["transitions"]
        ),
        chi_measurements=tuple(
            (m["chi_nominal_pi"], ChiEstimate(m["value_rad"], m["sigma_rad"]))
            for m in data["chi_measurements"]
        ),
    )


def emit_report(result: SweepResult, out_dir, basename: str = "sweep") -> dict:
    """Write the sweep as CSV and JSON; byte-stable for identical inputs."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {fmt: os.path.join(out_dir, f"{basename}.{fmt}") for fmt in ("csv", "json")}
    write_csv(paths["csv"], _CSV_COLUMNS, result_rows(result))
    with open(paths["json"], "w") as handle:
        json.dump(result_to_dict(result), handle, indent=2)
        handle.write("\n")
    return paths


def load_result(json_path) -> SweepResult:
    with open(json_path) as handle:
        return result_from_dict(json.load(handle))

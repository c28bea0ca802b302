"""Grid sweeps over the entangling angle and the type probability.

Two modes share one result schema. A config's payoff tables are one
read-only (2, 2, 4) array, `ExperimentConfig.tables`: the B1 game's (2, 4)
table, then B2's. Analytic mode evaluates both games' exact payoff tensors
from one protocol evolution per angle and solves each p column at once with
`nash_equilibria_stack`. Shot mode emulates the experiment: for each angle it
draws one shot dataset per circuit variant from `outcome_law` (which evolves
each circuit once per depolarization, not once per angle), measures the angle
from a separate calibration run, and re-splits the same datasets into the two
type pools at every p with `split_counts`: one call per grid point on the
(variant, outcome) counts, drawing the I-circuit's outcomes and then the
X-circuit's from that point's own keyed stream, straight into a (variant,
type, p, outcome) stack. The sweep derives all its keyed streams in two
`child_rngs` batches, one for every angle's sample and calibration streams
and one for every grid point's split stream; each is bit-identical to its
own `SeedSequence(seed, spawn_key=key)` stream, so batching changes no
random number. Keys are the angle and p in millionths, the variant (0 for
the calibration and split streams) and the purpose tag, all within the
[0, 2**32) a key entry may take. A key depends on grid values alone, so a
sub-grid run reproduces its cells of the full run; a shot-mode config
rejects two grid points that share a millionth, since they would share their
streams. The rest of the angle's column is one array pass: the stacked
pools are SPAM-corrected, split into branch distributions (one call on the
corrected stack, one on the raw stack), ordered by strategy pair through
`parallel.BRANCH_PAIRS`, turned into payoff arrays, composed into A's
Bayesian payoffs per p, solved and compared with the analytic references
(one column solve): `spam_correct_stack`,
`branch_distributions`, `tensor_from_distributions`, `compose`,
`nash_equilibria_stack`, `rmsd_at_equilibrium_stack`. The middle two take one
row or a stack, the others have one-row cases (`spam_correct`, `parse_branches`,
`nash_equilibria`, `rmsd_at_equilibrium`), so each check exists once.
`parallel` alone knows the outcome-bit layout; this module and
`verify_parallelization` read its branch table.

Cell failures (an empty branch after an unlucky split, an inconsistent SPAM
inversion) are recorded on the cell instead of aborting the sweep. A branch
with no raw shots is empty, whatever the readout inverse spreads into it. A
failed cell carries its first failure in per-cell order: I-circuit before
X-circuit, B1 before B2, SPAM correction before parsing the raw pool before
parsing the corrected one. That step is read off the stacked failure masks,
and only its single-cell function, `spam_correct` or `parse_branches`, runs on
that one pool to word the error, so each failed cell makes exactly one
single-cell call, and it fails. `perfbench/layertrace.py` counts those calls
and wraps the names it traces where this module looks them up, so every name
in its TRACE_POINTS stays an attribute here, even the ones the sweep no
longer calls.

All angles are expressed in units of pi in configs and output files and in
radians inside the package.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from qgame.bayesian import compose
from qgame.equilibrium import (
    DELTA_ANALYTIC,
    DELTA_SHOTS,
    EquilibriumReport,
    detect_transitions,
    nash_equilibria,
    nash_equilibria_stack,
    rmsd_at_equilibrium,
    rmsd_at_equilibrium_stack,
)
from qgame.game import (
    DEFAULT_PAYOFF_ROWS_B1,
    DEFAULT_PAYOFF_ROWS_B2,
    STRATEGIES,
    final_states,
    payoff_table,
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
    SpamCorrectionError,
    child_rngs,
    config_number,
    measure_chi,
    outcome_law,
    sample_outcomes,
    spam_correct,
    spam_correct_stack,
    split_counts,
)
from qgame.parallel import (
    BRANCH_PAIRS,
    N_OUTCOMES,
    N_QUBITS,
    EmptyBranchError,
    Variant,
    branch_distributions,
    build_circuit,
    parse_branches,
)
from qgame.statevector import CHI_MAX, check_chi

# The sweep calls neither this name, `nash_equilibria` nor `rmsd_at_equilibrium`; perfbench/layertrace.py
# traces them here. They go away with those trace points when the benchmark traces the stacked steps.
bayesian_split = split_counts

SCHEMA_VERSION = 3
MODE_ANALYTIC = "analytic"
MODE_SHOTS = "shots"

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


def _grid_key(value: float) -> int:
    """A grid point's entry in its shot-mode stream keys: the point in millionths."""
    return round(value * 10**6)


def _number_rows(name: str, rows) -> tuple:
    """Nested lists of config numbers as nested tuples, the numbers as given."""
    if isinstance(rows, (list, tuple)):
        return tuple(_number_rows(name, r) for r in rows)
    config_number(name, rows)
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
    payoff_rows_b1: tuple = DEFAULT_PAYOFF_ROWS_B1
    payoff_rows_b2: tuple = DEFAULT_PAYOFF_ROWS_B2
    tracked_profile: str = "IXI"
    transition_window: int = 3

    def __post_init__(self) -> None:
        if self.mode not in (MODE_ANALYTIC, MODE_SHOTS):
            raise ConfigError(f"mode must be '{MODE_ANALYTIC}' or '{MODE_SHOTS}', got {self.mode!r}")
        try:
            for name in ("chi_grid_pi", "p_grid"):
                object.__setattr__(self, name, tuple(config_number(name, value) for value in getattr(self, name)))
            if self.delta is not None:
                config_number("delta", self.delta)
            for name in ("payoff_rows_b1", "payoff_rows_b2"):
                object.__setattr__(self, name, _number_rows(name, getattr(self, name)))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
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
            for a, b in zip(grid, grid[1:]):
                if b <= a:
                    raise ConfigError(f"{name} must be strictly ascending")
                if self.mode == MODE_SHOTS and _grid_key(a) == _grid_key(b):
                    raise ConfigError(f"{name} points {a!r} and {b!r} share one keyed stream (same millionth)")
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
        if max(self.shots, self.calibration_shots) >= 2**63:  # Generator.multinomial takes a C long
            raise ConfigError("shots and calibration_shots must be below 2**63")
        if self.delta is not None and self.delta < 0:
            raise ConfigError("delta must be >= 0")
        if not isinstance(self.noise, NoiseModel):
            raise ConfigError("noise must be a NoiseModel")
        try:
            profile_from_names(self.tracked_profile)
            self.tables
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def effective_delta(self) -> float:
        if self.delta is not None:
            return self.delta
        return DELTA_ANALYTIC if self.mode == MODE_ANALYTIC else DELTA_SHOTS

    @cached_property
    def tables(self) -> np.ndarray:
        """The read-only (game, player, outcome) payoff stack: B1's table, then B2's."""
        tables = np.stack([payoff_table(self.payoff_rows_b1), payoff_table(self.payoff_rows_b2)])
        tables.flags.writeable = False
        return tables

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


# ---------------------------------------------------------------------------
# analytic pipeline

def _analytic_reports(chi: float, tables: np.ndarray, p_grid: tuple, delta: float) -> list[EquilibriumReport]:
    """Exact equilibrium reports at angle chi (radians), one per p, from one
    protocol evolution for both games of the (2, 2, 4) `tables`; the B
    payoffs do not depend on p, so one pair serves the column."""
    (pay_a_b1, pay_b1), (pay_a_b2, pay_b2) = payoff_tensor(chi, tables)
    return nash_equilibria_stack(compose(pay_a_b1, pay_a_b2, p_grid), pay_b1, pay_b2, delta)


def _analytic_column(config: ExperimentConfig, chi_pi: float) -> list[CellResult]:
    reports = _analytic_reports(chi_pi * np.pi, config.tables, config.p_grid, config.effective_delta)
    # the analytic run is its own benchmark; no reference point exists
    # where the equilibrium set is empty
    return [
        CellResult(chi_pi, chi_pi, p, report, None if report.empty else 0.0)
        for p, report in zip(config.p_grid, reports)
    ]


# ---------------------------------------------------------------------------
# shot-emulation pipeline

def _split_pools(config: ExperimentConfig, counts: np.ndarray, rngs: list[np.random.Generator]) -> np.ndarray:
    """(variant, type, p, outcome) stack of the B1 and B2 pools of both
    variants' (variant, outcome) `counts` at every p, each p's split drawn
    from its own stream in `rngs`: the I-circuit's outcomes, then the X-circuit's."""
    pools = np.empty((len(Variant), 2, len(config.p_grid), N_OUTCOMES))
    for n, (p, rng) in enumerate(zip(config.p_grid, rngs)):
        pools[:, 0, n], pools[:, 1, n] = split_counts(counts, p, rng)
    # a pool emptied by the split (p at or near 0 or 1) estimates its game
    # tensor from the full unsplit dataset instead
    return np.where(pools.sum(axis=-1, keepdims=True) > 0, pools, counts[:, None, None, :])


def _cell_error(steps: np.ndarray, pools: np.ndarray, corrected: np.ndarray, confusion: ConfusionMatrix) -> str:
    """A failed cell's message: the error of the single-cell step that fails
    first in per-cell order, read off the cell's (variant, type, step) mask
    of failed steps (SPAM correction, raw parse, corrected parse) and run on
    that one (variant, type, outcome) pool."""
    v, t, step = np.unravel_index(np.argmax(steps), steps.shape)
    try:
        if step == 0:
            spam_correct(pools[v, t], confusion)
        else:
            parse_branches((pools if step == 1 else corrected)[v, t], tuple(Variant)[v])
    except (SpamCorrectionError, EmptyBranchError) as exc:
        return str(exc)
    raise RuntimeError("the stacked checks failed a cell that the single-cell steps pass")


def _shot_column(
    config: ExperimentConfig, chi_pi: float, confusion: ConfusionMatrix, rngs: list, split_rngs: list
) -> tuple[list[CellResult], ChiEstimate]:
    """One angle's cells, from its I- and X-circuit sample streams and its
    calibration stream (`rngs`) and one split stream per p (`split_rngs`)."""
    chi, delta, tables = chi_pi * np.pi, config.effective_delta, config.tables
    *sample_rngs, calibration_rng = rngs
    counts = np.array([
        sample_outcomes(build_circuit(variant, chi), config.noise, config.shots, rng)
        for variant, rng in zip(Variant, sample_rngs)
    ])
    estimate = measure_chi(config.noise, chi, config.calibration_shots, calibration_rng)
    # the estimator lives in [0, pi/2]; the protocol angle saturates at pi/4
    chi_ref = min(max(estimate.value, 0.0), CHI_MAX)
    chi_measured_pi = chi_ref / np.pi
    references = _analytic_reports(chi_ref, tables, config.p_grid, delta)

    pools = _split_pools(config, counts, split_rngs)
    try:
        corrected, spam_failed, _ = spam_correct_stack(pools, confusion)
    except SpamCorrectionError:
        # an unusable readout matrix fails every cell, each with its own error
        corrected, spam_failed = pools, np.ones(pools.shape[:-1], dtype=bool)
    dists, totals = branch_distributions(corrected)
    # a branch without raw shots is empty, whatever the readout inverse spreads into it
    raw_empty = (branch_distributions(pools)[1] <= 0).any(axis=-1)
    # (variant, type, p, step): which single-cell steps fail, in per-cell order
    steps = np.stack([spam_failed, raw_empty, (totals <= 0).any(axis=-1)], axis=-1)
    failed = steps.any(axis=(0, 1, 3))

    # (variant, type, p, branch, outcome) -> (type, p, strategy A, strategy B, outcome),
    # each variant's branches taken in the order of the pairs they play
    dists = np.moveaxis(dists, 0, 2).reshape(2, len(config.p_grid), -1, 4)
    dists = dists[:, ~failed][:, :, np.argsort(BRANCH_PAIRS, axis=None)].reshape(2, -1, 4, 4, 4)
    pay_a_b1, pay_b1 = tensor_from_distributions(dists[0], tables[0])
    pay_a_b2, pay_b2 = tensor_from_distributions(dists[1], tables[1])
    pay_a = compose(pay_a_b1, pay_a_b2, np.asarray(config.p_grid)[~failed])
    rmsds = rmsd_at_equilibrium_stack(pay_a, pay_b1, pay_b2, [references[n] for n in np.flatnonzero(~failed)])
    solved = zip(nash_equilibria_stack(pay_a, pay_b1, pay_b2, delta), rmsds)
    cells = [
        CellResult(
            chi_pi, chi_measured_pi, p, None, None,
            error=_cell_error(steps[:, :, n], pools[:, :, n], corrected[:, :, n], confusion),
        )
        if failed[n]
        else CellResult(chi_pi, chi_measured_pi, p, *next(solved))
        for n, p in enumerate(config.p_grid)
    ]
    return cells, estimate


def _shot_streams(config: ExperimentConfig) -> list[tuple[list, list]]:
    """Every keyed stream of a shot sweep, derived in two `child_rngs`
    batches, as one pair per angle: its I- and X-circuit sample streams and
    its calibration stream, then one split stream per p."""
    chi_keys, p_keys = [_grid_key(c) for c in config.chi_grid_pi], [_grid_key(p) for p in config.p_grid]
    tails = [*((v, PURPOSE_SAMPLE) for v in range(len(Variant))), (0, PURPOSE_CALIBRATION)]
    rngs = child_rngs(config.seed, np.array([(c, *tail) for c in chi_keys for tail in tails]))
    split_rngs = child_rngs(config.seed, np.array([(c, 0, PURPOSE_SPLIT, p) for c in chi_keys for p in p_keys]))
    k, n = len(tails), len(p_keys)
    return [(rngs[k * i : k * (i + 1)], split_rngs[n * i : n * (i + 1)]) for i in range(len(chi_keys))]


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Evaluate the full grid. Deterministic for a given config and seed."""
    tracked = profile_from_names(config.tracked_profile)
    # one readout matrix per sweep: its factorization serves every cell
    confusion = ConfusionMatrix.from_noise(config.noise) if config.mode == MODE_SHOTS else None
    all_cells: list[CellResult] = []
    transitions: list[tuple[float, tuple[float, ...] | None]] = []
    measurements: list[tuple[float, ChiEstimate]] = []
    streams = _shot_streams(config) if config.mode == MODE_SHOTS else None
    for i, chi_pi in enumerate(config.chi_grid_pi):
        if config.mode == MODE_ANALYTIC:
            cells = _analytic_column(config, chi_pi)
            measurements.append((chi_pi, ChiEstimate(chi_pi * np.pi, 0.0)))
        else:
            cells, estimate = _shot_column(config, chi_pi, confusion, *streams[i])
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
        cells = [c for c in result.cells if c.chi_nominal_pi == chi_pi]
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
    return [
        {
            "chi_pi": chi_pi,
            "profile": result.config.tracked_profile,
            "thresholds": None if thresholds is None else list(thresholds),
            "window": result.config.transition_window,
        }
        for chi_pi, thresholds in result.transitions
    ]


def verify_parallelization(chi_grid_pi=DEFAULT_CHI_GRID_PI) -> list[dict]:
    """Compare every branch-conditional distribution against the two-qubit
    game evaluated directly; one row per (angle, circuit variant).

    Each branch is checked against the pair `BRANCH_PAIRS` assigns it;
    `worst_branch` names the pair of the first branch with the largest
    deviation, or is blank when every branch matches exactly.
    """
    rows = []
    for chi_pi in chi_grid_pi:
        chi = float(chi_pi) * np.pi
        direct_dists = np.abs(final_states(chi)) ** 2  # row 4*a + b per strategy pair (a, b)
        for pairs, variant in zip(BRANCH_PAIRS, Variant):
            circuit = build_circuit(variant, chi)
            law = outcome_law(circuit.gate_sequence, N_QUBITS, circuit.chi, NoiseModel())
            dists, totals = branch_distributions(law)
            linf = np.abs(dists - direct_dists[pairs]).max(axis=-1)
            max_linf, aux_dev = float(linf.max()), float(np.abs(totals - 0.125).max())
            a, b = divmod(int(pairs[np.argmax(linf)]), 4)
            worst = "" if max_linf == 0 else STRATEGIES[a].name + STRATEGIES[b].name
            passed = max_linf < 1e-10 and aux_dev < 1e-12
            rows.append({"chi_pi": float(chi_pi), "variant": variant.value, "max_linf": max_linf,
                         "aux_marginal_dev": aux_dev, "passed": passed, "worst_branch": worst})
    return rows


# ---------------------------------------------------------------------------
# serialization

# writes any float, numpy's too, as json.dump does; numpy's own repr is np.float64(0.5)
_float_text = float.__repr__


def _csv_field(value) -> str:
    """One CSV cell: blank for None, float repr for floats (round-trip
    exact), lowercase booleans, and ';'-joined floats for lists."""
    if value is None:
        return ""
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return ";".join(repr(float(v)) for v in value)
    return str(value)


def write_csv(path, columns: tuple, rows: list[dict]) -> None:
    """Header plus one line per row, fields in `columns` order. No field of
    the rmsd, thresholds or verify tables can hold a comma, a quote or a
    line break, so csv.writer would quote none."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(columns) + "\n")
        handle.writelines(",".join(_csv_field(row[col]) for col in columns) + "\n" for row in rows)


def _report_from_dict(index: int, data: dict | None) -> EquilibriumReport | None:
    """Cell `index`'s report: payoffs are numbers, NaN and infinities
    included (json.load reads what emit_report writes), but not strings or bools."""
    if data is None:
        return None
    profiles, payoffs = data["profiles"], data["payoffs"]
    lengths = [len(pay) for pay in payoffs]
    if len(payoffs) != len(profiles) or lengths.count(3) != len(lengths):
        raise ConfigError(f"{len(profiles)} profiles with payoff rows of lengths {lengths}")
    rows = tuple([(a, b1, b2) for a, b1, b2 in payoffs if type(a) is type(b1) is type(b2) is float])
    if len(rows) != len(payoffs):  # some payoff is not a plain float
        for value in itertools.chain.from_iterable(payoffs):
            # bool is an int subclass; a JSON true must not count as 1
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"cell {index}: payoffs: expected a number, got {value!r}")
        rows = tuple([(float(a), float(b1), float(b2)) for a, b1, b2 in payoffs])
    return EquilibriumReport(
        profiles=tuple([_PROFILES.get(name) or profile_from_names(name) for name in profiles]), payoffs=rows
    )


def _result_head(result: SweepResult) -> dict:
    """Everything of the JSON document but its cells."""
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
    }


def _cell_from_dict(index: int, data: dict, point: tuple[float, float]) -> CellResult:
    """Cell `index` of a result file, which must hold numbers, sit at
    `point`, the (chi_nominal_pi, p) that run_sweep emits at that index,
    and have a null report exactly when its error is a string, as a failed
    cell does; a failed cell also has a null rmsd."""
    chi_pi, measured, p, rmsd = data["chi_nominal_pi"], data["chi_measured_pi"], data["p"], data["rmsd"]
    # the all-float cell skips config_number: a sum of floats is finite only when each one is
    if not (
        type(chi_pi) is type(measured) is type(p) is float
        and (rmsd is None or type(rmsd) is float)
        and math.isfinite(chi_pi + measured + p + (rmsd or 0.0))
    ):
        try:
            chi_pi, p = config_number("chi_nominal_pi", chi_pi), config_number("p", p)
            measured = config_number("chi_measured_pi", measured)
            rmsd = None if rmsd is None else config_number("rmsd", rmsd)
        except ValueError as exc:
            raise ConfigError(f"cell {index}: {exc}") from exc
    if (chi_pi, p) != point:
        raise ConfigError(f"cell {index} at (chi_nominal_pi, p) = {(chi_pi, p)}, expected {point}")
    report, error = data["report"], data["error"]
    if not (error is None if report is not None else isinstance(error, str) and rmsd is None):
        state = "a null report" if report is None else "a report"
        raise ConfigError(
            f"cell {index} has {state}, rmsd {rmsd!r} and error {error!r}; "
            "a cell has a null report and rmsd exactly when its error is a string"
        )
    return CellResult(chi_pi, measured, p, _report_from_dict(index, report), rmsd, error)


def _grid_points(name: str, values, grid: tuple, whole: bool = False) -> tuple:
    """`values` as config numbers: `grid` itself, or else distinct points of it in ascending order."""
    values = tuple(config_number(name, value) for value in values)
    if values != (grid if whole else tuple(sorted(set(values).intersection(grid)))):
        raise ConfigError(f"{name} {list(values)} are not {'the' if whole else 'ascending points of the'} config grid")
    return values


def result_from_dict(data: dict) -> SweepResult:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {data.get('schema_version')!r}")
    config = ExperimentConfig.from_dict(data["config"])
    points = list(itertools.product(config.chi_grid_pi, config.p_grid))  # run_sweep's order
    if len(data["cells"]) != len(points):
        raise ConfigError(f"{len(data['cells'])} cells for {len(points)} grid points")
    transitions, measurements, chi_grid = data["transitions"], data["chi_measurements"], config.chi_grid_pi
    try:  # one transition and one measurement per angle, in run_sweep's order
        chis = _grid_points("transitions chi_pi", [t["chi_pi"] for t in transitions], chi_grid, whole=True)
        nominal = _grid_points("chi_nominal_pi", [m["chi_nominal_pi"] for m in measurements], chi_grid, whole=True)
        thresholds = [
            None if t["thresholds"] is None else _grid_points("thresholds", t["thresholds"], config.p_grid)
            for t in transitions
        ]
        value, sigma = ([config_number(key, m[key]) for m in measurements] for key in ("value_rad", "sigma_rad"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return SweepResult(
        config=config,
        cells=tuple(map(_cell_from_dict, itertools.count(), data["cells"], points)),
        transitions=tuple(zip(chis, thresholds)),
        chi_measurements=tuple(zip(nominal, map(ChiEstimate, value, sigma))),
    )


# json.dump writes non-finite floats as these JavaScript literals
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_PROFILE_NAMES = {profile: profile_names(profile) for profile in itertools.product(STRATEGIES, repeat=3)}
_PROFILES = {name: profile for profile, name in _PROFILE_NAMES.items()}  # a bad name raises in profile_from_names
_EMPTY_REPORT = '{\n        "profiles": [],\n        "payoffs": []\n      }'


def emit_report(result: SweepResult, out_dir, basename: str = "sweep") -> dict:
    """Write the sweep as CSV and JSON; byte-stable for identical inputs.

    One pass over the cells formats each float once, with `float.__repr__`,
    and streams the text to both files. The CSV has one line per
    equilibrium, one for an empty cell and one (with blank equilibrium
    fields) for a failed cell; no field can hold a comma, a quote or a line
    break, so csv.writer would quote none. The JSON is byte for byte what
    `json.dump(..., indent=2)` writes (non-finite floats as NaN/Infinity,
    strings through json's ASCII escaping); each cell's block is formatted
    directly, since that encoder runs in pure Python whenever it indents."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {fmt: os.path.join(out_dir, f"{basename}.{fmt}") for fmt in ("csv", "json")}
    config, nonfinite = result.config, _JSON_NONFINITE.get
    constant = ",".join(map(_csv_field, (config.effective_delta, config.mode, config.seed)))
    # the head object's closing "\n}" is cut so the cells list can follow
    head = json.dumps(_result_head(result), indent=2)[:-2]
    with open(paths["csv"], "w", newline="") as csv_file, open(paths["json"], "w") as json_file:
        csv_file.write(",".join(_CSV_COLUMNS) + "\n")
        json_file.write(head + ',\n  "cells": [')
        separator = "\n"
        for cell in result.cells:
            chi, measured, p = _float_text(cell.chi_nominal_pi), _float_text(cell.chi_measured_pi), _float_text(cell.p)
            rmsd, report = "" if cell.rmsd is None else _float_text(cell.rmsd), cell.report
            csv_head, csv_tail = f"{chi},{measured},{p},", f",{rmsd},{constant}\n"
            if report is None:
                csv_file.write(csv_head + ",,,," + csv_tail)
                json_report = "null"
            elif report.empty:
                csv_file.write(csv_head + "0,,,," + csv_tail)
                json_report = _EMPTY_REPORT
            else:
                names = [_PROFILE_NAMES[profile] for profile in report.profiles]
                rows = [(_float_text(a), _float_text(b1), _float_text(b2)) for a, b1, b2 in report.payoffs]
                count = f"{csv_head}{len(names)},"
                csv_file.write("".join(f"{count}{name},{a},{b1},{b2}{csv_tail}" for name, (a, b1, b2) in zip(names, rows)))
                json_report = (
                    '{\n        "profiles": [\n          "'
                    + '",\n          "'.join(names)
                    + '"\n        ],\n        "payoffs": [\n          [\n            '
                    + "\n          ],\n          [\n            ".join(
                        f"{nonfinite(a, a)},\n            {nonfinite(b1, b1)},\n            {nonfinite(b2, b2)}"
                        for a, b1, b2 in rows
                    )
                    + "\n          ]\n        ]\n      }"
                )
            json_file.write(
                f"{separator}    {{\n"
                f'      "chi_nominal_pi": {nonfinite(chi, chi)},\n'
                f'      "chi_measured_pi": {nonfinite(measured, measured)},\n'
                f'      "p": {nonfinite(p, p)},\n'
                f'      "report": {json_report},\n'
                f'      "rmsd": {"null" if cell.rmsd is None else nonfinite(rmsd, rmsd)},\n'
                f'      "error": {"null" if cell.error is None else json.dumps(cell.error)}\n'
                "    }"
            )
            separator = ",\n"
        json_file.write("\n  ]\n}\n" if result.cells else "]\n}\n")
    return paths


def load_result(json_path) -> SweepResult:
    """Read a sweep written by `emit_report`; a missing, unreadable or
    malformed file raises ConfigError, as a config file does."""
    try:
        with open(json_path) as handle:
            return result_from_dict(json.load(handle))
    except OSError as exc:
        raise ConfigError(f"cannot read result file {json_path}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad result file {json_path}: {type(exc).__name__}: {exc}") from exc

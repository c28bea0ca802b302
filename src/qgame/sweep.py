"""Grid sweeps over the entangling angle and the type probability.

Two modes share one result schema. A config's payoff tables are one
read-only (2, 2, 4) array, `ExperimentConfig.tables`: the B1 game's (2, 4)
table, then B2's. Analytic mode solves the whole grid in one pass: one
`payoff_tensor` call evolves every angle for both games, one `compose`
mixes A's payoffs over the (chi, p) grid, and one `nash_columns` call
solves its rows, chi-major, with each angle's B payoffs repeated over
its p values. Shot mode emulates the experiment in four stages. Sample:
per angle, one shot dataset per circuit variant from `outcome_law` (which
evolves each circuit once per depolarization) and a calibration run that
measures the angle. References: that analytic pass at every measured
angle, cut by `best_equilibria_stack` to each cell's best equilibrium and
its payoffs, with no reports built. Reduce, one angle at a time, so only
one angle's pools are ever held: one `split_counts` call draws the type
pools of every p, the I-circuit's first, from the angle's split stream
into a (variant, type, p, outcome) stack, which is SPAM-corrected, split
into branch distributions and turned into payoffs per branch, then put
in strategy-pair order (`parallel.BRANCH_PAIRS`). Analyse, once over all
solved cells: one `compose`, one `rmsd_at_equilibrium_stack` gather and
one `nash_columns` solve. Each angle draws on 4 keyed streams
(two sample, calibration, split), each its own `noise.child_rng` and apart
from the others, so the stage order moves no draw. Keys are the angle in
millionths, the variant (0 for the calibration and split streams) and the
purpose tag. So a run on a subset of the angles with the same p grid
reproduces its cells of the full run (a subset of the p values moves later
draws), and a shot-mode config rejects two angles that share a millionth,
and with it their streams. The one-row cases (`spam_correct`, `parse_branches`,
`nash_equilibria`, `rmsd_at_equilibrium`) share their stacked forms'
checks. `parallel` alone knows the outcome-bit layout; this module and
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

A `SweepResult` holds the two column blocks of a schema-4 `sweep.json`, each
column a tuple: `cell_columns`, one entry per cell, and
`equilibrium_columns`, flat over every solved cell's equilibria and cut by
the `n_equilibria` column. The sweep fills them straight from
`nash_columns`, and reads each angle's transitions off the tracked
profile's column of the Nash mask; `emit_report`, `load_result`,
`rmsd_analysis` and the CLI read and write the columns, and build no
per-cell record. `run_sweep` and `load_result` are the only builders of a
`SweepResult`. `SweepResult.cells` is a view of the same data as immutable
`CellResult` and `EquilibriumReport` named tuples, built on first access,
each report cut from the columns at its cell's `n_equilibria`. Profiles
are named and indexed by `game`'s one profile table.
All angles are in units of pi in configs and output files and in radians
inside the package.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from qgame.bayesian import compose
from qgame.config import (
    DEFAULT_CHI_GRID_PI,
    MODE_ANALYTIC,
    ConfigError,
    ExperimentConfig,
    NoiseModel,
    _grid_key,
    config_number,
)
from qgame.equilibrium import (
    EquilibriumReport,
    best_equilibria_stack,
    detect_transitions,
    nash_columns,
    nash_equilibria,
    rmsd_at_equilibrium,
    rmsd_at_equilibrium_stack,
)
from qgame.game import PROFILE_NAMES, PROFILES, STRATEGIES, final_states, payoff_tensor, tensor_from_distributions
from qgame.noise import (
    PURPOSE_CALIBRATION,
    PURPOSE_SAMPLE,
    PURPOSE_SPLIT,
    ChiEstimate,
    SpamCorrectionError,
    child_rng,
    measure_chi,
    outcome_law,
    sample_outcomes,
    spam_correct,
    spam_correct_stack,
    split_counts,
)
from qgame.parallel import (
    BRANCH_PAIRS,
    N_QUBITS,
    EmptyBranchError,
    Variant,
    branch_distributions,
    build_circuit,
    parse_branches,
)
from qgame.statevector import CHI_MAX

# The sweep calls neither this name, `nash_equilibria` nor `rmsd_at_equilibrium`; perfbench/layertrace.py
# traces them here. They go away with those trace points when the benchmark traces the stacked steps.
bayesian_split = split_counts

SCHEMA_VERSION = 4

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


class CellResult(NamedTuple):
    """One (chi, p) grid point. `error` set means the cell failed and
    carries no report; an empty report is a legitimate no-equilibrium cell."""

    chi_nominal_pi: float
    chi_measured_pi: float
    p: float
    report: EquilibriumReport | None
    rmsd: float | None
    error: str | None = None


class CellColumns(NamedTuple):
    """sweep.json's `cells` block: one tuple per field, one entry per cell."""

    chi_nominal_pi: tuple
    chi_measured_pi: tuple
    p: tuple
    n_equilibria: tuple  # None for a failed cell
    rmsd: tuple
    error: tuple


class EquilibriumColumns(NamedTuple):
    """sweep.json's `equilibria` block: one entry per equilibrium, cell by cell, cut by `n_equilibria`."""

    profile: tuple  # names like 'IXI'
    payoff_A: tuple
    payoff_B1: tuple
    payoff_B2: tuple


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    cell_columns: CellColumns
    equilibrium_columns: EquilibriumColumns
    # (chi_pi, thresholds of config.tracked_profile); None where every cell failed
    transitions: tuple[tuple[float, tuple[float, ...] | None], ...]
    chi_measurements: tuple[tuple[float, ChiEstimate], ...]

    @cached_property
    def cells(self) -> tuple[CellResult, ...]:
        """The cells as records, in column order, each report its cell's next `n_equilibria` equilibria."""
        cells, equilibria = self.cell_columns, self.equilibrium_columns
        profiles, payoffs = map(_PROFILES.__getitem__, equilibria.profile), zip(*equilibria[1:])
        reports = [None if count is None else EquilibriumReport(tuple(itertools.islice(profiles, count)),
                                                                tuple(itertools.islice(payoffs, count)))
                   for count in cells.n_equilibria]
        records = zip(cells.chi_nominal_pi, cells.chi_measured_pi, cells.p, reports, cells.rmsd, cells.error)
        return tuple(itertools.starmap(CellResult, records))


# ---------------------------------------------------------------------------
# analytic pipeline

def _analytic_payoffs(chis, tables: np.ndarray, p_grid: tuple) -> tuple[np.ndarray, ...]:
    """Exact (A, B1, B2) payoff stacks at the angles `chis` (radians), one row
    per (chi, p) in chi-major order, from one protocol evolution of every angle
    for both games of the (2, 2, 4) `tables` and one compose. The B payoffs
    do not depend on p, so each angle's pair is repeated over its p values."""
    pays = payoff_tensor(np.asarray(chis, dtype=float), tables)  # (chi, game, player, 4, 4)
    pay_a = compose(pays[:, 0, 0, None], pays[:, 1, 0, None], p_grid).reshape(-1, 4, 4, 4)
    return pay_a, *np.repeat(pays[:, :, 1].swapaxes(0, 1), len(p_grid), axis=1)


# ---------------------------------------------------------------------------
# shot-emulation pipeline

def _split_pools(config: ExperimentConfig, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(variant, type, p, outcome) stack of the B1 and B2 pools of both
    variants' (variant, outcome) `counts` at every p, from one `split_counts`
    call on the angle's split stream `rng`: every p of the I-circuit, then every p of the X-circuit."""
    pools = np.stack(split_counts(counts[:, None], np.array(config.p_grid)[:, None], rng), axis=1)
    # a pool emptied by the split (p at or near 0 or 1) estimates its game
    # tensor from the full unsplit dataset instead
    return np.where(pools.sum(axis=-1, keepdims=True) > 0, pools, counts[:, None, None, :])


def _cell_error(steps: np.ndarray, pools: np.ndarray, corrected: np.ndarray, noise: NoiseModel) -> str:
    """A failed cell's message: the error of the single-cell step that fails
    first in per-cell order, read off the cell's (variant, type, step) mask
    of failed steps (SPAM correction, raw parse, corrected parse) and run on
    that one (variant, type, outcome) pool."""
    v, t, step = np.unravel_index(np.argmax(steps), steps.shape)
    try:
        if step == 0:
            spam_correct(pools[v, t], noise)
        else:
            parse_branches((pools if step == 1 else corrected)[v, t], tuple(Variant)[v])
    except (SpamCorrectionError, EmptyBranchError) as exc:
        return str(exc)
    raise RuntimeError("the stacked checks failed a cell that the single-cell steps pass")


def _sample(config: ExperimentConfig, chi_pi: float) -> tuple:
    """One angle's (variant, outcome) counts, angle estimate and split stream (the one generator
    kept), drawn on its I- and X-circuit sample streams and its calibration stream."""
    chi, key = chi_pi * np.pi, _grid_key(chi_pi)
    counts = np.array([
        sample_outcomes(build_circuit(variant, chi), N_QUBITS, chi, config.noise, config.shots,
                        child_rng(config.seed, key, v, PURPOSE_SAMPLE))
        for v, variant in enumerate(Variant)
    ])
    estimate = measure_chi(config.noise, chi, config.calibration_shots,
                           child_rng(config.seed, key, 0, PURPOSE_CALIBRATION))
    return counts, estimate, child_rng(config.seed, key, 0, PURPOSE_SPLIT)


def _reduce(
    config: ExperimentConfig, counts: np.ndarray, rng: np.random.Generator
) -> tuple[list[str | None], np.ndarray]:
    """One angle's failure message per p (None where the cell solves) and the
    (game, player, solved p, strategy A, strategy B) payoffs, from the split of `counts` on `rng`."""
    pools = _split_pools(config, counts, rng)
    try:
        corrected, spam_failed, _ = spam_correct_stack(pools, config.noise)
    except SpamCorrectionError:
        # an unusable readout matrix fails every cell, each with its own error
        corrected, spam_failed = pools, np.ones(pools.shape[:-1], dtype=bool)
    dists, totals = branch_distributions(corrected)
    # a branch without raw shots is empty, whatever the readout inverse spreads into it
    raw_empty = (branch_distributions(pools)[1] <= 0).any(axis=-1)
    # (variant, type, p, step): which single-cell steps fail, in per-cell order
    steps = np.stack([spam_failed, raw_empty, (totals <= 0).any(axis=-1)], axis=-1)
    failed = steps.any(axis=(0, 1, 3))
    errors = [_cell_error(steps[:, :, n], pools[:, :, n], corrected[:, :, n], config.noise) if fails else None
              for n, fails in enumerate(failed.tolist())]
    # (game, player, variant, p, branch) payoffs, then (game, player, p, pair) in strategy-pair order
    pays = [tensor_from_distributions(dists[:, t, ~failed], table) for t, table in enumerate(config.tables)]
    pays = np.moveaxis(pays, 2, 3).reshape(2, 2, -1, 16)[..., np.argsort(BRANCH_PAIRS, axis=None)]
    return errors, pays.reshape(2, 2, -1, 4, 4)


def _measured(config: ExperimentConfig, values) -> tuple[np.ndarray, tuple]:
    """Each angle's measured value in radians, from its calibration estimate in `values`, and each cell's
    chi_measured_pi. Analytic mode measures nothing: the nominal angle. Shot mode clips the estimate,
    which lives in [0, pi/2], to the protocol's saturation at pi/4."""
    if config.mode == MODE_ANALYTIC:
        return np.multiply(config.chi_grid_pi, np.pi), tuple(np.repeat(config.chi_grid_pi, len(config.p_grid)).tolist())
    chis = np.clip(values, 0.0, CHI_MAX)
    return chis, tuple((np.repeat(chis, len(config.p_grid)) / np.pi).tolist())


def _check_estimates(config: ExperimentConfig, values: list, sigmas: list) -> None:
    """Raise ConfigError, naming the angle, at a calibration estimate `run_sweep` does not record: one outside
    estimate_chi_from_counts's ranges, or in analytic mode one that is not `_measured`'s angle with sigma 0.0."""
    for chi_pi, chi, value, sigma in zip(config.chi_grid_pi, _measured(config, values)[0].tolist(), values, sigmas):
        if not 0.0 <= value <= math.pi / 2:
            raise ConfigError(f"chi_nominal_pi {chi_pi}: value_rad={value} outside [0, pi/2]")
        if sigma < 0.0:
            raise ConfigError(f"chi_nominal_pi {chi_pi}: sigma_rad={sigma} is negative")
        if config.mode == MODE_ANALYTIC and (value, sigma) != (chi, 0.0):
            raise ConfigError(f"chi_nominal_pi {chi_pi}: value_rad={value} and sigma_rad={sigma}, "
                              f"expected {chi} and 0.0 in analytic mode")


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Evaluate the full grid. Deterministic for a given config and seed."""
    n_chi, n_p, delta = len(config.chi_grid_pi), len(config.p_grid), config.effective_delta
    nominal = tuple(itertools.chain.from_iterable(itertools.repeat(chi_pi, n_p) for chi_pi in config.chi_grid_pi))
    if config.mode == MODE_ANALYTIC:
        chis, measured = _measured(config, ())
        nash, counts, flat, payoffs = nash_columns(*_analytic_payoffs(chis, config.tables, config.p_grid), delta)
        # the analytic run is its own benchmark; no reference point exists
        # where the equilibrium set is empty
        counts, errors = tuple(counts), (None,) * len(counts)
        rmsds = tuple(0.0 if count else None for count in counts)
        ok = np.ones(len(counts), dtype=bool)
        estimates = [ChiEstimate(chi, 0.0) for chi in chis.tolist()]
    else:
        shot_counts, estimates, rngs = zip(*map(partial(_sample, config), config.chi_grid_pi))
        chi_refs, measured = _measured(config, [estimate.value for estimate in estimates])
        # every cell's theory reference, at its angle's measured value, in one pass
        best, ref_payoffs = best_equilibria_stack(*_analytic_payoffs(chi_refs, config.tables, config.p_grid), delta)
        # SPAM correction inverts the readout matrix of config.noise, factored once per noise model
        errors, pays = zip(*map(partial(_reduce, config), shot_counts, rngs))
        errors, pays = tuple(itertools.chain(*errors)), np.concatenate(pays, axis=2)
        ok = np.array([error is None for error in errors])
        pay_a = compose(pays[0, 0], pays[1, 0], np.tile(config.p_grid, n_chi)[ok])
        rmsds = rmsd_at_equilibrium_stack(pay_a, pays[0, 1], pays[1, 1], best[ok], ref_payoffs[ok])
        nash, counts, flat, payoffs = nash_columns(pay_a, pays[0, 1], pays[1, 1], delta)
        observed = zip(counts, rmsds)  # a failed cell has neither
        counts, rmsds = zip(*(next(observed) if error is None else (None, None) for error in errors))
    # each angle's solved p values and the tracked profile's membership there, off its column of the Nash mask
    member, transitions = iter(nash[:, PROFILE_NAMES.index(config.tracked_profile)].tolist()), []
    for chi_pi, solved in zip(config.chi_grid_pi, ok.reshape(n_chi, n_p).tolist()):
        ps = list(itertools.compress(config.p_grid, solved))
        flags = list(itertools.islice(member, len(ps)))
        transitions.append((chi_pi, detect_transitions(ps, flags, config.transition_window) if ps else None))
    cells = CellColumns(nominal, measured, config.p_grid * n_chi, counts, rmsds, errors)
    equilibria = EquilibriumColumns(tuple(map(PROFILE_NAMES.__getitem__, flat)), *map(tuple, payoffs))
    return SweepResult(config, cells, equilibria, tuple(transitions), tuple(zip(config.chi_grid_pi, estimates)))


# ---------------------------------------------------------------------------
# analyses over a finished sweep

def rmsd_analysis(result: SweepResult) -> list[dict]:
    """Per-angle aggregate of cell-level payoff deviations, each angle's cells one row of the chi-major grid."""
    cells, n_p, rows = result.cell_columns, len(result.config.p_grid), []
    for start, chi_pi in zip(range(0, len(cells.rmsd), n_p), result.config.chi_grid_pi):
        values = np.array([rmsd for rmsd in cells.rmsd[start:start + n_p] if rmsd is not None], dtype=float)
        rows.append({"chi_nominal_pi": chi_pi, "chi_measured_pi": cells.chi_measured_pi[start],
                     "mean_rmsd": float(values.mean()) if values.size else None,
                     "max_rmsd": float(values.max()) if values.size else None, "n_cells": values.size})
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
            law = outcome_law(build_circuit(variant, chi), N_QUBITS, chi, NoiseModel())
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
_COMPACT = (",", ":")  # json.dumps separators without whitespace
# sweep.json's two column blocks: one entry per cell, and one per equilibrium, cut by n_equilibria
_CELL_COLUMNS, _EQUILIBRIUM_COLUMNS = CellColumns._fields, EquilibriumColumns._fields
_PROFILES = dict(zip(PROFILE_NAMES, PROFILES))  # each profile's name -> the profile


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


class _FloatTexts(dict):
    """Float value -> its `float.__repr__` text, filled on first lookup.
    Zeros are not stored: 0.0 and -0.0 are one key but print differently.
    A NaN key matches only the same NaN object; every NaN prints as nan."""

    def __missing__(self, value: float) -> str:
        text = _float_text(value)
        if value:
            self[value] = text
        return text


def _json_floats(texts: list[str]) -> str:
    """A JSON list of float texts ("null" entries pass through) as json.dumps writes it, non-finite
    floats as NaN and Infinity; no finite float's text holds "nan" or "inf"."""
    return ("[" + ",".join(texts) + "]").replace("nan", "NaN").replace("inf", "Infinity")


def _json_object(names: tuple, texts) -> str:
    """A compact JSON object of encoded values, in `names` order."""
    return "{" + ",".join(f'"{name}":{text}' for name, text in zip(names, texts)) + "}"


def emit_report(result: SweepResult, out_dir) -> dict:
    """Write the sweep as sweep.csv and sweep.json in `out_dir`; byte-stable for identical inputs.

    Each distinct float value is formatted once per call, with
    `float.__repr__`, and its text reused for both files and every later
    occurrence (the default analytic sweep writes 10 933 floats but only
    400 distinct values); the cache dies with the call. The CSV has one line
    per equilibrium, one for an empty cell and one (with blank equilibrium
    fields) for a failed cell; no field can hold a comma, a quote or a line
    break, so csv.writer would quote none. The columnar JSON is byte for byte
    `json.dumps(document, separators=(",", ":")) + "\\n"`. That C encoder
    writes all but the float columns; each of those is one join of the
    cached texts, since the encoder would format every float again."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {fmt: os.path.join(out_dir, f"sweep.{fmt}") for fmt in ("csv", "json")}
    config, text = result.config, _FloatTexts().__getitem__
    cells, (names, *payoffs) = result.cell_columns, result.equilibrium_columns
    chi, measured, p = (list(map(text, column)) for column in cells[:3])
    rmsd = ["" if value is None else text(value) for value in cells.rmsd]
    counts, payoffs = cells.n_equilibria, [list(map(text, column)) for column in payoffs]

    constant = ",".join(map(_csv_field, (config.effective_delta, config.mode, config.seed)))
    lines, rows = [",".join(_CSV_COLUMNS) + "\n"], zip(names, *payoffs)
    for c, m, pp, count, r in zip(chi, measured, p, counts, rmsd):
        head, tail = f"{c},{m},{pp},", f",{r},{constant}\n"
        if count:
            head = f"{head}{count},"
            lines.extend(f"{head}{name},{a},{b1},{b2}{tail}" for name, a, b1, b2 in itertools.islice(rows, count))
        else:  # a failed cell, its count blank, or an empty one
            lines.append(f"{head}{'' if count is None else 0},,,,{tail}")
    with open(paths["csv"], "w", newline="") as csv_file:
        csv_file.writelines(lines)

    head = {"schema_version": SCHEMA_VERSION, "config": asdict(config),
            "chi_measurements": [{"chi_nominal_pi": chi_pi, "value_rad": est.value, "sigma_rad": est.sigma}
                                 for chi_pi, est in result.chi_measurements],
            "transitions": [{"chi_pi": chi_pi, "thresholds": None if thresholds is None else list(thresholds)}
                            for chi_pi, thresholds in result.transitions]}
    cell_json = (*map(_json_floats, (chi, measured, p)), json.dumps(counts, separators=_COMPACT),
                 _json_floats([r or "null" for r in rmsd]), json.dumps(cells.error, separators=_COMPACT))
    equilibrium_json = (json.dumps(names, separators=_COMPACT), *map(_json_floats, payoffs))
    with open(paths["json"], "w") as json_file:
        json_file.write(f'{json.dumps(head, separators=_COMPACT)[:-1]},"cells":{_json_object(_CELL_COLUMNS, cell_json)},'
                        f'"equilibria":{_json_object(_EQUILIBRIUM_COLUMNS, equilibrium_json)}}}\n')
    return paths


def _columns(data: dict, key: str, names: tuple, length: int) -> dict:
    """Block `key` of a result file: an object of the columns `names`, each a list of `length` entries."""
    block = data[key]
    if type(block) is not dict or block.keys() != set(names):
        raise ConfigError(f"{key}: expected an object of the columns {list(names)}")
    for name in names:
        if type(block[name]) is not list or len(block[name]) != length:
            raise ConfigError(f"{key}.{name}: expected a list of length {length}")
    return block


def _floats(name: str, values: list, cell=lambda index: index, nullable: bool = False, finite: bool = True) -> list:
    """Column `name` as floats, nulls kept where `nullable`: numbers (NaN and
    infinities only where not `finite`), not strings or bools. A bad entry
    raises ConfigError naming its cell, `cell(index)`."""
    if not set(map(type, values)) <= ({float, type(None)} if nullable else {float}):
        for index, value in enumerate(values):
            # bool is an int subclass; a JSON true must not count as 1
            if type(value) not in (int, float) and not (nullable and value is None):
                raise ConfigError(f"cell {cell(index)}: {name}: expected a number, got {value!r}")
        values = [value if value is None else float(value) for value in values]
    # a sum of floats is finite only when each one is; an overflowing sum takes the scan and passes it
    if finite and not math.isfinite(sum(filter(None, values))):
        for index, value in enumerate(values):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"cell {cell(index)}: {name}: expected a finite number, got {value!r}")
    return values


def _grid_points(name: str, values, grid: tuple, whole: bool = False) -> tuple:
    """`values` as config numbers: `grid` itself, or else distinct points of it in ascending order."""
    values = tuple(config_number(name, value) for value in values)
    if values != (grid if whole else tuple(sorted(set(values).intersection(grid)))):
        raise ConfigError(f"{name} {list(values)} are not {'the' if whole else 'ascending points of the'} config grid")
    return values


def result_from_dict(data: dict) -> SweepResult:
    """The sweep of a schema-4 document, every column checked whole; no per-cell record is built."""
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {data.get('schema_version')!r}, expected {SCHEMA_VERSION}; "
                          "re-run `qgame sweep` to write it again")
    config = ExperimentConfig.from_dict(data["config"])
    transitions, measurements = data["transitions"], data["chi_measurements"]
    chi_grid, p_grid = config.chi_grid_pi, config.p_grid
    # one transition and one measurement per angle, in run_sweep's order
    chis = _grid_points("transitions chi_pi", [t["chi_pi"] for t in transitions], chi_grid, whole=True)
    nominal = _grid_points("chi_nominal_pi", [m["chi_nominal_pi"] for m in measurements], chi_grid, whole=True)
    thresholds = [None if t["thresholds"] is None else _grid_points("thresholds", t["thresholds"], p_grid)
                  for t in transitions]
    value, sigma = ([config_number(key, m[key]) for m in measurements] for key in ("value_rad", "sigma_rad"))
    _check_estimates(config, value, sigma)

    cells = _columns(data, "cells", _CELL_COLUMNS, len(chi_grid) * len(p_grid))
    nominal_pi, measured, ps = (_floats(name, cells[name]) for name in _CELL_COLUMNS[:3])
    rmsds, counts, errors = _floats("rmsd", cells["rmsd"], nullable=True), cells["n_equilibria"], cells["error"]
    if nominal_pi != [chi for chi in chi_grid for _ in p_grid] or ps != list(p_grid) * len(chi_grid):
        at, points = list(zip(nominal_pi, ps)), list(itertools.product(chi_grid, p_grid))  # run_sweep's order
        index = next(n for n, point in enumerate(at) if point != points[n])
        raise ConfigError(f"cell {index} at (chi_nominal_pi, p) = {at[index]}, expected {points[index]}")
    expected = _measured(config, value)[1]  # run_sweep's rule, from the file's own chi_measurements
    if tuple(measured) != expected:
        index, got, want = next((n, a, b) for n, (a, b) in enumerate(zip(measured, expected)) if a != b)
        raise ConfigError(f"cell {index}: chi_measured_pi={got!r}, expected {want!r} from chi_measurements")
    if min(filter(None, rmsds), default=0.0) < 0.0:  # filter(None) drops the nulls and zeros
        index = next(n for n, rmsd in enumerate(rmsds) if rmsd is not None and rmsd < 0.0)
        raise ConfigError(f"cell {index}: rmsd={rmsds[index]} is negative")
    for index, count, rmsd, error in zip(itertools.count(), counts, rmsds, errors):
        if count is not None and (type(count) is not int or count < 0):  # a bool is no count
            raise ConfigError(f"cell {index}: n_equilibria: expected a count or null, got {count!r}")
        if not (error is None if count is not None else type(error) is str and rmsd is None):
            raise ConfigError(f"cell {index} has n_equilibria {count!r}, rmsd {rmsd!r} and error {error!r}; "
                              "a cell has a null n_equilibria and rmsd exactly when its error is a string")

    stops = list(itertools.accumulate([0 if count is None else count for count in counts]))
    equilibria = _columns(data, "equilibria", _EQUILIBRIUM_COLUMNS, stops[-1])  # a grid has a cell
    cell, names = partial(bisect.bisect_right, stops), equilibria["profile"]  # the cell of an equilibrium index
    try:
        known = set(names) <= _PROFILES.keys()
    except TypeError:  # a list or an object
        known = False
    if not known:
        index = next(n for n, name in enumerate(names) if type(name) is not str or name not in _PROFILES)
        raise ConfigError(f"cell {cell(index)}: profile: expected a name like 'IXI', got {names[index]!r}")
    # payoffs are numbers, NaN and infinities included, as emit_report writes them
    payoffs = (_floats(name, equilibria[name], cell, finite=False) for name in _EQUILIBRIUM_COLUMNS[1:])
    cells = CellColumns(*map(tuple, (nominal_pi, measured, ps, counts, rmsds, errors)))
    return SweepResult(config, cells, EquilibriumColumns(*map(tuple, (names, *payoffs))), tuple(zip(chis, thresholds)),
                       tuple(zip(nominal, map(ChiEstimate, value, sigma))))


def load_result(json_path) -> SweepResult:
    """Read a sweep that `emit_report` wrote: each column checked whole and
    kept as a column. A missing, unreadable,
    malformed or too deeply nested file, or one of another schema (re-run
    `qgame sweep` to rewrite it), raises ConfigError, as a config file does."""
    try:
        with open(json_path, encoding="utf-8") as handle:
            return result_from_dict(json.load(handle))
    except OSError as exc:
        raise ConfigError(f"cannot read result file {json_path}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"bad result file {json_path}: {type(exc).__name__}: {exc}") from exc

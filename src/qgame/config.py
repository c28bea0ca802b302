"""Experiment settings and the config file format: `ExperimentConfig` and its `NoiseModel`.

Both are frozen dataclasses that check and normalize every field when built and read a JSON object
with `from_dict`, which rejects unknown fields; a bad field raises `ConfigError`. One rule serves
each kind of field: `config_number` for a finite real, `config_int` for an integer in a half-open
range, stored as a plain int that JSON can write. Angles are in units of pi.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from qgame.game import DEFAULT_PAYOFF_ROWS_B1, DEFAULT_PAYOFF_ROWS_B2, payoff_table, profile_from_names
from qgame.statevector import check_chi

MODE_ANALYTIC = "analytic"
MODE_SHOTS = "shots"

DEFAULT_CHI_GRID_PI = tuple(i / 40 for i in range(11))  # 0 to 0.25 in steps of 0.025
DEFAULT_P_GRID = tuple(i / 100 for i in range(101))

# Nash tolerance of each mode when a config sets none: shot-derived payoffs carry statistical noise
DELTA_ANALYTIC = 0.0
DELTA_SHOTS = 0.1

_BOUND_TEXT = {2**63: "2**63", 2**64: "2**64"}  # range ends an error names as powers


class ConfigError(ValueError):
    """Invalid experiment configuration or result file."""


def config_number(name: str, value) -> float:
    """A config number as a float: a finite real, not a bool or a string."""
    # bool is an int subclass (a JSON true must not count as 1); a float or int skips the slow ABC check
    if type(value) not in (float, int) and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float; its repr may run to thousands of digits
        raise ConfigError(f"{name}: expected a finite number, got an integer too large for a float") from None
    # json.load reads NaN and Infinity, which slip past every order check
    if not finite:
        raise ConfigError(f"{name}: expected a finite number, got {value!r}")
    return float(value)


def config_int(name: str, value, low: int, stop) -> int:
    """A config integer, numpy's too, as a plain int in [low, stop); not a bool or a float."""
    # bool is an int subclass; a JSON true must not count as 1
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an int, got {value!r}")
    value = int(value)
    if not low <= value < stop:
        raise ConfigError(f"{name}={value} outside [{low}, {_BOUND_TEXT.get(stop, stop)})")
    return value


def _plain_number(name: str, value):
    """A config number as a plain number JSON can write: an integer (numpy's too) as int, another real as float."""
    config_number(name, value)
    return int(value) if isinstance(value, numbers.Integral) else float(value)


def _plain_numbers(name: str, rows):
    """Nested lists or an array of config numbers as nested tuples of `_plain_number`s."""
    if isinstance(rows, np.ndarray) and rows.ndim:
        rows = rows.tolist()  # plain Python numbers, nested as lists
    if isinstance(rows, (list, tuple)):
        return tuple(_plain_numbers(name, r) for r in rows)
    return _plain_number(name, rows)


def _check_object(cls, data, what: str) -> None:
    """`data` must be a JSON object whose keys are fields of `cls`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    extra = set(data) - {f.name for f in fields(cls)}
    if extra:
        raise ConfigError(f"unknown {what} fields: {sorted(extra, key=str)}")  # a dict may mix key types


def _grid_key(chi_pi: float) -> int:
    """An angle's entry in its shot-mode stream keys, in millionths; p is in no key."""
    return round(chi_pi * 10**6)


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
                raise ConfigError(f"{name}={value} outside [0, 0.5]")
        if self.chi_jitter_sigma < 0:
            raise ConfigError("chi_jitter_sigma must be >= 0")
        object.__setattr__(self, "seed", config_int("seed", self.seed, 0, 2**64))  # a SeedSequence entropy

    @classmethod
    def default_profile(cls, seed: int = 0) -> "NoiseModel":
        """Hardware-like emulation defaults: 0.5% / 1.5% depolarization per
        one-/two-qubit gate, 0.6% symmetric readout flips, and a small
        systematic offset plus shot-to-shot spread of the entangling angle.
        """
        return cls(single_qubit_depol=0.005, two_qubit_depol=0.015, readout_flip_0to1=0.006, readout_flip_1to0=0.006,
                   chi_offset=0.002 * np.pi, chi_jitter_sigma=0.004 * np.pi, seed=seed)

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseModel":
        _check_object(cls, data, "noise")
        return cls(**data)


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
        for name in ("chi_grid_pi", "p_grid"):
            grid = getattr(self, name)
            # a number or a 0-d array does not iterate; a string or a dict iterates item by item
            if not isinstance(grid, (list, tuple)) and not (isinstance(grid, np.ndarray) and grid.ndim == 1):
                raise ConfigError(f"{name}: expected a list of numbers, got {grid!r}")
            object.__setattr__(self, name, tuple(config_number(name, value) for value in grid))
        if self.delta is not None:
            object.__setattr__(self, "delta", _plain_number("delta", self.delta))
        for name in ("payoff_rows_b1", "payoff_rows_b2"):
            object.__setattr__(self, name, _plain_numbers(name, getattr(self, name)))
        # Generator.multinomial takes a C long; the seed takes the range NoiseModel.seed takes
        for name, low, stop in (("shots", 1, 2**63), ("calibration_shots", 1, 2**63),
                                ("transition_window", 1, math.inf), ("seed", 0, 2**64)):
            object.__setattr__(self, name, config_int(name, getattr(self, name), low, stop))
        for name, grid in (("chi_grid_pi", self.chi_grid_pi), ("p_grid", self.p_grid)):
            if not grid:
                raise ConfigError(f"{name} must be nonempty")
            for a, b in zip(grid, grid[1:]):
                if b <= a:
                    raise ConfigError(f"{name} must be strictly ascending")
                if self.mode == MODE_SHOTS and name == "chi_grid_pi" and _grid_key(a) == _grid_key(b):
                    raise ConfigError(f"{name} points {a!r} and {b!r} share one keyed stream (same millionth)")
        try:
            check_chi(np.multiply(self.chi_grid_pi, np.pi))  # the angles exactly as run_sweep computes them
        except ValueError as exc:
            raise ConfigError(f"chi_grid_pi: {exc}") from exc
        if self.p_grid[0] < 0.0 or self.p_grid[-1] > 1.0:  # as strict as compose
            raise ConfigError("p_grid outside [0.0, 1.0]")
        if self.delta is not None and self.delta < 0:
            raise ConfigError("delta must be >= 0")
        if not isinstance(self.noise, NoiseModel):
            raise ConfigError("noise must be a NoiseModel")
        try:
            profile_from_names(self.tracked_profile)
        except ValueError as exc:
            raise ConfigError(f"tracked_profile: {exc}") from exc
        self.tables  # builds and checks both payoff tables

    @property
    def effective_delta(self) -> float:
        if self.delta is not None:
            return self.delta
        return DELTA_ANALYTIC if self.mode == MODE_ANALYTIC else DELTA_SHOTS

    @cached_property
    def tables(self) -> np.ndarray:
        """The read-only (game, player, outcome) payoff stack: B1's table, then B2's."""
        tables = []
        for name in ("payoff_rows_b1", "payoff_rows_b2"):
            try:
                tables.append(payoff_table(getattr(self, name)))
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        tables = np.stack(tables)
        tables.flags.writeable = False
        return tables

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _check_object(cls, data, "config")
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
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        # JSON text is UTF-8; json.load recurses once per nested list or object
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

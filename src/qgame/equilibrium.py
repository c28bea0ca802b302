"""Nash equilibria, transition detection, RMSD.

A Bayesian game is three payoff arrays: A's (4, 4, 4) array indexed
(i, j, k), B1's (4, 4) array indexed (i, j) and B2's indexed (i, k).
A profile (i, j, k) is a Nash equilibrium when each player's choice is
within delta of the best payoff available against the others' choices.
Each player's near-best choices are a boolean mask over the profiles, and
the equilibria are the profiles where all three masks hold.
delta = 0 is the analytic case; shot-derived tensors conventionally use
delta = 0.1 to absorb statistical noise. A 1e-9 slack always applies on
top of delta so analytically degenerate profiles (floating-point ties)
are kept.

`nash_columns` solves a stack of tensors (one per p, or per grid cell) in
one array pass: the masks take the player's own choice on a negative axis,
so one rule, in one private helper, serves every stack; B1's and B2's
payoffs come as one (4, 4) row per game, as A's do. It reads the
equilibria off the mask in row-major order, with one `flatnonzero` and one
gather, as per-row counts and flat profile and payoff columns, and hands
back the mask too, so the sweep reads the tracked profile's membership off
its column without building reports. `best_equilibria_stack` reads the
same mask down to each row's best equilibrium, the highest A payoff and
the first profile on a tie, with a masked argmax, and
`rmsd_at_equilibrium_stack` gathers payoffs there. `nash_equilibria` and
`rmsd_at_equilibrium` are their one-row cases, on an `EquilibriumReport`.
"""

from __future__ import annotations

from functools import reduce
from operator import le
from typing import NamedTuple

import numpy as np

from qgame.game import PROFILES, Profile

TIE_EPS = 1e-9


class NoEquilibriumError(ValueError):
    """Raised when an operation needs at least one reference equilibrium."""


def _near_max_mask(values: np.ndarray, axis: int, delta: float) -> np.ndarray:
    if delta < 0:
        raise ValueError(f"delta={delta} must be >= 0")
    # the max as an elementwise maximum of the axis's four slices, which numpy runs far
    # faster than a reduce whose inner loop is one length-4 axis; a maximum is exact
    best = reduce(np.maximum, np.moveaxis(values, axis, 0))
    return values >= np.expand_dims(best, axis) - delta - TIE_EPS


class EquilibriumReport(NamedTuple):
    """All Nash profiles of one Bayesian tensor, with their payoffs."""

    profiles: tuple[Profile, ...]
    payoffs: tuple[tuple[float, float, float], ...]

    @property
    def empty(self) -> bool:
        return not self.profiles


def _nash_mask(a, b1, b2, delta: float) -> tuple[np.ndarray, ...]:
    """The float arrays and the (P, 64) mask of each row's equilibria, in profile order."""
    a, b1, b2 = (np.asarray(values, dtype=float) for values in (a, b1, b2))
    rows = len(a)
    if a.shape != (rows, 4, 4, 4) or {b1.shape, b2.shape} != {(rows, 4, 4)}:
        shapes = f"{a.shape}, {b1.shape}, {b2.shape}"
        raise ValueError(f"expected (P, 4, 4, 4), then (P, 4, 4) twice; got {shapes}")
    nash = (
        _near_max_mask(a, -3, delta)
        & _near_max_mask(b1, -1, delta)[:, :, :, None]
        & _near_max_mask(b2, -1, delta)[:, :, None, :]
    )
    return a, b1, b2, nash.reshape(rows, 64)


def _payoffs_at(a, b1, b2, row, flat) -> tuple[np.ndarray, ...]:
    """The A, B1 and B2 payoffs of profiles `flat` in rows `row`."""
    i, j, k = np.unravel_index(flat, (4, 4, 4))
    return a[row, i, j, k], b1[row, i, j], b2[row, i, k]


def nash_columns(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, delta: float) -> tuple:
    """Every row's equilibria as columns: the (P, 64) Nash mask in profile
    order, each row's equilibrium count, and every equilibrium, row by row and
    each row's in profile order, as its profile index 16 i + 4 j + k and a list
    of its A, B1 and B2 payoffs each. `a` is a (P, 4, 4, 4) stack of A's
    payoffs, `b1` and `b2` (P, 4, 4) stacks of B1's and B2's."""
    a, b1, b2, nash = _nash_mask(a, b1, b2, delta)
    row, flat = np.divmod(np.flatnonzero(nash), 64)
    payoffs = [values.tolist() for values in _payoffs_at(a, b1, b2, row, flat)]
    return nash, np.bincount(row, minlength=len(a)).tolist(), flat.tolist(), payoffs


def best_equilibria_stack(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, delta: float) -> tuple[np.ndarray, ...]:
    """Each row's equilibrium with the highest A payoff, the first in profile
    order on a tie, without building reports: the (P,) profile indices
    16 i + 4 j + k (-1 for a row with no equilibrium) and the (P, 3) payoffs
    there. `a` is a (P, 4, 4, 4) stack and `b1` and `b2` (P, 4, 4) stacks,
    as in `nash_columns`; payoffs finite."""
    a, b1, b2, nash = _nash_mask(a, b1, b2, delta)
    # the highest A payoff among the equilibria; argmax takes the first profile on a tie
    best = np.where(nash, a.reshape(nash.shape), -np.inf).argmax(axis=-1)
    return np.where(nash.any(axis=-1), best, -1), np.stack(_payoffs_at(a, b1, b2, np.arange(len(a)), best), axis=-1)


def nash_equilibria(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, delta: float) -> EquilibriumReport:
    """One Bayesian game's equilibria in profile order: row 0 of `nash_columns`."""
    _, _, flat, payoffs = nash_columns(*(np.asarray(values)[None] for values in (a, b1, b2)), delta)
    return EquilibriumReport(tuple(map(PROFILES.__getitem__, flat)), tuple(zip(*payoffs)))


def detect_transitions(ps: list[float], member: list[bool], window: int) -> tuple[float, ...]:
    """p values where a profile's equilibrium membership flips and stays
    flipped for `window` consecutive grid points; `member[n]` says whether
    the profile is an equilibrium at `ps[n]`.

    Shorter excursions are treated as blur and ignored. A flip that runs
    to the end of the grid counts as sustained regardless of length.
    """
    if not member:
        raise ValueError("no membership flags to scan")
    if len(ps) != len(member):
        raise ValueError(f"{len(ps)} p values for {len(member)} membership flags")
    if window < 1:
        raise ValueError(f"window={window} must be >= 1")
    if any(map(le, ps[1:], ps)):
        raise ValueError("p values must be strictly ascending")
    thresholds: list[float] = []
    current = member[0]
    for idx in range(1, len(member)):
        if member[idx] != current:
            run = 1
            while idx + run < len(member) and member[idx + run] == member[idx]:
                run += 1
            if run >= window or idx + run == len(member):
                thresholds.append(ps[idx])
                current = member[idx]
    return tuple(thresholds)


def rmsd_at_equilibrium_stack(
    a: np.ndarray, b1: np.ndarray, b2: np.ndarray, best: np.ndarray, payoffs: np.ndarray
) -> list[float | None]:
    """Each row's payoff RMSD from its reference at the reference's best equilibrium, None where it
    has none: `best` and `payoffs` as `best_equilibria_stack` gives them, arrays as in `nash_columns`.
    A row whose squared deviations overflow is computed again scaled by its largest |payoff|."""
    a, b1, b2, payoffs = (np.asarray(values, dtype=float) for values in (a, b1, b2, payoffs))
    if len(a) != len(best):
        raise ValueError(f"{len(a)} payoff rows for {len(best)} references")
    row = np.flatnonzero(best >= 0)
    obs, ref = np.stack(_payoffs_at(a, b1, b2, row, best[row]), axis=-1), payoffs[row]
    with np.errstate(over="ignore"):
        values = np.sqrt(np.mean((obs - ref) ** 2, axis=-1))
    bad = ~np.isfinite(values)
    if bad.any():
        obs, ref = obs[bad], ref[bad]
        scale = np.maximum(np.abs(obs), np.abs(ref)).max(axis=-1, keepdims=True)
        values[bad] = scale[:, 0] * np.sqrt(np.mean((obs / scale - ref / scale) ** 2, axis=-1))
    values = iter(values.tolist())
    return [None if n < 0 else next(values) for n in best.tolist()]


def rmsd_at_equilibrium(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, reference: EquilibriumReport) -> float:
    """One Bayesian game's case of `rmsd_at_equilibrium_stack`, at the report's equilibrium with the
    highest A payoff, the lexicographically first profile on a tie."""
    if reference.empty:
        raise NoEquilibriumError("report has no equilibria")
    best, payoffs = min(zip(*reference), key=lambda pp: (-pp[1][0], pp[0]))
    stack = (np.asarray(values)[None] for values in (a, b1, b2))
    return rmsd_at_equilibrium_stack(*stack, np.array([PROFILES.index(best)]), [payoffs])[0]

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

`nash_equilibria_stack` solves a stack of tensors (one per p, or per grid
cell) in one array pass: the masks take the player's own choice on a
negative axis, so one rule, in one private helper, serves a single tensor
and a stack, and B payoffs shared by the stack are masked once. Without
building reports, `best_equilibria_stack` reads that mask down to each row's
`max_payoff_profile` pick, a masked argmax, and `rmsd_at_equilibrium_stack`
gathers payoffs there. `nash_equilibria` and `rmsd_at_equilibrium` are their one-row cases.

`nash_columns` is the columnar core: it reads a stack's equilibria off the
mask in row-major order, with one `flatnonzero` and one gather, as per-row
counts and flat profile and payoff columns, and hands back the mask too, so
the sweep reads the tracked profile's membership off its column without
building reports. `nash_equilibria_stack` turns those columns into reports
with `reports_from_columns`: each row's report is a slice of one tuple of
profiles and one of payoff rows, made by `new_record` (`tuple.__new__`)
without a Python frame per report.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, product
from operator import le
from typing import NamedTuple

import numpy as np

from qgame.game import STRATEGIES, Profile

TIE_EPS = 1e-9

DELTA_ANALYTIC = 0.0
DELTA_SHOTS = 0.1


class NoEquilibriumError(ValueError):
    """Raised when an operation needs at least one reference equilibrium."""


# the 64 profiles in profile order: (i, j, k) is entry 16 i + 4 j + k
_PROFILES = tuple(product(STRATEGIES, repeat=3))


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


# builds a named tuple from a tuple of every field, as its generated `_make` does, without that
# method's Python frame per object; it fills no defaults
new_record = tuple.__new__


def _nash_mask(a, b1, b2, delta: float) -> tuple[np.ndarray, ...]:
    """The float arrays and the (P, 64) mask of each row's equilibria, in profile order."""
    a, b1, b2 = (np.asarray(values, dtype=float) for values in (a, b1, b2))
    rows = len(a)
    if a.shape != (rows, 4, 4, 4) or {b1.shape, b2.shape} - {(4, 4), (rows, 4, 4)}:
        shapes = f"{a.shape}, {b1.shape}, {b2.shape}"
        raise ValueError(f"expected (P, 4, 4, 4), then (4, 4) or (P, 4, 4) twice; got {shapes}")
    nash = (
        _near_max_mask(a, -3, delta)
        & _near_max_mask(b1, -1, delta)[..., :, :, None]
        & _near_max_mask(b2, -1, delta)[..., :, None, :]
    )
    return a, b1, b2, nash.reshape(rows, 64)


def _payoffs_at(a, b1, b2, row, flat) -> tuple[np.ndarray, ...]:
    """The A, B1 and B2 payoffs of profiles `flat` in rows `row`; a shared B array drops the row index."""
    i, j, k = np.unravel_index(flat, (4, 4, 4))
    return a[row, i, j, k], b1[(row, i, j)[3 - b1.ndim :]], b2[(row, i, k)[3 - b2.ndim :]]


def nash_columns(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, delta: float) -> tuple:
    """Every row's equilibria as columns: the (P, 64) Nash mask in profile
    order, each row's equilibrium count, and every equilibrium, row by row and
    each row's in profile order, as its profile index 16 i + 4 j + k and a list
    of its A, B1 and B2 payoffs each. Arrays as in `nash_equilibria_stack`."""
    a, b1, b2, nash = _nash_mask(a, b1, b2, delta)
    row, flat = np.divmod(np.flatnonzero(nash), 64)
    payoffs = [values.tolist() for values in _payoffs_at(a, b1, b2, row, flat)]
    return nash, np.bincount(row, minlength=len(a)).tolist(), flat.tolist(), payoffs


def reports_from_columns(counts, profiles: tuple, payoffs: tuple) -> list[EquilibriumReport | None]:
    """One report per count, a slice of the flat `profiles` and `payoffs` (rows) tuples; None for a None count."""
    stops = list(accumulate(0 if count is None else count for count in counts))
    return [None if count is None else new_record(EquilibriumReport, (profiles[start:stop], payoffs[start:stop]))
            for count, start, stop in zip(counts, [0, *stops], stops)]


def nash_equilibria_stack(
    a: np.ndarray, b1: np.ndarray, b2: np.ndarray, delta: float
) -> list[EquilibriumReport]:
    """One report per row of a column of Bayesian tensors.

    `a` is a (P, 4, 4, 4) stack of A's payoffs; `b1` and `b2` are either
    (4, 4), shared by every row, or (P, 4, 4). Each row's report lists the
    intersection of its three best-response masks in profile order.
    """
    _, counts, flat, payoffs = nash_columns(a, b1, b2, delta)
    return reports_from_columns(counts, tuple(map(_PROFILES.__getitem__, flat)), tuple(zip(*payoffs)))


def best_equilibria_stack(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, delta: float) -> tuple[np.ndarray, ...]:
    """`max_payoff_profile` of each row's report, without building the reports:
    the (P,) profile indices 16 i + 4 j + k (-1 for a row with no equilibrium)
    and the (P, 3) payoffs there. Arrays as in `nash_equilibria_stack`; payoffs finite."""
    a, b1, b2, nash = _nash_mask(a, b1, b2, delta)
    # the highest A payoff among the equilibria; argmax takes the first profile on a tie
    best = np.where(nash, a.reshape(nash.shape), -np.inf).argmax(axis=-1)
    return np.where(nash.any(axis=-1), best, -1), np.stack(_payoffs_at(a, b1, b2, np.arange(len(a)), best), axis=-1)


def nash_equilibria(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, delta: float) -> EquilibriumReport:
    """One Bayesian game's case of `nash_equilibria_stack`."""
    return nash_equilibria_stack(np.asarray(a)[None], b1, b2, delta)[0]


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


def max_payoff_profile(report: EquilibriumReport) -> Profile:
    """Equilibrium with the highest payoff_A; ties break toward the
    lexicographically first profile."""
    if report.empty:
        raise NoEquilibriumError("report has no equilibria")
    ranked = sorted(zip(report.profiles, report.payoffs), key=lambda pp: (-pp[1][0], pp[0]))
    return ranked[0][0]


def rmsd_at_equilibrium_stack(
    a: np.ndarray, b1: np.ndarray, b2: np.ndarray, best: np.ndarray, payoffs: np.ndarray
) -> list[float | None]:
    """Each row's payoff RMSD from its reference at the reference's best equilibrium, None where it
    has none: `best` and `payoffs` as `best_equilibria_stack` gives them, arrays as in `nash_equilibria_stack`."""
    a, b1, b2, payoffs = (np.asarray(values, dtype=float) for values in (a, b1, b2, payoffs))
    if len(a) != len(best):
        raise ValueError(f"{len(a)} payoff rows for {len(best)} references")
    row = np.flatnonzero(best >= 0)
    obs = np.stack(_payoffs_at(a, b1, b2, row, best[row]), axis=-1)
    values = iter(np.sqrt(np.mean((obs - payoffs[row]) ** 2, axis=-1)).tolist())
    return [None if n < 0 else next(values) for n in best.tolist()]


def rmsd_at_equilibrium(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, reference: EquilibriumReport) -> float:
    """One Bayesian game's case of `rmsd_at_equilibrium_stack`, at the report's `max_payoff_profile`."""
    i, j, k = best = max_payoff_profile(reference)
    payoffs = [reference.payoffs[reference.profiles.index(best)]]
    return rmsd_at_equilibrium_stack(np.asarray(a)[None], b1, b2, np.array([16 * i + 4 * j + k]), payoffs)[0]

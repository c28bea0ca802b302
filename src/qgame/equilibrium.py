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

`nash_equilibria_stack` solves a whole column of tensors (one per p) in
one array pass: the masks take the player's own choice on a negative
axis, so one rule serves a single tensor and a stack, and B payoffs shared
by the column are masked once. `nash_equilibria` is its one-row case, as
`rmsd_at_equilibrium` is of `rmsd_at_equilibrium_stack`, one gather per array.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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
    return values >= values.max(axis=axis, keepdims=True) - delta - TIE_EPS


@dataclass(frozen=True)
class EquilibriumReport:
    """All Nash profiles of one Bayesian tensor, with their payoffs."""

    profiles: tuple[Profile, ...]
    payoffs: tuple[tuple[float, float, float], ...]

    def contains(self, profile: Profile) -> bool:
        return profile in self.profiles

    @property
    def empty(self) -> bool:
        return not self.profiles


def nash_equilibria_stack(
    a: np.ndarray, b1: np.ndarray, b2: np.ndarray, delta: float
) -> list[EquilibriumReport]:
    """One report per row of a column of Bayesian tensors.

    `a` is a (P, 4, 4, 4) stack of A's payoffs; `b1` and `b2` are either
    (4, 4), shared by every row, or (P, 4, 4). Each row's report lists the
    intersection of its three best-response masks in profile order.
    """
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
    row, i, j, k = nash.nonzero()
    # a shared B array drops the row index
    pay_b1 = b1[(row, i, j)[3 - b1.ndim :]]
    pay_b2 = b2[(row, i, k)[3 - b2.ndim :]]
    profiles = [_PROFILES[f] for f in (16 * i + 4 * j + k).tolist()]
    payoffs = list(zip(a[row, i, j, k].tolist(), pay_b1.tolist(), pay_b2.tolist()))
    # the rows are in order, so each report is one slice
    stops = np.bincount(row, minlength=rows).cumsum().tolist()
    return [
        EquilibriumReport(tuple(profiles[start:stop]), tuple(payoffs[start:stop]))
        for start, stop in zip([0, *stops], stops)
    ]


def nash_equilibria(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, delta: float) -> EquilibriumReport:
    """One Bayesian game's case of `nash_equilibria_stack`."""
    return nash_equilibria_stack(np.asarray(a)[None], b1, b2, delta)[0]


def detect_transitions(
    ps: list[float], reports: list[EquilibriumReport], profile: Profile, window: int
) -> tuple[float, ...]:
    """p values where the profile's equilibrium membership flips and stays
    flipped for `window` consecutive grid points; `reports[n]` is the
    report at `ps[n]`.

    Shorter excursions are treated as blur and ignored. A flip that runs
    to the end of the grid counts as sustained regardless of length.
    """
    if not reports:
        raise ValueError("no reports to scan")
    if len(ps) != len(reports):
        raise ValueError(f"{len(ps)} p values for {len(reports)} reports")
    if window < 1:
        raise ValueError(f"window={window} must be >= 1")
    if any(b <= a for a, b in zip(ps, ps[1:])):
        raise ValueError("p values must be strictly ascending")
    member = [r.contains(profile) for r in reports]
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
    a: np.ndarray, b1: np.ndarray, b2: np.ndarray, references: list[EquilibriumReport]
) -> list[float | None]:
    """Each row's payoff RMSD from its reference at the reference's best equilibrium
    (`max_payoff_profile`), None for an empty reference; arrays as in `nash_equilibria_stack`."""
    a, b1, b2 = (np.asarray(values, dtype=float) for values in (a, b1, b2))
    if len(a) != len(references):
        raise ValueError(f"{len(a)} payoff rows for {len(references)} references")
    row = [n for n, reference in enumerate(references) if not reference.empty]
    best = [max_payoff_profile(references[n]) for n in row]
    ref = np.reshape([references[n].payoffs[references[n].profiles.index(p)] for n, p in zip(row, best)], (-1, 3))
    row, (i, j, k) = np.array(row, dtype=int), np.reshape(np.array(best, dtype=int), (-1, 3)).T
    obs = np.stack((a[row, i, j, k], b1[(row, i, j)[3 - b1.ndim :]], b2[(row, i, k)[3 - b2.ndim :]]), axis=-1)
    values = iter(np.sqrt(np.mean((obs - ref) ** 2, axis=-1)).tolist())
    return [None if reference.empty else next(values) for reference in references]


def rmsd_at_equilibrium(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, reference: EquilibriumReport) -> float:
    """One Bayesian game's case of `rmsd_at_equilibrium_stack`."""
    if reference.empty:
        raise NoEquilibriumError("report has no equilibria")
    return rmsd_at_equilibrium_stack(np.asarray(a)[None], b1, b2, [reference])[0]

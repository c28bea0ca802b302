"""Best-response masks, Nash equilibria, transition detection, RMSD.

A profile (i, j, k) is a Nash equilibrium when each player's choice is
within delta of the best payoff available against the others' choices.
Each player's near-best choices are a boolean mask over the profiles, and
the equilibria are the profiles where all three masks hold.
delta = 0 is the analytic case; shot-derived tensors conventionally use
delta = 0.1 to absorb statistical noise. A 1e-9 slack always applies on
top of delta so analytically degenerate profiles (floating-point ties)
are kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qgame.bayesian import BayesianTensor
from qgame.game import STRATEGIES, Profile

TIE_EPS = 1e-9

DELTA_ANALYTIC = 0.0
DELTA_SHOTS = 0.1


class NoEquilibriumError(ValueError):
    """Raised when an operation needs at least one reference equilibrium."""


def _near_max_mask(values: np.ndarray, axis: int, delta: float) -> np.ndarray:
    return values >= values.max(axis=axis, keepdims=True) - delta - TIE_EPS


def best_responses(tensor: BayesianTensor, player: str, delta: float) -> np.ndarray:
    """Read-only mask of one player's near-maximal choices.

    The mask is indexed like the player's payoff array: (i, j, k) for
    player A, (i, j) for B1 and (i, k) for B2, whose payoffs do not depend
    on the other B type's choice. The player's own choice is axis 0 for A
    and axis 1 for B1 and B2.
    """
    if delta < 0:
        raise ValueError(f"delta={delta} must be >= 0")
    if player == "A":
        mask = _near_max_mask(tensor.a, 0, delta)
    elif player == "B1":
        mask = _near_max_mask(tensor.b1, 1, delta)
    elif player == "B2":
        mask = _near_max_mask(tensor.b2, 1, delta)
    else:
        raise ValueError(f"player must be A, B1 or B2, got {player!r}")
    mask.flags.writeable = False
    return mask


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


def nash_equilibria(tensor: BayesianTensor, delta: float) -> EquilibriumReport:
    """Intersection of the three best-response masks, in profile order."""
    nash = (
        best_responses(tensor, "A", delta)
        & best_responses(tensor, "B1", delta)[:, :, None]
        & best_responses(tensor, "B2", delta)[:, None, :]
    )
    profiles = tuple(tuple(STRATEGIES[s] for s in index) for index in np.argwhere(nash))
    payoffs = tuple(tensor.payoffs(profile) for profile in profiles)
    return EquilibriumReport(profiles, payoffs)


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
    idx = 1
    while idx < len(member):
        if member[idx] != current:
            run = 1
            while idx + run < len(member) and member[idx + run] == member[idx]:
                run += 1
            if run >= window or idx + run == len(member):
                thresholds.append(ps[idx])
                current = member[idx]
        idx += 1
    return tuple(thresholds)


def max_payoff_profile(report: EquilibriumReport) -> Profile:
    """Equilibrium with the highest payoff_A; ties break toward the
    lexicographically first profile."""
    if report.empty:
        raise NoEquilibriumError("report has no equilibria")
    ranked = sorted(zip(report.profiles, report.payoffs), key=lambda pp: (-pp[1][0], pp[0]))
    return ranked[0][0]


def rmsd_at_equilibrium(observed: BayesianTensor, reference: EquilibriumReport) -> float:
    """Root-mean-square payoff deviation from the reference report at its
    best equilibrium (`max_payoff_profile`)."""
    profile = max_payoff_profile(reference)
    obs = np.array(observed.payoffs(profile))
    ref = np.array(reference.payoffs[reference.profiles.index(profile)])
    return float(np.sqrt(np.mean((obs - ref) ** 2)))

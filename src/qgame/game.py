"""Two-player game engine: entangle, apply local strategies, unentangle,
convert the outcome distribution to expected payoffs.

Outcome convention is fixed: |0> is cooperate, |1> is defect. Payoff
tables are configuration inputs; the bundled defaults are the standard
prisoner's dilemma for the A-vs-B1 game and an asymmetric variant for
A-vs-B2 in which mutual defection pays B2 nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from qgame.statevector import Gate, apply_gate, check_chi


class Strategy(IntEnum):
    """The four allowed single-qubit strategies, in profile-index order."""

    I = 0
    X = 1
    Y = 2
    Z = 3


STRATEGIES = tuple(Strategy)

Profile = tuple[Strategy, Strategy, Strategy]


def array_eq(self, other) -> bool:
    """Value equality for dataclasses with ndarray fields, whose generated
    `==` would raise on the arrays' elementwise comparison."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def profile_from_names(names: str) -> Profile:
    """Parse e.g. "IXI" into a strategy triple."""
    if len(names) != 3 or any(c not in "IXYZ" for c in names):
        raise ValueError(f"bad profile string {names!r}")
    return tuple(Strategy[c] for c in names)  # type: ignore[return-value]


def profile_names(profile: Profile) -> str:
    return "".join(s.name for s in profile)


@dataclass(frozen=True)
class PayoffTable:
    """2x2 grid of (payoff_A, payoff_B) indexed by (outcome_A, outcome_B)."""

    a: np.ndarray  # shape (2, 2)
    b: np.ndarray

    __eq__ = array_eq

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float).copy()
        b = np.asarray(self.b, dtype=float).copy()
        if a.shape != (2, 2) or b.shape != (2, 2):
            raise ValueError("payoff tables are 2x2")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("payoffs must be finite")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_rows(cls, rows) -> "PayoffTable":
        """rows[outcome_A][outcome_B] = [payoff_A, payoff_B] (the JSON shape)."""
        arr = np.asarray(rows, dtype=float)
        if arr.shape != (2, 2, 2):
            raise ValueError(f"rows must be 2x2 pairs, got shape {arr.shape}")
        return cls(arr[:, :, 0], arr[:, :, 1])

    def to_rows(self) -> list:
        return np.stack([self.a, self.b], axis=-1).tolist()

    # flat views aligned with the outcome index 2*a + b
    @property
    def a_flat(self) -> np.ndarray:
        return self.a.reshape(4)

    @property
    def b_flat(self) -> np.ndarray:
        return self.b.reshape(4)


DEFAULT_PAYOFF_B1 = PayoffTable.from_rows([[[11, 9], [1, 10]], [[10, 1], [6, 6]]])
DEFAULT_PAYOFF_B2 = PayoffTable.from_rows([[[11, 9], [1, 6]], [[10, 1], [6, 0]]])


@dataclass(frozen=True)
class GameSpec:
    chi: float
    payoff_vs_b1: PayoffTable = DEFAULT_PAYOFF_B1
    payoff_vs_b2: PayoffTable = DEFAULT_PAYOFF_B2

    def __post_init__(self) -> None:
        check_chi(self.chi)


@dataclass(frozen=True)
class PayoffTensor:
    """4x4 expected payoffs per (Strategy_A, Strategy_B), one game type."""

    a: np.ndarray
    b: np.ndarray

    __eq__ = array_eq

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            if arr.shape != (4, 4):
                raise ValueError("payoff tensor is 4x4")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


_ENTANGLE = Gate("J", (0, 1))
_UNENTANGLE = Gate("JDAG", (0, 1))


def final_state(chi: float, u_a: Strategy, u_b: Strategy) -> np.ndarray:
    """Protocol amplitudes for one strategy pair on qubits (A, B) = (0, 1)."""
    check_chi(chi)
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = 1.0
    amps = apply_gate(amps, _ENTANGLE, chi)
    amps = apply_gate(amps, Gate(u_a.name, (0,)), chi)
    amps = apply_gate(amps, Gate(u_b.name, (1,)), chi)
    return apply_gate(amps, _UNENTANGLE, chi)


def expected_payoff(dist: np.ndarray, table: PayoffTable) -> tuple[float, float]:
    """Weighted average of the table entries under one 4-outcome
    distribution: the single-distribution case of `tensor_from_distributions`."""
    pay_a, pay_b = tensor_from_distributions(dist, table)
    return float(pay_a), float(pay_b)


def payoff_tensor(spec: GameSpec, which_b: str) -> PayoffTensor:
    """Expected payoffs for all 16 strategy pairs of one game type."""
    if which_b not in ("B1", "B2"):
        raise ValueError(f"which_b must be B1 or B2, got {which_b!r}")
    table = spec.payoff_vs_b1 if which_b == "B1" else spec.payoff_vs_b2
    pay_a = np.empty((4, 4))
    pay_b = np.empty((4, 4))
    for i in STRATEGIES:
        for j in STRATEGIES:
            dist = np.abs(final_state(spec.chi, i, j)) ** 2
            pay_a[i, j], pay_b[i, j] = expected_payoff(dist, table)
    return PayoffTensor(pay_a, pay_b)


def tensor_from_distributions(dists: np.ndarray, table: PayoffTable) -> tuple[np.ndarray, np.ndarray]:
    """Expected (A, B) payoffs under a stack of 4-outcome distributions.

    `dists[..., :]` is one distribution; each must sum to 1. A game's
    measured per-pair distributions, indexed (strategy A, strategy B,
    outcome), give its two 4x4 payoff arrays; further leading axes stack
    games.
    """
    # contiguous, so a row's sum does not depend on the stack's layout
    dists = np.ascontiguousarray(dists, dtype=float)
    if dists.shape[-1:] != (4,):
        raise ValueError(f"distribution must have 4 entries, got {dists.shape[-1:]}")
    sums = dists.sum(axis=-1)
    off = np.abs(sums - 1.0) > 1e-9
    if off.any():
        raise ValueError(f"distribution sums to {sums[off][0]}, not 1")
    return dists @ table.a_flat, dists @ table.b_flat

"""Two-player game engine: entangle, apply local strategies, unentangle,
convert the outcome distributions to 4x4 arrays of expected payoffs. The
protocol is evolved for all 16 strategy pairs as one stack per angle. Each
pair's payoffs are a 1-D dot of its own distribution: a stacked product
rounds the last bit differently, and the analytic digest pins it.

Outcome convention is fixed: |0> is cooperate, |1> is defect. Payoff
tables are configuration inputs; the bundled defaults are the standard
prisoner's dilemma for the A-vs-B1 game and an asymmetric variant for
A-vs-B2 in which mutual defection pays B2 nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from qgame.statevector import Gate, apply_gate, apply_matrix, check_chi, gate_matrix


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


_ENTANGLE = Gate("J", (0, 1))
_UNENTANGLE = Gate("JDAG", (0, 1))


# row 4*a + b of each stack is strategy pair (a, b): A's matrices on qubit 0, B's on qubit 1
_STRATEGY_MATRICES = np.stack([gate_matrix(Gate(s.name, (0,)), 0.0) for s in STRATEGIES])
_A_STACK, _B_STACK = np.repeat(_STRATEGY_MATRICES, 4, axis=0), np.tile(_STRATEGY_MATRICES, (4, 1, 1))


def final_states(chi: float) -> np.ndarray:
    """(16, 4) protocol amplitudes on qubits (A, B) = (0, 1): J|00> once,
    each row's strategy pair (a, b) at row 4*a + b, J-dagger once."""
    check_chi(chi)
    amps = np.broadcast_to(apply_gate(np.eye(1, 4, dtype=np.complex128)[0], _ENTANGLE, chi), (16, 4))
    amps = apply_matrix(amps, _A_STACK, (0,), 2)
    amps = apply_matrix(amps, _B_STACK, (1,), 2)
    return apply_gate(amps, _UNENTANGLE, chi)


def payoff_tensor(chi: float, table: PayoffTable) -> tuple[np.ndarray, np.ndarray]:
    """Expected (A, B) payoffs of one game at angle chi, each a 4x4 array
    indexed (strategy A, strategy B)."""
    dists = _distributions(np.abs(final_states(chi)) ** 2)
    return tuple(np.array([d @ flat for d in dists]).reshape(4, 4) for flat in (table.a_flat, table.b_flat))


def _distributions(dists) -> np.ndarray:
    """`dists` as a contiguous float stack of checked 4-outcome distributions."""
    # contiguous, so a row's sum does not depend on the stack's layout
    dists = np.ascontiguousarray(dists, dtype=float)
    if dists.shape[-1:] != (4,):
        raise ValueError(f"distribution must have 4 entries, got {dists.shape[-1:]}")
    sums = dists.sum(axis=-1)
    off = np.abs(sums - 1.0) > 1e-9
    if off.any():
        raise ValueError(f"distribution sums to {sums[off][0]}, not 1")
    return dists


def tensor_from_distributions(dists: np.ndarray, table: PayoffTable) -> tuple[np.ndarray, np.ndarray]:
    """Expected (A, B) payoffs under a stack of 4-outcome distributions.

    `dists[..., :]` is one distribution; each must sum to 1. One
    distribution gives one pair of payoffs. A game's measured per-pair
    distributions, indexed (strategy A, strategy B, outcome), give its two
    4x4 payoff arrays; further leading axes stack games.
    """
    dists = _distributions(dists)
    return dists @ table.a_flat, dists @ table.b_flat

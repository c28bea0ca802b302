"""Two-player game engine: entangle, apply local strategies, unentangle,
convert the outcome distributions to 4x4 arrays of expected payoffs. The
protocol is evolved for all 16 strategy pairs (and all angles of an array)
as one stack, and that one evolution serves every payoff table: the B1 and
B2 games share their quantum states and differ only in their tables. Each
payoff is a 1x4 by 4x1 product of its pair's own distribution, which numpy
runs as a 1-D dot: a matrix-vector product rounds the last bit differently,
and the analytic digest pins it.

Outcome convention is fixed: |0> is cooperate, |1> is defect. A payoff
table is a read-only (2, 4) float array: row 0 holds A's payoffs and row 1
B's, each indexed by outcome 2*a + b. Tables are configuration inputs; the
bundled default rows are the standard prisoner's dilemma for the A-vs-B1
game and an asymmetric variant for A-vs-B2 in which mutual defection pays
B2 nothing.

A Bayesian game's profile (i, j, k) is the strategies of A, B1 and B2.
`PROFILES` is the one table of the 64 profiles in profile order, (i, j, k)
at index 16 i + 4 j + k, and `PROFILE_NAMES` names them ('IXI').
"""

from __future__ import annotations

from enum import IntEnum
from itertools import product

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


def profile_names(profile: Profile) -> str:
    return "".join(s.name for s in profile)


# the 64 profiles in profile order, (i, j, k) at index 16 i + 4 j + k, and their names
PROFILES = tuple(product(STRATEGIES, repeat=3))
PROFILE_NAMES = tuple(map(profile_names, PROFILES))


def profile_from_names(names: str) -> Profile:
    """The profile that `PROFILE_NAMES` names e.g. "IXI"; anything else is a ValueError."""
    if names not in PROFILE_NAMES:
        raise ValueError(f"bad profile string {names!r}")
    return PROFILES[PROFILE_NAMES.index(names)]


def payoff_table(rows) -> np.ndarray:
    """The (2, 4) table of rows[outcome_A][outcome_B] = [payoff_A, payoff_B]
    (the JSON shape), read-only."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape != (2, 2, 2):
        raise ValueError(f"rows must be 2x2 pairs, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValueError("payoffs must be finite")
    table = rows.reshape(4, 2).T.copy()
    table.flags.writeable = False
    return table


DEFAULT_PAYOFF_ROWS_B1 = (((11.0, 9.0), (1.0, 10.0)), ((10.0, 1.0), (6.0, 6.0)))
DEFAULT_PAYOFF_ROWS_B2 = (((11.0, 9.0), (1.0, 6.0)), ((10.0, 1.0), (6.0, 0.0)))


_ENTANGLE = Gate("J", (0, 1))
_UNENTANGLE = Gate("JDAG", (0, 1))


# row 4*a + b of each stack is strategy pair (a, b): A's matrices on qubit 0, B's on qubit 1
_STRATEGY_MATRICES = np.stack([gate_matrix(Gate(s.name, (0,)), 0.0) for s in STRATEGIES])
_A_STACK, _B_STACK = np.repeat(_STRATEGY_MATRICES, 4, axis=0), np.tile(_STRATEGY_MATRICES, (4, 1, 1))


def final_states(chi) -> np.ndarray:
    """(..., 16, 4) protocol amplitudes on qubits (A, B) = (0, 1) at each angle
    chi: J|00>, each row's strategy pair (a, b) at row 4*a + b, J-dagger."""
    check_chi(chi)
    chi = np.asarray(chi, dtype=float)[..., None]  # an angle's 16 pairs share its J and J-dagger
    amps = np.broadcast_to(np.eye(1, 4, dtype=np.complex128)[0], (*chi.shape[:-1], 16, 4))
    amps = apply_gate(amps, _ENTANGLE, chi)
    amps = apply_matrix(amps, _A_STACK, (0,), 2)
    amps = apply_matrix(amps, _B_STACK, (1,), 2)
    return apply_gate(amps, _UNENTANGLE, chi)


def payoff_tensor(chi, tables: np.ndarray) -> np.ndarray:
    """Expected payoffs at angle chi, or each angle of an array, under one (2, 4)
    table or a (..., 2, 4) stack, from one protocol evolution: (chi axes, ...,
    2, 4, 4), the A and B payoffs each indexed (strategy A, strategy B)."""
    dists = _distributions(np.abs(final_states(chi)) ** 2)
    pays = (dists[..., None, :, None, :] @ np.reshape(tables, (-1, 1, 4, 1)))[..., 0, 0]
    return pays.reshape(*np.shape(chi), *np.shape(tables)[:-1], 4, 4)


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


def tensor_from_distributions(dists: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expected (A, B) payoffs under a stack of 4-outcome distributions.

    `dists[..., :]` is one distribution; each must sum to 1. One
    distribution gives one pair of payoffs. A game's measured per-pair
    distributions, indexed (strategy A, strategy B, outcome), give its two
    4x4 payoff arrays; further leading axes stack games.
    """
    dists = _distributions(dists)
    return dists @ table[0], dists @ table[1]

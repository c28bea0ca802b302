"""Mixes the two game tensors into the 4x4x4 Bayesian payoff tensor.

Player A faces type B1 with probability p and type B2 with probability
1-p. A's payoff is the p-weighted mix; each B type's payoff depends only
on its own game, so those components are stored compactly as 4x4 arrays
and are invariant in p by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qgame.game import PayoffTensor, Strategy, array_eq


@dataclass(frozen=True)
class BayesianTensor:
    """Payoff triples over profiles (A, B1, B2) at one mixing weight."""

    a: np.ndarray  # shape (4, 4, 4), indexed (i, j, k)
    b1: np.ndarray  # shape (4, 4), indexed (i, j)
    b2: np.ndarray  # shape (4, 4), indexed (i, k)

    __eq__ = array_eq

    def __post_init__(self) -> None:
        shapes = {"a": (4, 4, 4), "b1": (4, 4), "b2": (4, 4)}
        for name, shape in shapes.items():
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def payoffs(self, profile: tuple[Strategy, Strategy, Strategy]) -> tuple[float, float, float]:
        i, j, k = profile
        return float(self.a[i, j, k]), float(self.b1[i, j]), float(self.b2[i, k])


def compose_a(pay_b1: np.ndarray, pay_b2: np.ndarray, p) -> np.ndarray:
    """Player A's payoff(i, j, k) = p * A-vs-B1(i, j) + (1-p) * A-vs-B2(i, k).

    `pay_b1` and `pay_b2` are A's (..., 4, 4) payoffs in the two games and
    `p` has their leading shape, so a column of p values gives a
    (..., 4, 4, 4) stack.
    """
    p = np.asarray(p, dtype=float)
    inside = (p >= 0.0) & (p <= 1.0)
    if not inside.all():
        raise ValueError(f"p={p[~inside][0]} outside [0, 1]")
    p = p[..., None, None, None]
    return p * pay_b1[..., None] + (1.0 - p) * pay_b2[..., None, :]


def compose(tensor_b1: PayoffTensor, tensor_b2: PayoffTensor, p: float) -> BayesianTensor:
    """The Bayesian tensor at one p: `compose_a` for A, each B type's own game."""
    return BayesianTensor(compose_a(tensor_b1.a, tensor_b2.a, p), tensor_b1.b, tensor_b2.b)

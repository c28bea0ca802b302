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


def compose(tensor_b1: PayoffTensor, tensor_b2: PayoffTensor, p: float) -> BayesianTensor:
    """payoff_A(i,j,k) = p * A-vs-B1(i,j) + (1-p) * A-vs-B2(i,k)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    a = p * tensor_b1.a[:, :, None] + (1.0 - p) * tensor_b2.a[:, None, :]
    return BayesianTensor(a, tensor_b1.b, tensor_b2.b)

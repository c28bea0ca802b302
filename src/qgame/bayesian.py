"""Mixes the two games' payoffs into player A's 4x4x4 Bayesian payoffs.

Player A faces type B1 with probability p and type B2 with probability
1-p. A's payoff is the p-weighted mix; each B type's payoff depends only
on its own game, so each B type keeps its game's 4x4 array, invariant in
p by construction.
"""

from __future__ import annotations

import numpy as np


def compose(pay_b1: np.ndarray, pay_b2: np.ndarray, p) -> np.ndarray:
    """Player A's payoff(i, j, k) = p * A-vs-B1(i, j) + (1-p) * A-vs-B2(i, k).

    `pay_b1` and `pay_b2` are A's (..., 4, 4) payoffs in the two games and
    `p` broadcasts against their leading shape: (C, 1, 4, 4) arrays for C
    angles and P values of p give the (C, P, 4, 4, 4) grid.
    """
    p = np.asarray(p, dtype=float)
    inside = (p >= 0.0) & (p <= 1.0)
    if not inside.all():
        raise ValueError(f"p={p[~inside][0]} outside [0, 1]")
    p = p[..., None, None, None]
    return p * pay_b1[..., None] + (1.0 - p) * pay_b2[..., None, :]

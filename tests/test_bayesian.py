"""Bayesian payoff composition."""

from __future__ import annotations

import numpy as np
import pytest

from qgame.bayesian import compose
from qgame.equilibrium import nash_columns, nash_equilibria
from qgame.game import DEFAULT_PAYOFF_ROWS_B1, DEFAULT_PAYOFF_ROWS_B2, Strategy, payoff_table, payoff_tensor

import oracles

# wider than any payoff gap, so every one of the 64 profiles is reported
EVERY_PROFILE = 100.0


TABLES = [payoff_table(rows) for rows in (DEFAULT_PAYOFF_ROWS_B1, DEFAULT_PAYOFF_ROWS_B2)]


def tensors_at(chi):
    """((A, B1) payoffs of the A-vs-B1 game, (A, B2) payoffs of A-vs-B2)."""
    return payoff_tensor(chi, TABLES[0]), payoff_tensor(chi, TABLES[1])


def test_p_one_reduces_to_b1_game():
    (a1, _), (a2, _) = tensors_at(0.3)
    a = compose(a1, a2, 1.0)
    for i in Strategy:
        for j in Strategy:
            for k in Strategy:
                assert a[i, j, k] == a1[i, j]


def test_classical_p_zero_corner():
    (a1, b1), (a2, b2) = tensors_at(0.0)
    a = compose(a1, a2, 0.0)
    i, j, k = (Strategy.I, Strategy.X, Strategy.I)
    np.testing.assert_allclose((a[i, j, k], b1[i, j], b2[i, k]), (11, 10, 9), atol=1e-12)


def test_midpoint_arithmetic():
    (a1, _), (a2, _) = tensors_at(0.0)
    a = compose(a1, a2, 0.5)
    # A-vs-B1 (X,X) pays 6, A-vs-B2 (X,I) pays 10: mix = 8
    assert a1[Strategy.X, Strategy.X] == 6
    assert a2[Strategy.X, Strategy.I] == 10
    assert a[Strategy.X, Strategy.X, Strategy.I] == 8.0
    # and the spec sheet case 6/11 -> 8.5
    assert 0.5 * 6 + 0.5 * 11 == 8.5


def test_linearity_in_p():
    (a1, _), (a2, _) = tensors_at(0.15)
    lo = compose(a1, a2, 0.0)
    hi = compose(a1, a2, 1.0)
    for p in (0.1, 0.37, 0.5, 0.99):
        mid = compose(a1, a2, p)
        np.testing.assert_array_equal(mid, p * hi + (1 - p) * lo)


def test_b_payoffs_invariant_in_p():
    # each B type is solved with its own game's array at every p
    (a1, b1), (a2, b2) = tensors_at(0.22)
    ps = (0.0, 0.3, 1.0)
    _, counts, flat, (_, pay_b1, pay_b2) = nash_columns(
        compose(np.stack([a1] * 3), np.stack([a2] * 3), ps), b1, b2, EVERY_PROFILE
    )
    assert counts == [64] * 3 and flat == list(range(64)) * 3
    for n, (b1_payoff, b2_payoff) in enumerate(zip(pay_b1, pay_b2)):
        i, j, k = np.unravel_index(n % 64, (4, 4, 4))
        assert b1_payoff == b1[i, j]
        assert b2_payoff == b2[i, k]


def test_matches_dense_oracle():
    chi, p = 0.19, 0.42
    (a1, b1), (a2, b2) = tensors_at(chi)
    want_a, want_b1, want_b2 = oracles.bayes_tensor_dense(chi, DEFAULT_PAYOFF_ROWS_B1, DEFAULT_PAYOFF_ROWS_B2, p)
    np.testing.assert_allclose(compose(a1, a2, p), want_a, atol=1e-10)
    np.testing.assert_allclose(b1, want_b1, atol=1e-10)
    np.testing.assert_allclose(b2, want_b2, atol=1e-10)


def test_p_column_rows_match_compose():
    pairs = [tensors_at(chi) for chi in (0.0, 0.13, 0.4, 0.7)]
    ps = np.array([0.0, 0.17, 0.5, 1.0])
    stacked = compose(np.stack([t1[0] for t1, _ in pairs]), np.stack([t2[0] for _, t2 in pairs]), ps)
    assert stacked.shape == (4, 4, 4, 4)
    for n, ((t1, t2), p) in enumerate(zip(pairs, ps)):
        np.testing.assert_allclose(stacked[n], compose(t1[0], t2[0], p), rtol=0, atol=1e-12)
    # a column fails on its first p outside [0, 1], as that p alone does
    (a1, _), (a2, _) = pairs[0]
    with pytest.raises(ValueError) as column:
        compose(np.stack([a1] * 3), np.stack([a2] * 3), np.array([0.2, 1.2, -0.1]))
    with pytest.raises(ValueError) as single:
        compose(a1, a2, 1.2)
    assert str(column.value) == str(single.value)


def test_p_out_of_range_rejected():
    (a1, _), (a2, _) = tensors_at(0.0)
    for p in (-0.01, 1.01):
        with pytest.raises(ValueError):
            compose(a1, a2, p)


def test_component_independence_structure():
    # a profile's B1 payoff ignores the B2 index and its B2 payoff the B1 index
    (a1, b1), (a2, b2) = tensors_at(0.11)
    a = compose(a1, a2, 0.6)
    report = nash_equilibria(a, b1, b2, EVERY_PROFILE)
    assert len(report.profiles) == 64
    for (i, j, k), (pa, pb1, pb2) in zip(report.profiles, report.payoffs):
        assert pa == a[i, j, k]
        assert pb1 == b1[i, j]
        assert pb2 == b2[i, k]


def test_tensor_shape_validation():
    # A's Bayesian payoffs are (4, 4, 4); a 4x4 array is rejected where it is solved
    with pytest.raises(ValueError):
        nash_equilibria(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)), 0.0)

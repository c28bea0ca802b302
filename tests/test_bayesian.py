"""Bayesian tensor composition."""

from __future__ import annotations

import numpy as np
import pytest

from qgame.bayesian import BayesianTensor, compose, compose_a
from qgame.game import GameSpec, Strategy, payoff_tensor

import oracles


def tensors_at(chi):
    spec = GameSpec(chi)
    return payoff_tensor(spec, "B1"), payoff_tensor(spec, "B2")


def test_p_one_reduces_to_b1_game():
    t1, t2 = tensors_at(0.3)
    bayes = compose(t1, t2, 1.0)
    for i in Strategy:
        for j in Strategy:
            for k in Strategy:
                assert bayes.a[i, j, k] == t1.a[i, j]


def test_classical_p_zero_corner():
    t1, t2 = tensors_at(0.0)
    bayes = compose(t1, t2, 0.0)
    profile = (Strategy.I, Strategy.X, Strategy.I)
    np.testing.assert_allclose(bayes.payoffs(profile), (11, 10, 9), atol=1e-12)


def test_midpoint_arithmetic():
    t1, t2 = tensors_at(0.0)
    bayes = compose(t1, t2, 0.5)
    # A-vs-B1 (X,X) pays 6, A-vs-B2 (X,I) pays 10: mix = 8
    assert t1.a[Strategy.X, Strategy.X] == 6
    assert t2.a[Strategy.X, Strategy.I] == 10
    assert bayes.a[Strategy.X, Strategy.X, Strategy.I] == 8.0
    # and the spec sheet case 6/11 -> 8.5
    assert 0.5 * 6 + 0.5 * 11 == 8.5


def test_linearity_in_p():
    t1, t2 = tensors_at(0.15)
    lo = compose(t1, t2, 0.0)
    hi = compose(t1, t2, 1.0)
    for p in (0.1, 0.37, 0.5, 0.99):
        mid = compose(t1, t2, p)
        np.testing.assert_array_equal(mid.a, p * hi.a + (1 - p) * lo.a)


def test_b_payoffs_invariant_in_p():
    t1, t2 = tensors_at(0.22)
    for p in (0.0, 0.3, 1.0):
        bayes = compose(t1, t2, p)
        np.testing.assert_array_equal(bayes.b1, t1.b)
        np.testing.assert_array_equal(bayes.b2, t2.b)


def test_matches_dense_oracle():
    from qgame.game import DEFAULT_PAYOFF_B1, DEFAULT_PAYOFF_B2

    chi, p = 0.19, 0.42
    t1, t2 = tensors_at(chi)
    bayes = compose(t1, t2, p)
    want_a, want_b1, want_b2 = oracles.bayes_tensor_dense(
        chi, DEFAULT_PAYOFF_B1.to_rows(), DEFAULT_PAYOFF_B2.to_rows(), p
    )
    np.testing.assert_allclose(bayes.a, want_a, atol=1e-10)
    np.testing.assert_allclose(bayes.b1, want_b1, atol=1e-10)
    np.testing.assert_allclose(bayes.b2, want_b2, atol=1e-10)


def test_p_column_rows_match_compose():
    pairs = [tensors_at(chi) for chi in (0.0, 0.13, 0.4, 0.7)]
    ps = np.array([0.0, 0.17, 0.5, 1.0])
    stacked = compose_a(np.stack([t1.a for t1, _ in pairs]), np.stack([t2.a for _, t2 in pairs]), ps)
    assert stacked.shape == (4, 4, 4, 4)
    for n, ((t1, t2), p) in enumerate(zip(pairs, ps)):
        np.testing.assert_allclose(stacked[n], compose(t1, t2, p).a, rtol=0, atol=1e-12)
    # a column fails on its first p outside [0, 1], as that p alone does
    t1, t2 = pairs[0]
    with pytest.raises(ValueError) as column:
        compose_a(np.stack([t1.a] * 3), np.stack([t2.a] * 3), np.array([0.2, 1.2, -0.1]))
    with pytest.raises(ValueError) as single:
        compose(t1, t2, 1.2)
    assert str(column.value) == str(single.value)


def test_p_out_of_range_rejected():
    t1, t2 = tensors_at(0.0)
    for p in (-0.01, 1.01):
        with pytest.raises(ValueError):
            compose(t1, t2, p)


def test_component_independence_structure():
    # b1 ignores the B2 index and b2 ignores the B1 index by construction
    t1, t2 = tensors_at(0.11)
    bayes = compose(t1, t2, 0.6)
    for i in Strategy:
        for j in Strategy:
            for k in Strategy:
                pa, pb1, pb2 = bayes.payoffs((i, j, k))
                assert pb1 == bayes.b1[i, j]
                assert pb2 == bayes.b2[i, k]


def test_tensor_shape_validation():
    with pytest.raises(ValueError):
        BayesianTensor(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))

"""Game engine: protocol states, payoff tables, 4x4 tensors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame.bayesian import compose
from qgame.game import (
    DEFAULT_PAYOFF_B1,
    DEFAULT_PAYOFF_B2,
    GameSpec,
    PayoffTable,
    Strategy,
    expected_payoff,
    final_state,
    payoff_tensor,
    profile_from_names,
    profile_names,
    tensor_from_distributions,
)
from qgame.noise import ConfusionMatrix, PopulationVector

import oracles

CHI_GRID = [k * np.pi / 40 for k in range(11)]


def test_final_state_classical_identity():
    state = final_state(0.0, Strategy.I, Strategy.I)
    np.testing.assert_allclose(state, [1, 0, 0, 0], atol=1e-15)


def test_final_state_max_entanglement_xx():
    # frozen from hand multiplication; the unentangler restores |11> exactly
    state = final_state(np.pi / 4, Strategy.X, Strategy.X)
    np.testing.assert_allclose(state, [0, 0, 0, 1], atol=1e-12)
    dense = oracles.final_state_dense(np.pi / 4, "X", "X")
    np.testing.assert_allclose(state, dense, atol=1e-12)


def test_final_state_max_entanglement_z_alone():
    # probabilities (0,0,0,1): a lone Z flips the outcome at full entanglement
    dist = np.abs(final_state(np.pi / 4, Strategy.Z, Strategy.I)) ** 2
    np.testing.assert_allclose(dist, [0, 0, 0, 1], atol=1e-12)


def test_expected_payoff_pure_outcomes():
    cd = np.array([0, 1, 0, 0])
    assert expected_payoff(cd, DEFAULT_PAYOFF_B1) == (1, 10)
    dd = np.array([0, 0, 0, 1])
    assert expected_payoff(dd, DEFAULT_PAYOFF_B2) == (6, 0)


def test_expected_payoff_uniform():
    uniform = np.full(4, 0.25)
    assert expected_payoff(uniform, DEFAULT_PAYOFF_B1) == (7, 6.5)


def test_expected_payoff_validates_distribution():
    with pytest.raises(ValueError):
        expected_payoff(np.array([0.5, 0.5, 0.5, 0.5]), DEFAULT_PAYOFF_B1)
    with pytest.raises(ValueError):
        expected_payoff(np.array([1.0, 0.0]), DEFAULT_PAYOFF_B1)


def test_tensor_stack_rows_match_single_calls():
    rng = np.random.default_rng(13)
    dists = rng.dirichlet(np.ones(4), size=(3, 4, 4))
    pay_a, pay_b = tensor_from_distributions(dists, DEFAULT_PAYOFF_B2)
    assert pay_a.shape == pay_b.shape == (3, 4, 4)
    for n in range(3):
        row_a, row_b = tensor_from_distributions(dists[n], DEFAULT_PAYOFF_B2)
        np.testing.assert_allclose(pay_a[n], row_a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pay_b[n], row_b, rtol=0, atol=1e-12)
        for i in range(4):
            for j in range(4):
                got = expected_payoff(dists[n, i, j], DEFAULT_PAYOFF_B2)
                np.testing.assert_allclose(got, (pay_a[n, i, j], pay_b[n, i, j]), rtol=0, atol=1e-12)
    # a stack fails on its first bad distribution, as that row alone does
    bad = dists.copy()
    bad[1, 2, 3] *= 0.9
    bad[2, 0, 0] *= 1.1
    with pytest.raises(ValueError) as stacked:
        tensor_from_distributions(bad, DEFAULT_PAYOFF_B2)
    with pytest.raises(ValueError) as single:
        expected_payoff(bad[1, 2, 3], DEFAULT_PAYOFF_B2)
    assert str(stacked.value) == str(single.value)


def test_tensor_classical_corner():
    tensor = payoff_tensor(GameSpec(0.0), "B1")
    assert (tensor.a[Strategy.I, Strategy.I], tensor.b[Strategy.I, Strategy.I]) == (11, 9)


def test_tensor_classical_degeneracy():
    # at chi=0, Z acts trivially on |0>: {I,Z} x {I,Z} all give (11,9)
    tensor = payoff_tensor(GameSpec(0.0), "B1")
    for i in (Strategy.I, Strategy.Z):
        for j in (Strategy.I, Strategy.Z):
            assert (tensor.a[i, j], tensor.b[i, j]) == (11, 9)


def test_tensor_max_entanglement_z_entry():
    tensor = payoff_tensor(GameSpec(np.pi / 4), "B1")
    pay = (tensor.a[Strategy.Z, Strategy.I], tensor.b[Strategy.Z, Strategy.I])
    np.testing.assert_allclose(pay, (6, 6), atol=1e-12)


def test_tensor_matches_dense_oracle_on_grid():
    rows_b1 = DEFAULT_PAYOFF_B1.to_rows()
    rows_b2 = DEFAULT_PAYOFF_B2.to_rows()
    for chi in CHI_GRID:
        spec = GameSpec(chi)
        for which, rows in (("B1", rows_b1), ("B2", rows_b2)):
            tensor = payoff_tensor(spec, which)
            want_a, want_b = oracles.game_tensor_dense(chi, rows)
            np.testing.assert_allclose(tensor.a, want_a, atol=1e-10)
            np.testing.assert_allclose(tensor.b, want_b, atol=1e-10)


def test_classical_limit_is_deterministic():
    # chi=0: every distribution is a basis outcome; {I,Z} play C, {X,Y} play D
    for i in Strategy:
        for j in Strategy:
            dist = np.abs(final_state(0.0, i, j)) ** 2
            assert np.max(dist) > 1 - 1e-12
            a = 1 if i in (Strategy.X, Strategy.Y) else 0
            b = 1 if j in (Strategy.X, Strategy.Y) else 0
            assert np.argmax(dist) == 2 * a + b


@given(
    chi=st.floats(min_value=0.0, max_value=float(np.pi / 4)),
    i=st.sampled_from(list(Strategy)),
    j=st.sampled_from(list(Strategy)),
)
@settings(max_examples=80, deadline=None)
def test_payoffs_within_table_envelope(chi, i, j):
    dist = np.abs(final_state(chi, i, j)) ** 2
    pay_a, pay_b = expected_payoff(dist, DEFAULT_PAYOFF_B1)
    assert DEFAULT_PAYOFF_B1.a.min() - 1e-9 <= pay_a <= DEFAULT_PAYOFF_B1.a.max() + 1e-9
    assert DEFAULT_PAYOFF_B1.b.min() - 1e-9 <= pay_b <= DEFAULT_PAYOFF_B1.b.max() + 1e-9


def test_player_swap_symmetry():
    # swapping strategies while transposing the table transposes the payoffs
    table = DEFAULT_PAYOFF_B2
    swapped = PayoffTable(table.b.T, table.a.T)
    for chi in (0.0, 0.2, np.pi / 4):
        direct = payoff_tensor(GameSpec(chi, payoff_vs_b1=table), "B1")
        flipped = payoff_tensor(GameSpec(chi, payoff_vs_b1=swapped), "B1")
        np.testing.assert_allclose(direct.a, flipped.b.T, atol=1e-10)
        np.testing.assert_allclose(direct.b, flipped.a.T, atol=1e-10)


def test_payoff_table_json_round_trip():
    rows = [[[11, 9], [1, 10]], [[10, 1], [6, 6]]]
    table = PayoffTable.from_rows(rows)
    assert table.to_rows() == [[[11.0, 9.0], [1.0, 10.0]], [[10.0, 1.0], [6.0, 6.0]]]
    np.testing.assert_array_equal(table.a, [[11, 1], [10, 6]])
    np.testing.assert_array_equal(table.b, [[9, 10], [1, 6]])


def test_chi_out_of_range_rejected():
    with pytest.raises(ValueError):
        final_state(np.pi / 2, Strategy.I, Strategy.I)
    with pytest.raises(ValueError):
        GameSpec(-0.1)


def test_profile_string_round_trip():
    profile = profile_from_names("ZYX")
    assert profile == (Strategy.Z, Strategy.Y, Strategy.X)
    assert profile_names(profile) == "ZYX"
    with pytest.raises(ValueError):
        profile_from_names("AB")


def _bayesian(p):
    spec = GameSpec(0.3)
    return compose(payoff_tensor(spec, "B1"), payoff_tensor(spec, "B2"), p)


# each maker gives equal values for equal arguments and different ones otherwise
ARRAY_DATACLASSES = {
    "PayoffTable": lambda v: PayoffTable.from_rows((DEFAULT_PAYOFF_B1, DEFAULT_PAYOFF_B2)[v].to_rows()),
    "PayoffTensor": lambda v: payoff_tensor(GameSpec(0.3), ("B1", "B2")[v]),
    "BayesianTensor": lambda v: _bayesian((0.3, 0.4)[v]),
    "ConfusionMatrix": lambda v: ConfusionMatrix(np.roll(np.eye(4), v, axis=0)),
    "PopulationVector": lambda v: PopulationVector(np.arange(32.0) + v),
}


@pytest.mark.parametrize("name", ARRAY_DATACLASSES)
def test_array_dataclasses_compare_by_value(name):
    make = ARRAY_DATACLASSES[name]
    assert make(0) == make(0)
    assert make(0) != make(1)
    assert make(0) != "not a dataclass"

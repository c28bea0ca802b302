"""Game engine: protocol states, payoff tables, 4x4 payoff arrays."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame.game import (
    DEFAULT_PAYOFF_B1,
    DEFAULT_PAYOFF_B2,
    PayoffTable,
    Strategy,
    final_states,
    payoff_tensor,
    profile_from_names,
    profile_names,
    tensor_from_distributions,
)
from qgame.noise import ConfusionMatrix

import oracles

CHI_GRID = [k * np.pi / 40 for k in range(11)]


def test_final_state_classical_identity():
    state = final_states(0.0)[4 * Strategy.I + Strategy.I]
    np.testing.assert_allclose(state, [1, 0, 0, 0], atol=1e-15)


def test_final_state_max_entanglement_xx():
    # frozen from hand multiplication; the unentangler restores |11> exactly
    state = final_states(np.pi / 4)[4 * Strategy.X + Strategy.X]
    np.testing.assert_allclose(state, [0, 0, 0, 1], atol=1e-12)
    dense = oracles.final_state_dense(np.pi / 4, "X", "X")
    np.testing.assert_allclose(state, dense, atol=1e-12)


def test_final_state_max_entanglement_z_alone():
    # probabilities (0,0,0,1): a lone Z flips the outcome at full entanglement
    dist = np.abs(final_states(np.pi / 4)[4 * Strategy.Z + Strategy.I]) ** 2
    np.testing.assert_allclose(dist, [0, 0, 0, 1], atol=1e-12)


def test_expected_payoff_pure_outcomes():
    cd = np.array([0, 1, 0, 0])
    assert tensor_from_distributions(cd, DEFAULT_PAYOFF_B1) == (1, 10)
    dd = np.array([0, 0, 0, 1])
    assert tensor_from_distributions(dd, DEFAULT_PAYOFF_B2) == (6, 0)


def test_expected_payoff_uniform():
    uniform = np.full(4, 0.25)
    assert tensor_from_distributions(uniform, DEFAULT_PAYOFF_B1) == (7, 6.5)


def test_expected_payoff_validates_distribution():
    with pytest.raises(ValueError):
        tensor_from_distributions(np.array([0.5, 0.5, 0.5, 0.5]), DEFAULT_PAYOFF_B1)
    with pytest.raises(ValueError):
        tensor_from_distributions(np.array([1.0, 0.0]), DEFAULT_PAYOFF_B1)


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
                got = tensor_from_distributions(dists[n, i, j], DEFAULT_PAYOFF_B2)
                np.testing.assert_allclose(got, (pay_a[n, i, j], pay_b[n, i, j]), rtol=0, atol=1e-12)
    # a stack fails on its first bad distribution, as that row alone does
    bad = dists.copy()
    bad[1, 2, 3] *= 0.9
    bad[2, 0, 0] *= 1.1
    with pytest.raises(ValueError) as stacked:
        tensor_from_distributions(bad, DEFAULT_PAYOFF_B2)
    with pytest.raises(ValueError) as single:
        tensor_from_distributions(bad[1, 2, 3], DEFAULT_PAYOFF_B2)
    assert str(stacked.value) == str(single.value)


def test_tensor_classical_corner():
    pay_a, pay_b = payoff_tensor(0.0, DEFAULT_PAYOFF_B1)
    assert (pay_a[Strategy.I, Strategy.I], pay_b[Strategy.I, Strategy.I]) == (11, 9)


def test_tensor_classical_degeneracy():
    # at chi=0, Z acts trivially on |0>: {I,Z} x {I,Z} all give (11,9)
    pay_a, pay_b = payoff_tensor(0.0, DEFAULT_PAYOFF_B1)
    for i in (Strategy.I, Strategy.Z):
        for j in (Strategy.I, Strategy.Z):
            assert (pay_a[i, j], pay_b[i, j]) == (11, 9)


def test_tensor_max_entanglement_z_entry():
    pay_a, pay_b = payoff_tensor(np.pi / 4, DEFAULT_PAYOFF_B1)
    pay = (pay_a[Strategy.Z, Strategy.I], pay_b[Strategy.Z, Strategy.I])
    np.testing.assert_allclose(pay, (6, 6), atol=1e-12)


def test_tensor_matches_dense_oracle_on_grid():
    for chi in CHI_GRID:
        for table in (DEFAULT_PAYOFF_B1, DEFAULT_PAYOFF_B2):
            pay_a, pay_b = payoff_tensor(chi, table)
            want_a, want_b = oracles.game_tensor_dense(chi, table.to_rows())
            np.testing.assert_allclose(pay_a, want_a, atol=1e-10)
            np.testing.assert_allclose(pay_b, want_b, atol=1e-10)


def test_final_states_rows_match_dense_oracle():
    for chi in (0.0, np.pi / 8, np.pi / 4):
        states = final_states(chi)
        assert states.shape == (16, 4)
        for i in Strategy:
            for j in Strategy:
                want = oracles.final_state_dense(chi, i.name, j.name)
                np.testing.assert_allclose(states[4 * i + j], want, atol=1e-12)


def test_final_states_rows_are_normalized():
    for chi in CHI_GRID:
        np.testing.assert_allclose((np.abs(final_states(chi)) ** 2).sum(axis=-1), 1.0, atol=1e-12)


def test_final_states_rejects_the_angle_final_state_rejects():
    # the one angle check, shared by the protocol states and the payoff arrays
    messages = []
    for evolve in (final_states, lambda chi: payoff_tensor(chi, DEFAULT_PAYOFF_B1)):
        with pytest.raises(ValueError) as info:
            evolve(-0.01)
        messages.append(str(info.value))
    assert messages == ["chi=-0.01 outside [0, pi/4]"] * 2


def test_payoff_tensor_bits_match_per_pair_reference():
    # the stacked evolution and per-row dots keep the per-pair loop's bits,
    # which the pinned analytic digest depends on
    for chi in np.linspace(0.0, np.pi / 4, 201):
        for table in (DEFAULT_PAYOFF_B1, DEFAULT_PAYOFF_B2):
            got, want = payoff_tensor(chi, table), oracles.reference_payoff_tensor(chi, table)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@given(
    chi=st.floats(min_value=0.0, max_value=float(np.pi / 4)),
    entries=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=8, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_payoff_tensor_bits_match_per_pair_reference_on_drawn_tables(chi, entries):
    table = PayoffTable(np.reshape(entries[:4], (2, 2)), np.reshape(entries[4:], (2, 2)))
    got, want = payoff_tensor(chi, table), oracles.reference_payoff_tensor(chi, table)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_classical_limit_is_deterministic():
    # chi=0: every distribution is a basis outcome; {I,Z} play C, {X,Y} play D
    dists = np.abs(final_states(0.0)) ** 2
    for i in Strategy:
        for j in Strategy:
            dist = dists[4 * i + j]
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
    dist = np.abs(final_states(chi)[4 * i + j]) ** 2
    pay_a, pay_b = tensor_from_distributions(dist, DEFAULT_PAYOFF_B1)
    assert DEFAULT_PAYOFF_B1.a.min() - 1e-9 <= pay_a <= DEFAULT_PAYOFF_B1.a.max() + 1e-9
    assert DEFAULT_PAYOFF_B1.b.min() - 1e-9 <= pay_b <= DEFAULT_PAYOFF_B1.b.max() + 1e-9


def test_player_swap_symmetry():
    # swapping strategies while transposing the table transposes the payoffs
    table = DEFAULT_PAYOFF_B2
    swapped = PayoffTable(table.b.T, table.a.T)
    for chi in (0.0, 0.2, np.pi / 4):
        direct_a, direct_b = payoff_tensor(chi, table)
        flipped_a, flipped_b = payoff_tensor(chi, swapped)
        np.testing.assert_allclose(direct_a, flipped_b.T, atol=1e-10)
        np.testing.assert_allclose(direct_b, flipped_a.T, atol=1e-10)


def test_payoff_table_json_round_trip():
    rows = [[[11, 9], [1, 10]], [[10, 1], [6, 6]]]
    table = PayoffTable.from_rows(rows)
    assert table.to_rows() == [[[11.0, 9.0], [1.0, 10.0]], [[10.0, 1.0], [6.0, 6.0]]]
    np.testing.assert_array_equal(table.a, [[11, 1], [10, 6]])
    np.testing.assert_array_equal(table.b, [[9, 10], [1, 6]])


def test_chi_out_of_range_rejected():
    with pytest.raises(ValueError):
        final_states(np.pi / 2)
    with pytest.raises(ValueError):
        payoff_tensor(-0.1, DEFAULT_PAYOFF_B1)


def test_profile_string_round_trip():
    profile = profile_from_names("ZYX")
    assert profile == (Strategy.Z, Strategy.Y, Strategy.X)
    assert profile_names(profile) == "ZYX"
    with pytest.raises(ValueError):
        profile_from_names("AB")


# each maker gives equal values for equal arguments and different ones otherwise
ARRAY_DATACLASSES = {
    "PayoffTable": lambda v: PayoffTable.from_rows((DEFAULT_PAYOFF_B1, DEFAULT_PAYOFF_B2)[v].to_rows()),
    "ConfusionMatrix": lambda v: ConfusionMatrix(np.roll(np.eye(4), v, axis=0)),
}


@pytest.mark.parametrize("name", ARRAY_DATACLASSES)
def test_array_dataclasses_compare_by_value(name):
    make = ARRAY_DATACLASSES[name]
    assert make(0) == make(0)
    assert make(0) != make(1)
    assert make(0) != "not a dataclass"

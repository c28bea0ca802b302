"""Gate matrices and application: unitarity, basis convention, tensor apply."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame.game import final_states
from qgame.noise import NoiseModel, outcome_law
from qgame.statevector import (
    CHI_MAX,
    Gate,
    apply_gate,
    apply_matrix,
    check_chi,
    gate_matrix,
    xx_rotation,
)

import oracles

INV_SQRT2 = 1 / np.sqrt(2)
J = Gate("J", (0, 1))
JDAG = Gate("JDAG", (0, 1))
ONE_QUBIT = "IXYZH"
TWO_QUBIT = ("CNOT", "CZ", "J", "JDAG")


def ground(n):
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return amps


def test_entangler_at_zero_is_identity():
    amps = apply_gate(ground(2), J, 0.0)
    np.testing.assert_allclose(amps, [1, 0, 0, 0], atol=1e-15)


def test_entangler_max_on_ground():
    # first column of the 4x4 at chi = pi/4: (|00> - i|11>)/sqrt(2)
    amps = apply_gate(ground(2), J, np.pi / 4)
    np.testing.assert_allclose(amps, [INV_SQRT2, 0, 0, -1j * INV_SQRT2], atol=1e-12)


def test_x_flips_most_significant_qubit():
    # qubit 0 is the most significant index bit: X on it maps |00> to |10>
    amps = apply_gate(ground(2), Gate("X", (0,)), 0.0)
    np.testing.assert_allclose(amps, [0, 0, 1, 0], atol=1e-15)


def test_probabilities_ground():
    # the outcome law of an empty circuit is the ground state's
    np.testing.assert_allclose(outcome_law((), 2, 0.0, NoiseModel()), [1, 0, 0, 0])


def test_probabilities_equal_superposition():
    # J(pi/4)|00> = (|00> - i|11>)/sqrt(2)
    law = outcome_law((J,), 2, np.pi / 4, NoiseModel())
    np.testing.assert_allclose(law, [0.5, 0, 0, 0.5], atol=1e-12)


def test_unentangle_z_sandwich():
    # J'(pi/4) (Z x I) J(pi/4) |00>: frozen from hand multiplication of the
    # three 4x4 matrices, cross-checked against the dense oracle below.
    amps = apply_gate(ground(2), J, np.pi / 4)
    amps = apply_gate(amps, Gate("Z", (0,)), np.pi / 4)
    amps = apply_gate(amps, JDAG, np.pi / 4)
    np.testing.assert_allclose(np.abs(amps) ** 2, [0, 0, 0, 1], atol=1e-12)

    dense = oracles.final_state_dense(np.pi / 4, "Z", "I")
    np.testing.assert_allclose(np.abs(amps) ** 2, np.abs(dense) ** 2, atol=1e-12)


def test_all_gate_matrices_unitary():
    gates = [Gate(name, (0,)) for name in ONE_QUBIT] + [Gate(name, (0, 1)) for name in TWO_QUBIT]
    for gate in gates:
        mat = gate_matrix(gate, 0.3)
        np.testing.assert_allclose(
            mat @ mat.conj().T, np.eye(mat.shape[0]), atol=1e-12,
            err_msg=f"{gate.name} not unitary",
        )


@given(chi=st.floats(min_value=0.0, max_value=float(CHI_MAX)))
@settings(max_examples=60, deadline=None)
def test_entangle_unentangle_roundtrip(chi):
    rng = np.random.default_rng(7)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    out = apply_gate(apply_gate(amps, J, chi), JDAG, chi)
    np.testing.assert_allclose(out, amps, atol=1e-12)


@given(
    chi=st.floats(min_value=0.0, max_value=float(CHI_MAX)),
    ua=st.sampled_from("IXYZ"),
    ub=st.sampled_from("IXYZ"),
)
@settings(max_examples=60, deadline=None)
def test_protocol_state_normalized(chi, ua, ub):
    amps = apply_gate(ground(2), J, chi)
    amps = apply_gate(amps, Gate(ua, (0,)), chi)
    amps = apply_gate(amps, Gate(ub, (1,)), chi)
    amps = apply_gate(amps, JDAG, chi)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_tensor_application_matches_dense_oracle():
    # every gate kind, random states, all qubit counts and target choices
    rng = np.random.default_rng(11)
    for n in range(2, 6):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        cases = [Gate(name, (q,)) for q in range(n) for name in ONE_QUBIT]
        for q1 in range(n):
            for q2 in range(n):
                if q1 != q2:
                    cases += [Gate(name, (q1, q2)) for name in TWO_QUBIT]
        for gate in cases:
            got = apply_gate(amps, gate, 0.37)
            want = oracles.embed(gate_matrix(gate, 0.37), gate.targets, n) @ amps
            np.testing.assert_allclose(got, want, atol=1e-12,
                                       err_msg=f"{gate.name} on {gate.targets}, n={n}")


def test_norm_preserved_through_long_sequence():
    amps = ground(5)
    for gate in [
        Gate("H", (2,)),
        Gate("H", (3,)),
        J,
        Gate("CNOT", (2, 0)),
        Gate("CZ", (3, 0)),
        JDAG,
    ]:
        amps = apply_gate(amps, gate, 0.61)
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-12


def test_chi_out_of_range_rejected():
    check_chi(np.pi / 4)
    with pytest.raises(ValueError):
        check_chi(np.pi / 4 + 0.01)
    with pytest.raises(ValueError):
        final_states(-0.01)


def test_xx_rotation_sign_convention():
    # conjugate transpose of the +chi matrix equals the -chi matrix
    chi = 0.42
    np.testing.assert_allclose(
        xx_rotation(chi).conj().T, xx_rotation(-chi), atol=1e-15
    )


def test_entangler_stack_matches_each_angle():
    chis = np.array([-0.4, 0.0, 0.3, 2.0])
    for gate in (J, JDAG):
        stack = gate_matrix(gate, chis)
        assert stack.shape == (4, 4, 4)
        for mat, chi in zip(stack, chis):
            assert np.array_equal(mat, gate_matrix(gate, chi))


def test_apply_matrix_on_middle_qubits():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps /= np.linalg.norm(amps)
    mat = xx_rotation(0.5)
    got = apply_matrix(amps, mat, (3, 1), 5)
    want = oracles.embed(mat, (3, 1), 5) @ amps
    np.testing.assert_allclose(got, want, atol=1e-12)

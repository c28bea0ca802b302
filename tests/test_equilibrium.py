"""Best responses, Nash intersection, transitions, RMSD selection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qgame.bayesian import BayesianTensor, compose
from qgame.equilibrium import (
    NoEquilibriumError,
    best_responses,
    detect_transitions,
    max_payoff_profile,
    nash_equilibria,
    nash_equilibria_stack,
    rmsd_at_equilibrium,
)
from qgame.game import GameSpec, Strategy, payoff_tensor, profile_from_names

import oracles

P_GRID = [i / 100 for i in range(101)]


def bayes_at(chi, p):
    spec = GameSpec(chi)
    return compose(payoff_tensor(spec, "B1"), payoff_tensor(spec, "B2"), p)


def synthetic_tensor(a, b1, b2):
    return BayesianTensor(np.asarray(a, float), np.asarray(b1, float), np.asarray(b2, float))


def random_tensor(rng):
    return synthetic_tensor(
        rng.uniform(0, 12, (4, 4, 4)), rng.uniform(0, 12, (4, 4)), rng.uniform(0, 12, (4, 4))
    )


def test_dominant_strategy_gives_singletons():
    a = np.zeros((4, 4, 4))
    a[1] = 1.0  # X strictly dominant for A everywhere
    b1 = np.zeros((4, 4))
    b1[:, 2] = 1.0
    b2 = np.zeros((4, 4))
    b2[:, 3] = 1.0
    tensor = synthetic_tensor(a, b1, b2)
    for player, own_axis, want in (("A", 0, Strategy.X), ("B1", 1, Strategy.Y), ("B2", 1, Strategy.Z)):
        own = np.moveaxis(best_responses(tensor, player, 0.0), own_axis, 0)
        # exactly the dominant choice, in every context
        assert own[want].all() and not np.delete(own, want, axis=0).any()


def test_best_response_classical_context():
    # chi=0, p=0: against (B1=X, B2=I), cooperation pays 11 > 10, so the
    # two cooperate-equivalent strategies I and Z tie for best
    tensor = bayes_at(0.0, 0.0)
    mask = best_responses(tensor, "A", 0.0)
    assert set(np.flatnonzero(mask[:, Strategy.X, Strategy.I])) == {Strategy.I, Strategy.Z}
    # brute force over the 4 choices agrees
    col = tensor.a[:, Strategy.X, Strategy.I]
    best = {Strategy(i) for i in range(4) if col[i] >= col.max() - 1e-9}
    assert best == {Strategy.I, Strategy.Z}


def test_delta_tolerance_widens_set():
    a = np.zeros((4, 4, 4))
    a[:, 0, 0] = [11.00, 10.95, 3, 3]
    tensor = synthetic_tensor(a, np.zeros((4, 4)), np.zeros((4, 4)))
    mask = best_responses(tensor, "A", 0.1)
    assert set(np.flatnonzero(mask[:, Strategy.I, Strategy.I])) == {Strategy.I, Strategy.X}


def test_classical_low_p_equilibria():
    report = nash_equilibria(bayes_at(0.0, 0.0), 0.0)
    assert report.contains(profile_from_names("IXI"))
    assert report.contains(profile_from_names("ZYZ"))
    for payoff in report.payoffs:
        np.testing.assert_allclose(payoff, (11, 10, 9), atol=1e-12)


def test_classical_high_p_equilibria():
    report = nash_equilibria(bayes_at(0.0, 1.0), 0.0)
    assert not report.empty
    for profile, payoff in zip(report.profiles, report.payoffs):
        i, j, k = profile
        assert i in (Strategy.X, Strategy.Y)
        assert j in (Strategy.X, Strategy.Y)
        assert k in (Strategy.I, Strategy.Z)
        np.testing.assert_allclose(payoff, (6, 6, 1), atol=1e-12)
    assert len(report.profiles) == 8


def test_low_entanglement_midpoint_empty():
    report = nash_equilibria(bayes_at(0.05 * np.pi, 0.5), 0.0)
    assert report.empty


def test_transition_low_p_profile():
    # tracked low-p equilibrium leaves the set one grid step past p = 1/6
    tensor_pairs = GameSpec(np.pi / 20)
    t1 = payoff_tensor(tensor_pairs, "B1")
    t2 = payoff_tensor(tensor_pairs, "B2")
    reports = [nash_equilibria(compose(t1, t2, p), 0.0) for p in P_GRID]
    thresholds = detect_transitions(P_GRID, reports, profile_from_names("IXI"), window=3)
    assert thresholds == (0.17,)
    assert abs(thresholds[0] - 0.16) <= 0.010001
    # and the equilibrium set is empty in a band containing p = 0.5
    by_p = dict(zip(P_GRID, reports))
    assert by_p[0.5].empty

    # the high-p equilibrium appears at 9/14 rounded up to the grid
    appear = detect_transitions(P_GRID, reports, profile_from_names("XYZ"), window=3)
    assert appear == (0.65,)
    # with the shot-analysis tolerance the appearance moves near p ~ 0.55
    loose = [nash_equilibria(compose(t1, t2, p), 0.1) for p in P_GRID]
    appear_loose = detect_transitions(P_GRID, loose, profile_from_names("XYZ"), window=3)
    assert appear_loose == (0.57,)


def test_transition_constant_membership():
    ps = [0.0, 0.01, 0.02, 0.03]
    reports = [nash_equilibria(bayes_at(0.0, p), 0.0) for p in ps]
    assert detect_transitions(ps, reports, profile_from_names("IXI"), window=3) == ()


def test_transition_ignores_short_blips():
    from qgame.equilibrium import EquilibriumReport

    def stub(member):
        profiles = (profile_from_names("IXI"),) if member else ()
        payoffs = ((11.0, 10.0, 9.0),) if member else ()
        return EquilibriumReport(profiles, payoffs)

    membership = [1, 1, 0, 1, 1, 1, 0, 0, 0, 0]
    ps = [i / 10 for i in range(len(membership))]
    thresholds = detect_transitions(ps, [stub(m) for m in membership], profile_from_names("IXI"), window=3)
    # the lone dip at p=0.2 is blur; the sustained flip lands at p=0.6
    assert thresholds == (0.6,)


def test_transition_validates_input():
    ixi = profile_from_names("IXI")
    with pytest.raises(ValueError):
        detect_transitions([], [], ixi, window=3)
    reports = [nash_equilibria(bayes_at(0.0, p), 0.0) for p in (0.5, 0.4)]
    with pytest.raises(ValueError, match="ascending"):
        detect_transitions([0.5, 0.4], reports, ixi, window=3)
    with pytest.raises(ValueError, match="2 reports"):
        detect_transitions([0.5], reports, ixi, window=3)
    with pytest.raises(ValueError, match="window"):
        detect_transitions([0.4, 0.5], reports, ixi, window=0)


def test_rmsd_identical_tensors():
    tensor = bayes_at(0.1, 0.05)
    assert not nash_equilibria(tensor, 0.0).empty
    assert rmsd_at_equilibrium(tensor, nash_equilibria(tensor, 0.0)) == 0.0


def test_rmsd_uniform_offset():
    reference = bayes_at(0.0, 0.0)
    observed = BayesianTensor(reference.a - 1.0, reference.b1 - 1.0, reference.b2 - 1.0)
    assert rmsd_at_equilibrium(observed, nash_equilibria(reference, 0.0)) == pytest.approx(1.0, abs=1e-12)


def test_rmsd_requires_reference_equilibrium():
    empty_ref = bayes_at(0.05 * np.pi, 0.5)
    with pytest.raises(NoEquilibriumError):
        rmsd_at_equilibrium(empty_ref, nash_equilibria(empty_ref, 0.0))


def test_max_payoff_tie_break_is_lexicographic():
    report = nash_equilibria(bayes_at(0.0, 0.0), 0.0)
    # all profiles tie at payoff_A = 11; IXI sorts first
    assert max_payoff_profile(report) == profile_from_names("IXI")


def test_reported_payoffs_equal_tensor_entries():
    tensor = bayes_at(0.1 * np.pi, 0.5)
    report = nash_equilibria(tensor, 0.0)
    assert not report.empty
    for profile, payoff in zip(report.profiles, report.payoffs):
        assert payoff == tensor.payoffs(profile)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_solver_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    tensor = random_tensor(rng)
    report = nash_equilibria(tensor, 0.0)
    got = [(int(i), int(j), int(k)) for i, j, k in report.profiles]
    want = oracles.brute_force_equilibria(tensor.a, tensor.b1, tensor.b2, 0.0)
    assert got == want


@given(
    a=hnp.arrays(np.int64, (4, 4, 4), elements=st.integers(0, 3)),
    b1=hnp.arrays(np.int64, (4, 4), elements=st.integers(0, 3)),
    b2=hnp.arrays(np.int64, (4, 4), elements=st.integers(0, 3)),
    delta=st.sampled_from([0.0, 0.1]),
)
@settings(max_examples=100, deadline=None)
def test_solver_matches_brute_force_with_ties(a, b1, b2, delta):
    # payoffs from {0, ..., 3} make exact ties common, unlike uniform floats
    tensor = synthetic_tensor(a, b1, b2)
    report = nash_equilibria(tensor, delta)
    got = [(int(i), int(j), int(k)) for i, j, k in report.profiles]
    assert got == oracles.brute_force_equilibria(tensor.a, tensor.b1, tensor.b2, delta)
    # the masks keep every tied maximum in every context
    mask_a = best_responses(tensor, "A", delta)
    assert not mask_a.flags.writeable
    for j in range(4):
        for k in range(4):
            best = tensor.a[:, j, k].max() - delta - 1e-9
            assert set(np.flatnonzero(mask_a[:, j, k])) == {i for i in range(4) if tensor.a[i, j, k] >= best}
    for player, values in (("B1", tensor.b1), ("B2", tensor.b2)):
        mask = best_responses(tensor, player, delta)
        for i in range(4):
            best = values[i].max() - delta - 1e-9
            assert set(np.flatnonzero(mask[i])) == {x for x in range(4) if values[i, x] >= best}


@st.composite
def integer_columns(draw):
    """A column of P tensors with payoffs in {0, ..., 3}, its B arrays
    either shared (4, 4) or one per row (P, 4, 4)."""
    rows = draw(st.integers(1, 5))
    payoffs = st.integers(0, 3)
    a = draw(hnp.arrays(np.int64, (rows, 4, 4, 4), elements=payoffs))
    b_shape = draw(st.sampled_from([(4, 4), (rows, 4, 4)]))
    b1 = draw(hnp.arrays(np.int64, b_shape, elements=payoffs))
    b2 = draw(hnp.arrays(np.int64, b_shape, elements=payoffs))
    return a, b1, b2


@given(column=integer_columns(), delta=st.sampled_from([0.0, 0.1]))
@settings(max_examples=100, deadline=None)
def test_stack_rows_match_single_solves_and_brute_force(column, delta):
    a, b1, b2 = column
    reports = nash_equilibria_stack(a, b1, b2, delta)
    assert len(reports) == len(a)
    for n, report in enumerate(reports):
        row_b1 = b1 if b1.ndim == 2 else b1[n]
        row_b2 = b2 if b2.ndim == 2 else b2[n]
        tensor = synthetic_tensor(a[n], row_b1, row_b2)
        single = nash_equilibria(tensor, delta)
        assert report.profiles == single.profiles
        assert report.payoffs == single.payoffs == tuple(map(tensor.payoffs, report.profiles))
        got = [(int(i), int(j), int(k)) for i, j, k in report.profiles]
        assert got == oracles.brute_force_equilibria(tensor.a, tensor.b1, tensor.b2, delta)


def test_negative_delta_rejected():
    tensor = bayes_at(0.1 * np.pi, 0.5)
    message = "delta=-0.1 must be >= 0"
    with pytest.raises(ValueError, match=message):
        nash_equilibria(tensor, -0.1)
    with pytest.raises(ValueError, match=message):
        nash_equilibria_stack(tensor.a[None], tensor.b1, tensor.b2, -0.1)
    with pytest.raises(ValueError, match=message):
        best_responses(tensor, "B1", -0.1)


def test_stack_shape_validation():
    a = np.zeros((3, 4, 4, 4))
    with pytest.raises(ValueError, match=r"got \(4, 4, 4\), \(4, 4\), \(4, 4\)"):
        nash_equilibria_stack(a[0], np.zeros((4, 4)), np.zeros((4, 4)), 0.0)
    with pytest.raises(ValueError, match=r"got \(3, 4, 4, 4\), \(4, 4\), \(2, 4, 4\)"):
        nash_equilibria_stack(a, np.zeros((4, 4)), np.zeros((2, 4, 4)), 0.0)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    d1=st.floats(min_value=0, max_value=2),
    d2=st.floats(min_value=0, max_value=2),
)
@settings(max_examples=60, deadline=None)
def test_delta_monotonicity(seed, d1, d2):
    lo, hi = sorted((d1, d2))
    rng = np.random.default_rng(seed)
    tensor = random_tensor(rng)
    tight = set(nash_equilibria(tensor, lo).profiles)
    loose = set(nash_equilibria(tensor, hi).profiles)
    assert tight <= loose


def test_affine_shift_invariance():
    rng = np.random.default_rng(5)
    tensor = random_tensor(rng)
    shifted = BayesianTensor(tensor.a + 3.7, tensor.b1, tensor.b2)
    for delta in (0.0, 0.1, 0.5):
        before = nash_equilibria(tensor, delta).profiles
        after = nash_equilibria(shifted, delta).profiles
        assert before == after

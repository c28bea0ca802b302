"""Nash equilibria, transitions, RMSD selection."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qgame.bayesian import compose
from qgame.equilibrium import (
    EquilibriumReport,
    NoEquilibriumError,
    best_equilibria_stack,
    detect_transitions,
    nash_columns,
    nash_equilibria,
    rmsd_at_equilibrium,
    rmsd_at_equilibrium_stack,
)
from qgame.game import (
    DEFAULT_PAYOFF_ROWS_B1,
    DEFAULT_PAYOFF_ROWS_B2,
    PROFILES,
    Strategy,
    payoff_table,
    payoff_tensor,
    profile_from_names,
)

import oracles

P_GRID = [i / 100 for i in range(101)]
TABLES = [payoff_table(rows) for rows in (DEFAULT_PAYOFF_ROWS_B1, DEFAULT_PAYOFF_ROWS_B2)]


def games_at(chi):
    """(A, B1, A, B2) payoff arrays of the two games at angle chi."""
    return (*payoff_tensor(chi, TABLES[0]), *payoff_tensor(chi, TABLES[1]))


def bayes_at(chi, p):
    """The Bayesian game's (A, B1, B2) payoff arrays."""
    a1, b1, a2, b2 = games_at(chi)
    return compose(a1, a2, p), b1, b2


def synthetic_tensor(a, b1, b2):
    return np.asarray(a, float), np.asarray(b1, float), np.asarray(b2, float)


def payoffs_at(tensor, profile):
    a, b1, b2 = tensor
    i, j, k = profile
    return float(a[i, j, k]), float(b1[i, j]), float(b2[i, k])


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
    # each player plays exactly the dominant choice, within any delta below the margin
    for delta in (0.0, 0.5, 0.99):
        assert nash_equilibria(*tensor, delta).profiles == ((Strategy.X, Strategy.Y, Strategy.Z),)


def test_best_response_classical_context():
    # chi=0, p=0: against (B1=X, B2=I), cooperation pays 11 > 10, so the
    # two cooperate-equivalent strategies I and Z tie for best
    tensor = bayes_at(0.0, 0.0)
    report = nash_equilibria(*tensor, 0.0)
    assert {i for i, j, k in report.profiles if (j, k) == (Strategy.X, Strategy.I)} == {Strategy.I, Strategy.Z}
    # brute force over the 4 choices agrees
    col = tensor[0][:, Strategy.X, Strategy.I]
    best = {Strategy(i) for i in range(4) if col[i] >= col.max() - 1e-9}
    assert best == {Strategy.I, Strategy.Z}


def test_delta_tolerance_widens_set():
    a = np.zeros((4, 4, 4))
    a[:, 0, 0] = [11.00, 10.95, 3, 3]
    tensor = synthetic_tensor(a, np.zeros((4, 4)), np.zeros((4, 4)))
    for delta, want in ((0.0, {Strategy.I}), (0.1, {Strategy.I, Strategy.X})):
        report = nash_equilibria(*tensor, delta)
        assert {i for i, j, k in report.profiles if (j, k) == (Strategy.I, Strategy.I)} == want


def test_classical_low_p_equilibria():
    report = nash_equilibria(*bayes_at(0.0, 0.0), 0.0)
    assert profile_from_names("IXI") in report.profiles
    assert profile_from_names("ZYZ") in report.profiles
    for payoff in report.payoffs:
        np.testing.assert_allclose(payoff, (11, 10, 9), atol=1e-12)


def test_classical_high_p_equilibria():
    report = nash_equilibria(*bayes_at(0.0, 1.0), 0.0)
    assert not report.empty
    for profile, payoff in zip(report.profiles, report.payoffs):
        i, j, k = profile
        assert i in (Strategy.X, Strategy.Y)
        assert j in (Strategy.X, Strategy.Y)
        assert k in (Strategy.I, Strategy.Z)
        np.testing.assert_allclose(payoff, (6, 6, 1), atol=1e-12)
    assert len(report.profiles) == 8


def test_low_entanglement_midpoint_empty():
    report = nash_equilibria(*bayes_at(0.05 * np.pi, 0.5), 0.0)
    assert report.empty


def membership(reports, names: str) -> list[bool]:
    """Whether the named profile is among each report's equilibria."""
    return [profile_from_names(names) in report.profiles for report in reports]


def test_transition_low_p_profile():
    # tracked low-p equilibrium leaves the set one grid step past p = 1/6
    a1, b1, a2, b2 = games_at(np.pi / 20)
    reports = [nash_equilibria(compose(a1, a2, p), b1, b2, 0.0) for p in P_GRID]
    thresholds = detect_transitions(P_GRID, membership(reports, "IXI"), window=3)
    assert thresholds == (0.17,)
    assert abs(thresholds[0] - 0.16) <= 0.010001
    # and the equilibrium set is empty in a band containing p = 0.5
    by_p = dict(zip(P_GRID, reports))
    assert by_p[0.5].empty

    # the high-p equilibrium appears at 9/14 rounded up to the grid
    appear = detect_transitions(P_GRID, membership(reports, "XYZ"), window=3)
    assert appear == (0.65,)
    # with the shot-analysis tolerance the appearance moves near p ~ 0.55
    loose = [nash_equilibria(compose(a1, a2, p), b1, b2, 0.1) for p in P_GRID]
    appear_loose = detect_transitions(P_GRID, membership(loose, "XYZ"), window=3)
    assert appear_loose == (0.57,)


def test_transition_constant_membership():
    ps = [0.0, 0.01, 0.02, 0.03]
    reports = [nash_equilibria(*bayes_at(0.0, p), 0.0) for p in ps]
    assert detect_transitions(ps, membership(reports, "IXI"), window=3) == ()


def test_transition_ignores_short_blips():
    member = [True, True, False, True, True, True, False, False, False, False]
    ps = [i / 10 for i in range(len(member))]
    thresholds = detect_transitions(ps, member, window=3)
    # the lone dip at p=0.2 is blur; the sustained flip lands at p=0.6
    assert thresholds == (0.6,)


def test_transition_validates_input():
    with pytest.raises(ValueError):
        detect_transitions([], [], window=3)
    member = [True, False]
    with pytest.raises(ValueError, match="ascending"):
        detect_transitions([0.5, 0.4], member, window=3)
    with pytest.raises(ValueError, match="2 membership flags"):
        detect_transitions([0.5], member, window=3)
    with pytest.raises(ValueError, match="window"):
        detect_transitions([0.4, 0.5], member, window=0)


def test_rmsd_identical_tensors():
    tensor = bayes_at(0.1, 0.05)
    assert not nash_equilibria(*tensor, 0.0).empty
    assert rmsd_at_equilibrium(*tensor, nash_equilibria(*tensor, 0.0)) == 0.0


def test_rmsd_uniform_offset():
    reference = bayes_at(0.0, 0.0)
    observed = [values - 1.0 for values in reference]
    assert rmsd_at_equilibrium(*observed, nash_equilibria(*reference, 0.0)) == pytest.approx(1.0, abs=1e-12)


def test_rmsd_requires_reference_equilibrium():
    empty_ref = bayes_at(0.05 * np.pi, 0.5)
    with pytest.raises(NoEquilibriumError):
        rmsd_at_equilibrium(*empty_ref, nash_equilibria(*empty_ref, 0.0))


def test_max_payoff_tie_break_is_lexicographic():
    tensor = bayes_at(0.0, 0.0)
    report = nash_equilibria(*tensor, 0.0)
    # all profiles tie at payoff_A = 11; IXI sorts first, for the reference rule and the stacked pick
    assert oracles.max_payoff_profile(report) == profile_from_names("IXI")
    best = best_equilibria_stack(*(values[None] for values in tensor), 0.0)[0]
    assert best.tolist() == [flat_index(profile_from_names("IXI"))]


def test_reported_payoffs_equal_tensor_entries():
    tensor = bayes_at(0.1 * np.pi, 0.5)
    report = nash_equilibria(*tensor, 0.0)
    assert not report.empty
    for profile, payoff in zip(report.profiles, report.payoffs):
        assert payoff == payoffs_at(tensor, profile)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_solver_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    tensor = random_tensor(rng)
    report = nash_equilibria(*tensor, 0.0)
    got = [(int(i), int(j), int(k)) for i, j, k in report.profiles]
    want = oracles.brute_force_equilibria(*tensor, 0.0)
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
    report = nash_equilibria(*tensor, delta)
    got = [(int(i), int(j), int(k)) for i, j, k in report.profiles]
    assert got == oracles.brute_force_equilibria(*tensor, delta)


@st.composite
def integer_columns(draw, rows=None):
    """A column of P tensors with payoffs in {0, ..., 3}, its (P, 4, 4) B
    arrays either one (4, 4) array repeated down the rows, as the analytic
    grid repeats an angle's, or drawn row by row; P is drawn unless given."""
    rows = draw(st.integers(1, 5)) if rows is None else rows
    payoffs = st.integers(0, 3)
    a = draw(hnp.arrays(np.int64, (rows, 4, 4, 4), elements=payoffs))
    b_shape = draw(st.sampled_from([(4, 4), (rows, 4, 4)]))
    b1 = draw(hnp.arrays(np.int64, b_shape, elements=payoffs))
    b2 = draw(hnp.arrays(np.int64, b_shape, elements=payoffs))
    return a, np.broadcast_to(b1, (rows, 4, 4)), np.broadcast_to(b2, (rows, 4, 4))


@given(column=integer_columns(), delta=st.sampled_from([0.0, 0.1]))
@settings(max_examples=100, deadline=None)
def test_stack_rows_match_single_solves_and_brute_force(column, delta):
    nash, counts, flat, payoffs = nash_columns(*column, delta)
    assert nash.shape == (len(column[0]), 64) and len(counts) == len(column[0])
    assert sum(counts) == len(flat) == nash.sum() and all(len(values) == len(flat) for values in payoffs)
    rows = iter(zip(flat, zip(*payoffs)))
    for n, count in enumerate(counts):
        tensor = row_tensor(column, n)
        single = nash_equilibria(*tensor, delta)
        got = list(itertools.islice(rows, count))
        assert [PROFILES[index] for index, _ in got] == list(single.profiles)
        assert [tuple(row) for _, row in got] == list(single.payoffs)
        assert single.payoffs == tuple(payoffs_at(tensor, pr) for pr in single.profiles)
        assert [int(index) for index, _ in got] == np.flatnonzero(nash[n]).tolist()
        assert [PROFILES[index] for index, _ in got] == oracles.brute_force_equilibria(*tensor, delta)


def flat_index(profile) -> int:
    i, j, k = profile
    return 16 * i + 4 * j + k


def row_tensor(column, n):
    """Row n of a column of tensors as one game's arrays."""
    return synthetic_tensor(*(values[n] for values in column))


def row_reports(column, delta):
    """Each row's `nash_equilibria` report."""
    return [nash_equilibria(*row_tensor(column, n), delta) for n in range(len(column[0]))]


# no pure equilibrium: A wants to match B1's choice, B1 to play A's choice plus one
PENNIES = (
    np.stack([np.zeros((4, 4, 4), dtype=np.int64), np.broadcast_to(np.eye(4, dtype=np.int64)[:, :, None], (4, 4, 4))]),
    np.broadcast_to(np.roll(np.eye(4, dtype=np.int64), 1, axis=1), (2, 4, 4)),
    np.zeros((2, 4, 4), dtype=np.int64),
)


@given(column=integer_columns(), delta=st.sampled_from([0.0, 0.1]))
@example(column=PENNIES, delta=0.0)
@settings(max_examples=150, deadline=None)
def test_best_stack_rows_match_max_payoff_profile_of_the_reports(column, delta):
    # payoffs from {0, ..., 3} make tied best equilibria common
    reports = row_reports(column, delta)
    best, payoffs = best_equilibria_stack(*column, delta)
    assert best.shape == (len(reports),) and payoffs.shape == (len(reports), 3)
    for n, report in enumerate(reports):
        if report.empty:
            assert best[n] == -1
            continue
        profile = oracles.max_payoff_profile(report)
        assert best[n] == flat_index(profile)
        assert tuple(payoffs[n].tolist()) == report.payoffs[report.profiles.index(profile)]


def test_best_stack_marks_rows_without_an_equilibrium():
    reports = row_reports(PENNIES, 0.0)
    assert not reports[0].empty and reports[1].empty
    assert nash_columns(*PENNIES, 0.0)[1] == [len(reports[0].profiles), 0]
    want = [flat_index(oracles.max_payoff_profile(reports[0])), -1]
    assert best_equilibria_stack(*PENNIES, 0.0)[0].tolist() == want


@given(column=integer_columns(), delta=st.sampled_from([0.0, 0.1]))
@example(column=PENNIES, delta=0.0)
@settings(max_examples=60, deadline=None)
def test_columns_are_plain_lists_and_row_reports_whole_records(column, delta):
    # the flat columns follow the row order of the mask, and each row's report is read off them
    _, counts, flat, payoffs = nash_columns(*column, delta)
    assert type(counts) is list and all(type(count) is int for count in counts)
    assert type(flat) is list and all(type(index) is int for index in flat)
    assert type(payoffs) is list and len(payoffs) == 3
    assert all(type(values) is list and all(type(x) is float for x in values) for values in payoffs)
    for report in row_reports(column, delta):
        oracles.assert_whole_report(report)


@st.composite
def columns_with_references(draw):
    """An observed integer column and the stacked references of a second
    integer column, some rows emptied: (best, payoffs) as `best_equilibria_stack`
    gives them, and the matching reports, an emptied row's report empty."""
    a, b1, b2 = draw(integer_columns())
    reference_column, delta = draw(integer_columns(rows=len(a))), draw(st.sampled_from([0.0, 0.1]))
    emptied = np.array(draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a))))
    best, payoffs = best_equilibria_stack(*reference_column, delta)
    reports = row_reports(reference_column, delta)
    reports = [EquilibriumReport((), ()) if e else r for r, e in zip(reports, emptied)]
    return (a, b1, b2), (np.where(emptied, -1, best), payoffs), reports


@given(column=columns_with_references())
@settings(max_examples=100, deadline=None)
def test_rmsd_stack_rows_match_single_rows_bit_for_bit(column):
    # payoffs from {0, ..., 3} make tied best equilibria common
    (a, b1, b2), (best, payoffs), references = column
    got = rmsd_at_equilibrium_stack(a, b1, b2, best, payoffs)
    assert len(got) == len(references)
    for n, (value, reference) in enumerate(zip(got, references)):
        tensor = row_tensor((a, b1, b2), n)
        assert value == oracles.reference_rmsd(*tensor, reference)
        if reference.empty:
            with pytest.raises(NoEquilibriumError):
                rmsd_at_equilibrium(*tensor, reference)
        else:
            assert value == rmsd_at_equilibrium(*tensor, reference)


def test_rmsd_stack_reads_the_tie_broken_best_profile_and_skips_empty_rows():
    tied, empty = bayes_at(0.0, 0.0), bayes_at(0.05 * np.pi, 0.5)
    a, b1, b2 = (np.stack(arrays) for arrays in zip(tied, empty))
    best, payoffs = best_equilibria_stack(a, b1, b2, 0.0)
    assert len(nash_equilibria(*tied, 0.0).profiles) == 8 and nash_equilibria(*empty, 0.0).empty
    assert best.tolist() == [flat_index(profile_from_names("IXI")), -1]
    # shift the observed payoffs only at IXI, the tie-broken best profile
    a[0][profile_from_names("IXI")] += 3.0
    assert rmsd_at_equilibrium_stack(a, b1, b2, best, payoffs) == [np.sqrt(3.0), None]
    with pytest.raises(ValueError, match="2 payoff rows for 1 references"):
        rmsd_at_equilibrium_stack(a, b1, b2, best[:1], payoffs[:1])


@pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]], ids=["profile", "reversed", "shuffled"])
def test_rmsd_of_a_hand_built_report_in_any_order_uses_the_reference_rule(order):
    # XYZ and IZI tie for the highest A payoff; the reference rule takes IZI, the first profile,
    # wherever it sits in the report and whatever the tied payoffs of B
    names, rows = ["ZII", "XYZ", "IZI", "YXX"], [(1.0, 0.0, 0.0), (5.0, 2.0, 2.0), (5.0, 1.0, 3.0), (4.0, 4.0, 4.0)]
    report = EquilibriumReport(tuple(profile_from_names(names[n]) for n in order), tuple(rows[n] for n in order))
    assert oracles.max_payoff_profile(report) == profile_from_names("IZI")
    tensor = random_tensor(np.random.default_rng(11))
    assert rmsd_at_equilibrium(*tensor, report) == oracles.reference_rmsd(*tensor, report)
    observed = payoffs_at(tensor, profile_from_names("IZI"))
    assert rmsd_at_equilibrium(*tensor, report) == float(np.sqrt(np.mean((np.subtract(observed, rows[2])) ** 2)))


def test_rmsd_stack_scales_rows_whose_squares_overflow():
    # differences of 2e300 overflow when squared; such a row is computed scaled by its largest |payoff|,
    # without a warning (RuntimeWarnings fail the tests), and the ordinary row keeps its plain bits
    a, b1, b2 = np.zeros((2, 4, 4, 4)), np.zeros((2, 4, 4)), np.zeros((2, 4, 4))
    a[0, 0, 0, 0], a[1, 0, 0, 0] = 1e300, 3.0
    payoffs = np.array([[-1e300, 0.0, 0.0], [1.0, 0.0, 0.0]])
    got = rmsd_at_equilibrium_stack(a, b1, b2, np.array([0, 0]), payoffs)
    assert got[0] == pytest.approx(2e300 / np.sqrt(3), rel=1e-12) and np.isfinite(got[0])
    assert got[1] == float(np.sqrt(np.mean(np.array([2.0, 0.0, 0.0]) ** 2)))
    report = EquilibriumReport((profile_from_names("III"),), ((-1e300, 1e300, 0.0),))
    assert rmsd_at_equilibrium(a[0], b1[0], b2[0], report) == pytest.approx(1e300 * np.sqrt(5 / 3), rel=1e-12)


def test_negative_delta_rejected():
    tensor = bayes_at(0.1 * np.pi, 0.5)
    message = "delta=-0.1 must be >= 0"
    with pytest.raises(ValueError, match=message):
        nash_equilibria(*tensor, -0.1)
    with pytest.raises(ValueError, match=message):
        nash_columns(*(values[None] for values in tensor), -0.1)
    with pytest.raises(ValueError, match=message):
        best_equilibria_stack(*(values[None] for values in tensor), -0.1)


def test_stack_shape_validation():
    a = np.zeros((3, 4, 4, 4))
    with pytest.raises(ValueError, match=r"got \(4, 4, 4\), \(4, 4\), \(4, 4\)"):
        nash_columns(a[0], np.zeros((4, 4)), np.zeros((4, 4)), 0.0)
    with pytest.raises(ValueError, match=r"got \(3, 4, 4, 4\), \(4, 4\), \(2, 4, 4\)"):
        nash_columns(a, np.zeros((4, 4)), np.zeros((2, 4, 4)), 0.0)
    with pytest.raises(ValueError, match=r"got \(3, 4, 4, 4\), \(4, 4\), \(2, 4, 4\)"):
        best_equilibria_stack(a, np.zeros((4, 4)), np.zeros((2, 4, 4)), 0.0)
    # B payoffs come one row per game: a (4, 4) array shared by the stack is a shape error
    with pytest.raises(ValueError, match=r"then \(P, 4, 4\) twice; got \(3, 4, 4, 4\), \(4, 4\), \(4, 4\)"):
        nash_columns(a, np.zeros((4, 4)), np.zeros((4, 4)), 0.0)
    with pytest.raises(ValueError, match=r"got \(1, 3, 4, 4, 4\), \(1, 4, 4\), \(1, 4, 4\)"):
        nash_equilibria(a, np.zeros((4, 4)), np.zeros((4, 4)), 0.0)


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
    tight = set(nash_equilibria(*tensor, lo).profiles)
    loose = set(nash_equilibria(*tensor, hi).profiles)
    assert tight <= loose


def test_affine_shift_invariance():
    rng = np.random.default_rng(5)
    tensor = random_tensor(rng)
    a, b1, b2 = tensor
    for delta in (0.0, 0.1, 0.5):
        before = nash_equilibria(a, b1, b2, delta).profiles
        after = nash_equilibria(a + 3.7, b1, b2, delta).profiles
        assert before == after

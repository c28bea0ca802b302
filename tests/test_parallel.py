"""Parallelized circuits: branch structure, parsing, game equivalence."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest

from qgame.config import NoiseModel
from qgame.game import Strategy, final_states
from qgame.noise import outcome_law
from qgame.parallel import (
    _BRANCH_INDEX,
    BRANCH_PAIRS,
    N_QUBITS,
    EmptyBranchError,
    Variant,
    branch_distributions,
    build_circuit,
    parse_branches,
)

import oracles
from oracles import branch_indices, branch_map

CHI_GRID = [k * np.pi / 40 for k in range(11)]


def exact_law(variant, chi):
    """Noise-free 32-outcome distribution of one parallelized circuit."""
    return outcome_law(build_circuit(variant, chi), N_QUBITS, chi, NoiseModel())


def direct_law(chi, u_a, u_b):
    return np.abs(final_states(chi)[4 * u_a + u_b]) ** 2


def parsed_pairs(dist, variant) -> dict:
    """`parse_branches`'s rows keyed by the pair the oracle's dense rule gives each branch, in aux-outcome order."""
    return dict(zip(branch_map(variant).values(), parse_branches(dist, variant)))


def test_gate_sequence_layout():
    names = [g.name for g in build_circuit(Variant.I_CIRCUIT, 0.2)]
    assert names == ["H", "H", "H", "J", "CNOT", "CZ", "CZ", "JDAG"]
    x_names = [g.name for g in build_circuit(Variant.X_CIRCUIT, 0.2)]
    assert x_names[-2:] == ["X", "JDAG"]


def test_classical_branches_are_basis_outcomes():
    # chi=0: each branch is the classical outcome of its strategy pair
    dist = exact_law(Variant.I_CIRCUIT, 0.0)
    branches = parsed_pairs(dist, Variant.I_CIRCUIT)
    for (ua, ub), sub in branches.items():
        a = 1 if ua in (Strategy.X, Strategy.Y) else 0
        b = 1 if ub in (Strategy.X, Strategy.Y) else 0
        want = np.zeros(4)
        want[2 * a + b] = 1.0
        np.testing.assert_allclose(sub, want, atol=1e-12)


def test_aux_marginals_uniform():
    for variant in Variant:
        for chi in CHI_GRID:
            dist = exact_law(variant, chi)
            for x in (0, 1):
                for y in (0, 1):
                    for z in (0, 1):
                        marginal = dist[branch_indices(x, y, z)].sum()
                        assert abs(marginal - 0.125) < 1e-12


def test_branch_equals_direct_game_sampled_case():
    dist = exact_law(Variant.X_CIRCUIT, np.pi / 8)
    branches = parsed_pairs(dist, Variant.X_CIRCUIT)
    want = direct_law(np.pi / 8, Strategy.I, Strategy.X)
    np.testing.assert_allclose(branches[(Strategy.I, Strategy.X)], want, atol=1e-10)


def test_exhaustive_game_equivalence():
    # every chi on the grid, every variant, every branch: conditional
    # distribution matches the direct two-qubit game to 1e-10
    for chi in CHI_GRID:
        for variant in Variant:
            dist = exact_law(variant, chi)
            branches = parsed_pairs(dist, variant)
            assert len(branches) == 8
            for (ua, ub), sub in branches.items():
                want = direct_law(chi, ua, ub)
                np.testing.assert_allclose(
                    sub, want, atol=1e-10,
                    err_msg=f"chi={chi} {variant} ({ua.name},{ub.name})",
                )


def test_matches_independent_dense_circuit():
    for variant, tag in ((Variant.I_CIRCUIT, "I"), (Variant.X_CIRCUIT, "X")):
        for chi in (0.0, 0.3, np.pi / 4):
            got = exact_law(variant, chi)
            want = oracles.parallel_distribution_dense(tag, chi)
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_branch_pairs_cover_all_pairs_once():
    assert sorted(BRANCH_PAIRS.ravel().tolist()) == list(range(16))
    # and the oracle's independent mapping table agrees: branch 4x + 2y + z plays pair 4*a + b
    for v, tag in enumerate("IX"):
        for x, y, z in itertools.product((0, 1), repeat=3):
            ua, ub = (oracles.STRATEGY_ORDER.index(name) for name in oracles.branch_pair_dense(tag, x, y, z))
            assert BRANCH_PAIRS[v, 4 * x + 2 * y + z] == 4 * ua + ub


def test_branch_index_holds_each_branch_outcomes():
    # branch 4x + 2y + z reads outcome (A, B, x, y, z) in column 2A + B
    for x, y, z in itertools.product((0, 1), repeat=3):
        assert _BRANCH_INDEX[4 * x + 2 * y + z].tolist() == branch_indices(x, y, z)


def test_phase_equivalent_composite_strategies():
    # branches with (x,y) = (1,1) realize ZX = iY; probabilities match the
    # direct game with an explicit Y
    for chi in (0.1, np.pi / 4):
        dist = exact_law(Variant.I_CIRCUIT, chi)
        branches = parsed_pairs(dist, Variant.I_CIRCUIT)
        for z, ub in ((0, Strategy.I), (1, Strategy.Z)):
            assert BRANCH_PAIRS[0, 6 + z] == 4 * Strategy.Y + ub  # branch (x, y, z) = (1, 1, z)
            want = direct_law(chi, Strategy.Y, ub)
            np.testing.assert_allclose(branches[(Strategy.Y, ub)], want, atol=1e-10)


def test_uniform_population_parses_flat():
    flat = np.full(32, 10.0)
    branches = parse_branches(flat, Variant.I_CIRCUIT)
    assert branches.shape == (8, 4)
    np.testing.assert_allclose(branches, 0.25)


@pytest.mark.parametrize("variant, tag", [(Variant.I_CIRCUIT, "I"), (Variant.X_CIRCUIT, "X")], ids=["I", "X"])
@pytest.mark.parametrize("xyz", list(itertools.product((0, 1), repeat=3)), ids=lambda xyz: "".join(map(str, xyz)))
def test_empty_branch_rejected(variant, tag, xyz):
    # the message lands in sweep.json's cells.error column
    counts = np.full(32, 5.0)
    counts[branch_indices(*xyz)] = 0.0
    x, y, z = xyz
    message = f"branch (x,y,z)=({x},{y},{z}) of {tag}-circuit has zero population"
    with pytest.raises(EmptyBranchError, match=f"^{re.escape(message)}$"):
        parse_branches(counts, variant)


@pytest.mark.parametrize("variant", list(Variant))
def test_stack_rows_match_single_calls(variant):
    rng = np.random.default_rng(31)
    stack = rng.integers(1, 60, size=(2, 5, 32)).astype(float) * rng.random((2, 5, 32))
    stack[1, 2, branch_indices(0, 1, 1)] = 0.0
    stack[0, 4, branch_indices(1, 1, 0)] = 0.0
    stack[0, 4, branch_indices(0, 0, 1)] = 0.0  # the first empty branch names the error
    dists, totals = branch_distributions(stack)
    empty = totals <= 0
    assert empty.any(axis=-1).sum() == 2
    keys = list(branch_map(variant))
    for index in np.ndindex(stack.shape[:-1]):
        np.testing.assert_array_equal(totals[index], [stack[index][branch_indices(*key)].sum() for key in keys])
        if not empty[index].any():
            np.testing.assert_array_equal(parse_branches(stack[index], variant), dists[index])
            continue
        with pytest.raises(EmptyBranchError) as caught:
            parse_branches(stack[index], variant)
        x, y, z = keys[np.flatnonzero(empty[index])[0]]
        assert str(caught.value) == f"branch (x,y,z)=({x},{y},{z}) of {variant.value}-circuit has zero population"


def test_chi_out_of_range_rejected():
    with pytest.raises(ValueError):
        build_circuit(Variant.I_CIRCUIT, np.pi)


def test_bad_population_shape_rejected():
    with pytest.raises(ValueError):
        parse_branches(np.ones(16), Variant.I_CIRCUIT)
    with pytest.raises(ValueError):
        parse_branches(-np.ones(32), Variant.I_CIRCUIT)

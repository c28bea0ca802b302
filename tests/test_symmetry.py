"""Symmetries of the Bayesian game, checked on the default analytic sweep with
no reference code: each test runs the sweep on a transformed config and maps
its Nash sets and payoffs back to the original run's.

- Swapping the B1 and B2 payoff rows and mapping p to 1 - p relabels the
  types: profile (i, j, k) becomes (i, k, j), and the B1 and B2 payoffs trade
  places.
- A positive affine map of one player's payoffs in every game it plays moves
  no best response, so no Nash set changes, and the payoffs follow the map.
- Scaling a player's payoffs by c > 0 scales the gaps that delta bounds, so
  the sets stay put when delta scales with them.
- Scaling A's payoffs in one game alone reweights the types, so some sets
  change: the negative control that shows the checks can fail. The change is
  exactly a move of p, which a second run at the moved p values reproduces.
- J(chi) commutes with X on either qubit, so flipping one player's outcome
  bit in a game's payoff rows is that player's strategy relabelled by X:
  I <-> X and Y <-> Z, in that game's slot of every profile.

The last two tell B1's slot from B2's, which the swap cannot: a solver that
masks B1's best responses along B2's axis, or gathers a type's payoffs at the
other type's strategy, maps through the swap and every affine map unchanged.
"""

from dataclasses import replace

import numpy as np
import pytest

from qgame import ExperimentConfig, run_sweep

BASE = ExperimentConfig()  # analytic, 11 angles x 101 p values, delta 0


def equilibria(config: ExperimentConfig) -> list[dict]:
    """Each cell's Nash set, in run_sweep's chi-major order: profile name -> (A, B1, B2) payoffs."""
    result = run_sweep(config)
    eq, cells, start = result.equilibrium_columns, [], 0
    for count in result.cell_columns.n_equilibria:
        span = range(start, start + count)
        cells.append({eq.profile[m]: (eq.payoff_A[m], eq.payoff_B1[m], eq.payoff_B2[m]) for m in span})
        start += count
    return cells


def mapped_rows(rows, a=lambda value: value, b=lambda value: value) -> np.ndarray:
    """Payoff rows [outcome A][outcome B] = [A's payoff, B's payoff] with `a` applied to A's and `b` to B's."""
    rows = np.array(rows, dtype=float)
    return np.stack([a(rows[..., 0]), b(rows[..., 1])], axis=-1)


def assert_same_sets(original: list[dict], transformed: list[dict], payoffs=lambda values: values) -> None:
    """Every cell has the same Nash set in both runs, and `payoffs` takes each
    equilibrium's original payoffs to the transformed run's within 1e-12."""
    changed = sum(set(cell) != set(other) for cell, other in zip(original, transformed))
    assert len(original) == len(transformed) and changed == 0, f"{changed} of {len(original)} Nash sets changed"
    pairs = [(payoffs(values), other[profile]) for cell, other in zip(original, transformed)
             for profile, values in cell.items()]
    np.testing.assert_allclose(*np.array(pairs).transpose(1, 0, 2), rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def original() -> list[dict]:
    return equilibria(BASE)


def test_swapping_the_types_and_p_relabels_every_equilibrium(original):
    # p -> 1 - p reverses the grid; 40 of the 101 values 1 - p differ from the mirrored grid value in the last bit
    swapped = replace(BASE, payoff_rows_b1=BASE.payoff_rows_b2, payoff_rows_b2=BASE.payoff_rows_b1,
                      p_grid=tuple(1.0 - p for p in reversed(BASE.p_grid)))
    cells, n_p = equilibria(swapped), len(BASE.p_grid)
    mirrored = [cell for start in range(0, len(cells), n_p) for cell in reversed(cells[start:start + n_p])]
    relabelled = [{i + k + j: (pay_a, pay_b2, pay_b1) for (i, j, k), (pay_a, pay_b1, pay_b2) in cell.items()}
                  for cell in original]
    assert_same_sets(relabelled, mirrored)


def test_affine_map_of_b1s_payoffs(original):
    config = replace(BASE, payoff_rows_b1=mapped_rows(BASE.payoff_rows_b1, b=lambda b: 2 * b + 3))
    assert_same_sets(original, equilibria(config), lambda v: (v[0], 2 * v[1] + 3, v[2]))


def test_affine_map_of_as_payoffs_in_both_games(original):
    def a_map(a):
        return 0.5 * a - 1

    config = replace(BASE, payoff_rows_b1=mapped_rows(BASE.payoff_rows_b1, a=a_map),
                     payoff_rows_b2=mapped_rows(BASE.payoff_rows_b2, a=a_map))
    assert_same_sets(original, equilibria(config), lambda v: (a_map(v[0]), v[1], v[2]))


C = 3.0  # not a power of two, so the scaled payoffs round differently


# One delta bounds all three players' gaps, so one player's payoffs scale alone only at delta 0,
# where delta times c is still delta; at delta 0.1, scaling A's payoffs alone by 3 changed 235 sets.
# With delta > 0 every player's payoffs scale with it.
@pytest.mark.parametrize(
    "delta, scale_a, scale_b1, scale_b2",
    [(0.0, C, 1.0, 1.0), (0.0, 1.0, C, 1.0), (0.0, 1.0, 1.0, C), (0.1, C, C, C)],
    ids=["A", "B1", "B2", "every-player-delta-0.1"],
)
def test_scaling_payoffs_and_delta_together(original, delta, scale_a, scale_b1, scale_b2):
    unscaled = original if delta == 0.0 else equilibria(replace(BASE, delta=delta))
    config = replace(
        BASE,
        delta=C * delta,
        payoff_rows_b1=mapped_rows(BASE.payoff_rows_b1, a=lambda a: scale_a * a, b=lambda b: scale_b1 * b),
        payoff_rows_b2=mapped_rows(BASE.payoff_rows_b2, a=lambda a: scale_a * a, b=lambda b: scale_b2 * b),
    )
    scales = (scale_a, scale_b1, scale_b2)
    assert_same_sets(unscaled, equilibria(config), lambda v: tuple(s * x for s, x in zip(scales, v)))


def test_scaling_as_payoffs_in_one_game_changes_some_sets(original):
    # the negative control: it reweights the two types against p; 200 of 1111 sets change
    config = replace(BASE, payoff_rows_b1=mapped_rows(BASE.payoff_rows_b1, a=lambda a: 3 * a))
    changed = sum(set(cell) != set(other) for cell, other in zip(original, equilibria(config)))
    assert 0 < changed < len(original)


def test_scaling_as_payoffs_in_one_game_is_a_move_of_p(original):
    # p c a1 + (1 - p) a2 is (c p + 1 - p) times the game at p' = c p / (c p + 1 - p), and a positive
    # factor on A's payoffs moves no set at delta 0
    p = np.array(BASE.p_grid)
    weight = C * p + 1 - p
    scaled = equilibria(replace(BASE, payoff_rows_b1=mapped_rows(BASE.payoff_rows_b1, a=lambda a: C * a)))
    moved = equilibria(replace(BASE, p_grid=tuple((C * p / weight).tolist())))
    factors = np.tile(weight, len(BASE.chi_grid_pi)).tolist()  # one per cell, chi-major
    assert_same_sets([{name: (factor * pay_a, pay_b1, pay_b2) for name, (pay_a, pay_b1, pay_b2) in cell.items()}
                      for cell, factor in zip(moved, factors)], scaled)


RELABEL_BY_X = str.maketrans("IXYZ", "XIZY")  # the strategy U -> X U, up to a global phase


@pytest.mark.parametrize(
    "slot, rows_b1, rows_b2",
    [
        (0, lambda rows: rows[::-1], lambda rows: rows[::-1]),  # A's bit, in both games
        (1, lambda rows: rows[:, ::-1], lambda rows: rows),  # B's bit in B1's game
        (2, lambda rows: rows, lambda rows: rows[:, ::-1]),  # B's bit in B2's game
    ],
    ids=["A", "B1", "B2"],
)
def test_flipping_an_outcome_bit_relabels_that_players_strategy(original, slot, rows_b1, rows_b2):
    # rows[outcome A][outcome B]: reversing an axis flips that player's bit, and X U then earns what U did
    config = replace(BASE, payoff_rows_b1=rows_b1(np.array(BASE.payoff_rows_b1)),
                     payoff_rows_b2=rows_b2(np.array(BASE.payoff_rows_b2)))

    def relabelled(name):
        return name[:slot] + name[slot].translate(RELABEL_BY_X) + name[slot + 1:]

    assert_same_sets([{relabelled(name): values for name, values in cell.items()} for cell in original],
                     equilibria(config))

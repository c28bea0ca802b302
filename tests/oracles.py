"""Independent reference implementations used only by the test suite.

Everything here is deliberately written the slow, obvious way: explicit
dense matrices built by index arithmetic, plain triple loops for the
equilibrium search. No code is shared with the package so that agreement
between the two is meaningful. The exceptions are `reference_payoff_tensor`,
which evolves each strategy pair on its own through the package's gate
apply so its bits pin the stacked `payoff_tensor`,
`reference_analytic_reports` and `reference_shot_sweep`, which check the
sweep's batched columns against the package's own single-cell functions
run cell by cell, on streams from `reference_child_rng`, one numpy
SeedSequence per key, `reference_sweep_records`, which runs the sweep's own
stages and builds its records one cell at a time,
`reference_outcome_law`, which evolves the package's density matrices at
each call's own shifted angles instead of reusing cached node values,
`reference_verify_rows`, which checks the package's circuit laws against
its two-qubit game branch by branch through `branch_map`'s per-variant dict
of pairs instead of the shared branch table, `result_from_records`, which
builds a sweep's columns from hand-built records, and
`reference_write_csv` and `reference_emit`, which write tables and a sweep
through the stdlib's csv and json encoders, and `assert_whole_report` and
`assert_whole_cell`, which check a record's class and every field by type,
since a named tuple equals a plain tuple of its fields.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from dataclasses import asdict

import numpy as np

SI = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SH = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PAULI = {"I": SI, "X": SX, "Y": SY, "Z": SZ}
STRATEGY_ORDER = ("I", "X", "Y", "Z")


def entangler(chi: float) -> np.ndarray:
    """cos(chi) on the diagonal, -i sin(chi) on the anti-diagonal."""
    c, s = np.cos(chi), np.sin(chi)
    return np.array(
        [
            [c, 0, 0, -1j * s],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [-1j * s, 0, 0, c],
        ],
        dtype=complex,
    )


def embed(mat: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Expand a 2^k x 2^k matrix on `targets` to the full 2^n x 2^n matrix.

    Qubit 0 is the most significant index bit. Pure index arithmetic, no
    reshape tricks, so it cross-checks the package's tensor path.
    """
    size = 2**n
    full = np.zeros((size, size), dtype=complex)
    rest = [q for q in range(n) if q not in targets]
    for i in range(size):
        for j in range(size):
            if any((i >> (n - 1 - q)) & 1 != (j >> (n - 1 - q)) & 1 for q in rest):
                continue
            si = sj = 0
            for t in targets:
                si = (si << 1) | ((i >> (n - 1 - t)) & 1)
                sj = (sj << 1) | ((j >> (n - 1 - t)) & 1)
            full[i, j] = mat[si, sj]
    return full


def final_state_dense(chi: float, u_a: str, u_b: str) -> np.ndarray:
    """Two-player protocol state by explicit dense 4x4 matrix products."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    u = entangler(-chi) @ np.kron(PAULI[u_a], PAULI[u_b]) @ entangler(chi)
    return u @ psi


def game_distribution_dense(chi: float, u_a: str, u_b: str) -> np.ndarray:
    return np.abs(final_state_dense(chi, u_a, u_b)) ** 2


def expected_payoff_dense(dist: np.ndarray, rows) -> tuple[float, float]:
    """rows[a][b] = (payoff_A, payoff_B); dist over outcomes 2*a + b."""
    pay_a = pay_b = 0.0
    for a in range(2):
        for b in range(2):
            pay_a += dist[2 * a + b] * rows[a][b][0]
            pay_b += dist[2 * a + b] * rows[a][b][1]
    return pay_a, pay_b


def game_tensor_dense(chi: float, rows) -> tuple[np.ndarray, np.ndarray]:
    """4x4 (A payoff, B payoff) arrays indexed by strategy order I,X,Y,Z."""
    pa = np.zeros((4, 4))
    pb = np.zeros((4, 4))
    for i, sa in enumerate(STRATEGY_ORDER):
        for j, sb in enumerate(STRATEGY_ORDER):
            dist = game_distribution_dense(chi, sa, sb)
            pa[i, j], pb[i, j] = expected_payoff_dense(dist, rows)
    return pa, pb


def bayes_tensor_dense(chi: float, rows_b1, rows_b2, p: float):
    """Returns (a, b1, b2): a is 4x4x4, b1 and b2 are 4x4."""
    a1, b1 = game_tensor_dense(chi, rows_b1)
    a2, b2 = game_tensor_dense(chi, rows_b2)
    a = np.zeros((4, 4, 4))
    for i in range(4):
        for j in range(4):
            for k in range(4):
                a[i, j, k] = p * a1[i, j] + (1 - p) * a2[i, k]
    return a, b1, b2


TIE_EPS = 1e-9  # float-tie slack shared with the solver's delta=0 contract


def brute_force_equilibria(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, delta: float):
    """All 64 profiles checked directly against unilateral deviations."""
    found = []
    for i in range(4):
        for j in range(4):
            for k in range(4):
                best_a = max(a[ii, j, k] for ii in range(4))
                best_b1 = max(b1[i, jj] for jj in range(4))
                best_b2 = max(b2[i, kk] for kk in range(4))
                if (
                    a[i, j, k] >= best_a - delta - TIE_EPS
                    and b1[i, j] >= best_b1 - delta - TIE_EPS
                    and b2[i, k] >= best_b2 - delta - TIE_EPS
                ):
                    found.append((i, j, k))
    return found


CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
FIXED_GATES = {"H": SH, "X": SX, "CNOT": CNOT, "CZ": CZ}
CALIBRATION_GATES = (("J", (0, 1)),)


def parallel_gates(variant: str) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(gate name, targets) of the parallelized circuit, in order.

    Qubits (A, B, aux1, aux2, aux3) = indices (0, 1, 2, 3, 4); two-qubit
    targets are (control, target). J and JDAG take the run's angle.
    """
    gates = [("H", (2,)), ("H", (3,)), ("H", (4,)), ("J", (0, 1)), ("CNOT", (2, 0)), ("CZ", (3, 0)), ("CZ", (4, 1))]
    if variant == "X":
        gates.append(("X", (1,)))
    gates.append(("JDAG", (0, 1)))
    return tuple(gates)


def gate_matrix(name: str, chi: float) -> np.ndarray:
    if name == "J":
        return entangler(chi)
    if name == "JDAG":
        return entangler(-chi)
    return FIXED_GATES[name]


def parallel_distribution_dense(variant: str, chi: float) -> np.ndarray:
    """Exact 32-outcome distribution of the parallelized circuit, built as
    a product of embedded dense unitaries on the full 32-dim space."""
    n = 5
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    for name, targets in parallel_gates(variant):
        psi = embed(gate_matrix(name, chi), targets, n) @ psi
    return np.abs(psi) ** 2


def trajectory_counts(
    gates,
    n: int,
    chi: float,
    shots: int,
    seed: int,
    *,
    sigma: float = 0.0,
    depol_1q: float = 0.0,
    depol_2q: float = 0.0,
    flip_01: float = 0.0,
    flip_10: float = 0.0,
) -> np.ndarray:
    """Outcome counts of `shots` runs, simulated one trajectory per shot.

    Every shot draws its own angle chi + N(0, sigma^2), shared by all its J
    and JDAG gates; after each gate, with probability depol_1q or depol_2q,
    its own uniform non-identity Pauli on the gate's targets; its own
    measurement; and its own readout flip per qubit (0->1 with flip_01,
    1->0 with flip_10).

    Shots with the same Pauli insertions share every fixed matrix, so those
    are applied once per insertion pattern. The angle enters through
    entangler(x) = cos(x) entangler(0) + sin(x) entangler(+-pi/2), so after
    m entangling gates a shot's state is sum_j cos^(m-j) sin^j terms[j], and
    each shot's own angle is applied to its own pattern's terms.
    """
    rng = np.random.default_rng(seed)
    size = 2**n
    angles = chi + sigma * rng.standard_normal(shots)
    # insertion pattern: 4 bits per gate hold its Pauli code, 0 for none
    keys = np.zeros(shots, dtype=np.int64)
    for g, (_, targets) in enumerate(gates):
        k = len(targets)
        hit = rng.random(shots) < (depol_2q if k == 2 else depol_1q)
        keys[hit] |= rng.integers(1, 4**k, size=int(hit.sum())) << (4 * g)
    patterns, pattern_of_shot = np.unique(keys, return_inverse=True)

    single = {(q, axis): embed(PAULI["IXYZ"[axis]], (q,), n) for q in range(n) for axis in (1, 2, 3)}
    start = np.zeros((len(patterns), size), dtype=complex)
    start[:, 0] = 1.0
    terms = [start]  # rows are patterns; terms[j] multiplies cos^(m-j) sin^j
    for g, (name, targets) in enumerate(gates):
        if name in ("J", "JDAG"):
            quarter = np.pi / 2 if name == "J" else -np.pi / 2
            cos_part = embed(entangler(0.0), targets, n).T
            sin_part = embed(entangler(quarter), targets, n).T
            zero = np.zeros_like(start)
            terms = [
                (terms[j] @ cos_part if j < len(terms) else zero) + (terms[j - 1] @ sin_part if j else zero)
                for j in range(len(terms) + 1)
            ]
        else:
            full = embed(FIXED_GATES[name], targets, n).T
            terms = [term @ full for term in terms]
        codes = (patterns >> (4 * g)) & 15
        for code in np.unique(codes[codes > 0]):
            pauli = np.eye(size, dtype=complex)
            for position, q in enumerate(targets):
                axis = (int(code) >> (2 * position)) & 3
                if axis:
                    pauli = single[(q, axis)] @ pauli
            rows = codes == code
            for term in terms:
                term[rows] = term[rows] @ pauli.T

    degree = len(terms) - 1
    chunk = 20_000  # shots per block; bounds the (shots, 2**n) work arrays
    outcomes = np.empty(shots, dtype=np.int64)
    for lo in range(0, shots, chunk):
        hi = min(lo + chunk, shots)
        c = np.cos(angles[lo:hi])[:, None]
        s = np.sin(angles[lo:hi])[:, None]
        rows = pattern_of_shot[lo:hi]
        psi = sum(c ** (degree - j) * s**j * terms[j][rows] for j in range(degree + 1))
        cdf = np.cumsum(np.abs(psi) ** 2, axis=1)
        draws = rng.random(hi - lo) * cdf[:, -1]
        outcomes[lo:hi] = np.minimum((cdf < draws[:, None]).sum(axis=1), size - 1)
    for q in range(n):
        bit = 1 << (n - 1 - q)
        draws = rng.random(shots)
        is_one = (outcomes & bit) != 0
        outcomes[np.where(is_one, draws < flip_10, draws < flip_01)] ^= bit
    return np.bincount(outcomes, minlength=size)


def crosstalk_map_dense(gamma: float, n_qubits: int) -> np.ndarray:
    """The readout crosstalk map built one dense 2^n x 2^n step per ordered
    adjacent pair (a, b), state by state: a state with a bright and b dark
    keeps its population with 1 - gamma and moves gamma to b bright."""
    size = 2**n_qubits
    total = np.eye(size)
    for src in range(n_qubits - 1):
        for a, b in ((src, src + 1), (src + 1, src)):
            step = np.zeros((size, size))
            bit_a = 1 << (n_qubits - 1 - a)
            bit_b = 1 << (n_qubits - 1 - b)
            for s in range(size):
                if (s & bit_a) and not (s & bit_b):
                    step[s, s] = 1 - gamma
                    step[s | bit_b, s] = gamma
                else:
                    step[s, s] = 1.0
            total = step @ total
    return total


def reference_outcome_law(gates, n: int, nominal_chi: float, noise) -> np.ndarray:
    """`noise.outcome_law` evaluated per angle: the density matrices evolve
    at nominal + offset + each quadrature node, and the node weights carry
    no shift."""
    from qgame.noise import _noisy_diagonals, readout_matrix

    degree = 2 * sum(gate.name in ("J", "JDAG") for gate in gates)
    nodes = 2 * np.pi * np.arange(2 * degree + 1) / (2 * degree + 1)
    freqs = np.arange(1, degree + 1)
    damping = np.exp(-0.5 * (freqs * noise.chi_jitter_sigma) ** 2)
    weights = (1 + 2 * damping @ np.cos(np.outer(freqs, nodes))) / len(nodes)
    chi = nominal_chi + noise.chi_offset
    probs = weights @ _noisy_diagonals(gates, n, chi + nodes, noise.single_qubit_depol, noise.two_qubit_depol)
    probs = np.clip(readout_matrix(noise, n) @ probs, 0.0, None)
    return probs / probs.sum()


def branch_pair_dense(variant: str, x: int, y: int, z: int) -> tuple[str, str]:
    """Strategy pair evaluated by aux outcome (x, y, z)."""
    u_a = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}[(x, y)]
    if variant == "I":
        u_b = "Z" if z else "I"
    else:
        u_b = "Y" if z else "X"
    return u_a, u_b


def branch_indices(x: int, y: int, z: int) -> list[int]:
    """Flat outcome indices of (A, B, x, y, z) for the four (A, B) values, qubit 0 most significant."""
    return [16 * a + 8 * b + 4 * x + 2 * y + z for a in (0, 1) for b in (0, 1)]


def branch_map(variant) -> dict:
    """A circuit variant's {(x, y, z): (U_A, U_B)} table of `branch_pair_dense`, in aux-outcome order."""
    from qgame.game import Strategy

    return {xyz: tuple(Strategy[name] for name in branch_pair_dense(variant.value, *xyz))
            for xyz in itertools.product((0, 1), repeat=3)}


def reference_verify_rows(chi_grid_pi, branch_maps=None) -> list[dict]:
    """`verify_parallelization`'s rows from a dict-based loop: each branch
    parsed on its own by `branch_indices` into a {pair: distribution} dict
    built from the variant's `branch_map`, then each pair looked up in
    canonical branch-map order. `branch_maps` substitutes a variant's
    (x, y, z) -> pair mapping, as a negative control."""
    from qgame.game import final_states
    from qgame.config import NoiseModel
    from qgame.noise import outcome_law
    from qgame.parallel import N_QUBITS, Variant, build_circuit

    rows = []
    for chi_pi in chi_grid_pi:
        chi = float(chi_pi) * np.pi
        direct_dists = np.abs(final_states(chi)) ** 2  # row 4*a + b per strategy pair (a, b)
        for variant in Variant:
            dist = outcome_law(build_circuit(variant, chi), N_QUBITS, chi, NoiseModel())
            branches = itertools.product(range(2), repeat=3)
            aux_dev = max(float(abs(dist[branch_indices(*xyz)].sum() - 0.125)) for xyz in branches)
            mapping = (branch_maps or {}).get(variant, branch_map(variant))
            parsed = {}
            for xyz, pair in mapping.items():
                sub = dist[branch_indices(*xyz)]
                parsed[pair] = sub / sub.sum()
            max_linf, worst = 0.0, ""
            for a, b in branch_map(variant).values():
                missing = (a, b) not in parsed
                linf = 1.0 if missing else float(np.abs(parsed[a, b] - direct_dists[4 * a + b]).max())
                if missing or linf > max_linf:
                    max_linf, worst = linf, a.name + b.name
            passed = max_linf < 1e-10 and aux_dev < 1e-12
            rows.append({"chi_pi": float(chi_pi), "variant": variant.value, "max_linf": max_linf,
                         "aux_marginal_dev": aux_dev, "passed": passed, "worst_branch": worst})
    return rows


def reference_payoff_tensor(chi: float, table):
    """A game's (A, B) 4x4 payoff arrays, one strategy pair at a time: each
    pair's protocol state from its own four single-vector gate applications,
    its payoffs from its own distribution."""
    from qgame.game import STRATEGIES, tensor_from_distributions
    from qgame.statevector import Gate, apply_gate, check_chi

    check_chi(chi)
    pay_a, pay_b = np.empty((4, 4)), np.empty((4, 4))
    for i in STRATEGIES:
        for j in STRATEGIES:
            amps = np.zeros(4, dtype=np.complex128)
            amps[0] = 1.0
            for gate in (Gate("J", (0, 1)), Gate(i.name, (0,)), Gate(j.name, (1,)), Gate("JDAG", (0, 1))):
                amps = apply_gate(amps, gate, chi)
            pay_a[i, j], pay_b[i, j] = tensor_from_distributions(np.abs(amps) ** 2, table)
    return pay_a, pay_b


def reference_analytic_reports(chi: float, tables, p_grid, delta: float):
    """Exact equilibrium reports at angle chi (radians), one Bayesian
    game composed and solved per p."""
    from qgame.bayesian import compose
    from qgame.equilibrium import nash_equilibria
    from qgame.game import payoff_tensor

    (a1, b1), (a2, b2) = payoff_tensor(chi, tables[0]), payoff_tensor(chi, tables[1])
    return [nash_equilibria(compose(a1, a2, p), b1, b2, delta) for p in p_grid]


def result_from_records(config, cells, transitions, chi_measurements):
    """The `SweepResult` of hand-built `CellResult` records, in their order: its columns, cell by cell."""
    from qgame.game import profile_names
    from qgame.sweep import CellColumns, EquilibriumColumns, SweepResult

    chis, measured, ps, reports, rmsds, errors = tuple(zip(*cells)) or ((),) * 6
    solved = [report for report in reports if report is not None]
    counts = tuple(None if report is None else len(report.profiles) for report in reports)
    names = tuple(profile_names(profile) for report in solved for profile in report.profiles)
    payoffs = tuple(zip(*(row for report in solved for row in report.payoffs))) or ((),) * 3
    return SweepResult(config, CellColumns(chis, measured, ps, counts, rmsds, errors),
                       EquilibriumColumns(names, *payoffs), tuple(transitions), tuple(chi_measurements))


def assert_whole_report(report) -> None:
    """An `EquilibriumReport` with both fields: a tuple of (Strategy, Strategy,
    Strategy) profiles and a tuple of (float, float, float) payoff rows, one per profile."""
    from qgame.equilibrium import EquilibriumReport
    from qgame.game import Strategy

    assert type(report) is EquilibriumReport and len(report) == len(EquilibriumReport._fields)
    assert type(report.profiles) is tuple and type(report.payoffs) is tuple
    assert len(report.profiles) == len(report.payoffs)
    for profile, payoffs in zip(report.profiles, report.payoffs):
        assert type(profile) is tuple and len(profile) == 3 and all(type(s) is Strategy for s in profile)
        assert type(payoffs) is tuple and len(payoffs) == 3 and all(type(x) is float for x in payoffs)


def assert_whole_cell(cell) -> None:
    """A `CellResult` with all six fields, equal to the one its class builds
    from them, and a whole report unless it failed."""
    from qgame.sweep import CellResult

    assert type(cell) is CellResult and len(cell) == len(CellResult._fields)
    assert cell == CellResult(*cell)
    if cell.report is not None:
        assert_whole_report(cell.report)


def reference_rmsd_rows(result) -> list[dict]:
    """`rmsd_analysis` rows by a scan of every cell for each grid angle."""
    rows = []
    for chi_pi in result.config.chi_grid_pi:
        cells = [c for c in result.cells if c.chi_nominal_pi == chi_pi]
        values = [c.rmsd for c in cells if c.rmsd is not None]
        rows.append({
            "chi_nominal_pi": chi_pi,
            "chi_measured_pi": cells[0].chi_measured_pi if cells else None,
            "mean_rmsd": float(np.mean(values)) if values else None,
            "max_rmsd": float(np.max(values)) if values else None,
            "n_cells": len(values),
        })
    return rows


def max_payoff_profile(report):
    """The report's equilibrium with the highest payoff_A; ties break toward
    the lexicographically first profile. The reference rule that
    `best_equilibria_stack` and `rmsd_at_equilibrium` are tested against."""
    from qgame.equilibrium import NoEquilibriumError

    if report.empty:
        raise NoEquilibriumError("report has no equilibria")
    ranked = sorted(zip(report.profiles, report.payoffs), key=lambda pp: (-pp[1][0], pp[0]))
    return ranked[0][0]


def reference_rmsd(a, b1, b2, reference):
    """RMSD of one game's observed payoffs from the reference report at its
    best equilibrium, gathered entry by entry; None for an empty report."""
    if reference.empty:
        return None
    profile = max_payoff_profile(reference)
    i, j, k = profile
    obs = np.array((a[i, j, k], b1[i, j], b2[i, k]), dtype=float)
    ref = np.array(reference.payoffs[reference.profiles.index(profile)])
    return float(np.sqrt(np.mean((obs - ref) ** 2)))


def reference_child_rng(seed: int, *key: int) -> np.random.Generator:
    """A keyed child stream built the documented numpy way, one SeedSequence
    per key. `noise.child_rng` makes the same call; the tests draw from this
    copy so that a change to the package's derivation shows as moved draws."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def reference_shot_sweep(config):
    """A shot-mode sweep run one grid cell at a time.

    Each angle draws its pools from its one keyed split stream, one
    binomial call per (variant, p) row: every p of the I-circuit, then every
    p of the X-circuit. Each cell then falls back to the full dataset for an
    empty pool, SPAM-corrects and parses
    each pool (I-circuit before X, B1 before B2, correction before parsing,
    so the first failure names the cell's error; a branch is empty when the
    raw pool or the corrected one has nothing in it), builds and composes the
    tensors, solves them, and reads the RMSD (`reference_rmsd`) against the
    analytic report at the measured angle. Returns (cells, transitions, chi_measurements) laid
    out as in `run_sweep`'s result.
    """
    from qgame.bayesian import compose
    from qgame.equilibrium import detect_transitions, nash_equilibria
    from qgame.game import STRATEGIES, payoff_tensor, profile_from_names, tensor_from_distributions
    from qgame.noise import (
        PURPOSE_CALIBRATION,
        PURPOSE_SAMPLE,
        PURPOSE_SPLIT,
        SpamCorrectionError,
        measure_chi,
        sample_outcomes,
        spam_correct,
    )
    from qgame.parallel import N_QUBITS, EmptyBranchError, Variant, build_circuit, parse_branches
    from qgame.statevector import CHI_MAX
    from qgame.sweep import CellResult

    tables = config.tables
    delta = config.effective_delta
    cells, transitions, measurements = [], [], []
    for chi_pi in config.chi_grid_pi:
        chi, chi_key = chi_pi * np.pi, round(chi_pi * 10**6)
        counts = [
            sample_outcomes(
                build_circuit(variant, chi),
                N_QUBITS,
                chi,
                config.noise,
                config.shots,
                reference_child_rng(config.seed, chi_key, v, PURPOSE_SAMPLE),
            )
            for v, variant in enumerate(Variant)
        ]
        calibration_rng = reference_child_rng(config.seed, chi_key, 0, PURPOSE_CALIBRATION)
        estimate = measure_chi(config.noise, chi, config.calibration_shots, calibration_rng)
        measurements.append((chi_pi, estimate))
        chi_ref = min(max(estimate.value, 0.0), CHI_MAX)
        (ref_a1, ref_b1), (ref_a2, ref_b2) = payoff_tensor(chi_ref, tables[0]), payoff_tensor(chi_ref, tables[1])
        split_rng = reference_child_rng(config.seed, chi_key, 0, PURPOSE_SPLIT)
        to_b1 = [[split_rng.binomial(counts[v], p) for p in config.p_grid] for v in range(len(Variant))]
        column = []
        for n, p in enumerate(config.p_grid):
            try:
                dists = ({}, {})
                for v, variant in enumerate(Variant):
                    for t, pool in enumerate((to_b1[v][n], counts[v] - to_b1[v][n])):
                        if pool.sum() == 0:
                            pool = counts[v]
                        corrected = spam_correct(pool, config.noise)
                        parse_branches(pool, variant)  # a branch without raw shots is empty
                        dists[t].update(parse_branches(corrected, variant))
            except (SpamCorrectionError, EmptyBranchError) as exc:
                column.append(CellResult(chi_pi, chi_ref / np.pi, p, None, None, error=str(exc)))
                continue
            (obs_a1, obs_b1), (obs_a2, obs_b2) = (
                tensor_from_distributions([[d[(i, j)] for j in STRATEGIES] for i in STRATEGIES], table)
                for d, table in zip(dists, tables)
            )
            observed = (compose(obs_a1, obs_a2, p), obs_b1, obs_b2)
            reference = nash_equilibria(compose(ref_a1, ref_a2, p), ref_b1, ref_b2, delta)
            rmsd = reference_rmsd(*observed, reference)
            column.append(CellResult(chi_pi, chi_ref / np.pi, p, nash_equilibria(*observed, delta), rmsd))
        solved = [cell for cell in column if cell.report is not None]
        thresholds = None
        if solved:
            tracked = profile_from_names(config.tracked_profile)
            thresholds = detect_transitions(
                [cell.p for cell in solved],
                [tracked in cell.report.profiles for cell in solved],
                config.transition_window,
            )
        transitions.append((chi_pi, thresholds))
        cells.extend(column)
    return cells, transitions, measurements


def reference_sweep_records(config):
    """`run_sweep`'s cells and transitions built the old per-cell way: the
    sweep's own stages (`_analytic_payoffs`, and in shot mode `_sample`,
    `best_equilibria_stack`, `_reduce`, `compose` and
    `rmsd_at_equilibrium_stack`), then one `nash_equilibria` solve, one
    `EquilibriumReport` and one `CellResult` per cell, each made by its class,
    and each angle's transitions from the tracked profile's membership in
    every solved cell's report. Returns (cells, transitions)."""
    from qgame.bayesian import compose
    from qgame.equilibrium import (
        EquilibriumReport,
        best_equilibria_stack,
        detect_transitions,
        nash_equilibria,
        rmsd_at_equilibrium_stack,
    )
    from qgame.game import profile_from_names
    from qgame.statevector import CHI_MAX
    from qgame.sweep import CellResult, _analytic_payoffs, _reduce, _sample

    delta, n_chi, n_p = config.effective_delta, len(config.chi_grid_pi), len(config.p_grid)
    points = list(itertools.product(config.chi_grid_pi, config.p_grid))
    if config.mode == "analytic":
        chis = np.multiply(config.chi_grid_pi, np.pi)
        a, b1, b2 = _analytic_payoffs(chis, config.tables, config.p_grid)
        cells = []
        for n, (chi_pi, p) in enumerate(points):
            report = EquilibriumReport(*nash_equilibria(a[n], b1[n], b2[n], delta))
            cells.append(CellResult(chi_pi, chi_pi, p, report, 0.0 if report.profiles else None))
    else:
        counts, estimates, rngs = zip(*(_sample(config, chi_pi) for chi_pi in config.chi_grid_pi))
        chi_refs = [min(max(estimate.value, 0.0), CHI_MAX) for estimate in estimates]
        best, ref_payoffs = best_equilibria_stack(*_analytic_payoffs(chi_refs, config.tables, config.p_grid), delta)
        errors, pays = [], []
        for angle_counts, rng in zip(counts, rngs):
            angle_errors, angle_pays = _reduce(config, angle_counts, rng)
            errors.extend(angle_errors)
            pays.append(angle_pays)
        pays = np.concatenate(pays, axis=2)
        ok = np.array([error is None for error in errors])
        a = compose(pays[0, 0], pays[1, 0], np.tile(config.p_grid, n_chi)[ok])
        b1, b2 = pays[0, 1], pays[1, 1]
        rmsds = rmsd_at_equilibrium_stack(a, b1, b2, best[ok], ref_payoffs[ok])
        measured = (np.repeat(chi_refs, n_p) / np.pi).tolist()
        cells, row = [], 0
        for (chi_pi, p), chi_measured, error in zip(points, measured, errors):
            if error is not None:
                cells.append(CellResult(chi_pi, chi_measured, p, None, None, error))
                continue
            report = EquilibriumReport(*nash_equilibria(a[row], b1[row], b2[row], delta))
            cells.append(CellResult(chi_pi, chi_measured, p, report, rmsds[row]))
            row += 1
    tracked, transitions = profile_from_names(config.tracked_profile), []
    for i, chi_pi in enumerate(config.chi_grid_pi):
        solved = [cell for cell in cells[n_p * i : n_p * (i + 1)] if cell.report is not None]
        member = [tracked in cell.report.profiles for cell in solved]
        ps = [cell.p for cell in solved]
        transitions.append((chi_pi, detect_transitions(ps, member, config.transition_window) if solved else None))
    return cells, transitions


def _reference_rows(result) -> list[dict]:
    """The sweep's CSV rows: one per equilibrium, one for an empty cell, one
    (with blank equilibrium fields) for a failed cell."""
    from qgame.game import profile_names

    rows = []
    base = {"delta": result.config.effective_delta, "mode": result.config.mode, "seed": result.config.seed}
    blank = {"profile": "", "payoff_A": None, "payoff_B1": None, "payoff_B2": None}
    for cell in result.cells:
        shared = {
            "chi_nominal_pi": cell.chi_nominal_pi,
            "chi_measured_pi": cell.chi_measured_pi,
            "p": cell.p,
            "rmsd": cell.rmsd,
            **base,
        }
        if cell.report is None:
            rows.append({**shared, "n_equilibria": None, **blank})
        elif cell.report.empty:
            rows.append({**shared, "n_equilibria": 0, **blank})
        else:
            for profile, payoffs in zip(cell.report.profiles, cell.report.payoffs):
                rows.append(
                    {
                        **shared,
                        "n_equilibria": len(cell.report.profiles),
                        "profile": profile_names(profile),
                        "payoff_A": payoffs[0],
                        "payoff_B1": payoffs[1],
                        "payoff_B2": payoffs[2],
                    }
                )
    return rows


def _reference_dict(result) -> dict:
    """The whole sweep as one JSON document (schema 4): its cell columns and
    its equilibrium columns filled cell by cell, equilibrium by equilibrium."""
    from qgame.game import profile_names
    from qgame.sweep import SCHEMA_VERSION

    cells = {name: [] for name in ("chi_nominal_pi", "chi_measured_pi", "p", "n_equilibria", "rmsd", "error")}
    equilibria = {name: [] for name in ("profile", "payoff_A", "payoff_B1", "payoff_B2")}
    for cell in result.cells:
        cells["chi_nominal_pi"].append(cell.chi_nominal_pi)
        cells["chi_measured_pi"].append(cell.chi_measured_pi)
        cells["p"].append(cell.p)
        cells["n_equilibria"].append(None if cell.report is None else len(cell.report.profiles))
        cells["rmsd"].append(cell.rmsd)
        cells["error"].append(cell.error)
        if cell.report is not None:
            for profile, (a, b1, b2) in zip(cell.report.profiles, cell.report.payoffs):
                equilibria["profile"].append(profile_names(profile))
                equilibria["payoff_A"].append(a)
                equilibria["payoff_B1"].append(b1)
                equilibria["payoff_B2"].append(b2)
    return {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(result.config),
        "chi_measurements": [
            {"chi_nominal_pi": chi_pi, "value_rad": est.value, "sigma_rad": est.sigma}
            for chi_pi, est in result.chi_measurements
        ],
        "transitions": [
            {"chi_pi": chi_pi, "thresholds": None if thresholds is None else list(thresholds)}
            for chi_pi, thresholds in result.transitions
        ],
        "cells": cells,
        "equilibria": equilibria,
    }


def reference_write_csv(path, columns: tuple, rows: list[dict]) -> None:
    """A table written through `csv.writer`: header plus one line per row,
    each field formatted by the package's `_csv_field`."""
    from qgame.sweep import _csv_field

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_field(row[col]) for col in columns])


def reference_emit(result, out_dir) -> tuple[bytes, bytes]:
    """The bytes of sweep.csv and sweep.json written the slow way:
    `csv.writer` (through `reference_write_csv`) over one dict per row, and
    one compact `json.dump(..., separators=(",", ":"))` of the whole result."""
    from qgame.sweep import _CSV_COLUMNS

    csv_path, json_path = os.path.join(out_dir, "sweep.csv"), os.path.join(out_dir, "sweep.json")
    reference_write_csv(csv_path, _CSV_COLUMNS, _reference_rows(result))  # makes out_dir
    with open(json_path, "w") as handle:
        json.dump(_reference_dict(result), handle, separators=(",", ":"))
        handle.write("\n")
    with open(csv_path, "rb") as csv_file, open(json_path, "rb") as json_file:
        return csv_file.read(), json_file.read()

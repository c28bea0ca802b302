"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line. Numeric tolerances are pinned
here and intentionally duplicated from the unit suites: these are the
contract, not implementation details.
"""

import time

import numpy as np

from qgame.equilibrium import DELTA_SHOTS
from qgame.game import PayoffTable, profile_from_names
from qgame.noise import ConfusionMatrix, NoiseModel, outcome_law, spam_correct
from qgame.sweep import ExperimentConfig, emit_report, run_sweep, verify_parallelization
from qgame.parallel import N_QUBITS, Variant, build_circuit

from oracles import bayes_tensor_dense, brute_force_equilibria

ROWS_B1 = [[[11, 9], [1, 10]], [[10, 1], [6, 6]]]
ROWS_B2 = [[[11, 9], [1, 6]], [[10, 1], [6, 0]]]


def check(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def test_criterion_1_classical_limit():
    start = time.perf_counter()
    cfg = ExperimentConfig(mode="analytic", chi_grid_pi=(0.0,), p_grid=(0.0,), delta=0.0)
    report = run_sweep(cfg).cells[0].report
    elapsed = time.perf_counter() - start
    ok = (
        report.contains(profile_from_names("IXI"))
        and report.contains(profile_from_names("ZYZ"))
        and all(pay == (11.0, 10.0, 9.0) for pay in report.payoffs)
        and elapsed < 1.0
    )
    check(ok, f"classical limit: IXI and ZYZ at exactly (11,10,9) in {elapsed:.3f}s")


def test_criterion_2_entanglement_phase_change():
    start = time.perf_counter()
    cfg = ExperimentConfig(mode="analytic", p_grid=(0.5,), delta=0.0)
    result = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    by_chi = {c.chi_nominal_pi: c for c in result.cells}
    strong_empty = all(by_chi[chi].report.empty for chi in (0.2, 0.225, 0.25))

    classical = by_chi[0.0].report
    a, b1, b2 = bayes_tensor_dense(0.0, ROWS_B1, ROWS_B2, 0.5)
    oracle_profiles = brute_force_equilibria(a, b1, b2, 0.0)
    profiles_match = [tuple(int(s) for s in pr) for pr in classical.profiles] == oracle_profiles
    payoffs_close = all(
        max(
            abs(pay[0] - a[pr[0], pr[1], pr[2]]),
            abs(pay[1] - b1[pr[0], pr[1]]),
            abs(pay[2] - b2[pr[0], pr[2]]),
        )
        <= 0.01
        for pr, pay in zip(classical.profiles, classical.payoffs)
    )
    ok = strong_empty and not classical.empty and profiles_match and payoffs_close and elapsed < 5.0
    check(
        ok,
        "entanglement phase change: empty sets for chi/pi in {0.2,0.225,0.25} at p=0.5, "
        f"chi=0 payoffs within 0.01 of the brute-force oracle, in {elapsed:.3f}s",
    )


def test_criterion_3_p_threshold():
    cfg = ExperimentConfig(mode="analytic", chi_grid_pi=(0.05,), delta=0.0)
    result = run_sweep(cfg)
    _, thresholds = result.transitions[0]
    threshold_ok = bool(thresholds) and abs(thresholds[0] - 0.16) <= 0.01 + 1e-12
    mid_cell = [c for c in result.cells if c.p == 0.5][0]
    ok = threshold_ok and mid_cell.report.empty
    found = thresholds[0] if thresholds else None
    check(ok, f"p-threshold at chi=pi/20: low-p transition at {found} (0.16 +/- 0.01), empty set at p=0.5")


def test_criterion_4_parallelization_equivalence():
    start = time.perf_counter()
    rows = verify_parallelization()
    elapsed = time.perf_counter() - start
    max_linf = max(r["max_linf"] for r in rows)
    max_aux = max(r["aux_marginal_dev"] for r in rows)
    ok = all(r["passed"] for r in rows) and max_linf < 1e-10 and max_aux < 1e-12 and elapsed < 5.0
    check(
        ok,
        f"parallelization equivalence: max Linf {max_linf:.2e} < 1e-10, "
        f"aux marginals within {max_aux:.2e} of uniform, in {elapsed:.3f}s",
    )


def test_criterion_5_oracle_equivalence():
    from qgame.bayesian import compose
    from qgame.equilibrium import nash_equilibria
    from qgame.game import payoff_tensor

    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(100):
        chi = rng.uniform(0.0, np.pi / 4)
        p = rng.uniform(0.0, 1.0)
        rows1 = rng.uniform(0.0, 12.0, size=(2, 2, 2)).tolist()
        rows2 = rng.uniform(0.0, 12.0, size=(2, 2, 2)).tolist()
        pay_a1, pay_b1 = payoff_tensor(chi, PayoffTable.from_rows(rows1))
        pay_a2, pay_b2 = payoff_tensor(chi, PayoffTable.from_rows(rows2))
        report = nash_equilibria(compose(pay_a1, pay_a2, p), pay_b1, pay_b2, 0.0)
        solver = [tuple(int(s) for s in pr) for pr in report.profiles]
        a, b1, b2 = bayes_tensor_dense(chi, rows1, rows2, p)
        if solver != brute_force_equilibria(a, b1, b2, 0.0):
            mismatches += 1
    check(mismatches == 0, f"oracle equivalence: 100 random instances, {mismatches} solver/brute-force mismatches")


def test_criterion_6_shot_convergence():
    cfg = ExperimentConfig(
        mode="shots",
        chi_grid_pi=(0.0,),
        p_grid=(0.0,),
        shots=300_000,
        seed=106,
        noise=NoiseModel(),
    )
    shot_report = run_sweep(cfg).cells[0].report
    analytic = ExperimentConfig(mode="analytic", chi_grid_pi=(0.0,), p_grid=(0.0,), delta=DELTA_SHOTS)
    ref_report = run_sweep(analytic).cells[0].report
    sets_match = shot_report.profiles == ref_report.profiles
    payoffs_close = all(
        max(abs(g - w) for g, w in zip(got, want)) < 0.1
        for got, want in zip(shot_report.payoffs, ref_report.payoffs)
    )

    circuit = build_circuit(Variant.I_CIRCUIT, np.pi / 8)
    truth = outcome_law(circuit.gate_sequence, N_QUBITS, circuit.chi, NoiseModel()) * 30_000
    conf = ConfusionMatrix.from_flips(0.006, 0.006)
    recovered = spam_correct(conf.apply(truth), conf)
    spam_err = float(np.abs(recovered - truth).max())
    ok = sets_match and payoffs_close and spam_err < 1e-9
    check(
        ok,
        "shot convergence: 3e5 zero-noise shots reproduce the analytic set at (chi=0, p=0) "
        f"within 0.1, SPAM round-trip error {spam_err:.2e} < 1e-9",
    )


def test_criterion_7_noise_trend():
    low, high, base = [], [], []
    for seed in range(10):
        cfg = ExperimentConfig(
            mode="shots",
            chi_grid_pi=(0.025, 0.225),
            p_grid=(0.0,),
            shots=30_000,
            seed=seed,
            noise=NoiseModel.default_profile(seed=seed),
        )
        cells = {c.chi_nominal_pi: c for c in run_sweep(cfg).cells}
        assert cells[0.025].error is None and cells[0.225].error is None
        low.append(cells[0.025].rmsd)
        high.append(cells[0.225].rmsd)

        readout_only = NoiseModel(readout_flip_0to1=0.006, readout_flip_1to0=0.006, seed=seed)
        zero_chi = ExperimentConfig(
            mode="shots", chi_grid_pi=(0.0,), p_grid=(0.0,), shots=30_000, seed=seed, noise=readout_only
        )
        cell = run_sweep(zero_chi).cells[0]
        assert cell.error is None
        base.append(cell.rmsd)
    trend = float(np.mean(high)) > float(np.mean(low))
    corrected = float(np.mean(base)) < 0.15 and max(base) < 0.15
    check(
        trend and corrected,
        f"noise trend: mean RMSD {np.mean(high):.3f} at chi=0.225pi > {np.mean(low):.3f} at "
        f"chi=0.025pi over 10 seeds; chi=0 readout+SPAM RMSD {np.mean(base):.4f} < 0.15",
    )


def test_criterion_8_determinism(tmp_path):
    cfg = ExperimentConfig(
        mode="shots",
        chi_grid_pi=(0.0, 0.1),
        p_grid=(0.0, 0.5, 1.0),
        shots=5_000,
        seed=42,
        noise=NoiseModel.default_profile(seed=42),
    )
    first = emit_report(run_sweep(cfg), tmp_path / "run1")
    second = emit_report(run_sweep(cfg), tmp_path / "run2")
    with open(first["csv"], "rb") as fa, open(second["csv"], "rb") as fb:
        same = fa.read() == fb.read()
    check(same, "determinism: identical config and seed give byte-identical CSV")

"""Pinned sweep benchmark for qgame: one workload per process, closed loop.

    python3 perfbench/run.py --workload analytic --seed 0 --seconds 60 --trace 0

One caller runs pipelines back to back (sweep, then `emit_report`, then
`load_result` + `rmsd_analysis` + `threshold_rows`) for `--seconds`, checks
every output, and prints the metrics named in BENCHMARK.json: end-to-end
ones with `--trace 0`, per-layer ones with `--trace 1`. The last stdout
line is the JSON result; the exit code is nonzero when any check fails.
Outputs, result files and spans go to `.perfbench_out/` in the checkout.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # before numpy is first imported

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# sha256 of the analytic sweep.csv with its last (seed) column removed
ANALYTIC_CSV_SHA256 = "bbf285224bf57bbed7ec22b31310ed8ba1ebf6ba9683057d1e6470ba08914cd5"
SETUP_REPEATS = 9
EMIT_REPEATS = 10  # emit + analyze take ~0.15 s, so each sweep's result is written and read back 10 times
MAX_MEAN_RMSD = 0.5  # payoff units; tables span 0..11, a broken pipeline is off by whole units
OUTSIDE_SWEEP = ("sweep.emit_report", "sweep.load_result", "sweep.rmsd_analysis", "sweep.threshold_rows")
MACHINE_NOTE = "no machine setting was controlled: CPU frequency, turbo, caches and co-tenant load were left as found"


class Checks:
    """Output checks; each distinct failure is recorded and fails the command."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok and message not in self.failures:
            self.failures.append(message)
        return ok


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_without_seed(data: bytes) -> bytes:
    return b"\n".join(line.rsplit(b",", 1)[0] for line in data.split(b"\n"))


def time_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import qgame and build the config."""
    command = [sys.executable, str(HERE / "workloads.py"), workload, str(seed)]
    subprocess.run(command, check=True)  # warm-up: bytecode caches filled once
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True)
        times.append(time.perf_counter() - start)
    return times


def tail_percentile(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    q = int(100 * (1 - 10 / n))
    return {"percentile": q, "value": statistics.quantiles(values, n=100, method="inclusive")[q - 1]}


def timing_summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "samples": len(values), "tail": tail_percentile(values)}


def environment(args, qgame_version: str) -> dict:
    import numpy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "qgame": qgame_version,
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_threads": BLAS_THREADS,
        "machine_settings": MACHINE_NOTE,
    }


def closed_loop(seconds: float, min_runs: int, pipeline) -> None:
    """Run `pipeline` back to back while the next run is expected to end
    within `seconds`; at least `min_runs` times."""
    start = time.perf_counter()
    durations: list[float] = []
    while len(durations) < min_runs or time.perf_counter() - start + statistics.median(durations) <= seconds:
        began = time.perf_counter()
        pipeline()
        durations.append(time.perf_counter() - began)


class Workload:
    """Runs and checks pipelines for one config; keeps their timings."""

    def __init__(self, name: str, config, sweep_module, checks: Checks) -> None:
        self.config = config
        self.sweep = sweep_module  # looked up per call, so installed trace wrappers are seen
        self.checks = checks
        self.out_dir = OUT / name
        self.sweep_s: list[float] = []
        self.emit_s: list[float] = []
        self.analyze_s: list[float] = []
        self.first = None  # (result, csv digest, json digest) of the first pipeline
        self.failed_pipelines = 0

    def pipeline(self):
        sweep = self.sweep
        start = time.perf_counter()
        result = sweep.run_sweep(self.config)
        self.sweep_s.append(time.perf_counter() - start)
        ok = True
        for _ in range(EMIT_REPEATS):
            start = time.perf_counter()
            paths = sweep.emit_report(result, self.out_dir)
            self.emit_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            loaded = sweep.load_result(paths["json"])
            sweep.rmsd_analysis(loaded)
            sweep.threshold_rows(loaded)
            self.analyze_s.append(time.perf_counter() - start)
            ok &= self.check_outputs(result, loaded, paths)
        self.failed_pipelines += not ok
        return result

    def check_outputs(self, result, loaded, paths) -> bool:
        expect = self.checks.expect
        csv_bytes = Path(paths["csv"]).read_bytes()
        digests = (sha256(csv_bytes), sha256(Path(paths["json"]).read_bytes()))
        if self.first is None:
            self.first = (result, *digests)
        ok = expect(loaded == result, "load_result does not round-trip the emitted JSON")
        ok &= expect(digests[0] == self.first[1], "sweep.csv differs between sweeps of one config")
        ok &= expect(digests[1] == self.first[2], "sweep.json differs between sweeps of one config")
        ok &= expect(len(result.cells) == len(self.config.chi_grid_pi) * len(self.config.p_grid), "cell count != grid size")
        if self.config.mode == "analytic":
            ok &= expect(sha256(csv_without_seed(csv_bytes)) == ANALYTIC_CSV_SHA256, "analytic sweep.csv digest mismatch")
        return ok


def quality(result) -> dict:
    cells = len(result.cells)
    failed = sum(cell.error is not None for cell in result.cells)
    rmsds = [cell.rmsd for cell in result.cells if cell.rmsd is not None]
    return {
        "cells": cells,
        "failed_cells": failed,
        "mean_rmsd": statistics.fmean(rmsds) if rmsds else None,
        "rmsd_cells": len(rmsds),
    }


def end_to_end_metrics(work: Workload, setup_s: list[float], qual: dict) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "sweep_s": statistics.median(work.sweep_s),
        "emit_s": statistics.median(work.emit_s),
        "analyze_s": statistics.median(work.analyze_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_cell_frac": 1 - qual["failed_cells"] / qual["cells"],
        "payoff_fidelity": 1 / (1 + qual["mean_rmsd"]),
    }


def traced_metrics(work: Workload, seconds: float, checks: Checks, spans_path: Path) -> tuple[dict, dict]:
    """Untraced and traced pipelines alternate, so both see the same machine."""
    from layertrace import LAYERS, Tracer

    tracer = Tracer()
    untraced_s: list[float] = []
    traced_s: list[float] = []
    per_request: list[tuple[dict, dict]] = []  # (counts, self seconds) per traced pipeline

    def alternating_pipeline() -> None:
        if len(untraced_s) == len(traced_s):
            work.pipeline()
            untraced_s.append(work.sweep_s[-1])
            return
        tracer.request = len(per_request)
        first, before = len(tracer.spans), dict(tracer.counts)
        with tracer:
            result = work.pipeline()
        traced_s.append(work.sweep_s[-1])
        counts = {key: value - before[key] for key, value in tracer.counts.items()}
        per_request.append((counts, tracer.self_times(first, len(tracer.spans))))
        errors = counts["noise.spam_correct.errors"] + counts["parallel.parse_branches.errors"]
        checks.expect(errors == quality(result)["failed_cells"], "spam_correct + parse_branches errors != failed cells")

    closed_loop(seconds, 2, alternating_pipeline)
    tracer.write(spans_path)

    counts = per_request[0][0]
    checks.expect(all(c == counts for c, _ in per_request), "per-layer counts differ between identical sweeps")
    traced_sweep_s = statistics.fmean(traced_s)
    metrics: dict[str, float] = dict(counts)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.fmean(own.get(layer, 0.0) for _, own in per_request)
    # a pipeline writes and reads its result EMIT_REPEATS times: report those layers per call
    for layer in OUTSIDE_SWEEP:
        metrics[f"{layer}.self_s"] /= EMIT_REPEATS
    metrics["sweep.emit_report.bytes"] //= EMIT_REPEATS
    spam_calls = metrics["noise.spam_correct.calls"]
    spam_errors = metrics["noise.spam_correct.errors"]
    metrics["noise.spam_correct.ok_frac"] = (spam_calls - spam_errors) / spam_calls if spam_calls else 1.0
    metrics["trace.sweep_s"] = traced_sweep_s
    metrics["trace.overhead_s"] = traced_sweep_s - statistics.fmean(untraced_s)

    accounted = sum(metrics[f"{layer}.self_s"] for layer in LAYERS if layer not in OUTSIDE_SWEEP)
    checks.expect(
        abs(accounted - traced_sweep_s) <= 0.01 * traced_sweep_s,
        f"per-layer self times sum to {accounted:.6f} s, traced sweep took {traced_sweep_s:.6f} s",
    )
    detail = {"traced_sweeps": len(traced_s), "untraced_sweeps": len(untraced_s), "self_s_sum": accounted}
    return metrics, detail


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qgame" / "__init__.py").is_file():
        print(f"perfbench: no qgame sources at {SRC}", file=sys.stderr)
        return 2
    import workloads  # puts SRC first on sys.path

    import qgame
    import qgame.sweep

    if Path(qgame.__file__).resolve().parent != SRC / "qgame":
        print(f"perfbench: imported qgame from {qgame.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics()[args.trace]

    OUT.mkdir(exist_ok=True)
    checks = Checks()
    setup_s = time_setup(args.workload, args.seed)
    config = workloads.make_config(args.workload, args.seed)
    rows = qgame.sweep.verify_parallelization(workloads.CHI_GRID_PI)
    checks.expect(all(row["passed"] for row in rows), "verify_parallelization failed on the grid")

    work = Workload(args.workload, config, qgame.sweep, checks)
    detail: dict = {}
    if args.trace:
        stem = f"{args.workload}-seed{args.seed}"
        metrics, detail["trace"] = traced_metrics(work, args.seconds, checks, OUT / f"{stem}-spans.jsonl")
    else:
        closed_loop(args.seconds, 2, work.pipeline)
    qual = quality(work.first[0])
    if config.mode == "shots":
        checks.expect(
            qual["mean_rmsd"] is not None and qual["mean_rmsd"] <= MAX_MEAN_RMSD,
            f"mean cell RMSD {qual['mean_rmsd']} above {MAX_MEAN_RMSD}",
        )
    if not args.trace:
        metrics = end_to_end_metrics(work, setup_s, qual)

    detail.update(
        quality=qual,
        pipelines=len(work.sweep_s),
        timings={
            "setup_s": timing_summary(setup_s),
            "sweep_s": timing_summary(work.sweep_s),
            "emit_s": timing_summary(work.emit_s),
            "analyze_s": timing_summary(work.analyze_s),
        },
        check_failures=checks.failures,
    )
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    env = environment(args, qgame.__version__)
    result = {
        "correct": not checks.failures,
        "attempted": len(work.sweep_s),
        "failed": work.failed_pipelines,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    record = {"env": env, "detail": detail, **result}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=2)
    for name, unit in declared.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(json.dumps({"env": env, "detail": detail}))
    for failure in checks.failures:
        print(f"perfbench: CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

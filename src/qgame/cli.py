"""Command-line front end.

Subcommands map one-to-one onto the library's analyses:

  sweep       full (chi, p) grid, CSV + JSON data products
  rmsd        per-angle payoff deviation aggregates
  thresholds  per-angle transition points of the tracked profile
  verify      branch-parsing equivalence check for the 5-qubit circuits

`rmsd` and `thresholds` take `--from sweep.json` to analyse a saved sweep
instead of running one. A table's columns are the keys of `qgame.sweep`'s rows.

Exit codes: 0 success, 2 bad configuration, bad result file or
unwritable output, 3 completed with per-cell hard failures (or failed
verification rows).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from qgame.config import DEFAULT_CHI_GRID_PI, MODE_ANALYTIC, MODE_SHOTS, ConfigError, ExperimentConfig
from qgame.statevector import check_chi
from qgame.sweep import (
    SweepResult,
    emit_report,
    load_result,
    rmsd_analysis,
    run_sweep,
    threshold_rows,
    verify_parallelization,
    write_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CELL_FAILURE = 3


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON experiment config; defaults apply if omitted")
    parser.add_argument("--mode", choices=[MODE_ANALYTIC, MODE_SHOTS], help="override config mode")
    parser.add_argument("--seed", type=int, help="override config master seed")
    parser.add_argument("--out", default=".", help="output directory (default: current)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qgame", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the full grid and emit CSV/JSON")
    _add_config_options(sweep)
    sweep.set_defaults(run=_cmd_sweep)

    for name, text, analyse, line in (
        ("rmsd", "aggregate payoff deviation per angle", rmsd_analysis, _rmsd_line),
        ("thresholds", "transition points per angle", threshold_rows, _threshold_line),
    ):
        analysis = sub.add_parser(name, help=text)
        _add_config_options(analysis)
        analysis.add_argument(
            "--from",
            dest="from_path",
            metavar="SWEEP_JSON",
            help="analyse a sweep.json written by `qgame sweep` instead of running the sweep; "
            "excludes --config, --mode and --seed",
        )
        analysis.set_defaults(run=_cmd_table, analyse=analyse, line=line)

    verify = sub.add_parser("verify", help="check branch-parsed vs direct distributions")
    verify.add_argument(
        "--chi-grid",
        help="comma-separated angles in units of pi (default: the sweep grid)",
    )
    verify.add_argument("--out", help="optional output directory for verify.csv")
    verify.set_defaults(run=_cmd_verify)
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    overrides = {name: getattr(args, name) for name in ("mode", "seed") if getattr(args, name) is not None}
    return replace(config, **overrides)


def _analysed_result(args: argparse.Namespace) -> SweepResult:
    """The sweep an analysis reads: the saved one named by --from, else a fresh run."""
    if args.from_path is None:
        return run_sweep(_load_config(args))
    clashes = [f"--{name}" for name in ("config", "mode", "seed") if getattr(args, name) is not None]
    if clashes:
        raise ConfigError(f"--from reads a finished sweep, so it cannot be combined with {', '.join(clashes)}")
    return load_result(args.from_path)


def _cell_failures(result: SweepResult) -> int:
    errors = result.cell_columns.error
    return len(errors) - errors.count(None)


def _cmd_sweep(args: argparse.Namespace) -> int:
    result = run_sweep(_load_config(args))
    paths = emit_report(result, args.out)
    for kind, path in sorted(paths.items()):
        print(f"wrote {kind}: {path}")
    failures = _cell_failures(result)
    if failures:
        print(f"{failures} grid cell(s) failed; see the cells.error column of {paths['json']}", file=sys.stderr)
        return EXIT_CELL_FAILURE
    print(f"{len(result.cell_columns.error)} cells evaluated")
    return EXIT_OK


def _write_table(args: argparse.Namespace, rows: list[dict]) -> None:
    path = os.path.join(args.out, f"{args.command}.csv")
    write_csv(path, rows)
    print(f"wrote csv: {path}")


def _rmsd_line(row: dict) -> str:
    mean = "n/a" if row["mean_rmsd"] is None else f"{row['mean_rmsd']:.4g}"
    return f"chi={row['chi_nominal_pi']}pi mean_rmsd={mean} over {row['n_cells']} cells"


def _threshold_line(row: dict) -> str:
    # None: every cell of the angle failed, so its transitions are unknown
    marks = "n/a" if row["thresholds"] is None else ", ".join(f"{t:g}" for t in row["thresholds"]) or "none"
    return f"chi={row['chi_pi']}pi profile={row['profile']} transitions at p: {marks}"


def _cmd_table(args: argparse.Namespace) -> int:
    """`rmsd` or `thresholds`: the command's table of the analysed sweep, written and printed row by row."""
    result = _analysed_result(args)
    rows = args.analyse(result)
    _write_table(args, rows)
    print("\n".join(map(args.line, rows)))
    return EXIT_CELL_FAILURE if _cell_failures(result) else EXIT_OK


def _parse_chi_grid(text: str) -> tuple:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"bad --chi-grid: {exc}") from exc
    if not values:
        raise ConfigError("--chi-grid is empty")
    try:
        for value in values:
            check_chi(value * math.pi)  # the angle verify_parallelization builds
    except ValueError as exc:
        raise ConfigError(f"--chi-grid values must lie in [0, 0.25] (units of pi): {exc}") from exc
    return values


def _cmd_verify(args: argparse.Namespace) -> int:
    grid = _parse_chi_grid(args.chi_grid) if args.chi_grid else DEFAULT_CHI_GRID_PI
    rows = verify_parallelization(grid)
    if args.out:
        _write_table(args, rows)
    for row in rows:
        status = "pass" if row["passed"] else f"FAIL (worst branch {row['worst_branch']})"
        print(
            f"chi={row['chi_pi']}pi {row['variant']}-circuit: "
            f"max_linf={row['max_linf']:.3e} aux_dev={row['aux_marginal_dev']:.3e} {status}"
        )
    return EXIT_OK if all(row["passed"] for row in rows) else EXIT_CELL_FAILURE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

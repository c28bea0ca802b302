"""Out-of-program tracing: wrap qgame's public functions where their callers
look them up, record one span per call and a few counts, in memory.

A span is (request, layer, start, end, parent): `request` is the pipeline
(sweep + emit + analyze) the call belongs to, `parent` the index of the
enclosing span or -1. A layer's self time is its span durations minus the
part covered by direct child spans, so the self times of every span under
`run_sweep` add up to the `run_sweep` span exactly.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import qgame.equilibrium
import qgame.game
import qgame.sweep
from qgame.equilibrium import NoEquilibriumError
from qgame.noise import SpamCorrectionError
from qgame.parallel import EmptyBranchError


def _count_profiles(args, result, exc):
    return {"profiles": 0 if exc else len(result.profiles)}


def _count_no_reference(args, result, exc):
    return {"no_reference": isinstance(exc, NoEquilibriumError)}


def _count_shots(args, result, exc):
    return {"shots": 0 if exc else len(result)}  # computed: size of the outcome array


def _count_split(args, result, exc):
    return {
        "shots_drawn": len(args[0]),  # computed: one uniform draw per shot
        "empty_pools": 0 if exc else sum(pool.total == 0 for pool in result),
    }


def _count_spam_errors(args, result, exc):
    return {"errors": isinstance(exc, SpamCorrectionError)}


def _count_branch_errors(args, result, exc):
    return {"errors": isinstance(exc, EmptyBranchError)}


def _count_bytes(args, result, exc):
    # computed: sizes of the files written
    return {"bytes": 0 if exc else sum(os.path.getsize(path) for path in result.values())}


# (module the caller looks the name up in, attribute, layer, counter, the counter's keys)
TRACE_POINTS = (
    (qgame.sweep, "run_sweep", "sweep.run_sweep", None, ()),
    (qgame.sweep, "emit_report", "sweep.emit_report", _count_bytes, ("bytes",)),
    (qgame.sweep, "load_result", "sweep.load_result", None, ()),
    (qgame.sweep, "rmsd_analysis", "sweep.rmsd_analysis", None, ()),
    (qgame.sweep, "threshold_rows", "sweep.threshold_rows", None, ()),
    (qgame.game, "apply_gate", "statevector.apply_gate", None, ()),
    (qgame.sweep, "payoff_tensor", "game.payoff_tensor", None, ()),
    (qgame.sweep, "tensor_from_distributions", "game.tensor_from_distributions", None, ()),
    (qgame.sweep, "compose", "bayesian.compose", None, ()),
    (qgame.sweep, "nash_equilibria", "equilibrium.nash_equilibria", _count_profiles, ("profiles",)),
    (qgame.equilibrium, "nash_equilibria", "equilibrium.nash_equilibria", _count_profiles, ("profiles",)),
    (qgame.sweep, "rmsd_at_equilibrium", "equilibrium.rmsd_at_equilibrium", _count_no_reference, ("no_reference",)),
    (qgame.sweep, "detect_transitions", "equilibrium.detect_transitions", None, ()),
    (qgame.sweep, "sample_outcomes", "noise.sample_outcomes", _count_shots, ("shots",)),
    (qgame.sweep, "measure_chi", "noise.measure_chi", None, ()),
    (qgame.sweep, "bayesian_split", "noise.bayesian_split", _count_split, ("shots_drawn", "empty_pools")),
    (qgame.sweep, "spam_correct", "noise.spam_correct", _count_spam_errors, ("errors",)),
    (qgame.sweep, "build_circuit", "parallel.build_circuit", None, ()),
    (qgame.sweep, "parse_branches", "parallel.parse_branches", _count_branch_errors, ("errors",)),
)

LAYERS = tuple(dict.fromkeys(point[2] for point in TRACE_POINTS))


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit;
    spans and counts accumulate over every entry."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        # every count starts at 0, so a layer a workload bypasses reads 0
        self.counts = {f"{layer}.{key}": 0 for *_, layer, _, keys in TRACE_POINTS for key in ("calls", *keys)}
        self.request = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, original, layer: str, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result, error = None, None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (self.request, layer, start, end, parent)
                counts[f"{layer}.calls"] += 1
                if counter is not None:
                    for key, value in counter(args, result, error).items():
                        counts[f"{layer}.{key}"] += int(value)

        return traced

    def __enter__(self) -> "Tracer":
        for module, attr, layer, counter, _ in TRACE_POINTS:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, counter))
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def self_times(self, first: int, stop: int) -> dict[str, float]:
        """Self seconds per layer over spans[first:stop], one whole request."""
        own: defaultdict[str, float] = defaultdict(float)
        for _, layer, start, end, parent in self.spans[first:stop]:
            own[layer] += end - start
            if parent >= first:
                own[self.spans[parent][1]] -= end - start
        return dict(own)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")

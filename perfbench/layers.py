"""Per-layer timing of the program from outside it.

`Tracer` replaces public functions of the package's modules with timing
wrappers, under the name their caller looks them up by (a function that
`stableou.simulate` imported from `stableou.sampling` is wrapped as
`stableou.simulate.sample_isotropic_stable`), and restores them on exit.
Each call opens a span whose parent is the innermost open span; a span's
self time is its duration minus the time of its children. Spans are
aggregated by name as they close, since a traced round can make millions
of calls.
"""

from __future__ import annotations

import time
from collections import defaultdict

from stableou import bounds, cli, experiments, sampling, simulate, stationary

_MIB = 2.0**20


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.peaks = defaultdict(float)
        self.parents = defaultdict(float)  # (parent span, span) -> seconds
        self._open: list[list] = []
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, span: str, on_return=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def traced(*args, **kwargs):
            frame = [span, 0.0]  # name, time spent in child spans
            self._open.append(frame)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                self._open.pop()
                self.total[span] += duration
                self.self_time[span] += duration - frame[1]
                self.calls[span] += 1
                if self._open:
                    parent = self._open[-1]
                    parent[1] += duration
                    self.parents[(parent[0], span)] += duration
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def __enter__(self):
        for owner, attr, span, hook in _WRAPPED:
            self.wrap(owner, attr, span, hook)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, name -> (value, unit)."""
        t, own, n = self.total, self.self_time, self.calls
        return {
            "cli.write_s": (t["cli.write"], "s"),
            "experiments.population_s": (t["experiments.population"], "s"),
            "experiments.risk_s": (t["experiments.risk"], "s"),
            "simulate.problem_s": (t["simulate.problem"], "s"),
            "simulate.recursion_self_s": (
                own["simulate.recursion"] + own["simulate.stationary_sample"], "s"
            ),
            "simulate.steps": (self.counts["simulate.steps"], "count"),
            "simulate.array_mb": (self.peaks["simulate.array_mb"], "MB"),
            "experiments.coupled_self_s": (own["experiments.coupled"], "s"),
            "sampling.draw_s": (t["sampling.draw"], "s"),
            "sampling.rows": (self.counts["sampling.rows"], "count"),
            "sampling.calls": (n["sampling.draw"], "count"),
            "stationary.init_s": (t["stationary.init"], "s"),
            "stationary.exponent_s": (t["stationary.exponent"], "s"),
            "stationary.exponent_calls": (n["stationary.exponent"], "count"),
            "bounds.threshold_s": (t["bounds.threshold"], "s"),
            "bounds.threshold_calls": (n["bounds.threshold"], "count"),
            "special.s": (t["special.digamma"] + t["special.gamma"], "s"),
            "special.digamma_calls": (n["special.digamma"], "count"),
            "special.gamma_calls": (n["special.gamma"], "count"),
        }


def _count_recursion(tracer, args, kwargs, traj) -> None:
    steps = len(traj) - 1
    d = traj.iterates.shape[1]
    tracer.counts["simulate.steps"] += steps
    # Computed, not measured: the driving draws, the scaled noise and the
    # iterates, each (steps, d) float64, are alive together.
    config = args[1] if len(args) > 1 else kwargs["config"]
    mb = 3 * config.steps * d * 8 / _MIB
    tracer.peaks["simulate.array_mb"] = max(tracer.peaks["simulate.array_mb"], mb)


def _count_rows(tracer, args, kwargs, draws) -> None:
    tracer.counts["sampling.rows"] += 1 if draws.ndim == 1 else draws.shape[0]


_WRAPPED = [
    (cli, "write_run_records", "cli.write", None),
    (cli, "write_aggregate", "cli.write", None),
    (cli, "write_sweep_svg", "cli.write", None),
    (experiments, "generate_population", "experiments.population", None),
    (experiments, "generalization_error", "experiments.risk", None),
    (experiments, "euler_maruyama_run", "simulate.recursion", _count_recursion),
    (experiments, "empirical_stability_gap", "experiments.coupled", None),
    (experiments, "sample_isotropic_stable", "sampling.draw", _count_rows),
    (simulate.QuadraticProblem, "__init__", "simulate.problem", None),
    (simulate, "stationary_sample", "simulate.stationary_sample", None),
    (simulate, "euler_maruyama_run", "simulate.recursion", _count_recursion),
    (simulate, "sample_isotropic_stable", "sampling.draw", _count_rows),
    (sampling, "gamma_fn", "special.gamma", None),
    (stationary.StationaryCharFn, "__init__", "stationary.init", None),
    (stationary.StationaryCharFn, "exponent", "stationary.exponent", None),
    (bounds, "threshold_alpha0", "bounds.threshold", None),
    (bounds, "digamma", "special.digamma", None),
    (bounds, "gamma_fn", "special.gamma", None),
]

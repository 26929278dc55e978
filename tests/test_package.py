import importlib
from pathlib import Path

import numpy as np
import pytest

import stableou
from stableou import (
    BoundInputs,
    ParameterError,
    QuadraticProblem,
    RngStream,
    SimConfig,
    SweepConfig,
    stationary_sample,
)


def test_every_exported_name_resolves():
    missing = [name for name in stableou.__all__ if not hasattr(stableou, name)]
    assert missing == []
    assert len(set(stableou.__all__)) == len(stableou.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from stableou import *", namespace)
    assert set(stableou.__all__) <= set(namespace)


# The whole public API, so adding or removing a name is a one-line diff here.
PUBLIC_API = [
    "AccuracyError",
    "BoundInputs",
    "DegenerateDataError",
    "NO_THRESHOLD",
    "NeighborPair",
    "NoThreshold",
    "ParameterError",
    "PoleError",
    "QuadraticProblem",
    "RngStream",
    "RunRecord",
    "ShapeError",
    "SimConfig",
    "StabilityGapEstimate",
    "StabilityRegime",
    "StableOUError",
    "StableParams",
    "StationaryCharFn",
    "SweepConfig",
    "TailEstimate",
    "Trajectory",
    "UnstableRegimeError",
    "aggregate_median_iqr",
    "alpha_factor",
    "cauchy_doubling_check",
    "char_fn_diff_bound_1d",
    "char_fn_diff_bound_dd",
    "char_fn_diff_exact",
    "classify_regime",
    "default_burn_in",
    "digamma",
    "empirical_char_fn",
    "empirical_stability_gap",
    "estimate_tail_index",
    "euler_maruyama_run",
    "exact_stability_gap",
    "final_iterate",
    "gamma_fn",
    "generalization_error",
    "generate_population",
    "median_center",
    "read_run_records",
    "replay_record",
    "run_synthetic_sweep",
    "sample_isotropic_stable",
    "sample_sas_scalar",
    "sample_skewed_positive_stable",
    "sas_abs_moment",
    "stationary_sample",
    "surrogate_risk",
    "threshold_alpha0",
    "upper_bound_1d",
    "upper_bound_dd",
    "variance_threshold",
    "write_aggregate",
    "write_run_records",
    "write_sweep_svg",
]


def test_public_api_is_pinned():
    assert PUBLIC_API == sorted(PUBLIC_API) and len(PUBLIC_API) == 57
    assert stableou.__all__ == PUBLIC_API


SWEEP = dict(alpha_grid=(1.5,), a_grid=(1.0,), d_grid=(2,))
SIM = SimConfig(eta=0.1, steps=100, alpha=1.5)


def draw(**kwargs):
    return stationary_sample(QuadraticProblem(np.ones(10)), SIM, RngStream(0), **kwargs)


# Each of these once ran on a truncated count or failed inside numpy.
@pytest.mark.parametrize("build, field", [
    (lambda: SimConfig(eta=0.1, steps=2.7, alpha=1.5), "steps"),
    (lambda: SimConfig(eta=0.1, steps=10, alpha=1.5, burn_in=2.9), "burn_in"),
    (lambda: draw(n_samples=2.9), "n_samples"),
    (lambda: draw(n_samples=2, thinning=1.7), "thinning"),
    (lambda: SweepConfig(**SWEEP, steps=2.5), "steps"),
    (lambda: SweepConfig(**SWEEP, replications=True), "replications"),
    (lambda: SweepConfig(**SWEEP, n=2.5), "n"),
    (lambda: SweepConfig(**SWEEP, population_size=1000.5), "population_size"),
    (lambda: SweepConfig(**SWEEP, master_seed=1.5), "master_seed"),
    (lambda: BoundInputs(R=1.0, n=True, p=1.0, alpha=1.5), "n"),
], ids=["sim-steps", "sim-burn_in", "sample-n_samples", "sample-thinning", "sweep-steps",
        "sweep-replications", "sweep-n", "sweep-population_size", "sweep-master_seed",
        "bounds-n"])
def test_non_integral_counts_are_refused(build, field):
    with pytest.raises(ParameterError, match=f"^{field} must be"):
        build()


def test_benchmark_tracer_restores_every_name_it_wraps(monkeypatch):
    # perfbench/layers.py wraps each name where its caller looks it up; a name
    # missing there breaks `perfbench/run.py --trace 1` and nothing else.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layers = importlib.import_module("layers")

    def current():
        return [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                for owner, attr, *_ in layers._WRAPPED]

    before = current()
    with layers.Tracer():
        assert all(now is not then for now, then in zip(current(), before))
    assert all(now is then for now, then in zip(current(), before))

import stableou


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

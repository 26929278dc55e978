"""Heavy-tailed Ornstein-Uhlenbeck simulation, stability bounds, and tail
estimation for noisy least squares.

The package simulates the linear recursion driven by rotationally symmetric
alpha-stable noise, characterizes its stationary law in Fourier form,
evaluates the closed-form algorithmic-stability bounds and their variance
threshold, estimates tail indices from iterates, and runs the seeded
synthetic generalization experiments.
"""

__version__ = "0.2.0"

import types as _types

from .bounds import (
    NO_THRESHOLD,
    BoundInputs,
    NoThreshold,
    StabilityRegime,
    alpha_factor,
    classify_regime,
    threshold_alpha0,
    upper_bound_1d,
    upper_bound_dd,
    variance_threshold,
)
from .errors import (
    AccuracyError,
    DegenerateDataError,
    ParameterError,
    PoleError,
    ShapeError,
    StableOUError,
    UnstableRegimeError,
)
from .experiments import (
    RunRecord,
    StabilityGapEstimate,
    SweepConfig,
    aggregate_median_iqr,
    cauchy_doubling_check,
    empirical_stability_gap,
    generalization_error,
    generate_population,
    read_run_records,
    replay_record,
    run_synthetic_sweep,
    surrogate_risk,
    write_aggregate,
    write_run_records,
    write_sweep_svg,
)
from .rng import RngStream
from .sampling import (
    StableParams,
    empirical_char_fn,
    sample_isotropic_stable,
    sample_sas_scalar,
    sample_skewed_positive_stable,
    sas_abs_moment,
)
from .simulate import (
    QuadraticProblem,
    SimConfig,
    Trajectory,
    default_burn_in,
    euler_maruyama_run,
    final_iterate,
    stationary_sample,
)
from .special import digamma, gamma_fn
from .stationary import (
    NeighborPair,
    StationaryCharFn,
    char_fn_diff_bound_1d,
    char_fn_diff_bound_dd,
    char_fn_diff_exact,
    exact_stability_gap,
)
from .tail import (
    TailEstimate,
    estimate_tail_index,
    median_center,
)

# The public API is every name imported above, declared there once.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)

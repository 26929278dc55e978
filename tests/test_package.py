import ast
import importlib
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import stableou
from stableou import (
    BoundInputs,
    NeighborPair,
    ParameterError,
    QuadraticProblem,
    RngStream,
    ShapeError,
    SimConfig,
    StableParams,
    StationaryCharFn,
    SweepConfig,
    alpha_factor,
    cauchy_doubling_check,
    char_fn_diff_bound_1d,
    char_fn_diff_bound_dd,
    char_fn_diff_exact,
    classify_regime,
    empirical_char_fn,
    empirical_stability_gap,
    estimate_tail_index,
    exact_stability_gap,
    generate_population,
    median_center,
    sample_isotropic_stable,
    sample_sas_scalar,
    sample_skewed_positive_stable,
    sas_abs_moment,
    stationary_sample,
    surrogate_risk,
)
from stableou import experiments


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
LAW = StableParams(1.5, 1.0)
PAIR = NeighborPair(np.ones(10), np.ones(10))


def draw(**kwargs):
    return stationary_sample(QuadraticProblem(np.ones(10)), SIM, RngStream(0), **kwargs)


# Each of these once ran on a truncated count or failed inside numpy; the
# cases from sim-steps-0 on are counts below their least value.
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
    (lambda: sample_sas_scalar(LAW, RngStream(0), size=2.7), "size"),
    (lambda: sample_isotropic_stable(2.9, LAW, RngStream(0), size=3.5), "d"),
    (lambda: sample_isotropic_stable(2, LAW, RngStream(0), size=3.5), "size"),
    (lambda: sample_skewed_positive_stable(0.5, RngStream(0), size=True), "size"),
    (lambda: generate_population(1.0, 2.5, 3, RngStream(0)), "d"),
    (lambda: estimate_tail_index(np.ones((200, 2)), 10.5, 10), "K1"),
    (lambda: cauchy_doubling_check(np.ones(400), initial_window=100.5), "initial_window"),
    (lambda: empirical_stability_gap(PAIR, [[1.0]], 1.0, 1.5, SIM, 200.5, RngStream(0)), "n_mc"),
    (lambda: SimConfig(eta=0.1, steps=0, alpha=1.5), "steps"),
    (lambda: draw(n_samples=-1), "n_samples"),
    (lambda: draw(n_samples=2, thinning=0), "thinning"),
    (lambda: SweepConfig(**SWEEP, n=0), "n"),
    (lambda: SweepConfig(**SWEEP, replications=0), "replications"),
    (lambda: SweepConfig(**SWEEP, n=1000, population_size=999), "population_size"),
    (lambda: BoundInputs(R=1.0, n=0, p=1.0, alpha=1.5), "n"),
    (lambda: sample_sas_scalar(LAW, RngStream(0), size=-1), "size"),
    (lambda: sample_isotropic_stable(0, LAW, RngStream(0), size=3), "d"),
    (lambda: sample_isotropic_stable(2, LAW, RngStream(0), size=-1), "size"),
    (lambda: sample_skewed_positive_stable(0.5, RngStream(0), size=-1), "size"),
    (lambda: generate_population(1.0, 0, 3, RngStream(0)), "d"),
    (lambda: generate_population(1.0, 2, 0, RngStream(0)), "N"),
    (lambda: estimate_tail_index(np.ones((200, 2)), 1, 10), "K1"),
    (lambda: estimate_tail_index(np.ones((200, 2)), 10, 0), "K2"),
    (lambda: cauchy_doubling_check(np.ones(400), initial_window=0), "initial_window"),
], ids=["sim-steps", "sim-burn_in", "sample-n_samples", "sample-thinning", "sweep-steps",
        "sweep-replications", "sweep-n", "sweep-population_size", "sweep-master_seed",
        "bounds-n", "sas-size", "isotropic-d", "isotropic-size", "skewed-size",
        "population-d", "tail-K1", "doubling-initial_window", "gap-n_mc",
        "sim-steps-0", "sample-n_samples--1", "sample-thinning-0", "sweep-n-0",
        "sweep-replications-0", "sweep-population_size-below-n", "bounds-n-0", "sas-size--1",
        "isotropic-d-0", "isotropic-size--1", "skewed-size--1", "population-d-0",
        "population-N-0", "tail-K1-1", "tail-K2-0", "doubling-initial_window-0"])
def test_non_integral_counts_are_refused(build, field):
    with pytest.raises(ParameterError, match=f"^{field} must be"):
        build()


# Every site that reads the tail-index rule, and every site that reads the loss-power rule.
ALPHA_SITES = {
    "SimConfig": lambda alpha: SimConfig(eta=0.1, steps=10, alpha=alpha),
    "StableParams": lambda alpha: StableParams(alpha, 1.0),
    "sas_abs_moment": lambda alpha: sas_abs_moment(0.5, alpha),
    "StationaryCharFn": lambda alpha: StationaryCharFn(np.eye(2), alpha),
    "char_fn_diff_bound_1d": lambda alpha: char_fn_diff_bound_1d(PAIR, alpha, 1.0),
    "char_fn_diff_bound_dd": lambda alpha: char_fn_diff_bound_dd(PAIR, alpha, [1.0]),
    "BoundInputs": lambda alpha: BoundInputs(R=1.0, n=10, p=1.0, alpha=alpha),
    "classify_regime": lambda alpha: classify_regime(1.0, alpha),
    "alpha_factor": lambda alpha: alpha_factor(alpha, 1.0, 1.0),
}
P_SITES = {
    "SweepConfig": lambda p: SweepConfig(**SWEEP, p=p),
    "surrogate_risk": lambda p: surrogate_risk(np.ones(2), np.ones((3, 2)), p),
    "BoundInputs": lambda p: BoundInputs(R=1.0, n=10, p=p, alpha=1.5),
    "classify_regime": lambda p: classify_regime(p, 1.5),
}
FREQUENCY_SITES = {
    "StationaryCharFn.exponent": lambda u: StationaryCharFn(np.eye(2), 1.5).exponent([1.0, u]),
    "char_fn_diff_exact": lambda u: char_fn_diff_exact(PAIR, 1.5, u),
    "char_fn_diff_bound_1d": lambda u: char_fn_diff_bound_1d(PAIR, 1.5, u),
    "char_fn_diff_bound_dd": lambda u: char_fn_diff_bound_dd(PAIR, 1.5, [u]),
    "empirical_char_fn": lambda u: empirical_char_fn(np.ones((3, 2)), [u, 1.0]),
}
# Every site that reads the rows rule, as a function of its sample matrix.
ROWS_SITES = {
    "QuadraticProblem": QuadraticProblem,
    "NeighborPair": lambda x: NeighborPair(x, x),
    "estimate_tail_index": lambda x: estimate_tail_index(x, 2, 10),
    "median_center": median_center,
    "empirical_char_fn": lambda x: empirical_char_fn(x, np.ones(x.shape[-1])),
    "surrogate_risk": lambda x: surrogate_risk(np.ones(x.shape[-1]), x, 1.0),
    "cauchy_doubling_check": lambda x: cauchy_doubling_check(x, initial_window=5),
}


def shape_id(shape):
    return "x".join(map(str, shape))


def samples_with(value):
    samples = np.random.default_rng(0).uniform(-1.0, 1.0, size=(20, 2))
    samples[13, 1] = value
    return samples


OUT_OF_DOMAIN = {
    **{f"{site}-alpha={alpha}": (partial(build, alpha), "alpha")
       for site, build in ALPHA_SITES.items() for alpha in (0.0, 2.5, math.nan)},
    **{f"{site}-p={p}": (partial(build, p), "p")
       for site, build in P_SITES.items() for p in (0.5, math.nan)},
    # Each scale below was accepted as inf.
    "BoundInputs-sigma2=inf": (
        lambda: BoundInputs(R=1.0, n=10, p=1.0, alpha=1.5, sigma2=math.inf), "sigma2"),
    "SimConfig-eta=inf": (lambda: SimConfig(eta=math.inf, steps=10, alpha=1.5), "eta"),
    "StableParams-sigma=inf": (lambda: StableParams(1.5, math.inf), "sigma"),
    "generate_population-a=inf": (
        lambda: generate_population(math.inf, 2, 3, RngStream(0)), "a"),
    # A chain from zero with no noise stays there; at inf it diverged at step 1.
    **{f"SimConfig-noise_scale={s}": (
        partial(SimConfig, eta=0.1, steps=10, alpha=1.5, noise_scale=s), "noise_scale")
       for s in (0, math.inf)},
    # alpha_factor returned a complex number at sigma_sq = -1 and 0.0 at inf.
    **{f"alpha_factor-sigma_sq={s}": (partial(alpha_factor, 1.5, 1.0, s), "sigma_sq")
       for s in (-1.0, math.inf)},
    # At alpha = 2 these returned nan and inf.
    **{f"sas_abs_moment-p=inf-sigma={s}": (partial(sas_abs_moment, math.inf, 2.0, s), "p")
       for s in (0.5, 2.0)},
    # The frequency rule. A nan u spent 8,192 quadrature nodes and then raised
    # AccuracyError; at u = inf the bounds returned nan.
    **{f"{site}-u={u}": (partial(build, u), "u") for site, build in FREQUENCY_SITES.items()
       for u in (math.nan, math.inf)},
    # A nan probe gave a nan gap, or an AccuracyError after 8,192 nodes.
    "exact_stability_gap-probe=nan": (
        lambda: exact_stability_gap(PAIR, [[1.0], [math.nan]], 1.0, 1.5), "probe"),
    "empirical_stability_gap-probe=nan": (
        lambda: empirical_stability_gap(PAIR, [[math.nan]], 1.0, 1.5, SIM, 200, RngStream(0)),
        "probe"),
    # The rows rule. Data with a nan entry gave a nan result, or a misleading
    # DegenerateDataError from the tail estimator or the mixing rule.
    **{f"{site}-{value}": (partial(build, samples_with(value)), "sample rows")
       for site, build in ROWS_SITES.items() for value in (math.nan, -math.inf)},
}


@pytest.fixture
def no_chain_or_quadrature(monkeypatch):
    """Make any coupled chain step or quadrature node an error."""
    def refuse(*args, **kwargs):
        raise AssertionError("the input reached a chain step or a quadrature node")

    # empirical_stability_gap looks the chains up in its own module.
    monkeypatch.setattr(experiments, "coupled_stationary_draws", refuse)
    monkeypatch.setattr(StationaryCharFn, "_integrand", refuse)


@pytest.mark.parametrize("case", OUT_OF_DOMAIN)
def test_out_of_domain_values_are_refused(case, no_chain_or_quadrature):
    build, field = OUT_OF_DOMAIN[case]
    with pytest.raises(ParameterError, match=f"^{field} must"):
        build()


# Empty and misshapen array inputs, each refused by its array rule before any
# chain step or quadrature node. An empty probe set ran the coupled chains
# and then failed in numpy's argmax, or returned a gap of 0; a (3, 0) array
# returned an empty array, a bare reshape ValueError or a zero-norm
# DegenerateDataError; the other empty inputs raised four different messages.
SHAPE_OUT_OF_DOMAIN = {
    **{f"{site}-{shape_id(shape)}": (partial(build, np.empty(shape)), "sample rows")
       for site, build in ROWS_SITES.items() for shape in ((0, 2), (3, 0), (0,))},
    **{f"exact_stability_gap-probes-{shape_id(shape)}": (
        partial(exact_stability_gap, PAIR, np.ones(shape), 1.0, 1.5), "probe points")
       for shape in ((0, 1), (1, 1, 1))},
    **{f"empirical_stability_gap-probes-{shape_id(shape)}": (
        partial(empirical_stability_gap, PAIR, np.ones(shape), 1.0, 1.5, SIM, 200, RngStream(0)),
        "probe points")
       for shape in ((0, 1), (1, 1, 1))},
}


@pytest.mark.parametrize("case", SHAPE_OUT_OF_DOMAIN)
def test_empty_and_misshapen_arrays_are_refused(case, no_chain_or_quadrature):
    build, field = SHAPE_OUT_OF_DOMAIN[case]
    with pytest.raises(ShapeError, match=f"^{field} must form a nonempty matrix"):
        build()


# The message of each input rule; its one home is the one line that spells it.
RULE_MESSAGES = ("must lie in (0, 2]", "must lie in [1, 2]", "positive and finite",
                 "does not mix", "must be >= ", "sample rows must form a nonempty matrix",
                 "sample rows must be finite", "must be finite, got")


def test_each_input_rule_is_spelled_on_one_line():
    lines = [line for path in sorted(Path(stableou.__file__).parent.glob("*.py"))
             for line in path.read_text().splitlines()]
    assert {message: sum(message in line for line in lines) for message in RULE_MESSAGES} == (
        dict.fromkeys(RULE_MESSAGES, 1))


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


def test_no_module_imports_a_private_name_from_simulate():
    # simulate.py steps every chain; the other modules call only its public names.
    modules = [path for path in Path(stableou.__file__).parent.glob("*.py")
               if path.name != "simulate.py"]
    private = [
        (path.name, alias.name)
        for path in sorted(modules)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, "simulate"), (0, "stableou.simulate"))
        for alias in node.names if alias.name.startswith("_")
    ]
    assert modules and private == []


def test_no_module_has_an_unused_import():
    # No linter runs with the tests, and a change that deletes the last use of
    # a name should delete its import too. An alias on a line marked
    # "# noqa: F401" counts as used, and so do the package's re-exports.
    unused = []
    for path in sorted(Path(stableou.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(stableou.__all__)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append((path.name, alias.lineno, bound))
    assert unused == []


# Standard-library names that exist only from Python 3.11: hashlib.file_digest,
# the tomllib module, the ExceptionGroup builtin, typing.Self, datetime.UTC,
# enum.StrEnum and asyncio.TaskGroup.
NAMES_FROM_311 = {"file_digest", "tomllib", "ExceptionGroup", "Self", "UTC", "StrEnum",
                  "TaskGroup"}


def test_sources_parse_and_resolve_on_python_310():
    # pyproject.toml allows Python 3.10, but tier-1 runs on 3.11 only, so this
    # static check is the one guard for 3.10: every module must parse with the
    # 3.10 grammar and use none of the names above, as a bare name, as an
    # attribute of any object or in an import.
    found = []
    for path in sorted(Path(stableou.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), feature_version=(3, 10))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            found += [(path.name, node.lineno, name) for name in names if name in NAMES_FROM_311]
    assert found == []

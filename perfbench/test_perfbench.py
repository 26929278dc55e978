"""The benchmark's own checks: each passes on the program's outputs at fresh
seeds and fails when fed a wrong answer.

    python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from stableou import simulate  # noqa: E402
from stableou.rng import RngStream  # noqa: E402

# Seeds not used to calibrate the tolerances or to produce the README figures.
FRESH = (9001, 9002)


@pytest.fixture(scope="module", params=FRESH)
def theory(request, tmp_path_factory):
    wl = workloads.Theory(request.param, tmp_path_factory.mktemp("theory"))
    return wl, [wl.round(0), wl.round(1)]


def _instances(results):
    return [r for res in results for r in res["instances"]]


def test_theory_passes(theory):
    wl, results = theory
    assert wl.check(results) == []


def test_halved_bound_fails(theory):
    _, results = theory
    assert any(checks.check_bound_dominates(r["exact"], r["bound"] / 2.0)
               for r in _instances(results))


def _shifted_threshold(level):
    """The threshold scan with psi(2 - 1/alpha) in place of psi(1 - 1/alpha)."""
    from scipy.special import digamma

    grid = np.linspace(1.0001, 2.0, 20001)
    ok = np.flatnonzero(3.0 - np.log(grid) - digamma(2.0 - 1.0 / grid) <= math.log(level))
    return float(grid[ok[0]]) if ok.size else None


def test_shifted_threshold_formula_fails(theory):
    _, results = theory
    found = [r for r in _instances(results) if r["threshold"] is not None]
    assert found, "no instance with a threshold"
    for r in found:
        level = r["inst"]["level"]
        assert checks.check_threshold(level, 1.0, r["threshold"]) == []
        assert checks.check_threshold(level, 1.0, _shifted_threshold(level))
        assert checks.check_threshold(level, 1.0, None)
    missing = [r for r in _instances(results) if r["threshold"] is None]
    assert missing, "no instance without a threshold"
    assert all(checks.check_threshold(r["inst"]["level"], 1.0, 1.9) for r in missing)


def test_wrong_alpha2_difference_fails(theory):
    _, results = theory
    r = next(r for r in _instances(results) if r["inst"]["alpha"] == 2.0)
    inst = r["inst"]
    assert checks.check_alpha2_closed_form(inst["X"], inst["X_hat"], inst["us"], r["exact"]) == []
    assert checks.check_alpha2_closed_form(inst["X"], inst["X_hat"], inst["us"], r["exact"] * 1.001)


def test_wrong_quadrature_fails(theory):
    _, results = theory
    r = next(r for r in _instances(results) if r["inst"]["alpha"] == 1.5)
    inst, us = r["inst"], r["inst"]["us"][:2]
    assert checks.check_quadrature(inst["X"], inst["X_hat"], 1.5, us, r["exact"][:2]) == []
    assert checks.check_quadrature(inst["X"], inst["X_hat"], 1.5, us, r["exact"][:2] + 1e-6)


def test_identity_drift_at_another_alpha_fails():
    us = np.array([[0.3, -0.8], [1.1, 0.4]])
    right = [math.exp(-float(np.linalg.norm(u)) ** 1.5 / 1.5) for u in us]
    wrong = [math.exp(-float(np.linalg.norm(u)) ** 1.8 / 1.8) for u in us]
    assert checks.check_identity_drift(us, 1.5, right) == []
    assert checks.check_identity_drift(us, 1.5, wrong)


@pytest.mark.parametrize("seed", FRESH)
def test_long_chain_passes_and_fails_at_another_alpha(seed, tmp_path):
    wl = workloads.LongChain(seed, tmp_path)
    results = [wl.round(1), wl.round(2)]  # alpha 1.5 and 1.8
    assert wl.check(results) == []
    for res, other in zip(results, (1.2, 2.0)):
        x = res["samples"][:, 0]
        assert checks.check_chain_char_fn(x, wl.GRID, res["ecf"], other, wl.ETA, 1.0)


def test_long_chain_continuous_time_scale_fails(tmp_path):
    """Samples 10 % wider than the chain's law are caught."""
    wl = workloads.LongChain(FRESH[0], tmp_path)
    res = wl.round(1)
    x = 1.1 * res["samples"][:, 0]
    ecf = np.exp(1j * np.outer(x, wl.GRID)).mean(axis=0)
    assert checks.check_chain_char_fn(x, wl.GRID, ecf, res["alpha"], wl.ETA, 1.0)


def test_coupled_gap_passes_and_doubled_or_halved_fails(tmp_path):
    wl = workloads.CoupledGap(FRESH[0], tmp_path)
    results = [wl.round(0), wl.round(3)]  # n = 250 and n = 2000
    assert wl.check(results) == []
    for factor in (2.0, 0.5):
        wrong = [(r["n"], factor * r["gap"]) for r in results]
        assert checks.check_gaps(wrong, wl.ALPHA, wl.ETA, wl.BURN)


def test_exact_gap_decays_like_one_over_n():
    g = [checks.exact_gap(n, 1.5, 0.005, 2000) for n in (1000, 2000)]
    assert 1.95 < g[0] / g[1] < 2.05


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    wl = workloads.Sweep(FRESH[1], tmp_path_factory.mktemp("sweep"))
    return wl, wl.round(0)


def test_sweep_passes(sweep):
    wl, res = sweep
    assert wl.check([res]) == []


def test_sweep_wrong_outputs_fail(sweep):
    wl, res = sweep
    rows = workloads._read_csv(res["out"] / "records.csv")
    agg = workloads._read_csv(res["out"] / "aggregate.csv")
    assert checks.check_aggregate(rows, agg) == []
    agg[3]["median"] = agg[3]["q75"]
    assert checks.check_aggregate(rows, agg)
    rows[5]["diverged"] = "1"
    assert checks.check_sweep_records(rows, wl.OPS)
    assert checks.check_sweep_records(rows[:-1], wl.OPS)


def test_residuals_at_another_alpha_fail():
    rng = np.random.default_rng(FRESH[0])
    train = rng.uniform(-4.0, 4.0, size=(1000, 20))
    problem = simulate.QuadraticProblem(train)
    A = train.T @ train / 1000
    sim = simulate.SimConfig(eta=0.1, steps=3000, alpha=1.5, noise_scale=0.1)
    traj = simulate.euler_maruyama_run(problem, sim, stream=RngStream(FRESH[1]))
    assert checks.check_residual_law(traj.iterates, A, np.zeros(20), 0.1, 1.5, 0.1) == []
    assert checks.check_residual_law(traj.iterates, A, np.zeros(20), 0.1, 1.8, 0.1)
    assert checks.check_residual_law(traj.iterates, A, np.zeros(20), 0.1, 1.5, 0.12)
    population = rng.uniform(-4.0, 4.0, size=(5000, 20))
    theta = traj.final
    right = abs(np.mean(np.abs(train @ theta)) - np.mean(np.abs(population @ theta)))
    assert checks.check_generalization_error(theta, train, population, 1.0, right) == []
    assert checks.check_generalization_error(theta, train, population, 1.0, 1.01 * right)

import csv
import math

import numpy as np
import pytest

from stableou import (
    AccuracyError,
    ParameterError,
    QuadraticProblem,
    RngStream,
    ShapeError,
    SimConfig,
    Trajectory,
    default_burn_in,
    euler_maruyama_run,
    stationary_sample,
    trajectory_to_csv,
)


def make_problem(seed=0, n=50, d=3, with_targets=False):
    gen = RngStream(seed).generator
    X = gen.standard_normal((n, d))
    y = gen.standard_normal(n) if with_targets else None
    return QuadraticProblem(X, y)


class TestQuadraticProblem:
    def test_drift_matrix_and_targets(self):
        X = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        y = np.array([1.0, 1.0, 0.0])
        prob = QuadraticProblem(X, y)
        np.testing.assert_allclose(prob.A, X.T @ X / 3.0)
        np.testing.assert_allclose(prob.b, X.T @ y / 3.0)
        assert prob.n == 3 and prob.d == 2

    def test_one_dimensional_data_is_promoted(self):
        prob = QuadraticProblem(np.array([1.0, 2.0, 3.0]))
        assert prob.X.shape == (3, 1)
        assert prob.A.shape == (1, 1)
        np.testing.assert_allclose(prob.A[0, 0], (1.0 + 4.0 + 9.0) / 3.0)

    def test_default_targets_are_zero(self):
        prob = make_problem()
        np.testing.assert_array_equal(prob.y, np.zeros(prob.n))
        np.testing.assert_array_equal(prob.b, np.zeros(prob.d))

    def test_drift_is_symmetric_psd(self):
        prob = make_problem(seed=3, n=20, d=6)
        np.testing.assert_allclose(prob.A, prob.A.T)
        assert prob.lambda_min >= -1e-12
        assert prob.lambda_max >= prob.lambda_min

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            QuadraticProblem(np.ones((2, 2, 2)))
        with pytest.raises(ShapeError):
            QuadraticProblem(np.empty((0, 2)))
        with pytest.raises(ShapeError):
            QuadraticProblem(np.ones((4, 2)), np.ones(3))


class TestSimConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            SimConfig(eta=0.0, steps=10, alpha=1.5)
        with pytest.raises(ParameterError):
            SimConfig(eta=0.1, steps=0, alpha=1.5)
        with pytest.raises(ParameterError):
            SimConfig(eta=0.1, steps=10, alpha=2.5)
        with pytest.raises(ParameterError):
            SimConfig(eta=0.1, steps=10, alpha=1.5, burn_in=10)
        with pytest.raises(ParameterError):
            SimConfig(eta=0.1, steps=10, alpha=1.5, noise_scale=-0.1)
        with pytest.raises(ShapeError):
            SimConfig(eta=0.1, steps=10, alpha=1.5, noise_matrix=np.ones((2, 3)))

    def test_compares_and_hashes_by_value(self):
        base = dict(eta=0.1, steps=10, alpha=1.5)
        cfg = SimConfig(**base, noise_matrix=np.eye(2))
        same = SimConfig(**base, noise_matrix=[[1.0, 0.0], [0.0, 1.0]])
        assert cfg == same and hash(cfg) == hash(same)
        assert cfg != SimConfig(**base, noise_matrix=np.diag([1.0, 2.0]))
        assert cfg != SimConfig(**base)
        assert cfg != SimConfig(**{**base, "eta": 0.2}, noise_matrix=np.eye(2))
        assert SimConfig(**base) == SimConfig(**base)
        assert len({cfg, same, SimConfig(**base)}) == 2

    def test_noise_matrix_is_a_read_only_copy(self):
        m = np.eye(2)
        cfg = SimConfig(eta=0.1, steps=10, alpha=1.5, noise_matrix=m)
        m[0, 0] = 5.0
        assert cfg.noise_matrix[0, 0] == 1.0
        with pytest.raises(ValueError):
            cfg.noise_matrix[0, 0] = 5.0

    def test_effective_noise_defaults_to_scaled_identity(self):
        cfg = SimConfig(eta=0.1, steps=10, alpha=1.5, noise_scale=0.3)
        np.testing.assert_allclose(cfg.effective_noise(4), 0.3 * np.eye(4))

    def test_effective_noise_checks_dimension(self):
        cfg = SimConfig(eta=0.1, steps=10, alpha=1.5, noise_matrix=np.eye(2))
        with pytest.raises(ShapeError):
            cfg.effective_noise(3)


def test_noiseless_run_is_gradient_descent():
    prob = make_problem(seed=1, with_targets=True)
    cfg = SimConfig(eta=0.05, steps=7, alpha=1.5, noise_scale=0.0)
    theta0 = RngStream(2).generator.standard_normal(prob.d)
    traj = euler_maruyama_run(prob, cfg, theta0)
    theta = theta0.copy()
    for _ in range(7):
        theta = theta - 0.05 * (prob.A @ theta - prob.b)
    np.testing.assert_allclose(traj.final, theta, rtol=1e-13)
    assert len(traj) == 8
    np.testing.assert_array_equal(traj.iterates[0], theta0)


def test_noiseless_contraction_reaches_zero():
    prob = make_problem(seed=4, n=40, d=4)
    cfg = SimConfig(eta=0.3, steps=4000, alpha=2.0, noise_scale=0.0)
    traj = euler_maruyama_run(prob, cfg, np.ones(prob.d))
    norms = np.linalg.norm(traj.iterates, axis=1)
    assert norms[-1] < 1e-10
    assert np.all(np.diff(norms) <= 1e-15)


def test_unstable_step_size_is_rejected():
    prob = make_problem(seed=5)
    eta_bad = 2.5 / prob.lambda_max
    cfg = SimConfig(eta=eta_bad, steps=10, alpha=2.0, noise_scale=0.0)
    with pytest.raises(ParameterError):
        euler_maruyama_run(prob, cfg, np.ones(prob.d))


def test_unstable_override_warns_and_flags_divergence():
    prob = QuadraticProblem(np.ones(4))
    cfg = SimConfig(eta=2.5, steps=3000, alpha=2.0, noise_scale=0.0, allow_unstable=True)
    with pytest.warns(UserWarning):
        traj = euler_maruyama_run(prob, cfg, np.array([1.0]))
    assert traj.diverged
    assert len(traj) < cfg.steps + 1
    assert np.all(np.isfinite(traj.iterates))
    assert np.all(np.abs(traj.iterates) <= 1e300)


def test_noise_requires_a_stream():
    prob = make_problem()
    cfg = SimConfig(eta=0.05, steps=10, alpha=1.5, noise_scale=1.0)
    with pytest.raises(ParameterError):
        euler_maruyama_run(prob, cfg, None, None)


def test_trajectory_is_deterministic_in_the_seed():
    prob = make_problem(seed=6)
    cfg = SimConfig(eta=0.05, steps=200, alpha=1.4, noise_scale=0.5)
    a = euler_maruyama_run(prob, cfg, None, RngStream(77))
    b = euler_maruyama_run(prob, cfg, None, RngStream(77))
    np.testing.assert_array_equal(a.iterates, b.iterates)
    assert a.seed_provenance == {"seed": 77, "path": []}


def test_injected_noise_scaling_at_alpha_two():
    # With A = 0 the iterates accumulate raw noise, so the per-step increment
    # variance must equal 2 * eta * noise_scale^2 (Brownian reduction).
    prob = QuadraticProblem(np.zeros((1, 1)))
    cfg = SimConfig(eta=0.04, steps=20000, alpha=2.0, noise_scale=0.7)
    traj = euler_maruyama_run(prob, cfg, None, RngStream(8))
    increments = np.diff(traj.iterates[:, 0])
    assert np.var(increments) == pytest.approx(2.0 * 0.04 * 0.49, rel=0.05)


def test_theta0_dimension_checked():
    prob = make_problem()
    cfg = SimConfig(eta=0.05, steps=10, alpha=1.5, noise_scale=0.0)
    with pytest.raises(ShapeError):
        euler_maruyama_run(prob, cfg, np.ones(prob.d + 1))


def test_default_burn_in_is_ten_mixing_times():
    prob = QuadraticProblem(np.ones(10))  # lambda_min = 1
    cfg = SimConfig(eta=0.01, steps=100000, alpha=1.5)
    assert default_burn_in(prob, cfg) == 1000
    short = SimConfig(eta=0.01, steps=500, alpha=1.5)
    assert default_burn_in(prob, short) == 499


class TestStationarySample:
    def test_empty_request(self):
        prob = make_problem()
        cfg = SimConfig(eta=0.05, steps=100, alpha=1.5, burn_in=10)
        out = stationary_sample(prob, cfg, RngStream(0), 0)
        assert out.shape == (0, prob.d)

    def test_thinning_selects_expected_iterates(self):
        prob = QuadraticProblem(np.ones(5), np.ones(5) * 2.0)
        cfg = SimConfig(eta=0.5, steps=60, alpha=1.5, noise_scale=0.0, burn_in=20)
        traj = euler_maruyama_run(prob, cfg, np.array([5.0]))
        got = stationary_sample(prob, cfg, RngStream(0), 4, thinning=10)
        np.testing.assert_allclose(got[:, 0], traj.iterates[[30, 40, 50, 60], 0])

    def test_insufficient_steps_rejected(self):
        prob = make_problem()
        cfg = SimConfig(eta=0.05, steps=50, alpha=1.5, burn_in=10)
        with pytest.raises(ParameterError):
            stationary_sample(prob, cfg, RngStream(0), 100, thinning=10)

    def test_short_burn_in_warns(self):
        prob = QuadraticProblem(np.ones(10))
        cfg = SimConfig(eta=0.01, steps=1000, alpha=2.0, burn_in=5)
        with pytest.warns(UserWarning):
            stationary_sample(prob, cfg, RngStream(1), 10, thinning=1)

    def test_divergence_during_burn_in_is_an_accuracy_error(self):
        # Noise kicks theta off zero; the unstable contraction then overflows
        # well before the requested burn-in completes.
        prob = QuadraticProblem(np.ones(4))
        cfg = SimConfig(
            eta=2.5, steps=4000, alpha=2.0, noise_scale=1.0, burn_in=3500, allow_unstable=True
        )
        with pytest.warns(UserWarning), pytest.raises(AccuracyError):
            stationary_sample(prob, cfg, RngStream(2), 10, thinning=1)

    def test_gaussian_stationary_variance(self):
        # d=1 with unit drift and a sqrt(2)-Brownian driver settles at N(0,1).
        prob = QuadraticProblem(np.ones(100))
        cfg = SimConfig(eta=0.01, steps=100000, alpha=2.0, noise_scale=1.0)
        s = stationary_sample(prob, cfg, RngStream(30), 10000, thinning=9)
        assert np.var(s[:, 0]) == pytest.approx(1.0, rel=0.1)

    def test_heavy_tailed_stationary_location(self):
        # Targets chosen so the stationary location delta/s is exactly 3.
        prob = QuadraticProblem(np.ones(100), 3.0 * np.ones(100))
        cfg = SimConfig(eta=0.01, steps=100000, alpha=1.5, noise_scale=1.0)
        s = stationary_sample(prob, cfg, RngStream(33), 10000, thinning=9)
        assert np.median(s[:, 0]) == pytest.approx(3.0, abs=0.1)


def test_moment_stabilization_depends_on_order():
    # Running means of |theta|^p settle for p < alpha but keep drifting for
    # p >= alpha when alpha < 2.
    from stableou import cauchy_doubling_check

    prob = QuadraticProblem(np.ones(100))
    cfg = SimConfig(eta=0.01, steps=100000, alpha=1.5, noise_scale=1.0)
    s = stationary_sample(prob, cfg, RngStream(34), 10000, thinning=9)[:, 0]
    ok_low, change_low = cauchy_doubling_check(np.abs(s) ** 0.5, initial_window=500)
    ok_high, change_high = cauchy_doubling_check(np.abs(s) ** 1.9, initial_window=500)
    assert ok_low
    assert change_high > change_low


def test_trajectory_csv_round_trip(tmp_path):
    prob = make_problem(seed=9, d=2)
    cfg = SimConfig(eta=0.05, steps=20, alpha=1.5, noise_scale=0.4)
    traj = euler_maruyama_run(prob, cfg, None, RngStream(40))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "theta_1", "theta_2"]
    assert len(rows) == len(traj) + 1
    recovered = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    np.testing.assert_array_equal(recovered, traj.iterates)


def test_trajectory_final_property():
    t = Trajectory(np.arange(6.0).reshape(3, 2), {}, {})
    np.testing.assert_array_equal(t.final, [4.0, 5.0])
    assert len(t) == 3

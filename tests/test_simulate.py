import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from stableou import (
    AccuracyError,
    DegenerateDataError,
    NeighborPair,
    ParameterError,
    QuadraticProblem,
    RngStream,
    ShapeError,
    SimConfig,
    StationaryCharFn,
    Trajectory,
    char_fn_diff_bound_1d,
    char_fn_diff_bound_dd,
    char_fn_diff_exact,
    default_burn_in,
    empirical_stability_gap,
    euler_maruyama_run,
    exact_stability_gap,
    final_iterate,
    sample_skewed_positive_stable,
    stationary_sample,
)
from stableou.sampling import _BLOCK
from stableou.simulate import _driving_noise


def make_problem(seed=0, n=50, d=3):
    return QuadraticProblem(RngStream(seed).generator.standard_normal((n, d)))


class TestQuadraticProblem:
    def test_drift_matrix_and_targets(self):
        X = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        prob = QuadraticProblem(X)
        np.testing.assert_allclose(prob.A, X.T @ X / 3.0)
        assert prob.n == 3 and prob.d == 2

    def test_one_dimensional_data_is_promoted(self):
        prob = QuadraticProblem(np.array([1.0, 2.0, 3.0]))
        assert prob.X.shape == (3, 1)
        assert prob.A.shape == (1, 1)
        np.testing.assert_allclose(prob.A[0, 0], (1.0 + 4.0 + 9.0) / 3.0)

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

    def test_compares_and_hashes_by_value(self):
        base = dict(eta=0.1, steps=10, alpha=1.5)
        cfg = SimConfig(**base, noise_scale=0.5)
        same = SimConfig(eta=0.1, steps=10.0, alpha=1.5, noise_scale=0.5)
        assert cfg == same and hash(cfg) == hash(same)
        assert cfg != SimConfig(**base)
        assert cfg != SimConfig(**{**base, "eta": 0.2}, noise_scale=0.5)
        assert cfg != SimConfig(**base, noise_scale=0.5, burn_in=3)
        assert SimConfig(**base) == SimConfig(**base)
        assert len({cfg, same, SimConfig(**base)}) == 2


def test_unstable_step_size_is_rejected():
    prob = QuadraticProblem(np.ones(4))  # lambda_max = 1, so eta * lambda_max = eta
    for eta in (2.0, 2.5):
        cfg = SimConfig(eta=eta, steps=10, alpha=2.0)
        for run in (euler_maruyama_run, final_iterate):
            with pytest.raises(ParameterError, match=">= 2 diverges without noise$"):
                run(prob, cfg, stream=RngStream(0))


def test_noise_requires_a_stream():
    prob = make_problem()
    cfg = SimConfig(eta=0.05, steps=10, alpha=1.5, noise_scale=1.0)
    with pytest.raises(TypeError, match="stream"):
        euler_maruyama_run(prob, cfg)
    with pytest.raises(TypeError, match="stream"):
        final_iterate(prob, cfg)


def test_a_positional_third_argument_to_a_run_is_refused():
    # It was the start theta_0; the stream is keyword-only, so an old call fails loudly.
    prob = make_problem()
    cfg = SimConfig(eta=0.05, steps=10, alpha=1.5, noise_scale=1.0)
    with pytest.raises(TypeError, match="positional"):
        euler_maruyama_run(prob, cfg, np.ones(prob.d))


def test_trajectory_is_deterministic_in_the_seed():
    prob = make_problem(seed=6)
    cfg = SimConfig(eta=0.05, steps=200, alpha=1.4, noise_scale=0.5)
    a = euler_maruyama_run(prob, cfg, stream=RngStream(77))
    b = euler_maruyama_run(prob, cfg, stream=RngStream(77))
    np.testing.assert_array_equal(a.iterates, b.iterates)


def test_injected_noise_scaling_at_alpha_two():
    # With A = 0 the iterates accumulate raw noise, so the per-step increment
    # variance must equal 2 * eta * noise_scale^2 (Brownian reduction).
    prob = QuadraticProblem(np.zeros((1, 1)))
    cfg = SimConfig(eta=0.04, steps=20000, alpha=2.0, noise_scale=0.7)
    traj = euler_maruyama_run(prob, cfg, stream=RngStream(8))
    increments = np.diff(traj.iterates[:, 0])
    assert np.var(increments) == pytest.approx(2.0 * 0.04 * 0.49, rel=0.05)


def replayed_final_iterate(prob, cfg, stream):
    """Q (sqrt(v) * h) from the draws final_iterate takes, with v stepped one step at a time.

    final_iterate draws the d Gaussians h and then the T subordinator values
    (none at alpha = 2); here v <- m^2 v + s_k^2 runs over the steps.
    """
    alpha, eta = cfg.alpha, cfg.eta
    h = stream.generator.standard_normal(prob.d)
    if alpha == 2.0:
        a = np.ones(cfg.steps)
    else:
        a = sample_skewed_positive_stable(alpha / 2.0, stream, cfg.steps)
    m = 1.0 - eta * prob.eigenvalues
    v = np.zeros(prob.d)
    for a_k in a:
        v = m * m * v + 2.0 * eta ** (2.0 / alpha) * cfg.noise_scale**2 * a_k
    return prob.eigenvectors @ (np.sqrt(v) * h)


class TestFinalIterate:
    # Steps cover a single step, 37 = 6 * 6 + 1 and 1000 = 31 * 32 + 8, which is no
    # multiple of its block size isqrt(1000) = 31; a contraction eta * lambda_max
    # in (1, 2) makes some 1 - eta * lambda negative.
    @pytest.mark.parametrize("d", [1, 7, 100])
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
    @pytest.mark.parametrize(
        "steps, contraction, noise_scale",
        [(1, 0.5, 0.1), (37, 0.3, 1.0), (1000, 0.5, 0.1), (1000, 1.6, 0.1)],
    )
    def test_matches_the_loop(self, d, alpha, steps, contraction, noise_scale):
        prob = make_problem(seed=d, n=200, d=d)
        cfg = SimConfig(
            eta=contraction / prob.lambda_max, steps=steps, alpha=alpha, noise_scale=noise_scale
        )
        # The draw is checked against its law stepped one step at a time.
        expected = replayed_final_iterate(prob, cfg, RngStream(11))
        theta, diverged = final_iterate(prob, cfg, RngStream(11))
        assert not diverged
        assert np.linalg.norm(theta - expected) <= 1e-12 * np.linalg.norm(expected)

    @staticmethod
    def law_problem(d, alpha):
        prob = make_problem(seed=d, n=200, d=d)
        cfg = SimConfig(eta=1.6 / prob.lambda_max, steps=100, alpha=alpha, noise_scale=0.5)
        return prob, cfg, np.linspace(1.0, 2.0, d)

    @pytest.mark.parametrize("d", [1, 7])
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
    def test_projections_follow_the_exact_law(self, d, alpha):
        # From 0, theta_T^T z is scalar SaS with
        # scale^alpha = noise_scale^alpha eta sum_{j<T} ||M^j z||^alpha, M = I - eta A.
        prob, cfg, z = self.law_problem(d, alpha)
        M = np.eye(d) - cfg.eta * prob.A
        norms = [np.linalg.norm(np.linalg.matrix_power(M, j) @ z) for j in range(cfg.steps)]
        scale = (cfg.noise_scale**alpha * cfg.eta * np.sum(np.power(norms, alpha))) ** (1 / alpha)
        if alpha == 2.0:
            law = scipy.stats.norm(scale=math.sqrt(2.0) * scale)
        else:
            law = scipy.stats.levy_stable(alpha, 0.0, scale=scale)
        draws = np.array([final_iterate(prob, cfg, RngStream(500 + r))[0] @ z for r in range(1000)])
        assert scipy.stats.kstest(draws, law.cdf).pvalue > 0.01

    @pytest.mark.parametrize("d", [1, 7])
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
    def test_projections_match_the_loop_in_law(self, d, alpha):
        prob, cfg, z = self.law_problem(d, alpha)
        exact = [final_iterate(prob, cfg, RngStream(2000 + r))[0] @ z for r in range(400)]
        looped = [euler_maruyama_run(prob, cfg, stream=RngStream(3000 + r)).final @ z
                  for r in range(400)]
        assert scipy.stats.ks_2samp(exact, looped).pvalue > 0.01

    @pytest.mark.parametrize(
        "alpha, contraction, noise_scale, diverges",
        [
            (0.01, 0.5, 0.1, True),  # infinite shocks
            (2.0, 0.5, 1e298, False),  # the shocks' norms sum past 1e300, the iterates do not
            (2.0, 0.5, 1e300, True),
            (1.0, 0.5, 1e297, True),  # past 1e300 first at step 1488, back below at the end
        ],
    )
    def test_uncertified_runs_step_the_loop(self, alpha, contraction, noise_scale, diverges):
        prob = make_problem(seed=9, n=40, d=4)
        cfg = SimConfig(
            eta=contraction / prob.lambda_max, steps=3000, alpha=alpha, noise_scale=noise_scale
        )
        # A fresh stream, and one that has drawn already: the fallback rewinds to
        # where final_iterate began drawing, not to the stream's seed.
        for predrawn in (0, 5):
            loop_stream, stream = RngStream(12), RngStream(12)
            loop_stream.generator.standard_normal(predrawn)
            stream.generator.standard_normal(predrawn)
            traj = euler_maruyama_run(prob, cfg, stream=loop_stream)
            theta, diverged = final_iterate(prob, cfg, stream)
            assert diverged == traj.diverged == diverges
            np.testing.assert_array_equal(theta, traj.final)
            assert stream.generator.bit_generator.state == loop_stream.generator.bit_generator.state


def stepped_with_a_check(prob, cfg, stream):
    """The recursion from zero on euler_maruyama_run's shocks, stopped before its first
    iterate that is non-finite or has a coordinate above 1e300 in magnitude."""
    path = [np.zeros(prob.d)]
    with np.errstate(over="ignore", invalid="ignore"):
        for shock in _driving_noise(prob.d, cfg, stream, cfg.steps):
            theta = path[-1] - cfg.eta * (prob.A @ path[-1]) + shock
            if not np.all(np.abs(theta) <= 1e300):
                return np.array(path), True
            path.append(theta)
    return np.array(path), False


@pytest.mark.parametrize(
    "prob, cfg",
    [
        # Infinite shocks.
        (make_problem(seed=9, n=40, d=4), SimConfig(eta=0.1, steps=3000, alpha=0.01,
                                                    noise_scale=0.1)),
        # Cauchy shocks push theta past 1e300 from step 179 on, 37 times in all,
        # and it ends back below.
        (make_problem(seed=9, n=40, d=4), SimConfig(eta=0.25, steps=3000, alpha=1.0,
                                                    noise_scale=1e298)),
        # A run that stays in range keeps every step.
        (make_problem(seed=9, n=40, d=4), SimConfig(eta=0.1, steps=500, alpha=1.5)),
        # Its shocks are drawn and stepped in three blocks.
        (make_problem(seed=9, n=40, d=2), SimConfig(eta=0.1, steps=2 * _BLOCK + 5, alpha=1.2)),
        # eta^(1/alpha) = 3^1000 is past float range, so every shock is infinite;
        # as a Python float it raised OverflowError.
        (QuadraticProblem(np.full(10, 0.05)), SimConfig(eta=3.0, steps=10, alpha=0.001)),
    ],
)
def test_one_scan_cuts_where_a_per_step_check_stops(prob, cfg):
    expected, diverged = stepped_with_a_check(prob, cfg, RngStream(4))
    traj = euler_maruyama_run(prob, cfg, stream=RngStream(4))
    np.testing.assert_array_equal(traj.iterates, expected)
    np.testing.assert_array_equal(traj.final, expected[-1])
    assert traj.diverged == diverged
    if diverged:
        # final_iterate cannot certify these runs, so it steps their shocks from the same stream.
        theta, flag = final_iterate(prob, cfg, RngStream(4))
        np.testing.assert_array_equal(theta, expected[-1])
        assert flag


def test_default_burn_in_is_ten_mixing_times():
    prob = QuadraticProblem(np.ones(10))  # lambda_min = 1
    cfg = SimConfig(eta=0.01, steps=100000, alpha=1.5)
    assert default_burn_in(prob, cfg) == 1000
    assert default_burn_in(prob, SimConfig(eta=0.01, steps=100000, alpha=1.5, burn_in=2000)) == 2000
    short = SimConfig(eta=0.01, steps=500, alpha=1.5)
    with pytest.warns(UserWarning, match="too short"):
        assert default_burn_in(prob, short) == 499


# The Gram eigenvalues are (0, 2): along e_2 the chain is a random walk whose
# spread grows with the burn-in, so no burn-in gives stationary draws.
SINGULAR = QuadraticProblem(np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
NOISY = SimConfig(eta=0.1, steps=10000, alpha=2.0, noise_scale=1.0)


SINGULAR_PAIR = NeighborPair(SINGULAR.X, [[1.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
# Finite data whose Gram matrix overflows to inf has nan eigenvalues.
OVERFLOWING_X = np.array([[1.0, 0.0], [1e200, 1.0], [2.0, 0.0]])
with np.errstate(over="ignore"):
    OVERFLOWING = QuadraticProblem(OVERFLOWING_X)
    OVERFLOWING_PAIR = NeighborPair([[1.0, 0.0], [1.0, 1.0], [2.0, 0.0]], OVERFLOWING_X)


# Every consumer of the stationary law refuses a problem that has none, by one rule.
@pytest.mark.parametrize("draw", [
    lambda: default_burn_in(SINGULAR, NOISY),
    lambda: stationary_sample(SINGULAR, NOISY, RngStream(0), 10),
    lambda: stationary_sample(SINGULAR, replace(NOISY, burn_in=100), RngStream(0), 10),
    lambda: StationaryCharFn(SINGULAR.A, 1.5),
    lambda: StationaryCharFn(SINGULAR, 1.5),
    lambda: exact_stability_gap(SINGULAR_PAIR, [[1.0, 1.0]], 1.0, 1.5),
    lambda: char_fn_diff_exact(SINGULAR_PAIR, 1.5, [1.0, 1.0]),
    lambda: char_fn_diff_bound_1d(NeighborPair(np.zeros(3), [1.0, 0.0, 0.0]), 1.5, 1.0),
    lambda: char_fn_diff_bound_dd(SINGULAR_PAIR, 1.5, [1.0, 1.0]),
    lambda: empirical_stability_gap(SINGULAR_PAIR, [[1.0, 1.0]], 1.0, 2.0, NOISY, 200,
                                    RngStream(0)),
], ids=["default_burn_in", "stationary_sample", "stationary_sample-burn_in",
        "StationaryCharFn-matrix", "StationaryCharFn-problem", "exact_stability_gap",
        "char_fn_diff_exact", "char_fn_diff_bound_1d-zero_data", "char_fn_diff_bound_dd",
        "empirical_stability_gap"])
def test_a_singular_gram_matrix_does_not_mix(draw):
    with pytest.raises(DegenerateDataError, match="eigenvalue is 0; the chain does not mix"):
        draw()


@pytest.mark.parametrize("draw", [
    lambda: default_burn_in(OVERFLOWING, NOISY),
    lambda: StationaryCharFn(OVERFLOWING, 1.5),
    lambda: empirical_stability_gap(OVERFLOWING_PAIR, [[1.0, 1.0]], 1.0, 2.0, NOISY, 200,
                                    RngStream(0)),
], ids=["default_burn_in-overflowing_X", "StationaryCharFn-overflowing_X",
        "empirical_stability_gap-overflowing_X_hat"])
def test_a_gram_matrix_with_nan_does_not_mix(draw):
    with pytest.raises(DegenerateDataError, match="eigenvalue is nan; the chain does not mix"):
        draw()


@pytest.mark.parametrize("build", [
    lambda X: QuadraticProblem(X),
    lambda X: NeighborPair([[1.0, 0.0], [1.0, 1.0], [2.0, 0.0]], X),
], ids=["QuadraticProblem", "NeighborPair-X_hat"])
def test_data_with_nan_is_refused_by_the_rows_rule(build):
    # The mixing rule refused it only downstream, once a chain or law was asked for.
    with pytest.raises(ParameterError, match=r"^sample rows must be finite; entry \(1, 0\) is nan"):
        build(np.array([[1.0, 0.0], [np.nan, 1.0], [2.0, 0.0]]))


@pytest.mark.parametrize("A, entry", [
    ([[1.0, np.nan], [np.nan, 1.0]], "(0, 1)"),
    # It built, and exponent([1, 1]) spent 8,192 nodes on a nan estimate.
    ([[1.0, 0.0], [0.0, np.nan]], "(1, 1)"),
    # The mixing rule refused it as a matrix that does not mix.
    ([[2.0, 1.0], [1.0, np.nan]], "(1, 1)"),
], ids=["nan_matrix", "nan_diagonal", "nan_coupled"])
def test_a_drift_matrix_with_nan_is_refused_by_the_rows_rule(A, entry):
    with pytest.raises(ParameterError) as info:
        StationaryCharFn(A, 1.5)
    assert str(info.value) == f"sample rows must be finite; entry {entry} is nan"


class TestStationarySample:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(n_samples=-1), "n_samples must be >= 0"),
        (dict(n_samples=10, thinning=0), "thinning must be >= 1"),
    ], ids=["n_samples", "thinning"])
    def test_bad_counts_rejected(self, kwargs, message):
        with pytest.raises(ParameterError, match=message):
            stationary_sample(make_problem(), NOISY, RngStream(0), **kwargs)

    def test_empty_request(self):
        prob = make_problem()
        cfg = SimConfig(eta=0.05, steps=100, alpha=1.5, burn_in=10)
        out = stationary_sample(prob, cfg, RngStream(0), 0)
        assert out.shape == (0, prob.d)

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("alpha", [1.2, 2.0])
    @pytest.mark.parametrize("steps, n_samples, thinning", [
        (60, 4, 10),  # the last draw is the last step
        (75, 4, 10),  # 15 steps are never run
        (3 * _BLOCK, 900, 10),  # 9,020 steps in three blocks, the last one cut short
    ])
    def test_thinning_selects_expected_iterates(self, d, alpha, steps, n_samples, thinning):
        # Gram eigenvalues spread over [1, 2] in a random basis.
        q = np.linalg.qr(RngStream(2).generator.standard_normal((d, d)))[0]
        prob = QuadraticProblem(np.sqrt(d * np.linspace(1.0, 2.0, d))[:, None] * q.T)
        cfg = SimConfig(eta=0.5, steps=steps, alpha=alpha, noise_scale=1.0, burn_in=20)
        traj = euler_maruyama_run(prob, cfg, stream=RngStream(0))
        got = stationary_sample(prob, cfg, RngStream(0), n_samples, thinning=thinning)
        steps_drawn = 20 + thinning * np.arange(1, n_samples + 1)
        np.testing.assert_array_equal(got, traj.iterates[steps_drawn])

    def test_memory_holds_the_draws_not_the_path(self):
        # The 1.6 MB of draws and 3.3 MB blocks of shocks, the next drawn while the
        # last is still held, fit in the bound; the 16 MB path does not. Holding
        # the path and all its shocks traced 31.6 MB.
        prob = QuadraticProblem(math.sqrt(100) * np.eye(100))
        cfg = SimConfig(eta=0.1, steps=20000, alpha=1.5, noise_scale=1.0)
        tracemalloc.start()
        try:
            stationary_sample(prob, cfg, RngStream(0), 2000, thinning=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("steps", [10**5, 10**6])
    def test_noise_memory_does_not_grow_with_the_chain(self, steps):
        # The same 9,100 steps run at either length, and their subordinator is
        # made a block at a time. Drawing all config.steps subordinator values
        # at once traced 1.7 MiB at 10^5 steps and 16.2 MiB at 10^6.
        prob = QuadraticProblem(np.ones(4))
        cfg = SimConfig(eta=0.1, steps=steps, alpha=1.5)
        stream = RngStream(0)
        tracemalloc.start()
        try:
            stationary_sample(prob, cfg, stream, 1000, thinning=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_divergence_in_a_later_block_names_its_step(self):
        prob = QuadraticProblem(np.ones(4))
        cfg = SimConfig(eta=0.1, steps=12000, alpha=0.3, noise_scale=1e290, burn_in=100)
        traj = euler_maruyama_run(prob, cfg, stream=RngStream(0))
        assert traj.diverged and len(traj) - 1 == 5448 > _BLOCK
        with pytest.raises(AccuracyError, match="overflowed after 5448 steps"):
            stationary_sample(prob, cfg, RngStream(0), 54, thinning=100)
        got = stationary_sample(prob, cfg, RngStream(0), 53, thinning=100)
        np.testing.assert_array_equal(got, traj.iterates[100 + 100 * np.arange(1, 54)])

    def test_insufficient_steps_rejected(self):
        prob = make_problem()
        cfg = SimConfig(eta=0.05, steps=50, alpha=1.5, burn_in=10)
        with pytest.raises(ParameterError), pytest.warns(UserWarning, match="burn-in"):
            stationary_sample(prob, cfg, RngStream(0), 100, thinning=10)

    def test_short_burn_in_warns(self):
        prob = QuadraticProblem(np.ones(10))
        cfg = SimConfig(eta=0.01, steps=1000, alpha=2.0, burn_in=5)
        with pytest.warns(UserWarning):
            stationary_sample(prob, cfg, RngStream(1), 10, thinning=1)

    def test_divergence_during_burn_in_is_an_accuracy_error(self):
        # At alpha = 0.01 a shock is often past float range, so the chain
        # overflows long before the requested burn-in completes.
        prob = QuadraticProblem(np.ones(4))
        cfg = SimConfig(eta=0.1, steps=4000, alpha=0.01, noise_scale=1.0, burn_in=3500)
        with pytest.raises(AccuracyError, match="overflowed after 26 steps"):
            stationary_sample(prob, cfg, RngStream(2), 10, thinning=1)

    def test_gaussian_stationary_variance(self):
        # d=1 with unit drift and a sqrt(2)-Brownian driver settles at N(0,1).
        prob = QuadraticProblem(np.ones(100))
        cfg = SimConfig(eta=0.01, steps=100000, alpha=2.0, noise_scale=1.0)
        s = stationary_sample(prob, cfg, RngStream(30), 10000, thinning=9)
        assert np.var(s[:, 0]) == pytest.approx(1.0, rel=0.1)


def test_stepped_chains_keep_their_bytes():
    # Chains of three blocks and more, at fixed seeds: their noise is drawn a
    # block at a time with the one-block draw's values and stream order. A
    # change to what a stepped chain computes must re-pin this hash.
    digest = hashlib.sha256()
    for alpha in (0.7, 1.5, 2.0):
        for d in (1, 3):
            q = np.linalg.qr(RngStream(2).generator.standard_normal((d, d)))[0]
            prob = QuadraticProblem(np.sqrt(d * np.linspace(1.0, 2.0, d))[:, None] * q.T)
            cfg = SimConfig(eta=0.1, steps=3 * _BLOCK + 123, alpha=alpha, burn_in=100)
            traj = euler_maruyama_run(prob, cfg, stream=RngStream(30))
            assert not traj.diverged
            digest.update(traj.iterates.tobytes())
            draws = stationary_sample(prob, cfg, RngStream(31), 1200, thinning=10)
            digest.update(draws.tobytes())
    assert digest.hexdigest() == "ec0a01deccf576ae2d27f574cf653ca07b064bd9d3a6b5a50e1cbc7d6422bb6a"


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


def test_trajectory_final_property():
    t = Trajectory(np.arange(6.0).reshape(3, 2))
    np.testing.assert_array_equal(t.final, [4.0, 5.0])
    assert len(t) == 3

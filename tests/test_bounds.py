import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from stableou import (
    NO_THRESHOLD,
    BoundInputs,
    NeighborPair,
    NoThreshold,
    ParameterError,
    StabilityRegime,
    alpha_factor,
    classify_regime,
    exact_stability_gap,
    threshold_alpha0,
    upper_bound_1d,
    upper_bound_dd,
    variance_threshold,
)


# The paper states the threshold for a noise preconditioner with spectrum
# (lambda_min, lambda_max); it carries an extra -alpha0^2 log(lambda_max / lambda_min).
# Every chain here is driven by isotropic noise, whose spectrum is (1, 1), so the
# oracles below keep that general form and check that the implementation agrees
# with it there.
ISOTROPIC = [(1.0, 1.0)]


def general_log_threshold(a, p, lam):
    lam_min, lam_max = lam
    return (1.0 + 2.0 / p - np.log(a) - scipy.special.digamma(1.0 - p / a)
            - a**2 * math.log(lam_max / lam_min))


class TestBoundInputs:
    def test_defaults_and_confidence_floor(self):
        b = BoundInputs(R=1.0, n=100, p=1.0, alpha=1.5)
        assert b.sigma2 == b.sigma == b.sigma_min == 1.0
        assert b.confidence_floor == 1.0

    def test_confidence_floor_formula(self):
        b = BoundInputs(R=1.0, n=100, p=1.0, alpha=1.5, delta1=0.05, delta2=0.01)
        assert b.confidence_floor == pytest.approx(1.0 - 0.05 - 0.02, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"R": 0.0},
            {"R": -1.0},
            {"n": 0},
            {"p": 0.5},
            {"p": 2.5},
            {"alpha": 0.0},
            {"alpha": 2.1},
            {"sigma2": 0.0},
            {"sigma": -1.0},
            {"sigma_min": -0.1},
            {"sigma": 0.0},
            {"sigma_min": 0.0},
            {"delta1": -0.1},
            {"delta1": 1.0},
            {"delta2": 0.6},
        ],
    )
    def test_rejects_out_of_range_values(self, kwargs):
        base = dict(R=1.0, n=100, p=1.0, alpha=1.5)
        base.update(kwargs)
        with pytest.raises(ParameterError):
            BoundInputs(**base)


class TestRegime:
    def test_partition_examples(self):
        assert classify_regime(1.0, 1.5) is StabilityRegime.STABLE_SURROGATE
        assert classify_regime(2.0, 2.0) is StabilityRegime.GAUSSIAN_SQUARED
        assert classify_regime(1.5, 1.5) is StabilityRegime.UNSTABLE
        assert classify_regime(1.8, 1.5) is StabilityRegime.UNSTABLE
        assert classify_regime(2.0, 1.9999) is StabilityRegime.UNSTABLE

    def test_report_labels_are_stable(self):
        assert StabilityRegime.UNSTABLE.value == "Unstable"
        assert StabilityRegime.STABLE_SURROGATE.value == "StableSurrogate"
        assert StabilityRegime.GAUSSIAN_SQUARED.value == "GaussianSquared"

    @given(
        st.floats(min_value=1.0, max_value=2.0),
        st.floats(min_value=0.05, max_value=2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_partition_is_total_and_exclusive(self, p, alpha):
        regime = classify_regime(p, alpha)
        if p < alpha:
            assert regime is StabilityRegime.STABLE_SURROGATE
        elif p == alpha == 2.0:
            assert regime is StabilityRegime.GAUSSIAN_SQUARED
        else:
            assert regime is StabilityRegime.UNSTABLE


class TestUpperBound1d:
    def test_frozen_oracle_value_at_alpha_two(self):
        b = BoundInputs(R=1.0, n=1000, p=1.0, alpha=2.0, sigma2=1.0)
        assert upper_bound_1d(b) == pytest.approx(3.9894228040143271e-4, rel=1e-12)

    def test_frozen_oracle_value_generic(self):
        b = BoundInputs(R=2.0, n=500, p=1.2, alpha=1.7, sigma2=1.5)
        assert upper_bound_1d(b) == pytest.approx(7.584839974814034e-3, rel=1e-12)

    def test_gaussian_squared_closed_form(self):
        b = BoundInputs(R=1.5, n=200, p=2.0, alpha=2.0, sigma2=0.8)
        expected = 1.5**4 / (0.8**2 * 200)
        assert upper_bound_1d(b) == pytest.approx(expected, rel=1e-12)
        # The p -> 2 limit of the general formula, which holds for every p < 2.
        with pytest.warns(RuntimeWarning, match="near its pole"):
            near = upper_bound_1d(BoundInputs(R=1.5, n=200, p=2.0 - 1e-8, alpha=2.0, sigma2=0.8))
        assert expected == pytest.approx(near, rel=1e-6)

    @pytest.mark.parametrize("X, x_hat0, R", [
        (np.ones(250), 2.0, 2.0),
        (np.ones(1000), 0.5, 1.0),
        (np.linspace(0.5, 1.5, 400), 3.0, 3.0),
    ])
    def test_gaussian_squared_dominates_the_exact_gap(self, X, x_hat0, R):
        X_hat = X.copy()
        X_hat[0] = x_hat0
        sigma2 = max(float(np.mean(X**2)), float(np.mean(X_hat**2)))
        upper = upper_bound_1d(BoundInputs(R=R, n=X.size, p=2.0, alpha=2.0, sigma2=sigma2))
        assert upper >= exact_stability_gap(NeighborPair(X, X_hat), [[R]], 2.0, 2.0)

    def test_unstable_orders_return_the_sentinel(self):
        b = BoundInputs(R=1.0, n=100, p=1.5, alpha=1.5)
        assert upper_bound_1d(b) is StabilityRegime.UNSTABLE
        b2 = BoundInputs(R=1.0, n=100, p=1.9, alpha=1.4)
        assert upper_bound_1d(b2) is StabilityRegime.UNSTABLE

    def test_decays_like_one_over_n(self):
        lo = upper_bound_1d(BoundInputs(R=1.0, n=500, p=1.0, alpha=1.6))
        hi = upper_bound_1d(BoundInputs(R=1.0, n=1000, p=1.0, alpha=1.6))
        assert hi == pytest.approx(lo / 2.0, rel=1e-14)

    def test_near_pole_warns(self):
        b = BoundInputs(R=1.0, n=100, p=1.5, alpha=1.505)
        with pytest.warns(RuntimeWarning):
            upper_bound_1d(b)

    @pytest.mark.parametrize(
        "unread", [{"sigma": 7.0}, {"sigma_min": 5.0}, {"sigma": 7.0, "sigma_min": 5.0}]
    )
    def test_rejects_the_dd_inputs_it_does_not_read(self, unread):
        b = BoundInputs(R=1.0, n=1000, p=1.0, alpha=1.5, **unread)
        with pytest.raises(ParameterError, match="does not read") as info:
            upper_bound_1d(b)
        for name, value in unread.items():
            assert f"{name}={value}" in str(info.value)


class TestUpperBoundDd:
    @pytest.mark.parametrize("sigma2", [9.0, 0.5])
    def test_rejects_the_1d_sigma2_it_does_not_read(self, sigma2):
        b = BoundInputs(R=1.0, n=1000, p=1.0, alpha=1.5, sigma2=sigma2)
        with pytest.raises(ParameterError, match=f"does not read sigma2; got sigma2={sigma2}"):
            upper_bound_dd(b)

    def test_frozen_oracle_values(self):
        b = BoundInputs(R=1.0, n=1000, p=1.0, alpha=1.5, sigma=1.0, sigma_min=1.0)
        assert upper_bound_dd(b) == pytest.approx(3.470702845479248e-3, rel=1e-12)
        b2 = BoundInputs(R=1.3, n=400, p=1.1, alpha=1.9, sigma=0.8, sigma_min=0.6)
        assert upper_bound_dd(b2) == pytest.approx(7.2146577534691129e-3, rel=1e-12)

    def test_gaussian_squared_closed_form(self):
        b = BoundInputs(R=1.0, n=1000, p=2.0, alpha=2.0, sigma=1.0, sigma_min=1.0)
        assert upper_bound_dd(b) == pytest.approx(4.0 / 1000, rel=1e-12)
        # The p -> 2 limit of the general formula, which holds for every p < 2.
        with pytest.warns(RuntimeWarning, match="near its pole"):
            near = upper_bound_dd(BoundInputs(R=1.0, n=1000, p=2.0 - 1e-8, alpha=2.0))
        assert upper_bound_dd(b) == pytest.approx(near, rel=1e-6)

    def test_unstable_orders_return_the_sentinel(self):
        b = BoundInputs(R=1.0, n=100, p=1.6, alpha=1.5)
        assert upper_bound_dd(b) is StabilityRegime.UNSTABLE

    def test_decays_like_one_over_n(self):
        lo = upper_bound_dd(BoundInputs(R=1.0, n=250, p=1.0, alpha=1.7))
        hi = upper_bound_dd(BoundInputs(R=1.0, n=1000, p=1.0, alpha=1.7))
        assert hi == pytest.approx(lo / 4.0, rel=1e-14)


class TestVarianceThreshold:
    def test_frozen_oracle_values(self):
        assert variance_threshold(1.5, 1.0) == pytest.approx(306.91433572187552, rel=1e-12)
        assert variance_threshold(2.0, 1.0) == pytest.approx(71.547591628826522, rel=1e-12)
        assert variance_threshold(1.7, 1.2) == pytest.approx(302.45188287559320, rel=1e-12)

    def test_near_pole_is_infinite(self):
        assert variance_threshold(1.0 + 1e-9, 1.0) == math.inf

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            variance_threshold(1.5, 1.5)
        with pytest.raises(ParameterError):
            variance_threshold(2.2, 1.0)
        with pytest.raises(ParameterError):
            variance_threshold(1.5, 0.8)


class TestThresholdAlpha0:
    @pytest.mark.parametrize("p, alpha_star", [(1.0, 1.7), (1.2, 1.3), (1.0, 1.95)])
    def test_round_trip_with_the_forward_map(self, p, alpha_star):
        level = variance_threshold(alpha_star, p)
        found = threshold_alpha0(level, p)
        assert found == pytest.approx(alpha_star, abs=1e-6)

    def test_unattainable_level_returns_sentinel(self):
        result = threshold_alpha0(1e-6, 1.0)
        assert result is NO_THRESHOLD
        assert isinstance(result, NoThreshold)
        assert repr(result) == "NoThreshold"

    def test_result_is_the_smallest_qualifying_index(self):
        level = 1e5
        found = threshold_alpha0(level, 1.0)
        assert isinstance(found, float)
        assert variance_threshold(found, 1.0) <= level
        below = found - 1e-4
        if below > 1.0:
            assert variance_threshold(below, 1.0) > level

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            threshold_alpha0(0.0, 1.0)
        with pytest.raises(ParameterError):
            threshold_alpha0(10.0, 2.0)

    @pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 1.9])
    @pytest.mark.parametrize("lam", ISOTROPIC)
    def test_threshold_map_strictly_decreases(self, p, lam):
        # Bisection relies on this. Near p the exponent overflows and the map
        # returns +inf, so the infinite values must form a prefix.
        grid = np.linspace(p, 2.0, 20002)[1:]
        values = np.array([variance_threshold(float(a), p) for a in grid])
        finite = np.isfinite(values)
        assert finite.any() and finite[np.argmax(finite):].all()
        assert np.all(np.diff(np.log(values[finite])) < 0.0)
        np.testing.assert_allclose(
            np.log(values[finite]), general_log_threshold(grid[finite], p, lam), rtol=1e-12
        )

    @pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 1.9])
    @pytest.mark.parametrize("lam", ISOTROPIC)
    @pytest.mark.parametrize("level_factor", [1.5, 30.0, 1e4])
    def test_matches_a_scipy_first_crossing(self, p, lam, level_factor):
        def log_threshold(a):
            return general_log_threshold(a, p, lam)

        level = level_factor * math.exp(log_threshold(2.0))
        grid = np.linspace(p + 1e-4 * (2.0 - p), 2.0, 20001)
        excess = log_threshold(grid) - math.log(level)
        first = int(np.flatnonzero(excess <= 0.0)[0])
        assert first > 0
        want = scipy.optimize.brentq(lambda a: log_threshold(a) - math.log(level),
                      grid[first - 1], grid[first], xtol=1e-14, rtol=1e-14)
        assert threshold_alpha0(level, p) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.5, 1.9])
    @pytest.mark.parametrize("lam", ISOTROPIC)
    def test_both_edges(self, p, lam):
        # The map is +inf at the lower edge, so only an infinite level admits it.
        assert threshold_alpha0(math.inf, p) == p + 1e-4 * (2.0 - p)
        at_two = variance_threshold(2.0, p)
        assert math.log(at_two) == pytest.approx(general_log_threshold(2.0, p, lam), rel=1e-12)
        assert threshold_alpha0(at_two, p) == 2.0
        assert threshold_alpha0(math.nextafter(at_two, 0.0), p) is NO_THRESHOLD


class TestAlphaFactor:
    @pytest.mark.parametrize("p", [1.5, 1.8], ids=["p=alpha", "p>alpha"])
    def test_p_at_or_above_alpha_is_refused(self, p):
        # Gamma(1 - p/alpha) has its pole at p = alpha and no finite moment lies beyond.
        with pytest.raises(ParameterError, match=f"^need p < alpha, got p={p}, alpha=1.5"):
            alpha_factor(1.5, p, 1.0)

    def test_matches_bound_alpha_dependence(self):
        # The bound at fixed (R, n, p) depends on alpha only through this factor.
        p, s2 = 1.0, 2.0
        b1 = upper_bound_1d(BoundInputs(R=1.0, n=100, p=p, alpha=1.4, sigma2=s2))
        b2 = upper_bound_1d(BoundInputs(R=1.0, n=100, p=p, alpha=1.9, sigma2=s2))
        f1 = alpha_factor(1.4, p, s2)
        f2 = alpha_factor(1.9, p, s2)
        assert b1 / b2 == pytest.approx(f1 / f2, rel=1e-10)

    @pytest.mark.parametrize("alpha, p, s2", [(1.4, 1.0, 5.0), (1.8, 1.2, 0.5), (1.6, 1.0, 400.0)])
    def test_log_slope_matches_finite_differences(self, alpha, p, s2):
        h = 1e-6
        fd = (
            math.log(alpha_factor(alpha + h, p, s2)) - math.log(alpha_factor(alpha - h, p, s2))
        ) / (2.0 * h)
        assert _log_slope(alpha, p, s2) == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_slope_sign_flips_at_the_critical_variance(self):
        # The slope at alpha vanishes at exp(1 + alpha/p - log(alpha)
        # - psi(1 - p/alpha)); the monotonicity threshold replaces alpha/p
        # with 2/p, adding (2 - alpha)/p of slack so the condition covers the
        # whole interval up to 2.
        alpha, p = 1.5, 1.0
        critical = math.exp(
            1.0 + alpha / p - math.log(alpha) - scipy.special.psi(1.0 - p / alpha)
        )
        assert _log_slope(alpha, p, critical * 1.01) > 0.0
        assert _log_slope(alpha, p, critical * 0.99) < 0.0
        assert _log_slope(alpha, p, critical) == pytest.approx(0.0, abs=1e-10)
        slack = variance_threshold(alpha, p) / critical
        assert slack == pytest.approx(math.exp((2.0 - alpha) / p), rel=1e-10)


def _log_slope(alpha, p, sigma_sq):
    """d/d(alpha) of log(alpha_factor), the derivation behind variance_threshold:

    (p/alpha^2) [log(alpha) + log(sigma_sq) - 1 - alpha/p + psi(1 - p/alpha)].
    """
    bracket = (
        math.log(alpha) + math.log(sigma_sq) - 1.0 - alpha / p
        + scipy.special.psi(1.0 - p / alpha)
    )
    return (p / alpha**2) * bracket


def test_upper_bounds_scale_with_probe_radius():
    # 1-d: R^(p+2); d-dim: R^p.
    b_small = BoundInputs(R=1.0, n=100, p=1.0, alpha=1.5)
    b_large = BoundInputs(R=2.0, n=100, p=1.0, alpha=1.5)
    assert upper_bound_1d(b_large) == pytest.approx(
        upper_bound_1d(b_small) * 2.0**3, rel=1e-12
    )
    assert upper_bound_dd(b_large) == pytest.approx(
        upper_bound_dd(b_small) * 2.0, rel=1e-12
    )


@given(
    st.floats(min_value=1.0, max_value=1.99),
    st.floats(min_value=1.01, max_value=2.0),
)
@settings(max_examples=150, deadline=None)
def test_stable_surrogate_bound_is_finite_and_positive(p, alpha):
    if p >= alpha or (alpha - p) / alpha < 0.02:
        return
    b = BoundInputs(R=1.0, n=100, p=p, alpha=alpha)
    value = upper_bound_1d(b)
    assert isinstance(value, float)
    assert 0.0 < value < math.inf
    value_dd = upper_bound_dd(b)
    assert 0.0 < value_dd < math.inf

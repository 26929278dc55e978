import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from stableou import (
    AccuracyError,
    DegenerateDataError,
    NeighborPair,
    ParameterError,
    ShapeError,
    StationaryCharFn,
    char_fn_diff_bound_1d,
    char_fn_diff_bound_dd,
    char_fn_diff_exact,
    rank2_eigenvalues,
)
from stableou.rng import RngStream


def random_spd(gen, d, spread=2.0):
    q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    lam = gen.uniform(0.5, 0.5 + spread, d)
    return (q * lam) @ q.T


def reference_exponent(A, alpha, u, Sigma=None):
    # Independent route: scipy adaptive quadrature on the raw integrand.
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    S = np.eye(d) if Sigma is None else np.asarray(Sigma, dtype=float)

    def f(s):
        m = scipy.linalg.expm(-s * A)
        return float(np.linalg.norm(S.T @ m @ u) ** alpha)

    lam_min = np.linalg.eigvalsh(A)[0]
    horizon = 60.0 / (alpha * lam_min)
    val, err = scipy.integrate.quad(f, 0.0, horizon, limit=400, epsabs=1e-13, epsrel=1e-11)
    return val


class TestConstruction:
    def test_scalar_drift_is_promoted(self):
        sc = StationaryCharFn(2.0, 1.5)
        assert sc.d == 1
        assert sc.A.shape == (1, 1)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ParameterError):
            StationaryCharFn(np.diag([1.0, 0.0]), 1.5)
        with pytest.raises(ParameterError):
            StationaryCharFn(np.diag([1.0, -0.5]), 1.5)

    def test_rejects_bad_alpha_and_shapes(self):
        with pytest.raises(ParameterError):
            StationaryCharFn(np.eye(2), 2.5)
        with pytest.raises(ShapeError):
            StationaryCharFn(np.ones((2, 3)), 1.5)
        with pytest.raises(ShapeError):
            StationaryCharFn(np.eye(2), 1.5, Sigma=np.eye(3))

    def test_small_asymmetry_is_absorbed(self):
        A = np.array([[2.0, 1e-14], [0.0, 1.0]])
        sc = StationaryCharFn(A, 1.5)
        np.testing.assert_allclose(sc.A, sc.A.T)


class TestClosedForms:
    def test_value_at_origin_is_one(self):
        sc = StationaryCharFn(np.eye(3), 1.3)
        assert sc.evaluate(np.zeros(3)) == 1.0

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
    @pytest.mark.parametrize("d", [2, 10])
    def test_identity_drift_closed_form(self, alpha, d):
        sc = StationaryCharFn(np.eye(d), alpha)
        gen = RngStream(51).generator
        for _ in range(20):
            u = gen.standard_normal(d)
            target = math.exp(-np.linalg.norm(u) ** alpha / alpha)
            assert sc.evaluate(u) == pytest.approx(target, rel=1e-6)

    @pytest.mark.parametrize("alpha, s", [(1.2, 0.5), (1.7, 2.0), (2.0, 1.0)])
    def test_one_dimensional_closed_form(self, alpha, s):
        sc = StationaryCharFn(np.array([[s]]), alpha)
        for u in (-2.5, -1.0, 0.3, 1.0, 3.0):
            target = math.exp(-abs(u) ** alpha / (alpha * s))
            assert sc.evaluate(u) == pytest.approx(target, rel=1e-8)

    @pytest.mark.parametrize("alpha", [1.3, 2.0])
    def test_general_drift_against_adaptive_quadrature(self, alpha):
        gen = RngStream(52).generator
        for trial in range(5):
            A = random_spd(gen, 3)
            u = gen.standard_normal(3)
            sc = StationaryCharFn(A, alpha)
            assert sc.exponent(u) == pytest.approx(
                reference_exponent(A, alpha, u), rel=1e-7
            )

    def test_preconditioned_noise_against_adaptive_quadrature(self):
        gen = RngStream(53).generator
        A = random_spd(gen, 3)
        Sigma = gen.standard_normal((3, 3)) * 0.5 + np.eye(3)
        u = gen.standard_normal(3)
        sc = StationaryCharFn(A, 1.6, Sigma=Sigma)
        assert sc.exponent(u) == pytest.approx(
            reference_exponent(A, 1.6, u, Sigma=Sigma), rel=1e-7
        )

    def test_diagonal_noise_scales_the_exponent(self):
        A = np.diag([1.0, 2.0])
        u = np.array([0.7, -0.4])
        plain = StationaryCharFn(A, 1.5).exponent(u)
        scaled = StationaryCharFn(A, 1.5, Sigma=2.0 * np.eye(2)).exponent(u)
        assert scaled == pytest.approx(2.0**1.5 * plain, rel=1e-9)


class TestShapeInvariants:
    def test_monotone_along_rays(self):
        gen = RngStream(54).generator
        A = random_spd(gen, 3)
        sc = StationaryCharFn(A, 1.4)
        direction = gen.standard_normal(3)
        values = [sc.evaluate(t * direction) for t in np.linspace(0.1, 5.0, 25)]
        assert np.all(np.diff(values) < 0.0)

    def test_rotation_invariance_for_scaled_identity(self):
        gen = RngStream(55).generator
        sc = StationaryCharFn(1.7 * np.eye(4), 1.5)
        u = gen.standard_normal(4)
        base = sc.evaluate(u)
        for _ in range(5):
            q, _ = np.linalg.qr(gen.standard_normal((4, 4)))
            assert sc.evaluate(q @ u) == pytest.approx(base, abs=1e-10)

    def test_values_lie_in_unit_interval(self):
        gen = RngStream(56).generator
        sc = StationaryCharFn(random_spd(gen, 2), 1.2)
        for _ in range(20):
            v = sc.evaluate(gen.standard_normal(2) * 3.0)
            assert 0.0 < v <= 1.0

    def test_dimension_mismatch_rejected(self):
        sc = StationaryCharFn(np.eye(2), 1.5)
        with pytest.raises(ShapeError):
            sc.evaluate(np.ones(3))


def test_non_convergence_raises_with_estimate(monkeypatch):
    # A single quadrature pass cannot certify convergence, so capping the
    # node budget at the initial count must fail with the estimate attached.
    monkeypatch.setattr("stableou.stationary._MAX_NODES", 64)
    sc = StationaryCharFn(np.eye(2), 1.5)
    with pytest.raises(AccuracyError) as info:
        sc.exponent(np.ones(2))
    assert info.value.estimate is not None
    target = np.linalg.norm(np.ones(2)) ** 1.5 / 1.5
    assert info.value.estimate == pytest.approx(target, rel=1e-3)


class TestRank2Eigenvalues:
    def test_identical_rows(self):
        x = np.array([1.0, 2.0, 3.0])
        assert rank2_eigenvalues(x, x) == (0.0, 0.0)

    def test_orthonormal_rows(self):
        e1, e2 = np.eye(2)
        s1, s2 = rank2_eigenvalues(e1, e2)
        assert s1 == pytest.approx(1.0, abs=1e-12)
        assert s2 == pytest.approx(-1.0, abs=1e-12)

    def test_zero_vectors(self):
        z = np.zeros(3)
        assert rank2_eigenvalues(z, z) == (0.0, 0.0)
        s1, s2 = rank2_eigenvalues(np.array([2.0, 0.0, 0.0]), z)
        assert (s1, s2) == (4.0, 0.0)
        s1, s2 = rank2_eigenvalues(z, np.array([0.0, 3.0, 0.0]))
        assert (s1, s2) == (0.0, -9.0)

    def test_matches_dense_eigensolver(self):
        gen = RngStream(57).generator
        for _ in range(25):
            x = gen.standard_normal(10)
            xt = gen.standard_normal(10)
            m = np.outer(x, x) - np.outer(xt, xt)
            dense = np.linalg.eigvalsh(m)
            s1, s2 = rank2_eigenvalues(x, xt)
            assert s1 == pytest.approx(dense[-1], abs=1e-10 * max(1.0, abs(dense[-1])))
            assert s2 == pytest.approx(dense[0], abs=1e-10 * max(1.0, abs(dense[0])))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_sign_split_property(self, seed):
        gen = RngStream(seed).generator
        d = int(gen.integers(1, 7))
        x = gen.standard_normal(d) * gen.uniform(0.1, 4.0)
        xt = gen.standard_normal(d) * gen.uniform(0.1, 4.0)
        s1, s2 = rank2_eigenvalues(x, xt)
        assert s1 >= -1e-12
        assert s2 <= 1e-12
        # Trace and Frobenius norm of the rank-2 difference pin both values.
        assert s1 + s2 == pytest.approx(x @ x - xt @ xt, rel=1e-9, abs=1e-9)
        frob = np.linalg.norm(np.outer(x, x) - np.outer(xt, xt), "fro") ** 2
        assert s1**2 + s2**2 == pytest.approx(frob, rel=1e-9, abs=1e-9)

    def test_collinear_rows(self):
        x = np.array([1.0, 1.0])
        s1, s2 = rank2_eigenvalues(2.0 * x, x)
        dense = np.linalg.eigvalsh(np.outer(2 * x, 2 * x) - np.outer(x, x))
        assert s1 == pytest.approx(dense[-1], rel=1e-12)
        assert abs(s2) < 1e-12


class TestNeighborPair:
    def test_basic_construction(self):
        gen = RngStream(58).generator
        X = gen.standard_normal((12, 3))
        X_hat = X.copy()
        X_hat[4] = gen.standard_normal(3)
        pair = NeighborPair(X, X_hat)
        assert pair.index == 4
        assert pair.n == 12 and pair.d == 3
        np.testing.assert_array_equal(pair.x_row, X[4])
        np.testing.assert_array_equal(pair.x_tilde_row, X_hat[4])
        assert pair.sigma1 >= 0.0 >= pair.sigma2
        gram_min = min(
            np.linalg.eigvalsh(X.T @ X / 12.0)[0],
            np.linalg.eigvalsh(X_hat.T @ X_hat / 12.0)[0],
        )
        assert pair.sigma_min == pytest.approx(gram_min, rel=1e-12)

    def test_sigma_min_reads_the_two_problems(self):
        gen = RngStream(67).generator
        pair = make_pair_dd(gen)
        np.testing.assert_array_equal(pair.problem.X, pair.X)
        np.testing.assert_array_equal(pair.problem_hat.X, pair.X_hat)
        assert pair.sigma_min == min(pair.problem.lambda_min, pair.problem_hat.lambda_min)

    def test_one_dimensional_promotion(self):
        X = np.array([1.0, 2.0, 3.0])
        X_hat = np.array([1.0, 5.0, 3.0])
        pair = NeighborPair(X, X_hat)
        assert pair.d == 1 and pair.index == 1

    def test_identical_datasets_allowed(self):
        X = np.ones((4, 2))
        pair = NeighborPair(X, X)
        assert pair.sigma1 == 0.0 and pair.sigma2 == 0.0

    def test_rejects_multiple_differing_rows(self):
        X = np.ones((4, 2))
        X_hat = X.copy()
        X_hat[0, 0] = 2.0
        X_hat[2, 1] = 3.0
        with pytest.raises(ShapeError):
            NeighborPair(X, X_hat)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            NeighborPair(np.ones((4, 2)), np.ones((5, 2)))


def make_pair_1d(gen, n=40):
    X = gen.standard_normal(n) + 0.5
    X_hat = X.copy()
    X_hat[0] = X[0] + gen.uniform(-1.0, 1.0)
    return NeighborPair(X, X_hat)


class TestDiffBound1d:
    def test_zero_cases(self):
        X = np.arange(1.0, 6.0)
        pair = NeighborPair(X, X)
        assert char_fn_diff_bound_1d(pair, 1.5, 1.3) == 0.0
        pair2 = make_pair_1d(RngStream(59).generator)
        assert char_fn_diff_bound_1d(pair2, 1.5, 0.0) == 0.0

    def test_zero_norm_rejected(self):
        pair = NeighborPair(np.zeros(3), np.zeros(3))
        with pytest.raises(DegenerateDataError):
            char_fn_diff_bound_1d(pair, 1.5, 1.0)

    def test_swapping_datasets_preserves_the_bound(self):
        gen = RngStream(60).generator
        pair = make_pair_1d(gen)
        swapped = NeighborPair(pair.X_hat, pair.X)
        for u in (0.4, 1.0, 2.7):
            assert char_fn_diff_bound_1d(pair, 1.6, u) == pytest.approx(
                char_fn_diff_bound_1d(swapped, 1.6, u), rel=1e-12
            )

    @pytest.mark.parametrize("alpha", [1.2, 1.7, 2.0])
    def test_dominates_exact_difference(self, alpha):
        gen = RngStream(61).generator
        for _ in range(40):
            pair = make_pair_1d(gen)
            u = gen.uniform(0.05, 3.0)
            bound = char_fn_diff_bound_1d(pair, alpha, u)
            exact = char_fn_diff_exact(pair, alpha, u)
            assert bound >= exact * (1.0 - 1e-9)

    def test_requires_one_dimension(self):
        X = np.ones((5, 2))
        X_hat = X.copy()
        X_hat[0] = [2.0, 1.0]
        pair = NeighborPair(X, X_hat)
        with pytest.raises(ShapeError):
            char_fn_diff_bound_1d(pair, 1.5, 1.0)


def make_pair_dd(gen, n=60, d=3):
    X = gen.standard_normal((n, d)) * 1.2
    X_hat = X.copy()
    X_hat[2] = X[2] + 0.3 * gen.standard_normal(d)
    return NeighborPair(X, X_hat)


class TestDiffBoundDd:
    def test_zero_cases(self):
        X = np.eye(3)
        pair = NeighborPair(X, X)
        assert char_fn_diff_bound_dd(pair, 1.5, np.ones(3)) == 0.0
        gen = RngStream(62).generator
        pair2 = make_pair_dd(gen)
        assert char_fn_diff_bound_dd(pair2, 1.5, np.zeros(3)) == 0.0

    def test_degenerate_gram_rejected(self):
        X = np.ones((2, 3))  # rank 1, so sigma_min = 0
        X_hat = X.copy()
        X_hat[0, 0] = 2.0
        pair = NeighborPair(X, X_hat)
        with pytest.raises(DegenerateDataError):
            char_fn_diff_bound_dd(pair, 1.5, np.ones(3))

    def test_general_noise_form_reduces_at_unit_spectrum(self):
        gen = RngStream(63).generator
        pair = make_pair_dd(gen)
        u = gen.standard_normal(3)
        plain = char_fn_diff_bound_dd(pair, 1.4, u)
        unit = char_fn_diff_bound_dd(pair, 1.4, u, lambda_min=1.0, lambda_max=1.0)
        assert unit == plain
        with pytest.raises(ParameterError):
            char_fn_diff_bound_dd(pair, 1.4, u, lambda_min=1.5, lambda_max=0.9)

    def test_general_noise_form_grows_with_spectral_radius(self):
        gen = RngStream(64).generator
        pair = make_pair_dd(gen)
        u = 0.5 * gen.standard_normal(3)
        plain = char_fn_diff_bound_dd(pair, 1.4, u)
        wide = char_fn_diff_bound_dd(pair, 1.4, u, lambda_min=0.9, lambda_max=1.5)
        assert wide > plain

    @pytest.mark.parametrize("alpha", [1.3, 1.8, 2.0])
    def test_dominates_exact_difference(self, alpha):
        # Well-conditioned designs with moderate probe norms: the regime the
        # d-dimensional bound is built for.
        gen = RngStream(65).generator
        for _ in range(15):
            d = int(gen.integers(2, 4))
            X = gen.standard_normal((80, d)) * 1.5
            X_hat = X.copy()
            X_hat[0] = X[0] + 0.2 * gen.standard_normal(d)
            pair = NeighborPair(X, X_hat)
            u = gen.standard_normal(d)
            u *= gen.uniform(0.2, 1.2) / np.linalg.norm(u)
            bound = char_fn_diff_bound_dd(pair, alpha, u)
            exact = char_fn_diff_exact(pair, alpha, u)
            assert bound >= exact * (1.0 - 1e-9)


class TestDiffExact:
    def test_identical_pairs_give_zero(self):
        X = np.arange(1.0, 9.0).reshape(4, 2)
        pair = NeighborPair(X, X)
        assert char_fn_diff_exact(pair, 1.5, np.ones(2)) == pytest.approx(0.0, abs=1e-14)

    def test_matches_manual_evaluation(self):
        gen = RngStream(66).generator
        pair = make_pair_dd(gen)
        u = gen.standard_normal(3)
        a = StationaryCharFn(pair.X.T @ pair.X / pair.n, 1.5)
        b = StationaryCharFn(pair.X_hat.T @ pair.X_hat / pair.n, 1.5)
        manual = abs(a.evaluate(u) - b.evaluate(u))
        assert char_fn_diff_exact(pair, 1.5, u) == pytest.approx(manual, rel=1e-12)


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=0.01, max_value=2.0),
)
@settings(max_examples=300, deadline=None)
def test_power_difference_inequality(a, b, alpha):
    # |a^alpha - b^alpha| <= |a - b| (a^(alpha-1) + b^(alpha-1)) underpins the
    # one-dimensional bound's arithmetic.
    lhs = abs(a**alpha - b**alpha)
    rhs = abs(a - b) * (a ** (alpha - 1.0) + b ** (alpha - 1.0))
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-300

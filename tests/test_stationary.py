import itertools
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from stableou import (
    AccuracyError,
    BoundInputs,
    DegenerateDataError,
    NeighborPair,
    ParameterError,
    ShapeError,
    StationaryCharFn,
    UnstableRegimeError,
    char_fn_diff_bound_1d,
    char_fn_diff_bound_dd,
    char_fn_diff_exact,
    exact_stability_gap,
    sas_abs_moment,
    upper_bound_dd,
)
from stableou.rng import RngStream


def random_spd(gen, d, spread=2.0):
    q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    lam = gen.uniform(0.5, 0.5 + spread, d)
    return (q * lam) @ q.T


def reference_exponent(A, alpha, u):
    # Independent route: scipy adaptive quadrature on the raw integrand.
    A = np.asarray(A, dtype=float)

    def f(s):
        return float(np.linalg.norm(scipy.linalg.expm(-s * A) @ u) ** alpha)

    lam_min = np.linalg.eigvalsh(A)[0]
    horizon = 60.0 / (alpha * lam_min)
    val, err = scipy.integrate.quad(f, 0.0, horizon, limit=400, epsabs=1e-13, epsrel=1e-11)
    return val


class TestConstruction:
    def test_scalar_drift_is_promoted(self):
        sc = StationaryCharFn(2.0, 1.5)
        assert sc.d == 1
        np.testing.assert_array_equal(sc.eigenvalues, [2.0])

    def test_rejects_non_positive_definite(self):
        with pytest.raises(DegenerateDataError, match="eigenvalue is 0; the chain does not mix"):
            StationaryCharFn(np.diag([1.0, 0.0]), 1.5)
        with pytest.raises(DegenerateDataError, match="eigenvalue is -0.5; the chain does not mix"):
            StationaryCharFn(np.diag([1.0, -0.5]), 1.5)

    def test_rejects_bad_alpha_and_shapes(self):
        with pytest.raises(ParameterError):
            StationaryCharFn(np.eye(2), 2.5)
        with pytest.raises(ShapeError):
            StationaryCharFn(np.ones((2, 3)), 1.5)
        with pytest.raises(ShapeError):
            StationaryCharFn(np.zeros((0, 0)), 1.5)

    def test_small_asymmetry_is_absorbed(self):
        # eigh reads one triangle only, so A and A.T agree only once symmetrized.
        A = np.array([[2.0, 1e-3], [0.0, 1.0]])
        sc, sc_t = StationaryCharFn(A, 1.5), StationaryCharFn(A.T, 1.5)
        np.testing.assert_allclose(sc.eigenvalues, np.linalg.eigvalsh((A + A.T) / 2.0),
                                   rtol=1e-14)
        np.testing.assert_array_equal(sc.eigenvalues, sc_t.eigenvalues)
        u = np.array([0.7, -1.3])
        assert sc.evaluate(u) == sc_t.evaluate(u)


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
    # Along the fast eigenvector of diag(1, 1e6) the exponent is
    # |u|^alpha / (alpha lambda_max), and 64 nodes already come close.
    monkeypatch.setattr("stableou.stationary._MAX_NODES", 64)
    sc = StationaryCharFn(np.diag([1.0, 1e6]), 1.5)
    with pytest.raises(AccuracyError, match="within 64 nodes") as info:
        sc.exponent([0.0, 2.0])
    target = 2.0**1.5 / (1.5 * 1e6)
    assert info.value.estimate == pytest.approx(target, rel=1e-3)


def log_time_estimate(lam, alpha, w, n):
    """The rule's n-node estimate at the unit vector w, for spectrum lam.

    The head s0 = 1e-5 / lambda_max, plus n-node Gauss-Legendre in t = log s
    on [s0, s1] with s1 = log(1e10 kappa) / (alpha lambda_min).
    """
    s0 = 1e-5 / lam[-1]
    s1 = math.log(1e10 * lam[-1] / lam[0]) / (alpha * lam[0])
    half = (math.log(s1) - math.log(s0)) / 2.0
    nodes, weights = leggauss(n)
    s = s0 * np.exp(half * (nodes + 1.0))
    f = np.linalg.norm(np.exp(-np.outer(s, lam)) * w, axis=1) ** alpha * s
    return s0 + half * float(weights @ f)


def test_capped_at_128_nodes_raises_with_the_128_node_estimate(monkeypatch):
    # The 64- and 128-node rules share one pass; when they disagree and no
    # further rule is allowed, the error carries the 128-node estimate. At
    # alpha = 0.1 along the fast eigenvector the two rules disagree.
    monkeypatch.setattr("stableou.stationary._MAX_NODES", 128)
    lam, u, alpha = np.array([1.0, 1e3]), np.array([0.0, 2.0]), 0.1
    first, second = (log_time_estimate(lam, alpha, u / 2.0, n) for n in (64, 128))
    assert abs(second - first) > 1e-9 * second
    with pytest.raises(AccuracyError, match="within 128 nodes") as info:
        StationaryCharFn(np.diag(lam), alpha).exponent(u)
    assert info.value.estimate == pytest.approx(2.0**alpha * second, rel=1e-12)


@pytest.mark.parametrize("A, u, nodes_per_pass", [
    (np.eye(2), np.ones(2), [192]),  # the 64- and 128-node rules agree
    (np.diag([1.0, 1e3]), np.ones(2), [192]),  # on a spread spectrum too
    (np.diag([1.0, 1e3]), np.array([0.0, 1.0]), [192, 256]),  # 256 nodes agree with 128
])
def test_integrand_passes(monkeypatch, A, u, nodes_per_pass):
    passes = []
    integrand = StationaryCharFn._integrand

    def counting(self, t, w2):
        passes.append(t.size)
        return integrand(self, t, w2)

    monkeypatch.setattr(StationaryCharFn, "_integrand", counting)
    StationaryCharFn(A, 1.5).exponent(u)
    assert passes == nodes_per_pass


@pytest.mark.parametrize("kappa", [1e4, 1e6])
@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_spread_out_spectrum_matches_closed_forms(alpha, kappa):
    # Drift diag(1, kappa) and u = (0, 0.1) along the fast eigenvector. Closed
    # forms, independent of the quadrature: |w|^alpha / (alpha lambda) along
    # an eigenvector, and sum_i w_i^2 / (2 lambda_i) at alpha = 2. Tolerance
    # 1e-9 relative, fixed before the first run.
    lam, u = np.array([1.0, kappa]), np.array([0.0, 0.1])
    if alpha == 2.0:
        exact = float(np.sum(u**2 / (2.0 * lam)))
    else:
        exact = abs(u[1]) ** alpha / (alpha * kappa)
    value = StationaryCharFn(np.diag(lam), alpha).exponent(u)
    assert abs(value - exact) <= 1e-9 * exact  # no absolute floor: exact is 5e-9 to 2e-6


SPREAD_ALPHAS = [0.5, 1.2, 1.8]
SPREAD_KAPPAS = [1e2, 1e4, 1e6, 1e8]


@pytest.mark.parametrize("kappa", SPREAD_KAPPAS)
@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("alpha", SPREAD_ALPHAS)
def test_eigenvectors_match_the_closed_form(alpha, d, kappa):
    # Spectrum log-spaced on [1, kappa] on the diagonal, so that eigh returns
    # the unit vectors exactly; a rotation leaves eps-sized components on the
    # slow eigenvectors, which at alpha = 0.5 outweigh the fast one. Along
    # eigenvector i the exponent is |c|^alpha / (alpha lambda_i). Tolerance
    # 1e-9 relative, fixed before the first run.
    lam = kappa ** np.linspace(0.0, 1.0, d)
    sc = StationaryCharFn(np.diag(lam), alpha)
    for i, c in itertools.product(range(d), (0.1, -3.0)):
        want = abs(c) ** alpha / (alpha * lam[i])
        assert abs(sc.exponent(c * np.eye(d)[i]) - want) <= 1e-9 * want


def mpmath_exponent(lam, alpha, w):
    """integral_0^inf (sum_i w_i^2 e^(-2 lambda_i s))^(alpha / 2) ds, broken at 1 / lambda_i."""
    lam = [mpmath.mpf(float(x)) for x in lam]
    w = [mpmath.mpf(float(x)) for x in w]
    a = mpmath.mpf(alpha) / 2

    def f(s):
        return mpmath.fsum((wi * mpmath.exp(-li * s)) ** 2 for wi, li in zip(w, lam)) ** a

    return mpmath.quad(f, [0] + sorted(1 / x for x in lam) + [mpmath.inf])


@pytest.mark.parametrize("kappa", SPREAD_KAPPAS)
@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("alpha", SPREAD_ALPHAS)
def test_mixed_frequencies_match_mpmath(alpha, d, kappa):
    # Every component of u nonzero, on the diagonal spectrum above. Tolerance
    # 1e-9 relative, fixed before the first run.
    gen = RngStream(3300 + d).generator
    lam = kappa ** np.linspace(0.0, 1.0, d)
    sc = StationaryCharFn(np.diag(lam), alpha)
    for _ in range(2):
        u = gen.standard_normal(d) * gen.uniform(0.2, 3.0)
        with mpmath.workdps(30):
            want = mpmath_exponent(lam, alpha, u)
            assert abs(sc.exponent(u) - want) <= 1e-9 * want


@pytest.mark.parametrize("A, alpha, u", [
    (2.0, 1.5, 1e250),
    (np.eye(2), 2.0, [1e200, 0.0]),
    (np.diag([1.0, 2.0]), 1.5, [6e249, 8e249]),
    (np.eye(2), 2.0, [1.5e308, 1.5e308]),  # ||u|| itself overflows
    (np.array([[2.0, -1.0], [-1.0, 2.0]]), 1.5, [1.7e308, 1.7e308]),  # and so does Q^T u
])
def test_huge_frequency_gives_zero(A, alpha, u):
    # ||w||^alpha past the float range: +inf on every path, with no
    # OverflowError and no RuntimeWarning.
    sc = StationaryCharFn(A, alpha)
    assert sc.exponent(u) == math.inf
    assert sc.evaluate(u) == 0.0


def test_huge_frequency_scales_the_unit_exponent():
    # ||u|| = 1e200 at alpha = 1.5: ||u||^alpha = 1e300 is finite, and the
    # quadrature runs on the unit vector, so no node sees an overflow.
    sc = StationaryCharFn(np.diag([1.0, 2.0]), 1.5)
    u = np.array([0.6, 0.8])
    assert sc.exponent(1e200 * u) == pytest.approx(1e300 * sc.exponent(u), rel=1e-12)
    assert sc.evaluate(1e200 * u) == 0.0


EPS = np.finfo(float).eps


def form_rel_tol(d, kappa):
    """Relative tolerance on u^T A^-1 u computed two ways from one floating A.

    eigh and LU each have a backward error of a small multiple of d eps ||A||,
    and the quadratic form's relative condition number is kappa, so the two
    agree to 64 d kappa eps.
    """
    return 64 * d * kappa * EPS


@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e8])
@pytest.mark.parametrize("d", [2, 5])
def test_alpha_two_matches_the_solve_oracle(d, kappa):
    # Spectrum log-spaced on [1, kappa] in a random rotation. The probes are
    # the fast eigenvector and random vectors.
    gen = RngStream(3000 + d).generator
    q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    A = (q * kappa ** np.linspace(0.0, 1.0, d)) @ q.T
    sc = StationaryCharFn(A, 2.0)
    probes = [q[:, -1]] + [gen.standard_normal(d) * gen.uniform(0.2, 3.0) for _ in range(20)]
    for u in probes:
        want = u @ np.linalg.solve(A, u) / 2.0
        assert abs(sc.exponent(u) - want) <= form_rel_tol(d, kappa) * want


@pytest.mark.parametrize("lam", [1e-4, 1.0, 1e4])
@pytest.mark.parametrize("alpha", [0.5, 1.2, 1.8])
def test_one_dimension_matches_the_closed_form_to_rounding(alpha, lam):
    # |u|^alpha / (alpha lambda) in 50-digit arithmetic; the library rounds one
    # power, one product and one quotient, so 4 eps relative.
    sc = StationaryCharFn(np.array([[lam]]), alpha)
    with mpmath.workdps(50):
        for u in (-2.5, -1e-3, 0.3, 1.0, 7.0, 1e3):
            want = mpmath.mpf(abs(u)) ** alpha / (mpmath.mpf(alpha) * lam)
            assert abs(sc.exponent(u) - want) <= 4 * EPS * want


ORDINARY_PROBES = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.3, -2.0], [-1.5, 0.02]])


def ordinary_data():
    """n = 200 rows of two uniform features with scales 1 and 100, so kappa is
    about 1e4, and row 0 redrawn in X_hat: the pair and its two Gram matrices."""
    gen = RngStream(3100).generator
    X = gen.uniform(-1.0, 1.0, (200, 2)) * [1.0, 100.0]
    X_hat = X.copy()
    X_hat[0] = gen.uniform(-1.0, 1.0, 2) * [1.0, 100.0]
    grams = [M.T @ M / M.shape[0] for M in (X, X_hat)]
    assert max(np.linalg.cond(G) for G in grams) > 1e3
    return NeighborPair(X, X_hat), grams


def test_ordinary_data_at_alpha_two_matches_closed_forms():
    # At alpha = 2 the law is Gaussian: theta^T z ~ N(0, z^T A^-1 z), so
    # E|theta^T z| = sqrt(2 z^T A^-1 z / pi) and E|theta^T z|^2 = z^T A^-1 z.
    pair, grams = ordinary_data()
    rel = form_rel_tol(2, max(np.linalg.cond(G) for G in grams))
    probes = ORDINARY_PROBES
    forms = np.array([[z @ np.linalg.solve(G, z) for G in grams] for z in probes])
    for z, (f, f_hat) in zip(probes, forms):
        want = abs(math.exp(-f / 2.0) - math.exp(-f_hat / 2.0))
        # Each psi moves by at most rel * exponent, and each exp rounds once.
        assert abs(char_fn_diff_exact(pair, 2.0, z) - want) <= rel * max(f, f_hat) + 4 * EPS
    for p, moment in ((1.0, lambda f: np.sqrt(2.0 * f / np.pi)), (2.0, lambda f: f)):
        moments = moment(forms)
        want = float(np.max(np.abs(moments[:, 0] - moments[:, 1])))
        got = exact_stability_gap(pair, probes, p, 2.0)
        assert abs(got - want) <= (rel + 16 * EPS) * float(np.max(moments))


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_ordinary_data_matches_mpmath(alpha):
    # The pair above at alpha < 2, probe by probe. Each Gram matrix is
    # diagonalised by mpmath and each exponent integrated by mpmath.quad; the
    # moment is E|theta^T z| = sigma 2 Gamma(1 - 1/alpha) / pi with
    # sigma = exponent^(1/alpha). Tolerances fixed before the first run: each
    # exponent within 1e-9 relative moves each psi by at most 1e-9 times the
    # larger exponent, and each moment by at most 1e-9 of itself.
    pair, grams = ordinary_data()
    with mpmath.workdps(30):
        exponents = []
        for G in grams:
            lam, Q = mpmath.eigsy(mpmath.matrix(G.tolist()))
            exponents.append([mpmath_exponent(lam, alpha, Q.T * mpmath.matrix(z.tolist()))
                              for z in ORDINARY_PROBES])
        for z, f, f_hat in zip(ORDINARY_PROBES, *exponents):
            want = abs(mpmath.exp(-f) - mpmath.exp(-f_hat))
            got = char_fn_diff_exact(pair, alpha, z)
            assert abs(got - want) <= 1e-9 * max(f, f_hat) + 4 * EPS
            m, m_hat = (x ** (1 / mpmath.mpf(alpha)) * 2 * mpmath.gamma(1 - 1 / mpmath.mpf(alpha))
                        / mpmath.pi for x in (f, f_hat))
            got = exact_stability_gap(pair, [z], 1.0, alpha)
            assert abs(got - abs(m - m_hat)) <= (1e-9 + 64 * EPS) * max(m, m_hat)


def test_closed_forms_run_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a quadrature pass ran")

    monkeypatch.setattr(StationaryCharFn, "_integrand", refuse)
    gen = RngStream(3200).generator
    for d in (2, 5):
        A = random_spd(gen, d)
        u = gen.standard_normal(d)
        assert StationaryCharFn(A, 2.0).evaluate(u) == pytest.approx(
            math.exp(-u @ np.linalg.solve(A, u) / 2.0), rel=1e-12)
        with pytest.raises(AssertionError, match="a quadrature pass ran"):
            StationaryCharFn(A, 1.5).evaluate(u)
    for alpha in (0.5, 1.5, 2.0):
        assert StationaryCharFn(2.0, alpha).evaluate(-1.5) == pytest.approx(
            math.exp(-1.5**alpha / (2.0 * alpha)), rel=1e-12)


class TestNeighborPair:
    def test_basic_construction(self):
        gen = RngStream(58).generator
        X = gen.standard_normal((12, 3))
        X_hat = X.copy()
        X_hat[4] = gen.standard_normal(3)
        pair = NeighborPair(X, X_hat)
        assert pair.n == 12 and pair.d == 3
        u, v = X[4] - X_hat[4], X[4] + X_hat[4]
        assert pair.perturbation == np.linalg.norm(u) * np.linalg.norm(v)
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
        assert pair.d == 1 and pair.perturbation == 21.0

    def test_identical_datasets_allowed(self):
        X = np.ones((4, 2))
        pair = NeighborPair(X, X)
        assert pair.perturbation == 0.0

    @pytest.mark.parametrize("d", range(1, 11))
    def test_perturbation_matches_dense_eigensolver(self, d):
        gen = RngStream(57 + d).generator
        for _ in range(10):
            X = gen.standard_normal((d + 2, d))
            X_hat = X.copy()
            X_hat[1] = gen.standard_normal(d)
            pair = NeighborPair(X, X_hat)
            m = np.outer(X[1], X[1]) - np.outer(X_hat[1], X_hat[1])
            dense = np.abs(np.linalg.eigvalsh(m)).sum()
            assert pair.perturbation == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_perturbation_of_nearby_rows_matches_mpmath(self, seed, d):
        # Rows 1e-8 apart: squaring them first cancels about 8 digits.
        gen = RngStream(300 + seed).generator
        X = gen.standard_normal((6, d))
        X_hat = X.copy()
        X_hat[3] = X[3] + 1e-8 * gen.standard_normal(d)
        pair = NeighborPair(X, X_hat)
        with mpmath.workdps(50):
            x = mpmath.matrix([mpmath.mpf(float(v)) for v in X[3]])
            xt = mpmath.matrix([mpmath.mpf(float(v)) for v in X_hat[3]])
            eigenvalues, _ = mpmath.eigsy(x * x.T - xt * xt.T)
            reference = float(sum(abs(e) for e in eigenvalues))
        assert abs(pair.perturbation - reference) <= 1e-15 * reference

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_perturbation_squared_is_a_frobenius_identity(self, seed):
        # The two eigenvalues have opposite signs, so (|s1| + |s2|)^2 =
        # 2 (s1^2 + s2^2) - (s1 + s2)^2 = 2 ||M||_F^2 - (tr M)^2.
        gen = RngStream(seed).generator
        d = int(gen.integers(1, 7))
        X = gen.standard_normal((d + 1, d))
        X_hat = X.copy()
        X_hat[0] = gen.standard_normal(d) * gen.uniform(0.1, 4.0)
        pair = NeighborPair(X, X_hat)
        m = np.outer(X[0], X[0]) - np.outer(X_hat[0], X_hat[0])
        scale = (X[0] @ X[0] + X_hat[0] @ X_hat[0]) ** 2
        expected = 2.0 * np.sum(m * m) - np.trace(m) ** 2
        assert pair.perturbation**2 == pytest.approx(expected, rel=1e-12, abs=1e-13 * scale)

    def test_perturbation_exact_values(self):
        X = np.array([[3.0, 4.0, 0.0], [1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
        zero_row = X.copy()
        zero_row[0] = 0.0
        assert NeighborPair(X, zero_row).perturbation == 25.0
        assert NeighborPair(zero_row, X).perturbation == 25.0
        scalar = NeighborPair(np.array([3.0, 1.0, 2.0]), np.array([3.0, -1.5, 2.0]))
        assert scalar.perturbation == abs(1.0**2 - 1.5**2)

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


    def test_reuses_the_problems_eigendecomposition(self, monkeypatch):
        gen = RngStream(67).generator
        pair = make_pair_dd(gen)
        u = gen.standard_normal(3)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        exact = char_fn_diff_exact(pair, 1.5, u)
        assert calls == []
        from_matrices = abs(
            StationaryCharFn(pair.problem.A, 1.5).evaluate(u)
            - StationaryCharFn(pair.problem_hat.A, 1.5).evaluate(u)
        )
        assert len(calls) == 2
        assert repr(exact) == repr(from_matrices)

    def test_zero_data_column_is_rejected(self):
        gen = RngStream(68).generator
        X = gen.standard_normal((50, 3))
        X[:, 1] = 0.0
        X_hat = X.copy()
        X_hat[0, [0, 2]] = gen.standard_normal(2)
        with pytest.raises(DegenerateDataError, match="the chain does not mix"):
            char_fn_diff_exact(NeighborPair(X, X_hat), 1.5, np.ones(3))


def gaussian_abs_moment(A, z, p):
    # E|N(0, z^T A^-1 z)|^p, the alpha = 2 stationary projection, by a linear solve.
    v = float(z @ np.linalg.solve(A, z))
    return v ** (p / 2.0) * 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


class TestExactStabilityGap:
    @pytest.mark.parametrize("p, alpha", [(1.0, 1.2), (1.0, 1.7), (1.5, 1.8), (1.3, 2.0)])
    def test_one_dimensional_closed_form(self, p, alpha):
        # psi(u) = exp(-|u|^alpha / (alpha A)), so theta is SaS with scale (alpha A)^(-1/alpha).
        gen = RngStream(70).generator
        pair = make_pair_1d(gen)
        R = 1.7
        a, a_hat = pair.problem.A[0, 0], pair.problem_hat.A[0, 0]
        want = R**p * abs(
            sas_abs_moment(p, alpha, (alpha * a) ** (-1.0 / alpha))
            - sas_abs_moment(p, alpha, (alpha * a_hat) ** (-1.0 / alpha))
        )
        assert exact_stability_gap(pair, [[R]], p, alpha) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_gaussian_closed_form(self, p):
        gen = RngStream(71).generator
        pair = make_pair_dd(gen)
        probes = gen.standard_normal((4, 3))
        A, A_hat = pair.problem.A, pair.problem_hat.A
        want = max(
            abs(gaussian_abs_moment(A, z, p) - gaussian_abs_moment(A_hat, z, p)) for z in probes
        )
        assert exact_stability_gap(pair, probes, p, 2.0) == pytest.approx(want, rel=1e-7)

    def test_symmetric_in_the_two_datasets(self):
        gen = RngStream(72).generator
        pair = make_pair_dd(gen)
        probes = gen.standard_normal((3, 3))
        swapped = NeighborPair(pair.X_hat, pair.X)
        assert exact_stability_gap(pair, probes, 1.0, 1.6) == exact_stability_gap(
            swapped, probes, 1.0, 1.6
        )

    def test_zero_probe_contributes_nothing(self):
        gen = RngStream(73).generator
        pair = make_pair_dd(gen)
        z = gen.standard_normal(3)
        assert exact_stability_gap(pair, np.zeros((1, 3)), 1.0, 1.5) == 0.0
        assert exact_stability_gap(pair, [np.zeros(3), z], 1.0, 1.5) == exact_stability_gap(
            pair, [z], 1.0, 1.5
        )

    def test_unstable_orders_and_bad_probes_rejected(self):
        pair = make_pair_dd(RngStream(74).generator)
        with pytest.raises(UnstableRegimeError):
            exact_stability_gap(pair, np.ones((1, 3)), 1.5, 1.5)
        with pytest.raises(UnstableRegimeError):
            exact_stability_gap(pair, np.ones((1, 3)), 2.0, 1.9)
        with pytest.raises(ShapeError):
            exact_stability_gap(pair, np.ones((1, 2)), 1.0, 1.5)

    def test_below_the_dd_bound_on_the_acceptance_instances(self):
        # The 20 pairs and probes of acceptance check 10, drawn the same way,
        # with the exact gap in place of the Monte-Carlo estimate and its stderr.
        ratios = []
        for k in range(20):
            gen = RngStream(700 + k).generator
            d = 2 + k % 4
            n = int(gen.integers(100, 301))
            alpha = 1.5 if k % 2 == 0 else 1.8
            X = gen.normal(0.0, 1.0, (n, d))
            X_hat = X.copy()
            X_hat[0] = gen.normal(0.0, 1.0, d)
            pair = NeighborPair(X, X_hat)
            extra = gen.normal(size=(3, d))
            extra /= np.linalg.norm(extra, axis=1)[:, None]
            probes = np.vstack([np.eye(d), extra])
            sigma = float(max(np.max(np.sum(X**2, axis=1)), np.max(np.sum(X_hat**2, axis=1))))
            bound = upper_bound_dd(
                BoundInputs(R=1.0, n=n, p=1.0, alpha=alpha, sigma=sigma, sigma_min=pair.sigma_min)
            )
            ratios.append(exact_stability_gap(pair, probes, 1.0, alpha) / bound)
        assert 0.0 < max(ratios) <= 1.0


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=0.01, max_value=2.0),
)
@settings(max_examples=300, deadline=None)
@example(1000.0, 999.9999999999999, 2.0)
def test_power_difference_inequality(a, b, alpha):
    # |a^alpha - b^alpha| <= |a - b| (a^(alpha-1) + b^(alpha-1)) underpins the
    # one-dimensional bound's arithmetic. It is an equality at alpha = 2, so
    # both sides are evaluated at 50 digits from the exact float inputs.
    with mpmath.workdps(50):
        a, b, alpha = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(alpha)
        lhs = abs(a**alpha - b**alpha)
        rhs = abs(a - b) * (a ** (alpha - 1) + b ** (alpha - 1))
        assert lhs <= rhs + mpmath.mpf("1e-40") * max(a**alpha, b**alpha)

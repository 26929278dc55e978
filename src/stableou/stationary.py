"""Stationary law of the stable-driven OU process, in Fourier form.

The stationary characteristic function for drift matrix A (symmetric,
positive definite) under isotropic unit-scale noise is

    psi(u) = exp( - integral_0^inf || exp(-s A) u ||_2^alpha ds )

evaluated here by diagonalizing A once and applying adaptive
Gauss-Legendre quadrature on a truncated horizon. The module also carries
the closed-form neighbor-dataset bounds on |psi - psi_hat| and the exact
stability gap that the two stationary laws give a neighbour pair.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bounds import StabilityRegime, classify_regime
from .errors import (AccuracyError, ShapeError, UnstableRegimeError, sample_rows, tail_index,
                     vector)
from .sampling import sas_abs_moment
from .simulate import QuadraticProblem, require_mixing

# Quadrature settings: the node count doubles from _INITIAL_NODES until two
# successive estimates agree to _REL_TOL (or _ABS_TOL), or fails past
# _MAX_NODES; the horizon cuts the integral's analytic tail at _TAIL_TOL.
_INITIAL_NODES = 64
_MAX_NODES = 8192
_TAIL_TOL = 1e-10
_REL_TOL = 1e-9
_ABS_TOL = 1e-12

_gauss_nodes = functools.cache(leggauss)


@functools.cache
def _paired_rule(n: int):
    """The n- and 2n-node rules' nodes, each shifted by +1, end to end, and their two weights."""
    (x, w), (x2, w2) = _gauss_nodes(n), _gauss_nodes(2 * n)
    return np.concatenate((x, x2)) + 1.0, w, w2


class StationaryCharFn:
    """Evaluates psi(u) for fixed (A, alpha).

    A is the drift matrix or a QuadraticProblem; a problem's eigendecomposition
    is reused, a matrix is symmetrized and decomposed once here. A must be
    strictly positive definite: the stationary law does not exist otherwise,
    and require_mixing raises DegenerateDataError. A matrix with a non-finite
    entry is refused first, by sample_rows's ParameterError. Immutable
    afterwards, so concurrent evaluation is safe.
    """

    def __init__(self, A, alpha: float):
        if isinstance(A, QuadraticProblem):
            lam, q = A.eigenvalues, A.eigenvectors
        else:
            A = np.asarray(A, dtype=float)
            if A.ndim == 0:
                A = A.reshape(1, 1)
            if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
                raise ShapeError(f"A must be square and non-empty, got shape {A.shape}")
            A = sample_rows(A)
            # Symmetrize to absorb roundoff before the eigendecomposition.
            A = (A + A.T) / 2.0
            lam, q = np.linalg.eigh(A)
        tail_index(alpha)
        require_mixing(lam[0])
        self.alpha = float(alpha)
        self.eigenvalues = lam
        self._q = q
        self.d = lam.shape[0]

    def _integrand(self, s: np.ndarray, w: np.ndarray) -> np.ndarray:
        decay = np.exp(-s[:, None] * self.eigenvalues) * w
        return np.einsum("ij,ij->i", decay, decay) ** (self.alpha / 2.0)

    def _estimates(self, half: float, w: np.ndarray):
        """Estimates at _INITIAL_NODES, doubling up to _MAX_NODES; the first two share a pass."""
        n = _INITIAL_NODES
        if 2 * n <= _MAX_NODES:
            shifted, first, second = _paired_rule(n)
            f = self._integrand(half * shifted, w)
            yield half * float(first @ f[:n])
            yield half * float(second @ f[n:])
            n *= 4
        while n <= _MAX_NODES:
            nodes, weights = _gauss_nodes(n)
            yield half * float(weights @ self._integrand(half * (nodes + 1.0), w))
            n *= 2

    def exponent(self, u) -> float:
        """The integral in the exponent of psi(u), to ~1e-9 relative accuracy.

        Gauss-Legendre rules on [0, horizon], the horizon set by the smallest
        eigenvalue's analytic tail: the 64- and 128-node rules in one integrand
        pass, then 256 nodes, 512 and so on, one pass each, up to _MAX_NODES.
        The first two successive estimates that agree give the value; none
        agreeing is an AccuracyError carrying the last estimate. Once
        kappa = lambda_max / lambda_min reaches about 1e4, no rule resolves the
        fast e^(-lambda_max s) components, so two rules can agree on a wrong
        value with no error (tests/test_stationary.py,
        test_spread_out_spectrum_matches_closed_forms, a strict xfail).
        """
        u = vector(u, self.d)
        unorm = math.sqrt(u @ u)
        if unorm == 0.0:
            return 0.0

        alpha = self.alpha
        lam_min = float(self.eigenvalues[0])
        # Horizon from the analytic tail bound
        # integral_T^inf (||u|| e^{-lam_min s})^alpha ds < _TAIL_TOL.
        lead = unorm**alpha
        horizon = math.log(max(lead / (alpha * lam_min * _TAIL_TOL), 2.0)) / (alpha * lam_min)

        previous = None
        for value in self._estimates(horizon / 2.0, self._q.T @ u):
            if previous is not None and abs(value - previous) <= max(
                _REL_TOL * abs(value), _ABS_TOL
            ):
                return value
            previous = value
        raise AccuracyError(
            f"quadrature did not converge within {_MAX_NODES} nodes "
            f"(best estimate {previous:.12g})",
            estimate=previous,
        )

    def evaluate(self, u) -> float:
        """psi(u) = exp(-integral); real in (0, 1] by rotational symmetry of the driver."""
        return math.exp(-self.exponent(u))


class NeighborPair:
    """Two datasets differing in at most one row, plus the derived bound inputs.

    problem and problem_hat are the two datasets' QuadraticProblems, built
    once, and sigma_min is the smaller of their Gram matrices' smallest
    eigenvalues (nan if either is). The bounds see the differing row i only
    through x_i x_i^T - xt_i xt_i^T = (u v^T + v u^T) / 2, with u = x_i - xt_i
    and v = x_i + xt_i. Its eigenvalues are (u.v +- ||u|| ||v||) / 2, so the
    sum of their absolute values is perturbation = ||u|| ||v|| exactly, which
    is |x_i^2 - xt_i^2| in one dimension, computed without squaring either row.
    """

    def __init__(self, X, X_hat):
        self.problem = QuadraticProblem(X)
        self.problem_hat = QuadraticProblem(X_hat)
        X, X_hat = self.problem.X, self.problem_hat.X
        if X.shape != X_hat.shape:
            raise ShapeError(
                f"X and X_hat must be matrices of equal shape, got {X.shape} and {X_hat.shape}"
            )
        differing = np.flatnonzero(np.any(X != X_hat, axis=1))
        if differing.size > 1:
            raise ShapeError(
                f"neighbor datasets must differ in exactly one row; rows {differing.tolist()} differ"
            )
        self.X = X
        self.X_hat = X_hat
        self.n, self.d = X.shape
        i = int(differing[0]) if differing.size == 1 else 0
        x, xt = X[i], X_hat[i]
        self.perturbation = float(np.linalg.norm(x - xt) * np.linalg.norm(x + xt))
        self.sigma_min = float(np.minimum(self.problem.lambda_min, self.problem_hat.lambda_min))


def char_fn_diff_bound_1d(pair: NeighborPair, alpha: float, u: float) -> float:
    """Closed-form bound on |psi(u) - psi_hat(u)| for scalar data.

    The bound is |I - I_hat| * exp(-min(I, I_hat)) with I = |u|^alpha
    n / (alpha ||X||^2): the mean-value factor must use the smaller of the
    two exponents, so the exponential is evaluated at the larger data norm,
    which makes the bound independent of which dataset is labeled X.
    """
    if pair.d != 1:
        raise ShapeError(f"1-d bound called on a dimension-{pair.d} pair")
    tail_index(alpha)
    require_mixing(pair.sigma_min)  # at d = 1, zero exactly when a dataset has zero norm
    norm_sq = float(np.sum(pair.X**2))
    norm_hat_sq = float(np.sum(pair.X_hat**2))
    ua = abs(vector(u, 1).item()) ** alpha
    prefactor = ua * pair.n * pair.perturbation / (alpha * norm_sq * norm_hat_sq)
    return prefactor * math.exp(-ua * pair.n / (alpha * max(norm_sq, norm_hat_sq)))


def char_fn_diff_bound_dd(pair: NeighborPair, alpha: float, u) -> float:
    """Closed-form bound on |psi(u) - psi_hat(u)| in d dimensions.

    The rank-2 perturbation term is the sum of its eigenvalues' absolute
    values, pair.perturbation. The driving noise is isotropic with unit scale.
    """
    tail_index(alpha)
    require_mixing(pair.sigma_min)
    ua = float(np.linalg.norm(vector(u, pair.d))) ** alpha
    prefactor = 2.0 * pair.perturbation * ua / (pair.n * alpha * pair.sigma_min)
    return prefactor * math.exp(-ua / (alpha * pair.sigma_min))


def char_fn_diff_exact(pair: NeighborPair, alpha: float, u) -> float:
    """|psi(u) - psi_hat(u)| by quadrature on both isotropically driven stationary laws."""
    sc = StationaryCharFn(pair.problem, alpha)
    sc_hat = StationaryCharFn(pair.problem_hat, alpha)
    return abs(sc.evaluate(u) - sc_hat.evaluate(u))


def _gap_probes(pair: NeighborPair, probe_points, p: float, alpha: float) -> np.ndarray:
    """The nonempty (k, d) array of finite probe rows, once |theta^T z|^p has a finite mean."""
    if classify_regime(p, alpha) is StabilityRegime.UNSTABLE:
        raise UnstableRegimeError(
            f"p={p} >= alpha={alpha} with alpha < 2: the expected loss is infinite "
            "and no finite stability gap exists"
        )
    probes = np.atleast_2d(np.asarray(probe_points, dtype=float))
    if probes.ndim != 2 or probes.shape[0] == 0:
        raise ShapeError(f"probe points must form a nonempty matrix, got shape {probes.shape}")
    for z in probes:
        vector(z, pair.d, name="probe")
    return probes


def exact_stability_gap(pair: NeighborPair, probe_points, p: float, alpha: float) -> float:
    """max_z |E|theta^T z|^p - E|theta_hat^T z|^p| over the probe rows, exactly.

    theta and theta_hat follow the two datasets' stationary laws. Under each,
    theta^T z is symmetric alpha-stable with scale exponent(z)^(1/alpha), since
    psi(t z) = exp(-|t|^alpha exponent(z)), so each moment is sas_abs_moment's
    closed form. A zero probe contributes 0. One neighbour pair's gap is a
    lower bound on the uniform stability constant, a sup over all pairs.
    """
    probes = _gap_probes(pair, probe_points, p, alpha)
    laws = (StationaryCharFn(pair.problem, alpha), StationaryCharFn(pair.problem_hat, alpha))
    moments = [
        [sas_abs_moment(p, alpha, law.exponent(z) ** (1.0 / alpha)) for law in laws]
        for z in probes
        if np.any(z)
    ]
    return max((abs(m - m_hat) for m, m_hat in moments), default=0.0)

"""Stationary law of the stable-driven OU process, in Fourier form.

The stationary characteristic function for drift matrix A (symmetric,
positive definite) and noise matrix S is

    psi(u) = exp( - integral_0^inf || S^T exp(-s A) u ||_2^alpha ds )

evaluated here by diagonalizing A once and applying adaptive
Gauss-Legendre quadrature on a truncated horizon. The module also carries
the closed-form neighbor-dataset bounds on |psi - psi_hat|.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError, DegenerateDataError, ParameterError, ShapeError
from .simulate import QuadraticProblem

# Quadrature settings: the node count doubles from _INITIAL_NODES until two
# successive estimates agree to _REL_TOL (or _ABS_TOL), or fails past
# _MAX_NODES; the horizon cuts the integral's analytic tail at _TAIL_TOL.
_INITIAL_NODES = 64
_MAX_NODES = 8192
_TAIL_TOL = 1e-10
_REL_TOL = 1e-9
_ABS_TOL = 1e-12

_gauss_nodes = functools.cache(leggauss)


class StationaryCharFn:
    """Evaluates psi(u) for fixed (A, Sigma, alpha).

    A must be strictly positive definite (the stationary law does not exist
    otherwise); its eigendecomposition is computed once at construction.
    Immutable afterwards, so concurrent evaluation is safe.
    """

    def __init__(self, A, alpha: float, Sigma=None):
        A = np.asarray(A, dtype=float)
        if A.ndim == 0:
            A = A.reshape(1, 1)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ShapeError(f"A must be square, got shape {A.shape}")
        if not (0.0 < alpha <= 2.0):
            raise ParameterError(f"alpha must lie in (0, 2], got {alpha}")
        # Symmetrize to absorb roundoff before the eigendecomposition.
        A = (A + A.T) / 2.0
        lam, q = np.linalg.eigh(A)
        if lam[0] <= 0.0:
            raise ParameterError(
                f"A must be strictly positive definite; smallest eigenvalue is {lam[0]:.4g}"
            )
        self.alpha = float(alpha)
        self.A = A
        self.eigenvalues = lam
        self._q = q
        self.d = A.shape[0]
        if Sigma is None:
            self.Sigma = None
            self._m = None
            self._sigma_norm = 1.0
        else:
            Sigma = np.asarray(Sigma, dtype=float)
            if Sigma.shape != A.shape:
                raise ShapeError(f"Sigma has shape {Sigma.shape}, expected {A.shape}")
            self.Sigma = Sigma
            self._m = Sigma.T @ q
            self._sigma_norm = float(np.linalg.norm(Sigma, 2))

    def _integrand(self, s: np.ndarray, w: np.ndarray) -> np.ndarray:
        decay = np.exp(-np.outer(s, self.eigenvalues)) * w[None, :]
        if self._m is None:
            sq = np.einsum("ij,ij->i", decay, decay)
        else:
            v = decay @ self._m.T
            sq = np.einsum("ij,ij->i", v, v)
        return sq ** (self.alpha / 2.0)

    def exponent(self, u) -> float:
        """The integral in the exponent of psi(u), to ~1e-9 relative accuracy."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape != (self.d,):
            raise ShapeError(f"u has shape {u.shape}, expected ({self.d},)")
        unorm = float(np.linalg.norm(u))
        if unorm == 0.0:
            return 0.0

        alpha = self.alpha
        lam_min = float(self.eigenvalues[0])
        # Horizon from the analytic tail bound
        # integral_T^inf (||Sigma|| ||u|| e^{-lam_min s})^alpha ds < _TAIL_TOL.
        lead = (self._sigma_norm * unorm) ** alpha
        horizon = math.log(max(lead / (alpha * lam_min * _TAIL_TOL), 2.0)) / (alpha * lam_min)

        w = self._q.T @ u
        half = horizon / 2.0
        n = _INITIAL_NODES
        previous = None
        while n <= _MAX_NODES:
            nodes, weights = _gauss_nodes(n)
            s = half * (nodes + 1.0)
            value = half * float(weights @ self._integrand(s, w))
            if previous is not None and abs(value - previous) <= max(
                _REL_TOL * abs(value), _ABS_TOL
            ):
                return value
            previous = value
            n *= 2
        raise AccuracyError(
            f"quadrature did not converge within {_MAX_NODES} nodes "
            f"(best estimate {previous:.12g})",
            estimate=previous,
        )

    def evaluate(self, u) -> float:
        """psi(u) = exp(-integral); real in (0, 1] by rotational symmetry of the driver."""
        return math.exp(-self.exponent(u))


def rank2_eigenvalues(x, x_tilde) -> tuple[float, float]:
    """Eigenvalues of x x^T - xt xt^T, ordered sigma1 >= sigma2.

    The matrix has rank at most two, so the eigenproblem is solved in the
    closed form of the 2-d span of {x, xt}. The determinant of the 2x2
    restriction is -b^2 ||x||^2 <= 0, which forces sigma1 >= 0 >= sigma2.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    xt = np.asarray(x_tilde, dtype=float).reshape(-1)
    if x.shape != xt.shape:
        raise ShapeError(f"vectors have mismatched lengths {x.shape[0]} and {xt.shape[0]}")
    if np.array_equal(x, xt):
        return 0.0, 0.0
    nx2 = float(x @ x)
    nt2 = float(xt @ xt)
    if nx2 == 0.0 and nt2 == 0.0:
        return 0.0, 0.0
    if nx2 == 0.0:
        return 0.0, -nt2
    if nt2 == 0.0:
        return nx2, 0.0

    nx = math.sqrt(nx2)
    e1 = x / nx
    a = float(e1 @ xt)
    resid = xt - a * e1
    b2 = float(resid @ resid)
    if b2 <= (1e-30) * nt2:
        # Collinear rows: a single eigenvalue ||x||^2 - a^2 plus zero.
        v = nx2 - a * a
        return (v, 0.0) if v >= 0.0 else (0.0, v)
    trace = nx2 - a * a - b2
    det = -b2 * nx2
    disc = math.sqrt(trace * trace - 4.0 * det)
    return (trace + disc) / 2.0, (trace - disc) / 2.0


class NeighborPair:
    """Two datasets differing in at most one row, plus the derived bound inputs.

    problem and problem_hat are the two datasets' QuadraticProblems, built
    once. sigma1 >= 0 >= sigma2 are the eigenvalues of x_i x_i^T - xt_i xt_i^T
    for the differing row i, and sigma_min is the smaller of the two Gram
    matrices' smallest eigenvalues.
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
        self.index = int(differing[0]) if differing.size == 1 else 0
        self.x_row = X[self.index]
        self.x_tilde_row = X_hat[self.index]
        self.sigma1, self.sigma2 = rank2_eigenvalues(self.x_row, self.x_tilde_row)
        self.sigma_min = min(self.problem.lambda_min, self.problem_hat.lambda_min)


def char_fn_diff_bound_1d(pair: NeighborPair, alpha: float, u: float) -> float:
    """Closed-form bound on |psi(u) - psi_hat(u)| for scalar data.

    The bound is |I - I_hat| * exp(-min(I, I_hat)) with I = |u|^alpha
    n / (alpha ||X||^2): the mean-value factor must use the smaller of the
    two exponents, so the exponential is evaluated at the larger data norm,
    which makes the bound independent of which dataset is labeled X.
    """
    if pair.d != 1:
        raise ShapeError(f"1-d bound called on a dimension-{pair.d} pair")
    if not (0.0 < alpha <= 2.0):
        raise ParameterError(f"alpha must lie in (0, 2], got {alpha}")
    norm_sq = float(np.sum(pair.X**2))
    norm_hat_sq = float(np.sum(pair.X_hat**2))
    if norm_sq == 0.0 or norm_hat_sq == 0.0:
        raise DegenerateDataError("a dataset with zero norm has no stationary law")
    delta = abs(float(pair.x_row[0] ** 2 - pair.x_tilde_row[0] ** 2))
    ua = abs(float(u)) ** alpha
    prefactor = ua * pair.n * delta / (alpha * norm_sq * norm_hat_sq)
    return prefactor * math.exp(-ua * pair.n / (alpha * max(norm_sq, norm_hat_sq)))


def char_fn_diff_bound_dd(
    pair: NeighborPair, alpha: float, u, lambda_min: float = 1.0, lambda_max: float = 1.0
) -> float:
    """Closed-form bound on |psi(u) - psi_hat(u)| in d dimensions.

    Uses the (|sigma1| + |sigma2|) convention for the rank-2 perturbation
    term, since the second eigenvalue is nonpositive whenever the rows
    differ. The noise-matrix spectrum enters as a lambda_max^alpha
    prefactor and a lambda_min^alpha shrink of the exponent; both are
    exactly 1 at the isotropic default lambda_min = lambda_max = 1.
    """
    if not (0.0 < alpha <= 2.0):
        raise ParameterError(f"alpha must lie in (0, 2], got {alpha}")
    if not (0.0 < lambda_min <= lambda_max):
        raise ParameterError(f"need 0 < lambda_min <= lambda_max, got {lambda_min}, {lambda_max}")
    if pair.sigma_min <= 0.0:
        raise DegenerateDataError(
            f"smallest Gram eigenvalue is {pair.sigma_min:.4g}; the bound needs it positive"
        )
    uvec = np.atleast_1d(np.asarray(u, dtype=float))
    if uvec.shape != (pair.d,):
        raise ShapeError(f"u has shape {uvec.shape}, expected ({pair.d},)")
    ua = float(np.linalg.norm(uvec)) ** alpha
    perturbation = abs(pair.sigma1) + abs(pair.sigma2)
    prefactor = (lambda_max**alpha) * 2.0 * perturbation * ua / (pair.n * alpha * pair.sigma_min)
    return prefactor * math.exp(-(lambda_min**alpha) * ua / (alpha * pair.sigma_min))


def char_fn_diff_exact(pair: NeighborPair, alpha: float, u) -> float:
    """|psi(u) - psi_hat(u)| by quadrature on both isotropically driven stationary laws."""
    sc = StationaryCharFn(pair.problem.A, alpha)
    sc_hat = StationaryCharFn(pair.problem_hat.A, alpha)
    return abs(sc.evaluate(u) - sc_hat.evaluate(u))

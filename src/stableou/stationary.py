"""Stationary law of the stable-driven OU process, in Fourier form.

The stationary characteristic function for drift matrix A (symmetric,
positive definite) under isotropic unit-scale noise is

    psi(u) = exp( - integral_0^inf || exp(-s A) u ||_2^alpha ds )

evaluated here by diagonalizing A once. Two cases have a closed form, exact
to rounding: at alpha = 2 the exponent is u^T A^-1 u / 2, and in one
dimension it is |u|^alpha / (alpha lambda). Otherwise (alpha < 2, d >= 2)
adaptive Gauss-Legendre quadrature in log time gives it to about 1e-9
relative, whatever the spread lambda_max / lambda_min. Its nodes depend on
(lambda, alpha) only, so each law tabulates exp(-2 s lambda_i) at the first
pass's nodes once, and each frequency's first pass is one matrix-vector
product. The module also carries the closed-form neighbor-dataset bounds on
|psi - psi_hat| and the exact stability gap that the two stationary laws give
a neighbour pair, whose laws the pair builds once per alpha.
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
# successive estimates agree to _REL_TOL, or fails past _MAX_NODES; the
# integral's head and tail each cost at most about _TAIL_TOL relative.
_INITIAL_NODES = 64
_MAX_NODES = 8192
_TAIL_TOL = 1e-10
_REL_TOL = 1e-9

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
    entry is refused first, by sample_rows's ParameterError. At alpha < 2 and
    d >= 2 the first quadrature also keeps the log-time interval and the first
    pass's node table (_log_time_rule). Immutable afterwards, so concurrent
    evaluation is safe: the kept rule is a function of (lambda, alpha) alone,
    assigned in one step and never written again, so a race only builds the
    same rule twice.
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
        self._rule = None

    def _node_table(self, t: np.ndarray):
        """s = e^t and the (len(t), d) table exp(-2 s lambda_i) at the log-time nodes t."""
        s = np.exp(t)
        return s, np.exp(s[:, None] * (-2.0 * self.eigenvalues))

    def _integrand(self, s: np.ndarray, table: np.ndarray, w2: np.ndarray) -> np.ndarray:
        """s ||exp(-s A) w||^alpha at the nodes of _node_table's (s, table); w2 holds w_i^2."""
        return (table @ w2) ** (self.alpha / 2.0) * s

    def _log_time_rule(self):
        """s0, log s0, the half-width of [log s0, log s1] and the first pass's node table."""
        if self._rule is None:
            lam_min, lam_max = float(self.eigenvalues[0]), float(self.eigenvalues[-1])
            head = math.sqrt(_TAIL_TOL) / lam_max
            lo = math.log(head)
            hi = math.log(math.log(lam_max / (lam_min * _TAIL_TOL)) / (self.alpha * lam_min))
            half = (hi - lo) / 2.0
            paired = self._node_table(lo + half * _paired_rule(_INITIAL_NODES)[0])
            self._rule = head, lo, half, paired
        return self._rule

    def _estimates(self, lo: float, half: float, paired, w2: np.ndarray):
        """Estimates at _INITIAL_NODES, doubling up to _MAX_NODES; the first two share paired."""
        n = _INITIAL_NODES
        if 2 * n <= _MAX_NODES:
            _, first, second = _paired_rule(n)
            f = self._integrand(*paired, w2)
            yield half * float(first @ f[:n])
            yield half * float(second @ f[n:])
            n *= 4
        while n <= _MAX_NODES:
            nodes, weights = _gauss_nodes(n)
            f = self._integrand(*self._node_table(lo + half * (nodes + 1.0)), w2)
            yield half * float(weights @ f)
            n *= 2

    def exponent(self, u) -> float:
        """The integral in the exponent of psi(u).

        It is ||u||^alpha times the integral at the unit vector w = Q^T u / ||u||
        in the eigenbasis. In one dimension that integral is 1 / (alpha lambda),
        and at alpha = 2 it is sum_i w_i^2 / (2 lambda_i), so the exponent is
        u^T A^-1 u / 2; both are exact to rounding. Otherwise _quadrature gives
        it to ~1e-9 relative accuracy. A frequency whose ||u||^alpha exceeds
        the float range gives +inf, so evaluate gives 0.0.
        """
        u = vector(u, self.d)
        norm = math.hypot(*u)
        try:
            lead = norm**self.alpha
        except OverflowError:
            lead = math.inf
        if lead in (0.0, math.inf):
            return lead
        if self.d == 1:
            return lead / (self.alpha * float(self.eigenvalues[0]))
        w2 = (self._q.T @ (u / norm)) ** 2
        if self.alpha == 2.0:
            return lead * float(w2 @ (0.5 / self.eigenvalues))
        return self._quadrature(w2, lead)

    def _quadrature(self, w2: np.ndarray, lead: float) -> float:
        """lead times the exponent at the unit vector w with w_i^2 = w2_i, to ~1e-9 relative.

        Gauss-Legendre rules in t = log s on [s0, s1]: the 64- and 128-node
        rules in one integrand pass, then 256 nodes, 512 and so on up to
        _MAX_NODES. The interval and the first pass's (192, d) table of
        exp(-2 s lambda_i) are the law's, built on its first quadrature, so
        that pass costs one matrix-vector product and one power per w; every
        later pass tabulates its own nodes. The first two successive estimates
        that agree give the value; none agreeing is an AccuracyError carrying
        the last estimate.
        Both cuts are relative to the lower bound 1 / (alpha lambda_max). The
        integrand lies in [exp(-alpha lambda_max s), 1], so the head up to
        s0 = sqrt(_TAIL_TOL) / lambda_max is s0 to alpha^2 _TAIL_TOL / 2, and
        the tail past s1 = log(kappa / _TAIL_TOL) / (alpha lambda_min) is below _TAIL_TOL.
        """
        head, lo, half, paired = self._log_time_rule()
        previous = None
        for value in self._estimates(lo, half, paired, w2):
            if previous is not None and abs(value - previous) <= _REL_TOL * value:
                return lead * (head + value)
            previous = value
        raise AccuracyError(
            f"quadrature did not converge within {_MAX_NODES} nodes "
            f"(best estimate {lead * (head + previous):.12g})",
            estimate=lead * (head + previous),
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
    char_fn_diff_exact and exact_stability_gap read the two stationary laws
    from the pair, which builds them on first use per alpha.
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
        self._laws = {}

    def _stationary_laws(self, alpha: float):
        """The two datasets' StationaryCharFns at alpha, built on first use per alpha."""
        tail_index(alpha)
        alpha = float(alpha)
        if alpha not in self._laws:
            self._laws[alpha] = (StationaryCharFn(self.problem, alpha),
                                 StationaryCharFn(self.problem_hat, alpha))
        return self._laws[alpha]


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
    """|psi(u) - psi_hat(u)| from both isotropically driven stationary laws' exponents."""
    sc, sc_hat = pair._stationary_laws(alpha)
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
    laws = pair._stationary_laws(alpha)
    moments = [
        [sas_abs_moment(p, alpha, law.exponent(z) ** (1.0 / alpha)) for law in laws]
        for z in probes
        if np.any(z)
    ]
    return max((abs(m - m_hat) for m, m_hat in moments), default=0.0)

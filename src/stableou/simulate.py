"""Euler-Maruyama simulation of the stable-noise-driven OU recursion.

The iteration for a least-squares problem with data (X, y) is

    theta_{k+1} = theta_k - eta * (A theta_k - b) + eta^(1/alpha) * S E_{k+1}

with A = (1/n) X^T X, b = (1/n) X^T y, S = noise_scale * I and
E_k i.i.d. rotationally symmetric alpha-stable with unit scale. With
noise_scale = 0 this is plain gradient descent on the quadratic risk.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AccuracyError, ParameterError, ShapeError
from .rng import RngStream
from .sampling import StableParams, sample_isotropic_stable

OVERFLOW_LIMIT = 1e300

# Post-burn-in bias target: exp(-lambda_min * eta * burn_in) below this is
# treated as "mixed"; the default burn-in of 10 mixing times gives ~4.5e-5.
_BURN_IN_TOL = 1e-4
_BURN_IN_MIXING_TIMES = 10.0


class QuadraticProblem:
    """Least-squares data (X, y) with the derived drift A = (1/n) X^T X, b = (1/n) X^T y."""

    def __init__(self, X, y=None):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2:
            raise ShapeError(f"X must be an (n, d) matrix, got shape {X.shape}")
        n, d = X.shape
        if n < 1 or d < 1:
            raise ShapeError(f"X needs n >= 1 and d >= 1, got shape {X.shape}")
        if y is None:
            y = np.zeros(n)
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] != n:
            raise ShapeError(f"y has length {y.shape[0]} but X has {n} rows")

        self.X = X
        self.y = y
        self.n = n
        self.d = d
        A = X.T @ X / n
        asym = np.max(np.abs(A - A.T))
        scale = max(np.max(np.abs(A)), 1.0)
        if asym > 1e-12 * scale:
            raise ShapeError(f"drift matrix failed the symmetry check ({asym:.3e})")
        self.A = (A + A.T) / 2.0
        self.b = X.T @ y / n
        # A = eigenvectors @ diag(eigenvalues) @ eigenvectors.T, eigenvalues ascending.
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(self.A)

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


@dataclass(frozen=True)
class SimConfig:
    """Discretization settings for one OU run, compared and hashed by value."""

    eta: float
    steps: int
    alpha: float
    burn_in: Optional[int] = None
    noise_scale: float = 1.0
    allow_unstable: bool = False

    def __post_init__(self):
        if not (self.eta > 0.0):
            raise ParameterError(f"eta must be positive, got {self.eta}")
        if int(self.steps) < 1:
            raise ParameterError(f"steps must be >= 1, got {self.steps}")
        object.__setattr__(self, "steps", int(self.steps))
        if not (0.0 < self.alpha <= 2.0):
            raise ParameterError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.burn_in is not None:
            b = int(self.burn_in)
            if not (0 <= b < self.steps):
                raise ParameterError(f"burn_in must lie in [0, steps), got {self.burn_in}")
            object.__setattr__(self, "burn_in", b)
        if not (self.noise_scale >= 0.0):
            raise ParameterError(f"noise_scale must be nonnegative, got {self.noise_scale}")


@dataclass
class Trajectory:
    """A simulated path: iterates[k] is theta_k, row 0 the initial point."""

    iterates: np.ndarray
    diverged: bool = False

    def __len__(self) -> int:
        return self.iterates.shape[0]

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def default_burn_in(problem: QuadraticProblem, config: SimConfig) -> int:
    """config.burn_in if set, else ten mixing times 1/(eta * lambda_min) capped at steps - 1.

    Warns when exp(-lambda_min * eta * burn_in) stays at or above 1e-4: the
    draws after such a burn-in still carry some of the initial point.
    """
    lam = problem.lambda_min
    if config.burn_in is not None:
        burn_in = config.burn_in
    elif lam <= 0.0:
        burn_in = config.steps - 1
    else:
        est = int(math.ceil(_BURN_IN_MIXING_TIMES / (config.eta * lam)))
        burn_in = min(est, config.steps - 1)
    if lam <= 0.0 or math.exp(-lam * config.eta * burn_in) >= _BURN_IN_TOL:
        warnings.warn(
            f"burn-in of {burn_in} steps may be too short to reach stationarity "
            f"(lambda_min = {lam:.4g}, eta = {config.eta:.4g})",
            stacklevel=3,
        )
    return burn_in


def check_step_size(problem: QuadraticProblem, config: SimConfig) -> None:
    """Reject eta * lambda_max >= 2, where the noiseless recursion diverges.

    With config.allow_unstable the run goes ahead after a warning.
    """
    contraction = config.eta * problem.lambda_max
    if contraction >= 2.0:
        if not config.allow_unstable:
            raise ParameterError(
                f"eta * lambda_max = {contraction:.4g} >= 2 diverges without noise; "
                "set allow_unstable=True to force the run"
            )
        warnings.warn(
            f"eta * lambda_max = {contraction:.4g} >= 2: the noiseless recursion diverges",
            stacklevel=3,
        )


def _recursion(theta, A, b, eta, shocks):
    """Yield theta <- theta - eta * (A theta - b) + shock for each shock in turn.

    theta is a (d,) state, or a stack of column states such as (2, d, n_mc)
    with A of shape (2, d, d). Stops before the first iterate that is
    non-finite or has a coordinate above OVERFLOW_LIMIT in magnitude.
    """
    for shock in shocks:
        theta = theta - eta * (A @ theta - b) + shock
        if not np.all(np.abs(theta) <= OVERFLOW_LIMIT):
            return
        yield theta


def _driving_noise(d: int, config: SimConfig, stream: RngStream | None) -> np.ndarray:
    """The (steps, d) shocks eta^(1/alpha) * noise_scale * E_k, drawn from ``stream``."""
    if config.noise_scale == 0.0:
        return np.zeros((config.steps, d))
    if stream is None:
        raise ParameterError("a stream is required when noise_scale > 0")
    e = sample_isotropic_stable(d, StableParams(config.alpha, 1.0), stream, size=config.steps)
    with np.errstate(over="ignore"):
        return (config.eta ** (1.0 / config.alpha)) * (config.noise_scale * e)


def euler_maruyama_run(
    problem: QuadraticProblem,
    config: SimConfig,
    theta0=None,
    stream: RngStream | None = None,
) -> Trajectory:
    """Run the discretized OU recursion for config.steps steps.

    Any iterate with a coordinate above 1e300 in magnitude (or non-finite)
    truncates the trajectory and sets the ``diverged`` flag instead of
    raising: huge excursions are an expected outcome at small alpha.
    """
    d = problem.d
    if theta0 is None:
        theta0 = np.zeros(d)
    theta0 = np.asarray(theta0, dtype=float).reshape(-1)
    if theta0.shape[0] != d:
        raise ShapeError(f"theta0 has length {theta0.shape[0]} but the problem dimension is {d}")
    check_step_size(problem, config)

    steps = config.steps
    noise = _driving_noise(d, config, stream)
    iterates = np.empty((steps + 1, d))
    iterates[0] = theta0
    last = 0
    for last, theta in enumerate(_recursion(theta0, problem.A, problem.b, config.eta, noise), 1):
        iterates[last] = theta

    return Trajectory(iterates=iterates[: last + 1], diverged=last < steps)


def final_iterate(
    problem: QuadraticProblem, config: SimConfig, stream: RngStream | None = None
) -> tuple[np.ndarray, bool]:
    """theta_T and the divergence flag of ``euler_maruyama_run`` from theta_0 = 0, with no path.

    In the eigenbasis A = Q diag(lambda) Q^T the recursion is elementwise,
    z_{k+1} = m * z_k + c_k with m = 1 - eta * lambda and c_k = Q^T (eta b + noise_k),
    so z_T = sum_k m^(T-1-k) * c_k. When every |m_i| <= 1 and
    sum_k ||c_k||_2 < OVERFLOW_LIMIT, no iterate can overflow and that sum
    is theta_T in the eigenbasis. Otherwise the recursion is stepped over the
    same noise, so the flag is always the loop's.
    """
    check_step_size(problem, config)
    noise = _driving_noise(problem.d, config, stream)
    Q = problem.eigenvectors
    m = 1.0 - config.eta * problem.eigenvalues
    if np.all(np.abs(m) <= 1.0) and np.all(np.isfinite(noise)):
        with np.errstate(over="ignore", invalid="ignore"):
            c = noise @ Q
            c += config.eta * (problem.b @ Q)
            certified = np.linalg.norm(c, axis=1).sum() < OVERFLOW_LIMIT
        if certified:
            return Q @ _weighted_sum(m, c), False
    theta, last = np.zeros(problem.d), 0
    for last, theta in enumerate(_recursion(theta, problem.A, problem.b, config.eta, noise), 1):
        pass
    return theta, last < config.steps


def _weighted_sum(m: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k m^(T-1-k) * c_k over the T rows of c, in blocks of isqrt(T) rows.

    A (B, d) table of the powers m^0 .. m^(B-1) weights every block at once;
    a Horner pass with m^B then joins the block sums, oldest first. A short
    leading block takes the last of the table's rows.
    """
    T, d = c.shape
    B = math.isqrt(T)
    head = T % B
    weights = m ** np.arange(B - 1, -1, -1)[:, None]
    z = np.einsum("id,id->d", c[:head], weights[B - head :])
    blocks = np.einsum("jid,id->jd", c[head:].reshape(-1, B, d), weights)
    stride = m**B
    for block in blocks:
        z = z * stride + block
    return z


def stationary_sample(
    problem: QuadraticProblem,
    config: SimConfig,
    stream: RngStream,
    n_samples: int,
    thinning: int = 1,
) -> np.ndarray:
    """Approximate stationary draws: post-burn-in iterates every ``thinning`` steps.

    Returns an (n_samples, d) array. The burn-in is ``default_burn_in``'s,
    which only warns when it is short, since the draws are still usable as
    rough approximations.
    """
    n_samples = int(n_samples)
    thinning = int(thinning)
    if n_samples < 0:
        raise ParameterError(f"n_samples must be nonnegative, got {n_samples}")
    if thinning < 1:
        raise ParameterError(f"thinning must be >= 1, got {thinning}")
    if n_samples == 0:
        return np.empty((0, problem.d))

    burn_in = default_burn_in(problem, config)
    needed = burn_in + n_samples * thinning
    if needed > config.steps:
        raise ParameterError(
            f"config.steps = {config.steps} cannot supply {n_samples} samples with "
            f"thinning {thinning} after a burn-in of {burn_in} (needs {needed})"
        )

    traj = euler_maruyama_run(problem, config, theta0=None, stream=stream)
    if traj.diverged and len(traj) <= needed:
        raise AccuracyError(
            f"trajectory overflowed after {len(traj) - 1} steps; stationary samples unavailable"
        )
    idx = burn_in + thinning * np.arange(1, n_samples + 1)
    return traj.iterates[idx]


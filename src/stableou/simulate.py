"""Euler-Maruyama simulation of the stable-noise-driven OU recursion.

The iteration for a least-squares problem with data X is

    theta_{k+1} = theta_k - eta * A theta_k + eta^(1/alpha) * noise_scale * E_{k+1}

with A = (1/n) X^T X and E_k i.i.d. rotationally symmetric alpha-stable
with unit scale. The problem has no label term, so the chain is centred at
zero; with noise_scale = 0 it is plain gradient descent on the quadratic
risk.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AccuracyError, ParameterError, ShapeError
from .rng import RngStream
from .sampling import StableParams, sample_isotropic_stable, sample_skewed_positive_stable

OVERFLOW_LIMIT = 1e300

# Post-burn-in bias target: exp(-lambda_min * eta * burn_in) below this is
# treated as "mixed"; the default burn-in of 10 mixing times gives ~4.5e-5.
_BURN_IN_TOL = 1e-4
_BURN_IN_MIXING_TIMES = 10.0


class QuadraticProblem:
    """Data X with the derived drift A = (1/n) X^T X; there is no label term."""

    def __init__(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2:
            raise ShapeError(f"X must be an (n, d) matrix, got shape {X.shape}")
        n, d = X.shape
        if n < 1 or d < 1:
            raise ShapeError(f"X needs n >= 1 and d >= 1, got shape {X.shape}")

        self.X = X
        self.n = n
        self.d = d
        A = X.T @ X / n
        asym = np.max(np.abs(A - A.T))
        scale = max(np.max(np.abs(A)), 1.0)
        if asym > 1e-12 * scale:
            raise ShapeError(f"drift matrix failed the symmetry check ({asym:.3e})")
        self.A = (A + A.T) / 2.0
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
    """A simulated path: iterates[k] is theta_k, row 0 the initial point.

    Every step runs; a diverged path is cut before its first iterate that is
    non-finite or has a coordinate above OVERFLOW_LIMIT in magnitude.
    """

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


def _recursion(theta, A, eta, shocks):
    """Yield theta <- theta - eta * A theta + shock for each shock in turn.

    theta is a (d,) state, or a stack of column states such as (2, d, n_mc)
    with A of shape (2, d, d). Every step runs: the generator checks nothing,
    so each caller tests the iterates for overflow itself.
    """
    for shock in shocks:
        theta = theta - eta * (A @ theta) + shock
        yield theta


def _in_range(x: np.ndarray) -> bool:
    """Whether every entry of x is at most OVERFLOW_LIMIT in magnitude, nan failing.

    max and min propagate nan, and neither allocates an array the size of x.
    """
    return bool(x.max() <= OVERFLOW_LIMIT and x.min() >= -OVERFLOW_LIMIT)


def _stepped_path(theta0, A, eta, shocks) -> tuple[np.ndarray, bool]:
    """The iterates theta_0 .. theta_T of the recursion from theta0, and whether it diverged.

    Every step runs and is stored; one scan of rows 1..T then cuts the path
    before its first iterate that is non-finite or has a coordinate above
    OVERFLOW_LIMIT in magnitude, even if later iterates come back below it.
    """
    path = np.empty((shocks.shape[0] + 1, theta0.shape[0]))
    path[0] = theta0
    rows = path[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        for k, theta in enumerate(_recursion(theta0, A, eta, shocks), 1):
            path[k] = theta
        if _in_range(rows):
            return path, False
        ok = np.all(np.abs(rows) <= OVERFLOW_LIMIT, axis=1)
    return path[: int(np.argmin(ok)) + 1], True


def _driving_noise(d: int, config: SimConfig, stream: RngStream | None, size: int) -> np.ndarray:
    """The (size, d) shocks eta^(1/alpha) * noise_scale * E_k from ``stream``, inf on overflow."""
    if config.noise_scale == 0.0:
        return np.zeros((size, d))
    if stream is None:
        raise ParameterError("a stream is required when noise_scale > 0")
    e = sample_isotropic_stable(d, StableParams(config.alpha, 1.0), stream, size=size)
    # The array comes first so that numpy writes the product into its temporary.
    with np.errstate(over="ignore", invalid="ignore"):
        return config.noise_scale * e * np.float64(config.eta) ** (1.0 / config.alpha)


def euler_maruyama_run(
    problem: QuadraticProblem,
    config: SimConfig,
    theta0=None,
    stream: RngStream | None = None,
) -> Trajectory:
    """Run the discretized OU recursion for config.steps steps.

    Every step runs; one scan afterwards cuts the trajectory before the first
    iterate with a coordinate above 1e300 in magnitude (or non-finite) and
    sets the ``diverged`` flag instead of raising: huge excursions are an
    expected outcome at small alpha.
    """
    d = problem.d
    if theta0 is None:
        theta0 = np.zeros(d)
    theta0 = np.asarray(theta0, dtype=float).reshape(-1)
    if theta0.shape[0] != d:
        raise ShapeError(f"theta0 has length {theta0.shape[0]} but the problem dimension is {d}")
    check_step_size(problem, config)

    noise = _driving_noise(d, config, stream, config.steps)
    iterates, diverged = _stepped_path(theta0, problem.A, config.eta, noise)
    return Trajectory(iterates=iterates, diverged=diverged)


def final_iterate(
    problem: QuadraticProblem, config: SimConfig, stream: RngStream | None = None
) -> tuple[np.ndarray, bool]:
    """theta_T from theta_0 = 0, drawn from its exact law, and the loop's divergence flag.

    The shocks are Gaussian vectors scaled by sqrt(2 A_k), A_k the positive
    (alpha/2)-stable subordinator of sample_isotropic_stable (1 at alpha = 2).
    Given the T draws A_k, and in the eigenbasis A = Q diag(lambda) Q^T,
    theta_T = Q (sqrt(v) * h) with h ~ N(0, I_d), m = 1 - eta * lambda,
    s_k^2 = 2 eta^(2/alpha) noise_scale^2 A_k and v = sum_k (m^2)^(T-1-k) s_k^2.
    It shares its law with ``euler_maruyama_run``, not its noise. That law is
    drawn when every |m_i| <= 1 and sum_k s_k^2 < OVERFLOW_LIMIT, so that sum
    bounds every iterate's variance. Otherwise the stream is rewound to
    where the A_k were drawn and the Euler path is stepped from it as in
    ``euler_maruyama_run``: theta, the flag and the stream's end state are
    then that function's at the same stream, bit for bit.
    """
    check_step_size(problem, config)
    d, T, alpha = problem.d, config.steps, config.alpha
    if config.noise_scale == 0.0:
        return np.zeros(d), False
    if stream is None:
        raise ParameterError("a stream is required when noise_scale > 0")
    gen = stream.generator
    start = gen.bit_generator.state
    a = None if alpha == 2.0 else sample_skewed_positive_stable(alpha / 2.0, stream, size=T)
    m = 1.0 - config.eta * problem.eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.float64(config.eta) ** (1.0 / alpha) * config.noise_scale
        s2 = (np.full(T, 2.0) if a is None else 2.0 * a) * scale * scale
        certified = np.all(np.abs(m) <= 1.0) and s2.sum() < OVERFLOW_LIMIT
    if certified:
        v = _variance(m * m, s2)
        return problem.eigenvectors @ (np.sqrt(v) * gen.standard_normal(d)), False
    gen.bit_generator.state = start
    noise = _driving_noise(d, config, stream, T)
    path, diverged = _stepped_path(np.zeros(d), problem.A, config.eta, noise)
    return path[-1], diverged


def _variance(m2: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """sum_k m2^(T-1-k) * s2_k for each entry of m2, in blocks of isqrt(T) of the T scalars s2.

    A (B, d) table of the powers m2^0 .. m2^(B-1) weights every block in one
    (T/B, B) @ (B, d) product; a Horner pass with m2^B then joins the block
    sums, oldest first. A short leading block takes the table's last rows.
    """
    T = s2.shape[0]
    B = math.isqrt(T)
    head = T % B
    weights = m2 ** np.arange(B - 1, -1, -1)[:, None]
    v = s2[:head] @ weights[B - head :]
    stride = m2**B
    for block in s2[head:].reshape(-1, B) @ weights:
        v = v * stride + block
    return v


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


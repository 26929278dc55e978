"""Euler-Maruyama simulation of the stable-noise-driven OU recursion.

The iteration for a least-squares problem with data (X, y) is

    theta_{k+1} = theta_k - eta * (A theta_k - b) + eta^(1/alpha) * S E_{k+1}

with A = (1/n) X^T X, b = (1/n) X^T y, S = noise_scale * noise_matrix and
E_k i.i.d. rotationally symmetric alpha-stable with unit scale. With
noise_scale = 0 this is plain gradient descent on the quadratic risk.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
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
        self.eigenvalues = np.linalg.eigvalsh(self.A)

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
    noise_matrix: Optional[np.ndarray] = field(default=None, compare=False)
    noise_scale: float = 1.0
    allow_unstable: bool = False
    _noise_key: Optional[tuple] = field(default=None, init=False, repr=False)

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
        if self.noise_matrix is not None:
            m = np.array(self.noise_matrix, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ShapeError(f"noise_matrix must be square, got shape {m.shape}")
            m.flags.writeable = False
            object.__setattr__(self, "noise_matrix", m)
            object.__setattr__(self, "_noise_key", tuple(map(tuple, m.tolist())))

    def effective_noise(self, d: int) -> np.ndarray:
        """noise_scale * noise_matrix with the identity default, as a (d, d) array."""
        if self.noise_matrix is None:
            return self.noise_scale * np.eye(d)
        if self.noise_matrix.shape[0] != d:
            raise ShapeError(
                f"noise_matrix is {self.noise_matrix.shape} but the problem dimension is {d}"
            )
        return self.noise_scale * self.noise_matrix

    def snapshot(self) -> dict:
        return {
            "eta": self.eta,
            "steps": self.steps,
            "alpha": self.alpha,
            "burn_in": self.burn_in,
            "noise_matrix": None if self.noise_matrix is None else self.noise_matrix.tolist(),
            "noise_scale": self.noise_scale,
            "allow_unstable": self.allow_unstable,
        }


@dataclass
class Trajectory:
    """A simulated path: iterates[k] is theta_k, row 0 the initial point."""

    iterates: np.ndarray
    seed_provenance: dict
    config_snapshot: dict
    diverged: bool = False

    def __len__(self) -> int:
        return self.iterates.shape[0]

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def default_burn_in(problem: QuadraticProblem, config: SimConfig) -> int:
    """Ten mixing-time estimates 1/(eta * lambda_min), capped at steps - 1."""
    lam = problem.lambda_min
    if lam <= 0.0:
        return config.steps - 1
    est = int(math.ceil(_BURN_IN_MIXING_TIMES / (config.eta * lam)))
    return min(est, config.steps - 1)


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

    contraction = config.eta * problem.lambda_max
    if contraction >= 2.0:
        if not config.allow_unstable:
            raise ParameterError(
                f"eta * lambda_max = {contraction:.4g} >= 2 diverges without noise; "
                "set allow_unstable=True to force the run"
            )
        warnings.warn(
            f"eta * lambda_max = {contraction:.4g} >= 2: the noiseless recursion diverges",
            stacklevel=2,
        )

    sigma_eff = config.effective_noise(d)
    steps = config.steps
    if config.noise_scale > 0.0 and stream is None:
        raise ParameterError("a stream is required when noise_scale > 0")

    if config.noise_scale > 0.0:
        e = sample_isotropic_stable(d, StableParams(config.alpha, 1.0), stream, size=steps)
        noise = (config.eta ** (1.0 / config.alpha)) * (e @ sigma_eff.T)
    else:
        noise = np.zeros((steps, d))

    iterates = np.empty((steps + 1, d))
    iterates[0] = theta0
    theta = theta0.copy()
    a_mat = problem.A
    b_vec = problem.b
    eta = config.eta
    diverged = False
    last = steps
    for k in range(steps):
        theta = theta - eta * (a_mat @ theta - b_vec) + noise[k]
        if not np.all(np.abs(theta) <= OVERFLOW_LIMIT):
            diverged = True
            last = k
            break
        iterates[k + 1] = theta

    provenance = stream.describe() if stream is not None else {"seed": None, "path": []}
    return Trajectory(
        iterates=iterates[: last + 1],
        seed_provenance=provenance,
        config_snapshot=config.snapshot(),
        diverged=diverged,
    )


def stationary_sample(
    problem: QuadraticProblem,
    config: SimConfig,
    stream: RngStream,
    n_samples: int,
    thinning: int = 1,
) -> np.ndarray:
    """Approximate stationary draws: post-burn-in iterates every ``thinning`` steps.

    Returns an (n_samples, d) array. Burn-in defaults to ten mixing times;
    a burn-in too short for exp(-lambda_min eta burn_in) < 1e-4 only warns,
    since the draws are still usable as rough approximations.
    """
    n_samples = int(n_samples)
    thinning = int(thinning)
    if n_samples < 0:
        raise ParameterError(f"n_samples must be nonnegative, got {n_samples}")
    if thinning < 1:
        raise ParameterError(f"thinning must be >= 1, got {thinning}")
    if n_samples == 0:
        return np.empty((0, problem.d))

    burn_in = config.burn_in if config.burn_in is not None else default_burn_in(problem, config)
    needed = burn_in + n_samples * thinning
    if needed > config.steps:
        raise ParameterError(
            f"config.steps = {config.steps} cannot supply {n_samples} samples with "
            f"thinning {thinning} after a burn-in of {burn_in} (needs {needed})"
        )
    lam = problem.lambda_min
    if lam <= 0.0 or math.exp(-lam * config.eta * burn_in) >= _BURN_IN_TOL:
        warnings.warn(
            f"burn-in of {burn_in} steps may be too short to reach stationarity "
            f"(lambda_min = {lam:.4g}, eta = {config.eta:.4g})",
            stacklevel=2,
        )

    traj = euler_maruyama_run(problem, config, theta0=None, stream=stream)
    if traj.diverged and len(traj) <= needed:
        raise AccuracyError(
            f"trajectory overflowed after {len(traj) - 1} steps; stationary samples unavailable"
        )
    idx = burn_in + thinning * np.arange(1, n_samples + 1)
    return traj.iterates[idx]


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV with columns step, theta_1, ..., theta_d."""
    d = traj.iterates.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [f"theta_{j + 1}" for j in range(d)])
        for k, row in enumerate(traj.iterates):
            writer.writerow([k] + [repr(float(v)) for v in row])

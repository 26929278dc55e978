"""Euler-Maruyama simulation of the stable-noise-driven OU recursion.

The iteration for a least-squares problem with data X is

    theta_{k+1} = theta_k - eta * A theta_k + eta^(1/alpha) * noise_scale * E_{k+1}

with A = (1/n) X^T X and E_k i.i.d. rotationally symmetric alpha-stable
with unit scale. The problem has no label term, so the chain is centred at
zero, and every chain starts there: theta_0 = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (AccuracyError, DegenerateDataError, ParameterError, integer, positive,
                     sample_rows, tail_index)
from .rng import RngStream
from .sampling import (_BLOCK, StableParams, _isotropic_blocks, sample_isotropic_stable,
                       sample_skewed_positive_stable)

OVERFLOW_LIMIT = 1e300

# Post-burn-in bias target: exp(-lambda_min * eta * burn_in) below this is
# treated as "mixed"; the default burn-in of 10 mixing times gives ~4.5e-5.
_BURN_IN_TOL = 1e-4
_BURN_IN_MIXING_TIMES = 10.0


class QuadraticProblem:
    """Data X with the derived drift A = (1/n) X^T X; there is no label term."""

    def __init__(self, X):
        self.X = sample_rows(X)
        self.n, self.d = self.X.shape
        A = self.X.T @ self.X / self.n
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

    def __post_init__(self):
        positive("eta", self.eta)
        object.__setattr__(self, "steps", integer("steps", self.steps, least=1))
        tail_index(self.alpha)
        if self.burn_in is not None:
            object.__setattr__(self, "burn_in", integer("burn_in", self.burn_in))
            if not (0 <= self.burn_in < self.steps):
                raise ParameterError(f"burn_in must lie in [0, steps), got {self.burn_in}")
        positive("noise_scale", self.noise_scale)


@dataclass
class Trajectory:
    """A simulated path: iterates[k] is theta_k, row 0 the start theta_0 = 0.

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


def require_mixing(lam: float) -> None:
    """Raise DegenerateDataError unless lam, the smallest Gram eigenvalue, is above 0.

    At 0 the chain is a random walk along that eigenvector, with no stationary
    law whatever the burn-in. nan fails too: a nan drift matrix gives it, and
    so does finite data whose Gram matrix overflows.
    """
    if not lam > 0.0:
        raise DegenerateDataError(f"smallest Gram eigenvalue is {lam:.4g}; the chain does not mix")


def default_burn_in(problem: QuadraticProblem, config: SimConfig) -> int:
    """config.burn_in if set, else ten mixing times 1/(eta * lambda_min) capped at steps - 1.

    Raises require_mixing's DegenerateDataError for a chain with no
    stationary law. Warns when exp(-lambda_min * eta * burn_in) stays at or
    above 1e-4: the draws after such a burn-in still carry some of the
    initial point.
    """
    lam = problem.lambda_min
    require_mixing(lam)
    burn_in = config.burn_in
    if burn_in is None:
        burn_in = min(math.ceil(_BURN_IN_MIXING_TIMES / (config.eta * lam)), config.steps - 1)
    if math.exp(-lam * config.eta * burn_in) >= _BURN_IN_TOL:
        warnings.warn(
            f"burn-in of {burn_in} steps may be too short to reach stationarity "
            f"(lambda_min = {lam:.4g}, eta = {config.eta:.4g})",
            stacklevel=3,
        )
    return burn_in


def check_step_size(problem: QuadraticProblem, config: SimConfig) -> None:
    """Reject eta * lambda_max >= 2, where the noiseless recursion diverges."""
    contraction = config.eta * problem.lambda_max
    if contraction >= 2.0:
        raise ParameterError(f"eta * lambda_max = {contraction:.4g} >= 2 diverges without noise")


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


def coupled_stationary_draws(
    problem: QuadraticProblem, problem_hat: QuadraticProblem, sim: SimConfig, n_mc: int,
    stream: RngStream,
) -> tuple[np.ndarray, np.ndarray]:
    """n_mc draws of each problem's chain from zero after the slower chain's default_burn_in.

    Row j of both (n_mc, d) arrays is stepped on the same shocks (common
    random numbers); the O(1/n) gap between the two stationary means would
    otherwise drown in Monte-Carlo error at any affordable sample size.
    Raises AccuracyError if the chains overflow during the burn-in.
    """
    problems = (problem, problem_hat)
    check_step_size(max(problems, key=lambda prob: prob.lambda_max), sim)
    for prob in problems:  # min below would pass over a nan lambda_min on problem_hat
        require_mixing(prob.lambda_min)
    burn = default_burn_in(min(problems, key=lambda prob: prob.lambda_min), sim)
    noise_stream = stream.fork(0)
    shocks = (_driving_noise(problem.d, sim, noise_stream, n_mc).T for _ in range(burn))
    # Chain j of problems[i] is column j of state[i].
    state = np.zeros((2, problem.d, n_mc))
    A = np.stack([prob.A for prob in problems])
    for step, state in enumerate(_recursion(state, A, sim.eta, shocks), 1):
        if not _in_range(state):
            raise AccuracyError(
                f"coupled chains overflowed at step {step} of a {burn}-step burn-in"
            )
    return state[0].T, state[1].T


def _to_shocks(e: np.ndarray, config: SimConfig) -> np.ndarray:
    """Unit-scale draws e scaled in place into eta^(1/alpha) * noise_scale * e, inf on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        e *= config.noise_scale
        e *= np.float64(config.eta) ** (1.0 / config.alpha)
    return e


def _driving_noise(d: int, config: SimConfig, stream: RngStream, size: int) -> np.ndarray:
    """The (size, d) shocks eta^(1/alpha) * noise_scale * E_k from ``stream``, inf on overflow."""
    e = sample_isotropic_stable(d, StableParams(config.alpha, 1.0), stream, size=size)
    return _to_shocks(e, config)


def _chain(problem: QuadraticProblem, config: SimConfig, stream: RngStream, steps: int):
    """Yield theta_1 .. theta_steps from theta_0 = 0 in consecutive blocks of rows.

    The shocks are _driving_noise's for config.steps steps, value for value
    and in its stream order, drawn one block at a time; each block's iterates
    are written over its shocks, and no block after the one holding step
    ``steps`` has its Gaussian rows drawn or its subordinator transformed
    (_isotropic_blocks). Nothing is checked: the caller tests each block and
    sets the errstate.
    """
    params = StableParams(config.alpha, 1.0)
    theta = np.zeros(problem.d)
    done = 0
    for block in _isotropic_blocks(problem.d, params, stream, config.steps, _BLOCK):
        block = _to_shocks(block[: steps - done], config)
        for k, theta in enumerate(_recursion(theta, problem.A, config.eta, block)):
            block[k] = theta
        yield block
        done += len(block)
        if done == steps:
            return


def _first_out_of_range(rows: np.ndarray) -> int:
    """Index of the first row of rows that _in_range refuses; rows must hold one."""
    ok = np.all(np.abs(rows) <= OVERFLOW_LIMIT, axis=1)
    return int(np.argmin(ok))


def euler_maruyama_run(
    problem: QuadraticProblem, config: SimConfig, *, stream: RngStream
) -> Trajectory:
    """Run the discretized OU recursion from theta_0 = 0 for config.steps steps.

    Every step runs and is stored; one scan of rows 1..T then cuts the
    trajectory before its first iterate that is non-finite or has a
    coordinate above OVERFLOW_LIMIT in magnitude, even if later iterates come
    back below it, and sets the ``diverged`` flag instead of raising: huge
    excursions are an expected outcome at small alpha.
    """
    check_step_size(problem, config)
    path = np.empty((config.steps + 1, problem.d))
    path[0] = 0.0
    rows = path[1:]
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _chain(problem, config, stream, config.steps):
            rows[start:start + len(block)] = block
            start += len(block)
        if _in_range(rows):
            return Trajectory(iterates=path)
        cut = _first_out_of_range(rows)
    return Trajectory(iterates=path[: cut + 1], diverged=True)


def final_iterate(
    problem: QuadraticProblem, config: SimConfig, stream: RngStream
) -> tuple[np.ndarray, bool]:
    """theta_T from theta_0 = 0, drawn from its exact law, and the loop's divergence flag.

    The shocks are Gaussian vectors scaled by sqrt(2 A_k), A_k the positive
    (alpha/2)-stable subordinator of sample_isotropic_stable (1 at alpha = 2).
    Given the T draws A_k, and in the eigenbasis A = Q diag(lambda) Q^T,
    theta_T = Q (sqrt(v) * h) with h ~ N(0, I_d), m = 1 - eta * lambda,
    s_k^2 = 2 eta^(2/alpha) noise_scale^2 A_k and v = sum_k (m^2)^(T-1-k) s_k^2.
    h is drawn before the A_k, so streams in the same state give every
    alpha the same h and the same CMS uniforms and exponentials: the A_k
    are then a deterministic function of alpha. It shares its law with
    ``euler_maruyama_run``, not its noise. That law is drawn when every
    |m_i| <= 1 and sum_k s_k^2 < OVERFLOW_LIMIT, so that sum bounds every
    iterate's variance. Otherwise the stream is rewound to where h was
    drawn and ``euler_maruyama_run`` steps the Euler path from it: theta,
    the flag and the stream's end state are then that function's at the
    same stream, bit for bit.
    """
    check_step_size(problem, config)
    d, T, alpha = problem.d, config.steps, config.alpha
    gen = stream.generator
    start = gen.bit_generator.state
    h = gen.standard_normal(d)
    a = None if alpha == 2.0 else sample_skewed_positive_stable(alpha / 2.0, stream, size=T)
    m = 1.0 - config.eta * problem.eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.float64(config.eta) ** (1.0 / alpha) * config.noise_scale
        s2 = (np.full(T, 2.0) if a is None else 2.0 * a) * scale * scale
        certified = np.all(np.abs(m) <= 1.0) and s2.sum() < OVERFLOW_LIMIT
    if certified:
        v = _variance(m * m, s2)
        return problem.eigenvectors @ (np.sqrt(v) * h), False
    gen.bit_generator.state = start
    traj = euler_maruyama_run(problem, config, stream=stream)
    return traj.final, traj.diverged


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
    which refuses a singular Gram matrix and only warns when the burn-in is
    short, since the draws are still usable as rough approximations. The
    draws are rows of ``euler_maruyama_run``'s path at the same stream, but
    only the steps up to the last draw run, one block at a time, and only
    the draws are kept. The subordinator of steps that never run is drawn,
    so that the stream order stays the path's, but never transformed or
    kept, so the memory does not grow with config.steps. Raises
    AccuracyError if an iterate among those steps is non-finite or above
    OVERFLOW_LIMIT in magnitude.
    """
    n_samples = integer("n_samples", n_samples, least=0)
    thinning = integer("thinning", thinning, least=1)
    if n_samples == 0:
        return np.empty((0, problem.d))

    burn_in = default_burn_in(problem, config)
    needed = burn_in + n_samples * thinning
    if needed > config.steps:
        raise ParameterError(
            f"config.steps = {config.steps} cannot supply {n_samples} samples with "
            f"thinning {thinning} after a burn-in of {burn_in} (needs {needed})"
        )

    check_step_size(problem, config)
    idx = burn_in + thinning * np.arange(1, n_samples + 1)
    out = np.empty((n_samples, problem.d))
    first = 1  # the step of the block's first row
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _chain(problem, config, stream, needed):
            if not _in_range(block):
                raise AccuracyError(
                    f"trajectory overflowed after {first - 1 + _first_out_of_range(block)} "
                    "steps; stationary samples unavailable"
                )
            lo, hi = np.searchsorted(idx, (first, first + len(block)))
            out[lo:hi] = block[idx[lo:hi] - first]
            first += len(block)
    return out

"""Closed-form stability bounds for the stable-noise least-squares recursion.

Upper bounds for the 1-d and d-dimensional surrogate losses |theta^T x|^p,
the matching lower bound, the variance threshold governing monotonicity in
the tail index, and regime classification. All operations are pure.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .special import digamma, gamma_fn

# Relative distance of p below alpha at which the Gamma(1 - p/alpha) pole
# starts to dominate; bounds are still returned, with a warning.
_POLE_PROXIMITY = 0.01


class StabilityRegime(enum.Enum):
    """Qualitative behavior of the stability constant at a given (p, alpha)."""

    UNSTABLE = "Unstable"
    STABLE_SURROGATE = "StableSurrogate"
    GAUSSIAN_SQUARED = "GaussianSquared"


class NoThreshold:
    """Sentinel: no tail index in (p, 2) satisfies the variance condition."""

    def __repr__(self) -> str:
        return "NoThreshold"


NO_THRESHOLD = NoThreshold()


@dataclass(frozen=True)
class BoundInputs:
    """Quantities appearing in the stability bounds.

    sigma2 bounds the 1-d second moment (sum x_i^2 <= sigma2 * n), sigma
    bounds the d-dim single-row perturbation (spectral norm <= 2 sigma), and
    sigma_min lower-bounds the smallest Gram singular value. lambda_min and
    lambda_max are the extreme eigenvalues of the noise preconditioner; the
    default (1, 1) is isotropic noise. delta1, delta2 are the probabilities
    with which the data assumptions fail; they are echoed into reports,
    never estimated.
    """

    R: float
    n: int
    p: float
    alpha: float
    sigma2: float = 1.0
    sigma: float = 1.0
    sigma_min: float = 1.0
    lambda_min: float = 1.0
    lambda_max: float = 1.0
    delta1: float = 0.0
    delta2: float = 0.0

    def __post_init__(self):
        if not self.R > 0:
            raise ParameterError(f"R must be positive, got {self.R}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")
        if not (1.0 <= self.p <= 2.0):
            raise ParameterError(f"p must lie in [1, 2], got {self.p}")
        if not (0.0 < self.alpha <= 2.0):
            raise ParameterError(f"alpha must lie in (0, 2], got {self.alpha}")
        for name in ("sigma2", "sigma", "sigma_min", "lambda_min", "lambda_max"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if self.lambda_min > self.lambda_max:
            raise ParameterError(
                f"lambda_min={self.lambda_min} exceeds lambda_max={self.lambda_max}"
            )
        # The bound holds with probability 1 - delta1 - 2 delta2, so each
        # failure budget must leave that floor positive on its own.
        if not 0.0 <= self.delta1 < 1.0:
            raise ParameterError(f"delta1 must lie in [0, 1), got {self.delta1}")
        if not 0.0 <= self.delta2 < 0.5:
            raise ParameterError(f"delta2 must lie in [0, 0.5), got {self.delta2}")

    @property
    def confidence_floor(self) -> float:
        """The assumption-probability caveat: bounds hold with at least this probability."""
        return 1.0 - self.delta1 - 2.0 * self.delta2


def classify_regime(p: float, alpha: float) -> StabilityRegime:
    if not (1.0 <= p <= 2.0):
        raise ParameterError(f"p must lie in [1, 2], got {p}")
    if not (0.0 < alpha <= 2.0):
        raise ParameterError(f"alpha must lie in (0, 2], got {alpha}")
    if p < alpha:
        return StabilityRegime.STABLE_SURROGATE
    if p == 2.0 and alpha == 2.0:
        return StabilityRegime.GAUSSIAN_SQUARED
    return StabilityRegime.UNSTABLE


def _cos_factor(p: float) -> float:
    # The theorem statements carry cos((p-1) pi / 2), which is nonnegative on
    # p in [1, 2]; taken in absolute value to guard roundoff at p = 2.
    return abs(math.cos((p - 1.0) * math.pi / 2.0))


def _warn_if_near_pole(p: float, alpha: float) -> None:
    if (alpha - p) / alpha < _POLE_PROXIMITY:
        warnings.warn(
            f"p={p} is within {_POLE_PROXIMITY:.0%} of alpha={alpha}; "
            "Gamma(1 - p/alpha) is near its pole and the bound is very large",
            RuntimeWarning,
            stacklevel=3,
        )


def alpha_factor(alpha: float, p: float, sigma_sq: float) -> float:
    """The alpha-dependent factor (1/alpha)(1/(alpha sigma_sq))^(p/alpha) Gamma(1-p/alpha).

    upper_bound_1d, upper_bound_dd and lower_bound_1d all multiply this one
    factor, which is why the 1-d lower-to-upper ratio is constant in alpha
    (claim (iii)).
    """
    if not p < alpha:
        raise ParameterError(f"need p < alpha, got p={p}, alpha={alpha}")
    return (
        (1.0 / alpha)
        * (1.0 / (alpha * sigma_sq)) ** (p / alpha)
        * gamma_fn(1.0 - p / alpha)
    )


def upper_bound_1d(b: BoundInputs) -> float | StabilityRegime:
    """Stability upper bound for the scalar loss |theta x|^p.

    Returns the Unstable regime marker when p >= alpha with alpha < 2, the
    dedicated squared-loss value at p = alpha = 2, and otherwise

        c(alpha) = (2 R^(p+2) / (pi sigma2 n)) Gamma(p+1) cos((p-1)pi/2)
                   alpha_factor(alpha, p, sigma2).

    The scalar bound has no preconditioned form, so a noise spectrum other
    than lambda_min = lambda_max = 1 is rejected.
    """
    if (b.lambda_min, b.lambda_max) != (1.0, 1.0):
        raise ParameterError(
            f"the 1-d bound has no preconditioned form; got lambda_min={b.lambda_min}, "
            f"lambda_max={b.lambda_max} (both must be 1)"
        )
    regime = classify_regime(b.p, b.alpha)
    if regime is StabilityRegime.UNSTABLE:
        return regime
    if regime is StabilityRegime.GAUSSIAN_SQUARED:
        return b.R**4 / (math.pi * b.sigma2**2 * b.n)
    _warn_if_near_pole(b.p, b.alpha)
    lead = 2.0 * b.R ** (b.p + 2.0) / (math.pi * b.sigma2 * b.n)
    return lead * gamma_fn(b.p + 1.0) * _cos_factor(b.p) * alpha_factor(b.alpha, b.p, b.sigma2)


def upper_bound_dd(b: BoundInputs) -> float | StabilityRegime:
    """Stability upper bound for the d-dimensional loss |theta^T x|^p.

    The noise preconditioner's spectrum multiplies the surrogate bound by
    lambda_min^p (lambda_max/lambda_min)^alpha and the squared-loss bound by
    lambda_max^2; both factors are exactly 1 at the isotropic default
    lambda_min = lambda_max = 1.
    """
    regime = classify_regime(b.p, b.alpha)
    if regime is StabilityRegime.UNSTABLE:
        return regime
    if regime is StabilityRegime.GAUSSIAN_SQUARED:
        return 2.0 * b.R**2 * b.sigma / (math.pi * b.n * b.sigma_min) * b.lambda_max**2
    _warn_if_near_pole(b.p, b.alpha)
    return (
        (8.0 * b.R**b.p * b.sigma / (math.pi * b.n))
        * gamma_fn(b.p + 1.0)
        * _cos_factor(b.p)
        * alpha_factor(b.alpha, b.p, b.sigma_min)
        * (b.lambda_min**b.p * (b.lambda_max / b.lambda_min) ** b.alpha)
    )


def variance_threshold(
    alpha0: float, p: float, lambda_min: float = 1.0, lambda_max: float = 1.0
) -> float:
    """Variance level above which the bound increases in alpha on [alpha0, 2).

        exp(1 + 2/p - log(alpha0) - psi(1 - p/alpha0))

    minus alpha0^2 log(lambda_max/lambda_min) inside the exponential for a
    preconditioner with the given spectrum. Applies to sigma2 in one
    dimension and to sigma_min in d dimensions.
    """
    if not (1.0 <= p < alpha0):
        raise ParameterError(f"need 1 <= p < alpha0, got p={p}, alpha0={alpha0}")
    if not (1.0 < alpha0 <= 2.0):
        raise ParameterError(f"alpha0 must lie in (1, 2], got {alpha0}")
    if not (0.0 < lambda_min <= lambda_max):
        raise ParameterError(f"need 0 < lambda_min <= lambda_max, got {lambda_min}, {lambda_max}")
    exponent = 1.0 + 2.0 / p - math.log(alpha0) - digamma(1.0 - p / alpha0)
    exponent -= alpha0**2 * math.log(lambda_max / lambda_min)
    # The exponent blows up as alpha0 approaches p; the threshold is then
    # unattainably large, which +inf states exactly.
    if exponent > 709.0:
        return math.inf
    return math.exp(exponent)


def threshold_alpha0(
    sigma_level: float, p: float, lambda_min: float = 1.0, lambda_max: float = 1.0
) -> float | NoThreshold:
    """Smallest alpha0 in (p, 2] whose variance threshold lies at or below sigma_level.

    Bisects [p + 1e-4 (2 - p), 2] to a 1e-12 bracket and returns its upper
    end. The map strictly decreases in alpha0: -log(alpha0) and -psi(1 - p/alpha0)
    decrease (trigamma > 0), -alpha0^2 log(lambda_max/lambda_min) does not
    increase. Returns the NoThreshold sentinel if alpha0 = 2 does not qualify.
    """
    if not sigma_level > 0:
        raise ParameterError(f"sigma_level must be positive, got {sigma_level}")
    if not (1.0 <= p < 2.0):
        raise ParameterError(f"p must lie in [1, 2), got {p}")

    def qualifies(alpha0: float) -> bool:
        return variance_threshold(alpha0, p, lambda_min, lambda_max) <= sigma_level

    lo, hi = p + 1e-4 * (2.0 - p), 2.0
    if not qualifies(hi):
        return NO_THRESHOLD
    if qualifies(lo):
        return lo
    while hi - lo >= 1e-12:
        mid = (lo + hi) / 2.0
        if qualifies(mid):
            hi = mid
        else:
            lo = mid
    return hi


def lower_bound_1d(b: BoundInputs, delta_gap: float, a1_hint: float | None = None) -> float:
    """Stability lower bound from the explicit two-point data construction.

    delta_gap is the effective-dataset gap |mean(x y) - mean(x~ y~)| * n and
    a1_hint the common squared data norm of the construction (defaults to
    sigma2 * n). The bound is alpha_factor at sigma_sq = a1_hint / n times an
    alpha-free lead, as the upper bound is, so the ratio of the two is
    constant in alpha with all else fixed.
    """
    if delta_gap < 0:
        raise ParameterError(f"delta_gap must be nonnegative, got {delta_gap}")
    if not b.p < b.alpha:
        raise ParameterError(
            f"the lower bound needs p < alpha, got p={b.p}, alpha={b.alpha}"
        )
    if a1_hint is None:
        a1_hint = b.sigma2 * b.n
    if not a1_hint > 0:
        raise ParameterError(f"a1_hint must be positive, got {a1_hint}")
    if delta_gap == 0.0:
        return 0.0
    return (
        (2.0 * b.R**b.p / math.pi)
        * gamma_fn(b.p + 1.0)
        * _cos_factor(b.p)
        * (delta_gap / a1_hint)
        * alpha_factor(b.alpha, b.p, a1_hint / b.n)
    )


def monotonicity_scan(bound_fn, alpha0: float, grid_size: int) -> tuple[bool, float | None]:
    """Whether bound_fn is nondecreasing on a uniform alpha-grid over [alpha0, 1.99].

    Returns (True, None) when nondecreasing; otherwise (False, a) with a the
    left endpoint of the first decreasing step.
    """
    if grid_size < 2:
        raise ParameterError(f"grid_size must be at least 2, got {grid_size}")
    grid = np.linspace(alpha0, 1.99, grid_size)
    values = [float(bound_fn(a)) for a in grid]
    for i in range(len(values) - 1):
        tol = 1e-12 * max(abs(values[i]), abs(values[i + 1]))
        if values[i + 1] < values[i] - tol:
            return False, float(grid[i])
    return True, None

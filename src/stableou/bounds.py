"""Closed-form stability bounds for the stable-noise least-squares recursion.

Upper bounds for the 1-d and d-dimensional surrogate losses |theta^T x|^p,
the variance threshold governing monotonicity in the tail index, and regime
classification. All operations are pure.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

from .errors import ParameterError, integer, loss_power, positive, reject_unread, tail_index
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
    sigma_min lower-bounds the smallest Gram singular value. The noise is
    isotropic, so no preconditioner spectrum enters. delta1, delta2 are the
    probabilities with which the data assumptions fail; they are echoed into
    reports, never estimated.
    """

    R: float
    n: int
    p: float
    alpha: float
    sigma2: float = 1.0
    sigma: float = 1.0
    sigma_min: float = 1.0
    delta1: float = 0.0
    delta2: float = 0.0

    def __post_init__(self):
        integer("n", self.n, least=1)
        loss_power(self.p)
        tail_index(self.alpha)
        for name in ("R", "sigma2", "sigma", "sigma_min"):
            positive(name, getattr(self, name))
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
    loss_power(p)
    tail_index(alpha)
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

    upper_bound_1d and upper_bound_dd both multiply this one factor, so it
    carries all of their dependence on alpha.
    """
    tail_index(alpha)
    positive("sigma_sq", sigma_sq)
    if not p < alpha:
        raise ParameterError(f"need p < alpha, got p={p}, alpha={alpha}")
    return (
        (1.0 / alpha)
        * (1.0 / (alpha * sigma_sq)) ** (p / alpha)
        * gamma_fn(1.0 - p / alpha)
    )


def upper_bound_1d(b: BoundInputs) -> float | StabilityRegime:
    """Stability upper bound for the scalar loss |theta x|^p.

    Returns the Unstable regime marker when p >= alpha with alpha < 2, and otherwise

        c(alpha) = (2 R^(p+2) / (pi sigma2 n)) Gamma(p+1) cos((p-1)pi/2)
                   alpha_factor(alpha, p, sigma2),

    at p = alpha = 2 its limit as p -> 2, R^4 / (sigma2^2 n), since
    Gamma(1 - p/2) cos((p-1)pi/2) tends to pi.

    The scalar bound reads neither the d-dimensional sigma nor sigma_min;
    either set away from its default is rejected.
    """
    reject_unread("the 1-d bound", ("sigma", "sigma_min"), vars(b), vars(BoundInputs))
    regime = classify_regime(b.p, b.alpha)
    if regime is StabilityRegime.UNSTABLE:
        return regime
    if regime is StabilityRegime.GAUSSIAN_SQUARED:
        return b.R**4 / (b.sigma2**2 * b.n)
    _warn_if_near_pole(b.p, b.alpha)
    lead = 2.0 * b.R ** (b.p + 2.0) / (math.pi * b.sigma2 * b.n)
    return lead * gamma_fn(b.p + 1.0) * _cos_factor(b.p) * alpha_factor(b.alpha, b.p, b.sigma2)


def upper_bound_dd(b: BoundInputs) -> float | StabilityRegime:
    """Stability upper bound for the d-dimensional loss |theta^T x|^p.

    At p = alpha = 2 it is the p -> 2 limit, 4 R^2 sigma / (n sigma_min).
    The bound does not read the 1-d sigma2, so a sigma2 set away from its
    default is rejected.
    """
    reject_unread("the d-dimensional bound", ("sigma2",), vars(b), vars(BoundInputs))
    regime = classify_regime(b.p, b.alpha)
    if regime is StabilityRegime.UNSTABLE:
        return regime
    if regime is StabilityRegime.GAUSSIAN_SQUARED:
        return 4.0 * b.R**2 * b.sigma / (b.n * b.sigma_min)
    _warn_if_near_pole(b.p, b.alpha)
    return (
        (8.0 * b.R**b.p * b.sigma / (math.pi * b.n))
        * gamma_fn(b.p + 1.0)
        * _cos_factor(b.p)
        * alpha_factor(b.alpha, b.p, b.sigma_min)
    )


def variance_threshold(alpha0: float, p: float) -> float:
    """Variance level above which the bound increases in alpha on [alpha0, 2).

        exp(1 + 2/p - log(alpha0) - psi(1 - p/alpha0))

    Applies to sigma2 in one dimension and to sigma_min in d dimensions.
    """
    if not (1.0 <= p < alpha0):
        raise ParameterError(f"need 1 <= p < alpha0, got p={p}, alpha0={alpha0}")
    if not (1.0 < alpha0 <= 2.0):
        raise ParameterError(f"alpha0 must lie in (1, 2], got {alpha0}")
    exponent = 1.0 + 2.0 / p - math.log(alpha0) - digamma(1.0 - p / alpha0)
    # The exponent blows up as alpha0 approaches p; the threshold is then
    # unattainably large, which +inf states exactly.
    if exponent > 709.0:
        return math.inf
    return math.exp(exponent)


def threshold_alpha0(sigma_level: float, p: float) -> float | NoThreshold:
    """Smallest alpha0 in (p, 2] whose variance threshold lies at or below sigma_level.

    Bisects [p + 1e-4 (2 - p), 2] to a 1e-12 bracket and returns its upper
    end. The map strictly decreases in alpha0: -log(alpha0) and -psi(1 - p/alpha0)
    both decrease (trigamma > 0). Returns the NoThreshold sentinel if
    alpha0 = 2 does not qualify.
    """
    if not sigma_level > 0:
        raise ParameterError(f"sigma_level must be positive, got {sigma_level}")
    if not (1.0 <= p < 2.0):
        raise ParameterError(f"p must lie in [1, 2), got {p}")

    def qualifies(alpha0: float) -> bool:
        return variance_threshold(alpha0, p) <= sigma_level

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

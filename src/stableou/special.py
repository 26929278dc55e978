"""Gamma and digamma for the closed-form stability bounds.

Gamma is the standard library's `math.gamma` (within a few ulps) behind
the pole checks. Digamma has no standard-library equivalent: it takes the
recurrence-plus-asymptotic-series route, with the reflection formula on the
negative axis, to absolute 1e-10 on (0.01, 50). The test suite checks both
against independent library oracles.
"""

from __future__ import annotations

import math

from .errors import PoleError

# Asymptotic tail of psi(x) ~ ln x - 1/(2x) - sum B_2k / (2k x^2k),
# coefficients of x^{-2}, x^{-4}, ... ; valid once x >= _PSI_SHIFT_POINT.
_PSI_TAIL = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)
_PSI_SHIFT_POINT = 8.5


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma_fn(x: float) -> float:
    """Gamma function on the reals, poles at the nonpositive integers."""
    x = float(x)
    if math.isnan(x):
        raise PoleError("gamma_fn is undefined at nan")
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma_fn has a pole at {x}")
    return math.gamma(x)


def digamma(x: float) -> float:
    """Digamma (logarithmic derivative of gamma), poles at the nonpositive integers."""
    x = float(x)
    if math.isnan(x):
        raise PoleError("digamma is undefined at nan")
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma has a pole at {x}")
    if x < 0.0:
        # psi(x) = psi(1 - x) - pi * cot(pi * x)
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    shift = 0.0
    while x < _PSI_SHIFT_POINT:
        shift -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_PSI_TAIL):
        tail = (tail + c) * inv2
    return shift + math.log(x) - 0.5 / x + tail

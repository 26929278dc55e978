import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from stableou import PoleError, digamma, gamma_fn

EULER_GAMMA = 0.5772156649015329


@pytest.mark.parametrize(
    "x, expected",
    [
        (0.5, math.sqrt(math.pi)),
        (1.0, 1.0),
        (2.0, 1.0),
        (5.0, 24.0),
        (1.5, math.sqrt(math.pi) / 2.0),
        (-0.5, -2.0 * math.sqrt(math.pi)),
    ],
)
def test_gamma_known_values(x, expected):
    assert gamma_fn(x) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "x, expected",
    [
        (1.0, -EULER_GAMMA),
        (0.5, -EULER_GAMMA - 2.0 * math.log(2.0)),
        (2.0, 1.0 - EULER_GAMMA),
        (-0.5, 2.0 - EULER_GAMMA - 2.0 * math.log(2.0)),
    ],
)
def test_digamma_known_values(x, expected):
    assert digamma(x) == pytest.approx(expected, abs=1e-12)


def test_gamma_matches_scipy_on_positive_axis():
    grid = np.concatenate([np.geomspace(1e-3, 50.0, 200), np.linspace(0.01, 30.0, 121)])
    ours = np.array([gamma_fn(x) for x in grid])
    ref = scipy.special.gamma(grid)
    np.testing.assert_allclose(ours, ref, rtol=1e-10)


def test_gamma_matches_mpmath_to_a_few_ulps():
    grid = np.concatenate([np.geomspace(0.05, 50.0, 400), np.linspace(-4.95, 0.45, 300)])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.gamma(mpmath.mpf(float(x)))) for x in grid])
    ours = np.array([gamma_fn(x) for x in grid])
    np.testing.assert_allclose(ours, ref, rtol=5e-15)


def test_gamma_matches_scipy_at_negative_noninteger_points():
    grid = np.array([-0.25, -0.75, -1.5, -2.3, -3.7, -5.5, -8.25])
    ours = np.array([gamma_fn(x) for x in grid])
    ref = scipy.special.gamma(grid)
    np.testing.assert_allclose(ours, ref, rtol=1e-10)


def test_digamma_matches_scipy():
    grid = np.concatenate(
        [np.geomspace(1e-3, 50.0, 200), np.array([-0.25, -0.75, -1.5, -2.3, -5.5])]
    )
    ours = np.array([digamma(x) for x in grid])
    ref = scipy.special.psi(grid)
    np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
def test_poles_are_rejected(x):
    with pytest.raises(PoleError):
        gamma_fn(x)
    with pytest.raises(PoleError):
        digamma(x)


@given(st.floats(min_value=0.01, max_value=40.0))
@settings(max_examples=200, deadline=None)
def test_gamma_recurrence(x):
    assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-9)


@given(st.floats(min_value=0.01, max_value=40.0))
@settings(max_examples=200, deadline=None)
def test_digamma_recurrence(x):
    assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-9, abs=1e-9)


def test_gamma_log_convexity_on_positive_axis():
    # Bohr-Mollerup characterization: log(gamma) is convex for x > 0.
    xs = np.linspace(0.2, 10.0, 50)
    logs = np.log([gamma_fn(x) for x in xs])
    second = np.diff(logs, 2)
    assert np.all(second > -1e-12)

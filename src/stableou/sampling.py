"""Exact sampling of symmetric and positive alpha-stable laws.

Scalar symmetric draws use the Chambers-Mallows-Stuck transform; the
multivariate rotationally symmetric law uses the subordinated-Gaussian
construction (a positive (alpha/2)-stable time change of a Gaussian
vector). Target laws, in characteristic-function form:

    scalar symmetric      E[exp(i u X)]     = exp(-sigma^alpha |u|^alpha)
    positive subordinator E[exp(-lam A)]    = exp(-lam^alpha_prime)
    isotropic vector      E[exp(i <u, X>)]  = exp(-sigma^alpha ||u||^alpha)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, integer, is_real, positive, sample_rows, tail_index, vector
from .rng import RngStream
from .special import gamma_fn

# Entries per block of the CMS transform and rows per block of the Gaussian draws.
_BLOCK = 4096


@dataclass(frozen=True)
class StableParams:
    """Tail index and scale of a symmetric alpha-stable law."""

    alpha: float
    sigma: float

    def __post_init__(self):
        tail_index(self.alpha)
        positive("sigma", self.sigma)


def _uniform_angles(gen: np.random.Generator, n: int) -> np.ndarray:
    """Angles uniform on the open interval (-pi/2, pi/2)."""
    u = gen.uniform(-np.pi / 2.0, np.pi / 2.0, size=n)
    # uniform() is half-open at the top; redraw the (astronomically rare)
    # exact endpoints so downstream cos/log terms never see them.
    bad = np.abs(u) >= np.pi / 2.0
    while np.any(bad):
        u[bad] = gen.uniform(-np.pi / 2.0, np.pi / 2.0, size=int(bad.sum()))
        bad = np.abs(u) >= np.pi / 2.0
    return u


def _positive_exponentials(gen: np.random.Generator, n: int) -> np.ndarray:
    w = gen.standard_exponential(size=n)
    bad = w <= 0.0
    while np.any(bad):
        w[bad] = gen.standard_exponential(size=int(bad.sum()))
        bad = w <= 0.0
    return w


def sample_sas_scalar(params: StableParams, stream: RngStream, size: int):
    """Draw ``size`` values from the symmetric alpha-stable law SaS(sigma).

    The alpha=2 draw is Gaussian with variance 2 sigma^2 and alpha=1 is
    Cauchy with scale sigma, matching exp(-sigma^alpha |u|^alpha).
    """
    n = integer("size", size, least=0)
    gen = stream.generator
    alpha, sigma = params.alpha, params.sigma

    if alpha == 2.0:
        x = sigma * np.sqrt(2.0) * gen.standard_normal(n)
    else:
        # The symmetric CMS transform has no singularity at alpha = 1, where
        # it reduces to sigma tan(u).
        u = _uniform_angles(gen, n)
        w = _positive_exponentials(gen, n)
        x = sigma * (
            np.sin(alpha * u)
            / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
        )
    return x


def sample_skewed_positive_stable(alpha_prime: float, stream: RngStream, size: int):
    """Draw ``size`` positive stable values A with E[exp(-lam A)] = exp(-lam^alpha_prime).

    This is the totally skewed (beta=1) stable law on (0, inf), generated by
    the Chambers-Mallows-Stuck transform with the skew angle at its maximum.
    In this Laplace-transform normalization no extra scale factor is needed.
    At small alpha_prime a draw whose exact value lies outside float range
    comes out as +inf or nan, without a numpy warning.
    """
    if not (0.0 < alpha_prime < 1.0):
        raise ParameterError(f"alpha_prime must lie in (0, 1), got {alpha_prime}")
    n = integer("size", size, least=0)
    gen = stream.generator

    u = _uniform_angles(gen, n)
    w = _positive_exponentials(gen, n)
    # Block by block, so that the transform's temporaries stay _BLOCK long;
    # each block's values are written over its angles.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, n, _BLOCK):
            ub, wb = u[start:start + _BLOCK], w[start:start + _BLOCK]
            shifted = alpha_prime * (ub + np.pi / 2.0)
            ub[:] = (
                np.sin(shifted)
                / np.cos(ub) ** (1.0 / alpha_prime)
                * (np.cos(ub - shifted) / wb) ** ((1.0 - alpha_prime) / alpha_prime)
            )
    return u


def sample_isotropic_stable(d: int, params: StableParams, stream: RngStream, size: int):
    """Draw a (size, d) array of rotationally symmetric alpha-stable vectors in R^d.

    Construction: X = sigma * sqrt(2 A) * G with G standard Gaussian and A
    the positive (alpha/2)-stable subordinator above, giving
    E[exp(i <u, X>)] = exp(-sigma^alpha ||u||^alpha). alpha=2 short-circuits
    to sigma * sqrt(2) * G since the subordinator degenerates there. At
    small alpha a draw whose exact value lies outside float range comes out
    as +inf or nan, without a numpy warning; the recursion reports such a
    draw as divergence.
    """
    d = integer("d", d, least=1)
    n = integer("size", size, least=0)
    return next(_isotropic_blocks(d, params, stream, n, max(n, 1)))


def _isotropic_blocks(d: int, params: StableParams, stream: RngStream, size: int, rows: int):
    """sample_isotropic_stable's draw, yielded in consecutive blocks of at most ``rows`` rows.

    All ``size`` subordinator values are drawn first, then each block's
    Gaussian rows as it is asked for, so the stream order and every value
    are those of the one-block draw; a consumer that stops early leaves the
    remaining Gaussian rows undrawn. ``size`` = 0 yields one empty block.
    """
    gen = stream.generator
    alpha, sigma = params.alpha, params.sigma
    if alpha == 2.0:
        scale = None
    else:
        # sigma * sqrt(2 A), computed in place over the draws A.
        scale = sample_skewed_positive_stable(alpha / 2.0, stream, size=size)
        with np.errstate(over="ignore", invalid="ignore"):
            scale *= 2.0
            np.sqrt(scale, out=scale)
            scale *= sigma
    for start in range(0, max(size, 1), rows):
        g = gen.standard_normal((min(rows, size - start), d))
        with np.errstate(over="ignore", invalid="ignore"):
            g *= sigma * np.sqrt(2.0) if scale is None else scale[start:start + rows, None]
        yield g


def empirical_char_fn(samples, u) -> complex:
    """Sample mean of exp(i u . X); the Monte-Carlo characteristic function.

    ``samples`` is an (N, d) array (or (N,) for scalars), ``u`` a length-d
    vector (or scalar). Modulus is at most 1 by construction.
    """
    arr = sample_rows(samples)
    return complex(np.mean(np.exp(1j * (arr @ vector(u, arr.shape[1])))))


def sas_abs_moment(p: float, alpha: float, sigma: float = 1.0) -> float:
    """E|X|^p for X symmetric alpha-stable with scale sigma, 0 < p < alpha or alpha = 2.

    Closed form: sigma^p 2^p Gamma((p+1)/2) Gamma(1 - p/alpha)
    / (Gamma(1 - p/2) sqrt(pi)); at alpha = 2 the Gamma ratio is 1 and this
    is the absolute moment of N(0, 2 sigma^2), finite for every p > 0.
    """
    tail_index(alpha)
    if not (is_real(p) and 0.0 < p and (p < alpha or alpha == 2.0)):
        raise ParameterError(
            f"p must satisfy 0 < p < alpha or alpha = 2 for a finite moment, got p={p}, "
            f"alpha={alpha}"
        )
    positive("sigma", sigma)
    ratio = 1.0 if alpha == 2.0 else gamma_fn(1.0 - p / alpha) / gamma_fn(1.0 - p / 2.0)
    return sigma**p * 2.0**p * gamma_fn((p + 1.0) / 2.0) * ratio / math.sqrt(math.pi)

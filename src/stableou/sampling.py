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

import copy
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


# Redraw rules of the CMS inputs: cos and the division need every angle inside
# (-_ANGLE_LIMIT, _ANGLE_LIMIT) and every exponential above _EXPONENTIAL_FLOOR.
_ANGLE_LIMIT = np.pi / 2.0
_EXPONENTIAL_FLOOR = 0.0


def _angles(gen: np.random.Generator, n: int) -> np.ndarray:
    return gen.uniform(-np.pi / 2.0, np.pi / 2.0, size=n)


def _exponentials(gen: np.random.Generator, n: int) -> np.ndarray:
    return gen.standard_exponential(size=n)


def _bad_angles(u: np.ndarray) -> np.ndarray:
    """Indices of the angles at or beyond +-_ANGLE_LIMIT.

    uniform() is half-open at the top, but can still return its (astronomically
    rare) lower endpoint. The extremes are tested first, so the common case
    allocates nothing the size of u.
    """
    if u.size and (u.min() <= -_ANGLE_LIMIT or u.max() >= _ANGLE_LIMIT):
        return np.flatnonzero(np.abs(u) >= _ANGLE_LIMIT)
    return np.empty(0, dtype=np.intp)


def _bad_exponentials(w: np.ndarray) -> np.ndarray:
    """Indices of the exponentials at or below _EXPONENTIAL_FLOOR, tested as _bad_angles does."""
    if w.size and w.min() <= _EXPONENTIAL_FLOOR:
        return np.flatnonzero(w <= _EXPONENTIAL_FLOOR)
    return np.empty(0, dtype=np.intp)


def _redraw(gen, draw, bad, values: np.ndarray) -> np.ndarray:
    """values with each entry that ``bad`` refuses redrawn by draw(gen, k), in place.

    Each round redraws the entries still refused in one call, in index order.
    """
    idx = bad(values)
    while idx.size:
        values[idx] = draw(gen, idx.size)
        idx = idx[bad(values[idx])]
    return values


def _uniform_angles(gen: np.random.Generator, n: int) -> np.ndarray:
    """Angles uniform on the open interval (-pi/2, pi/2)."""
    return _redraw(gen, _angles, _bad_angles, _angles(gen, n))


def _positive_exponentials(gen: np.random.Generator, n: int) -> np.ndarray:
    return _redraw(gen, _exponentials, _bad_exponentials, _exponentials(gen, n))


def _replayed(gen, draw, bad, n: int, rows: int):
    """_redraw(gen, draw, bad, draw(gen, n)) as an iterator of blocks of at most ``rows``.

    gen walks the n draws now, a block at a time, and then makes the redraws,
    so it ends where the one-call draw leaves it. A copy of gen from before
    the walk draws each block again only when it is asked for, and the
    redrawn values are written into it.
    """
    twin = copy.deepcopy(gen)
    idx = np.concatenate([start + bad(draw(gen, min(rows, n - start)))
                          for start in range(0, n, rows)])
    fixes = _redraw(gen, draw, bad, draw(gen, idx.size))

    def blocks():
        for start in range(0, n, rows):
            block = draw(twin, min(rows, n - start))
            lo, hi = np.searchsorted(idx, (start, start + len(block)))
            block[idx[lo:hi] - start] = fixes[lo:hi]
            yield block

    return blocks()


def _positive_cms(alpha_prime: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The totally skewed CMS transform of angles u and exponentials w, written over u."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        shifted = alpha_prime * (u + np.pi / 2.0)
        u[:] = (
            np.sin(shifted)
            / np.cos(u) ** (1.0 / alpha_prime)
            * (np.cos(u - shifted) / w) ** ((1.0 - alpha_prime) / alpha_prime)
        )
    return u


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
    All ``size`` angles are drawn, then all ``size`` exponentials, each
    with its redraws, and the transform runs _BLOCK values at a time; a
    longer chain's noise replays this stream order a block at a time
    (_isotropic_blocks). At small alpha_prime a draw whose exact value lies
    outside float range comes out as +inf or nan, without a numpy warning.
    """
    if not (0.0 < alpha_prime < 1.0):
        raise ParameterError(f"alpha_prime must lie in (0, 1), got {alpha_prime}")
    n = integer("size", size, least=0)
    gen = stream.generator

    u = _uniform_angles(gen, n)
    w = _positive_exponentials(gen, n)
    # Block by block, so that the transform's temporaries stay _BLOCK long.
    for start in range(0, n, _BLOCK):
        _positive_cms(alpha_prime, u[start:start + _BLOCK], w[start:start + _BLOCK])
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

    The stream order and every value are those of the one-block draw: all
    ``size`` subordinator angles, then all its exponentials, then the
    Gaussian rows. A draw of one block (``size <= rows``) makes its
    subordinator at once. A longer one walks the angles and exponentials a
    block at a time and keeps only their redraws (_replayed), then
    transforms each block's subordinator next to its Gaussian rows as the
    block is asked for; no array of length ``size`` is made. A consumer
    that stops early leaves the remaining Gaussian rows undrawn and their
    subordinator untransformed. ``size`` = 0 yields one empty block.
    """
    gen = stream.generator
    alpha, sigma = params.alpha, params.sigma
    if alpha == 2.0:
        scales = None
    elif size <= rows:
        scales = iter([sample_skewed_positive_stable(alpha / 2.0, stream, size=size)])
    else:
        blocks = zip(_replayed(gen, _angles, _bad_angles, size, rows),
                     _replayed(gen, _exponentials, _bad_exponentials, size, rows))
        scales = (_positive_cms(alpha / 2.0, u, w) for u, w in blocks)
    for start in range(0, max(size, 1), rows):
        g = gen.standard_normal((min(rows, size - start), d))
        with np.errstate(over="ignore", invalid="ignore"):
            if scales is None:
                g *= sigma * np.sqrt(2.0)
            else:
                # sigma * sqrt(2 A), computed in place over the draws A.
                scale = next(scales)
                scale *= 2.0
                np.sqrt(scale, out=scale)
                scale *= sigma
                g *= scale[:, None]
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

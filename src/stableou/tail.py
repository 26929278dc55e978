"""Tail-index estimation from vector samples.

The estimator exploits the stability property of alpha-stable sums: the
Euclidean norm of a block sum of K1 samples grows like K1^(1/alpha), so the
gap between mean log norms of block sums and of raw samples, divided by
log K1, estimates 1/alpha. Median centering matches how iterates are
prepared before estimation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ShapeError, integer, positive, sample_rows


@dataclass(frozen=True)
class TailEstimate:
    alpha_hat: float
    K1: int
    K2: int
    sample_count_used: int

    def __post_init__(self):
        positive("alpha_hat", self.alpha_hat)


def estimate_tail_index(vectors, K1: int, K2: int) -> TailEstimate:
    """Block-sum log-norm estimator of the tail index.

    1/alpha_hat = (1/log K1) [ (1/K2) sum_i log||Y_i|| - (1/K) sum_i log||X_i|| ]

    with Y_i the sum of the i-th block of K1 consecutive samples and
    K = K1 K2. Exactly the first K samples are used, in the given order;
    the block structure makes the result order-sensitive by construction.
    A constant nonzero input returns alpha_hat = 1 exactly.
    """
    K1, K2 = integer("K1", K1, least=2), integer("K2", K2, least=1)
    arr = sample_rows(vectors)
    needed = K1 * K2
    if arr.shape[0] < needed:
        raise ShapeError(f"need at least K1*K2 = {needed} vectors, got {arr.shape[0]}")
    x = arr[:needed]
    norms = np.linalg.norm(x, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateDataError(
            f"vector at index {int(zero[0])} has zero norm; log||x|| is undefined"
        )
    if np.all(x == x[0]):
        # every block sum is exactly K1 copies of the common vector, so the
        # bracket collapses to log K1; evaluating the logs would smear the
        # exact answer by rounding
        return TailEstimate(alpha_hat=1.0, K1=K1, K2=K2, sample_count_used=needed)
    blocks = x.reshape(K2, K1, x.shape[1]).sum(axis=1)
    block_norms = np.linalg.norm(blocks, axis=1)
    zero = np.flatnonzero(block_norms == 0.0)
    if zero.size:
        raise DegenerateDataError(
            f"block sum {int(zero[0])} has zero norm; log||Y|| is undefined"
        )
    inv_alpha = (np.mean(np.log(block_norms)) - np.mean(np.log(norms))) / np.log(K1)
    if not (np.isfinite(inv_alpha) and inv_alpha > 0):
        raise DegenerateDataError(
            f"estimated 1/alpha = {inv_alpha:.4g} is not positive; "
            "samples are incompatible with a heavy-tail model"
        )
    return TailEstimate(
        alpha_hat=float(1.0 / inv_alpha), K1=K1, K2=K2, sample_count_used=needed
    )


def median_center(samples) -> np.ndarray:
    """Subtract the coordinate-wise median (even counts average the central pair)."""
    arr = sample_rows(samples)
    return arr - np.median(arr, axis=0)

"""Deterministic random streams with fork-by-index semantics.

A stream is identified by a root seed plus the path of fork indices that
produced it. Identical (seed, path) pairs always yield bit-identical
sequences, and sibling streams are statistically independent, so parallel
work can be distributed by forking one child stream per task regardless
of scheduling order.
"""

from __future__ import annotations

import numpy as np


class RngStream:
    """A seeded PCG64 generator addressable by (seed, fork path)."""

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(k) for k in path)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def fork(self, index: int) -> "RngStream":
        """Child stream ``index``; same (seed, path, index) gives the same stream."""
        return RngStream(self.seed, self.path + (int(index),))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"

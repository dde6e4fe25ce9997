"""Pairwise weight sharing among agents within communication range.

Agents in range synchronize each sample-point weight to the elementwise
minimum of their two views. A round also reports the fleet's unclaimed
mass: the total of the elementwise minimum over every agent's view.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_finite


@dataclass(frozen=True)
class CommConfig:
    """d_comm is a range in meters; None means all-to-all (infinite)."""

    d_comm: float | None = None

    def __post_init__(self):
        if self.d_comm is not None and not self.d_comm > 0:
            raise InputError("d_comm must be positive or None (infinite)")


def sync_round(weight_vectors: list[np.ndarray], positions: list[np.ndarray],
               cfg: CommConfig) -> tuple[int, float]:
    """One synchronization round over all unordered agent pairs.

    Pairs within range are processed in ascending (r, s) order, each
    leaving both vectors at their elementwise minimum; weight vectors are
    updated in place. With all-to-all communication every pair is in
    range, and the merges leave every vector at the minimum over all of
    them, which is written in directly. Returns (exchange count, unclaimed
    mass), the mass being the sum of the elementwise minimum over all
    vectors, which no min-merge changes. Under a finite range each
    position is any array of two finite numbers (errors.check_finite).
    """
    if not weight_vectors:
        raise InputError("need at least one weight vector")
    if len(weight_vectors) != len(positions):
        raise InputError("one position per weight vector required")
    if any(np.shape(w) != np.shape(weight_vectors[0]) for w in weight_vectors):
        raise InputError("weight vectors must have equal length")
    if cfg.d_comm is not None:
        positions = [check_finite(p, 2, "position") for p in positions]
    # the elementwise minimum over all vectors is the same before and after
    # the merges; a non-finite one is caught before any vector changes
    low = functools.reduce(np.minimum, weight_vectors)
    unclaimed = float(low.sum())
    if not math.isfinite(unclaimed):
        raise InputError("weight vectors hold non-finite values")
    n = len(weight_vectors)
    if cfg.d_comm is None:
        for w in weight_vectors:
            w[:] = low
        return n * (n - 1) // 2, unclaimed
    count = 0
    for r in range(n):
        for s in range(r + 1, n):
            if np.linalg.norm(positions[r] - positions[s]) > cfg.d_comm:
                continue
            np.minimum(weight_vectors[r], weight_vectors[s], out=weight_vectors[r])
            weight_vectors[s][:] = weight_vectors[r]
            count += 1
    return count, unclaimed

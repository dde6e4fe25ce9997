"""Pairwise weight sharing among agents within communication range.

Agents in range synchronize each sample-point weight to the elementwise
minimum of their two views. The optional latency model only sums a
simulated time, which sync_round returns and the engine keeps as
StepRecord.comm_sim_ms; no output file has a column for it. It never
touches simulation state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class CommConfig:
    """d_comm is a range in meters; None means all-to-all (infinite)."""

    d_comm: float | None = None
    latency_mean_ms: float = 0.0
    latency_jitter_ms: float = 0.0

    def __post_init__(self):
        if self.d_comm is not None and not self.d_comm > 0:
            raise InputError("d_comm must be positive or None (infinite)")
        if not all(0 <= v < np.inf for v in (self.latency_mean_ms, self.latency_jitter_ms)):
            raise InputError("latencies must be nonnegative and finite")


def sync_round(weight_vectors: list[np.ndarray], positions: list[np.ndarray],
               cfg: CommConfig, rng: np.random.Generator | None = None,
               ) -> tuple[int, float]:
    """One synchronization round over all unordered agent pairs.

    Pairs within range are processed in ascending (r, s) order, each
    leaving both vectors at their elementwise minimum; weight vectors are
    updated in place. Returns (exchange count, simulated communication
    time in ms). The simulated time is deterministic given the rng state
    and never affects weights.
    """
    if len(weight_vectors) != len(positions):
        raise InputError("one position per weight vector required")
    if any(np.shape(w) != np.shape(weight_vectors[0]) for w in weight_vectors):
        raise InputError("weight vectors must have equal length")
    count = 0
    sim_ms = 0.0
    n = len(weight_vectors)
    for r in range(n):
        for s in range(r + 1, n):
            if cfg.d_comm is not None:
                if np.linalg.norm(np.asarray(positions[r]) - np.asarray(positions[s])) > cfg.d_comm:
                    continue
            np.minimum(weight_vectors[r], weight_vectors[s], out=weight_vectors[r])
            weight_vectors[s][:] = weight_vectors[r]
            count += 1
            jitter = 0.0
            if cfg.latency_jitter_ms > 0 and rng is not None:
                jitter = float(rng.uniform(-cfg.latency_jitter_ms, cfg.latency_jitter_ms))
            sim_ms += cfg.latency_mean_ms + jitter
    return count, sim_ms

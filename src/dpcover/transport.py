"""Optimal-transport primitives of the control loop.

Local sample-point selection by weight-normalized Euclidean distance,
mass centers, the greedy nearest-first weight update, and 2-Wasserstein
diagnostics between weighted clouds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExhaustionError, InputError
from .linalg import TRANSPORT_SIZE_CAP, TransportProblem, solve_transport_exact


@dataclass(frozen=True)
class LocalSelection:
    """Local sample-points claimed by one agent for one step.

    taken[i] is the mass claimed from sample index indices[i]; the claimed
    masses sum to the agent-point mass, or to the total remaining mass when
    the cloud is nearly exhausted (exhausted flag set).
    """

    indices: np.ndarray      # (k,) sample indices, selection order
    taken: np.ndarray        # (k,) claimed masses, > 0
    points: np.ndarray       # (k, 2) positions of the selected samples
    mass_center: np.ndarray  # (2,)
    exhausted: bool = False

    @property
    def total_mass(self) -> float:
        return float(self.taken.sum())


@dataclass(frozen=True)
class TransportPlan:
    """Weight-update plan: gammas[j] is the mass moved from sample j."""

    gammas: np.ndarray


def select_local_samples(weights, positions, prev_center, alpha: float) -> LocalSelection:
    """Greedy selection by ascending weight-normalized Euclidean distance.

    d_j = ||q_j - prev_center|| / beta_j over beta_j > 0; points are taken
    in ascending d_j (ties broken by ascending index), the last one
    partially, until the claimed mass reaches alpha or the weights run out.
    """
    weights = np.asarray(weights, dtype=float)
    positions = np.asarray(positions, dtype=float)
    prev_center = np.asarray(prev_center, dtype=float).reshape(2)
    if alpha <= 0:
        raise InputError("alpha must be positive")
    candidates = np.nonzero(weights > 0)[0]
    if candidates.size == 0:
        raise ExhaustionError("all sample-point weights are zero")
    dist = np.linalg.norm(positions[candidates] - prev_center, axis=1)
    order = candidates[np.argsort(dist / weights[candidates], kind="stable")]

    avail = weights[order]
    cum = np.cumsum(avail)
    exhausted = cum[-1] < alpha - 1e-15
    if exhausted:
        n_take = avail.size
    else:
        n_take = int(np.searchsorted(cum, alpha - 1e-15)) + 1
    idx = order[:n_take]
    taken = avail[:n_take].copy()
    if not exhausted:
        taken[-1] = alpha - (cum[n_take - 1] - avail[n_take - 1])
    keep = taken > 0
    idx, taken = idx[keep], taken[keep]
    pts = positions[idx]
    center = (taken @ pts) / taken.sum()
    return LocalSelection(indices=idx, taken=taken, points=pts,
                          mass_center=center, exhausted=exhausted)


def weight_update(positions, weights, agent_pos, alpha_next: float) -> TransportPlan:
    """Optimal plan moving alpha_next of mass onto the agent's new position.

    The LP (minimize sum gamma_j ||y - q_j||^2 s.t. 0 <= gamma <= beta,
    sum gamma = alpha_next) is solved by its greedy closed form: fill
    gamma_j = min(beta_j, remaining demand) in ascending squared distance,
    ties broken by ascending index.
    """
    positions = np.asarray(positions, dtype=float)
    weights = np.asarray(weights, dtype=float)
    agent_pos = np.asarray(agent_pos, dtype=float).reshape(2)
    if alpha_next < 0:
        raise InputError("alpha_next must be nonnegative")
    gammas = np.zeros_like(weights)
    if alpha_next == 0:
        return TransportPlan(gammas)
    if alpha_next > weights.sum() + 1e-12:
        raise ExhaustionError("demanded mass exceeds remaining sample mass")
    candidates = np.nonzero(weights > 0)[0]
    d2 = np.sum((positions[candidates] - agent_pos) ** 2, axis=1)
    order = candidates[np.argsort(d2, kind="stable")]
    avail = weights[order]
    cum = np.cumsum(avail)
    n_take = int(np.searchsorted(cum, alpha_next - 1e-15)) + 1
    n_take = min(n_take, avail.size)
    fill = avail[:n_take].copy()
    fill[-1] = alpha_next - (cum[n_take - 1] - avail[n_take - 1])
    fill[-1] = min(fill[-1], avail[n_take - 1])
    gammas[order[:n_take]] = fill
    return TransportPlan(gammas)


def local_wasserstein(selection: LocalSelection, agent_pos) -> float:
    """sqrt(sum of claimed mass times squared distance to the agent)."""
    if selection.taken.size == 0:
        raise InputError("empty selection")
    agent_pos = np.asarray(agent_pos, dtype=float).reshape(2)
    d2 = np.sum((selection.points - agent_pos) ** 2, axis=1)
    return float(np.sqrt(selection.taken @ d2))


def _systematic_subsample(points: np.ndarray, weights: np.ndarray,
                          cap: int, offset: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic systematic resampling over the cumulative-weight axis.

    Returns cap points of equal weight 1/cap; offset in [0, 1) shifts the
    sampling comb (derived from the step index by the caller).
    """
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    u = (offset + np.arange(cap)) / cap
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, len(weights) - 1)
    return points[idx], np.full(cap, 1.0 / cap)


def global_wasserstein(points_a, weights_a, points_b, weights_b,
                       cap: int = TRANSPORT_SIZE_CAP,
                       subsample_offset: float = 0.5) -> tuple[float, bool]:
    """Exact 2-Wasserstein distance between two weighted planar clouds.

    Both clouds are renormalized to unit mass. Clouds larger than cap are
    reduced by deterministic systematic resampling first; the returned
    flag reports whether any subsampling happened.
    """
    points_a = np.asarray(points_a, dtype=float).reshape(-1, 2)
    points_b = np.asarray(points_b, dtype=float).reshape(-1, 2)
    weights_a = np.asarray(weights_a, dtype=float)
    weights_b = np.asarray(weights_b, dtype=float)
    if points_a.shape[0] == 0 or points_b.shape[0] == 0:
        raise InputError("clouds must be nonempty")
    if weights_a.sum() <= 0 or weights_b.sum() <= 0:
        raise InputError("clouds must carry positive mass")
    wa = weights_a / weights_a.sum()
    wb = weights_b / weights_b.sum()
    # drop zero-mass points before sizing against the cap
    ka = wa > 0
    kb = wb > 0
    points_a, wa = points_a[ka], wa[ka]
    points_b, wb = points_b[kb], wb[kb]

    subsampled = False
    if points_a.shape[0] > cap:
        points_a, wa = _systematic_subsample(points_a, wa, cap, subsample_offset)
        subsampled = True
    if points_b.shape[0] > cap:
        points_b, wb = _systematic_subsample(points_b, wb, cap, subsample_offset)
        subsampled = True
    # rebalance exactly after the independent renormalizations
    wa = wa / wa.sum()
    wb = wb / wb.sum()
    diff = points_a[:, None, :] - points_b[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    _, total = solve_transport_exact(TransportProblem(wa, wb, cost))
    return float(np.sqrt(max(total, 0.0))), subsampled

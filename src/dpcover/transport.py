"""Optimal-transport primitives of the control loop.

Local sample-point selection by weight-normalized Euclidean distance and
the greedy nearest-first weight update (the one owner of the rule that
every weight is 0 or at least WEIGHT_SNAP), both one greedy fill over the
cloud's own sample indices, and 2-Wasserstein diagnostics between clouds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExhaustionError, InputError, check_count
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
    """Weight-update plan, the claim itself: no other sample moves."""

    indices: np.ndarray  # (k,) sample indices, each once, fill order
    gammas: np.ndarray   # (k,) moved masses, > 0


# no weight is left below this but above 0: "weight > 0" is roundoff-stable
WEIGHT_SNAP = 1e-12

# keys _fill_nearest ranks first; a claim of alpha takes a few samples (at
# most 16 in the benchmark workloads)
_PREFIX = 64


def _fill_nearest(weights, keys, demand: float):
    """(indices, taken, exhausted): the live samples (weight > 0) in
    ascending key, ties by index, each taken whole and the last partially
    until demand is met, or all of them whole (exhausted) when they hold
    less than demand; ExhaustionError if none is live. A spent sample is
    keyed NaN, which numpy ranks after every live key, +inf included.

    Only a tie-closed prefix is ranked: every key <= the k-th smallest
    (np.partition), sorted stably from index order, is exactly the head of
    the full stable order, so the result equals that of the full stable
    argsort bit for bit. k = min(_PREFIX, live count), grown once to the
    live count (the whole live set) when that prefix holds less than demand.
    """
    live = weights > 0
    n_live = np.count_nonzero(live)
    if n_live == 0:
        raise ExhaustionError("all sample-point weights are zero")
    keys = np.where(live, keys, np.nan)
    target = demand - 1e-15
    for k in (min(_PREFIX, n_live), n_live):
        head = np.flatnonzero(keys <= np.partition(keys, k - 1)[k - 1])
        order = head[np.argsort(keys[head], kind="stable")]
        cum = np.cumsum(weights[order])
        if cum[-1] >= target or order.size >= n_live:
            break
    exhausted = cum[-1] < target
    n_take = order.size if exhausted else int(np.searchsorted(cum, target)) + 1
    taken = weights[order[:n_take]]
    if not exhausted:
        taken[-1] = demand - (cum[n_take - 1] - taken[-1])
    return order[:n_take], taken, exhausted


def _squared_distances(points, center):
    """The one squared-distance kernel: (N, 2) points to one (2,) centre,
    (N,), or to an (m, 1, 2) block of centres, (m, N)."""
    d = points - center
    return d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]


def select_local_samples(weights, positions, prev_center, alpha: float) -> LocalSelection:
    """Greedy selection by ascending weight-normalized Euclidean distance.

    d_j = ||q_j - prev_center|| / beta_j over beta_j > 0; points are taken
    in ascending d_j (ties broken by ascending index), the last one
    partially, until the claimed mass reaches alpha or the weights run out.
    """
    weights = np.asarray(weights, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if not alpha > 0:
        raise InputError("alpha must be positive")
    prev_center = np.asarray(prev_center, dtype=float).reshape(2)
    with np.errstate(divide="ignore", invalid="ignore"):
        keys = np.sqrt(_squared_distances(positions, prev_center)) / weights
    # every take is > 0: a whole take is a live weight, and the fill stops at
    # the first cum >= alpha - 1e-15, so a partial one is > 1e-15 - ulp
    idx, taken, exhausted = _fill_nearest(weights, keys, alpha)
    pts = positions[idx]
    center = (taken @ pts) / taken.sum()
    return LocalSelection(indices=idx, taken=taken, points=pts,
                          mass_center=center, exhausted=exhausted)


def weight_update(positions, weights, agent_pos, alpha_next: float) -> TransportPlan:
    """Optimal plan moving alpha_next of mass onto the agent's new position.

    The LP (minimize sum gamma_j ||y - q_j||^2 s.t. 0 <= gamma <= beta,
    sum gamma = alpha_next) is solved by its greedy closed form: fill
    gamma_j = min(beta_j, remaining demand) in ascending squared distance,
    ties broken by ascending index; alpha_next = 0 claims nothing. A last
    take that would leave less than WEIGHT_SNAP takes the weight whole.
    ExhaustionError if alpha_next exceeds the live mass by over 1e-12.
    """
    positions = np.asarray(positions, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not alpha_next >= 0:
        raise InputError("alpha_next must be nonnegative")
    if alpha_next == 0:
        return TransportPlan(np.empty(0, dtype=np.intp), np.empty(0))
    agent_pos = np.asarray(agent_pos, dtype=float).reshape(2)
    idx, fill, exhausted = _fill_nearest(weights, _squared_distances(positions, agent_pos),
                                         alpha_next)
    if exhausted and alpha_next > fill.sum() + 1e-12:
        raise ExhaustionError("demanded mass exceeds remaining sample mass")
    if weights[idx[-1]] - fill[-1] < WEIGHT_SNAP:
        fill[-1] = weights[idx[-1]]
    return TransportPlan(idx, fill)


def local_wasserstein(selection: LocalSelection, agent_pos) -> float:
    """sqrt(sum of claimed mass times squared distance to the agent)."""
    if selection.taken.size == 0:
        raise InputError("empty selection")
    agent_pos = np.asarray(agent_pos, dtype=float).reshape(2)
    return float(np.sqrt(selection.taken @ _squared_distances(selection.points, agent_pos)))


def _systematic_subsample(points: np.ndarray, weights: np.ndarray,
                          cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic systematic resampling over the cumulative-weight axis.

    A cloud of more than cap points becomes cap points of equal weight
    1/cap, read off the cumulative weights at the fixed comb
    (0.5 + i) / cap, i = 0 .. cap - 1; a smaller cloud is returned as is.
    """
    if points.shape[0] <= cap:
        return points, weights
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    u = (0.5 + np.arange(cap)) / cap
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, len(weights) - 1)
    return points[idx], np.full(cap, 1.0 / cap)


def global_wasserstein(points_a, weights_a, points_b, weights_b,
                       cap: int = TRANSPORT_SIZE_CAP) -> tuple[float, bool]:
    """Exact 2-Wasserstein distance between two weighted planar clouds.

    Both clouds are renormalized to unit mass. Clouds with more than cap
    positive-mass points are first reduced to cap equal-weight points on
    the fixed comb of _systematic_subsample; the returned flag reports
    whether any subsampling happened. cap must be an integer >= 1.
    """
    check_count(cap, "cap", 1)
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

    subsampled = max(points_a.shape[0], points_b.shape[0]) > cap
    points_a, wa = _systematic_subsample(points_a, wa, cap)
    points_b, wb = _systematic_subsample(points_b, wb, cap)
    # rebalance exactly after the independent renormalizations
    wa = wa / wa.sum()
    wb = wb / wb.sum()
    cost = _squared_distances(points_b, points_a[:, None, :])
    _, total = solve_transport_exact(TransportProblem(wa, wb, cost))
    return float(np.sqrt(max(total, 0.0))), subsampled

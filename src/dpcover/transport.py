"""Optimal-transport primitives of the control loop.

Local sample-point selection by weight-normalized Euclidean distance and
the greedy nearest-first weight update (the one owner of the rule that
every weight is 0 or at least WEIGHT_SNAP), both one greedy fill over the
cloud's own sample indices, and 2-Wasserstein diagnostics between clouds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ExhaustionError, InputError, check_count, check_finite, check_points
from .linalg import TRANSPORT_SIZE_CAP, solve_transport_exact


@dataclass(frozen=True)
class LocalSelection:
    """Local sample-points claimed by one agent for one step.

    taken[i] is the mass claimed from sample index indices[i]; the claimed
    masses sum to the agent-point mass, or to the total remaining mass when
    the cloud is nearly exhausted (exhausted flag set). `block` may serve
    as the first block of a later claim on the same grid.
    """

    indices: np.ndarray      # (k,) sample indices, selection order
    taken: np.ndarray        # (k,) claimed masses, > 0
    points: np.ndarray       # (k, 2) positions of the selected samples
    mass_center: np.ndarray  # (2,)
    exhausted: bool = False
    # the grid Block that served the claim, () for a whole-cloud fill
    block: tuple = ()

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

# clouds below this size get no grid cells, for acceptance criterion 10
# (claim time flat in the fleet size, bound x1.25): on its 600-sample
# cloud a grid claim costs 45.6 us with 1 agent and 36.3 us with 8, the
# whole-cloud fill a flat 38-42 us, and cells raised its spread from
# x1.07 to x1.11-1.18 (once x1.55), though they cut desk's claim time by
# 15%
GRID_MIN_SAMPLES = 2048
# a claim's first block holds about this many times its demand at the
# view's mean density, and widens (its half-width doubled) at most _GROWS
# times before the whole cloud is filled
_BLOCK_MASS = 2.0
_GROWS = 3


def _fill_nearest(weights, keys, demand: float):
    """(indices, taken, exhausted): the live samples (weight > 0) in
    ascending key, ties by index, each taken whole and the last partially
    until demand is met, or all of them whole (exhausted) when they hold
    less than demand; ExhaustionError if none is live. A spent sample's
    key is never read."""
    live = np.flatnonzero(weights > 0)
    if live.size == 0:
        raise ExhaustionError("all sample-point weights are zero")
    return _take(weights, keys, live, demand)


def _take(weights, keys, head, demand: float):
    """(indices, taken, exhausted): the greedy fill along `head`, live
    samples in ascending index that every other live sample ranks after:
    sorted stably by key, each taken whole and the last partially until
    the demand is met, or all of them whole (exhausted)."""
    order = head[keys[head].argsort(kind="stable")]
    cum = weights[order].cumsum()
    target = demand - 1e-15
    exhausted = cum[-1] < target
    n_take = order.size if exhausted else int(cum.searchsorted(target)) + 1
    taken = weights[order[:n_take]]
    if not exhausted:
        taken[-1] = demand - (cum[n_take - 1] - taken[-1])
    return order[:n_take], taken, exhausted


class CloudGrid:
    """A cloud's fixed sample positions, bucketed once into a uniform grid,
    so that a claim ranks the samples near its centre, not the whole cloud.

    The cell count follows N, about two samples a cell, over the cloud's
    bounding box; a cloud of fewer than GRID_MIN_SAMPLES samples gets no
    grid (`order` is None) and every claim ranks the whole cloud. The cells
    are stored CSR, in row-major cell order: `order` lists the sample
    indices cell by cell, ascending within a cell, and cell c holds
    order[starts[c]:starts[c + 1]]. The bound of a block reads the samples'
    own coordinates, not the cell edges, so it holds whatever rounding put
    a sample in its cell: `x_before[i]` is the largest x in the columns
    before column i (-inf when none) and `x_after[i]` the smallest x in the
    columns after it (+inf when none), and likewise `y_before`, `y_after`
    over the rows. InputError unless errors.check_points takes the
    positions.
    """

    def __init__(self, positions):
        positions = check_points(positions, "positions")
        # C order: a block gathers whole rows (take on a Fortran array is slow)
        self.positions = np.ascontiguousarray(positions)
        self.order = None
        n = positions.shape[0]
        if n < GRID_MIN_SAMPLES:
            return
        lo = positions.min(axis=0)
        span = positions.max(axis=0) - lo
        # at most about 3 N / 2 cells, even for a long thin or a flat cloud
        h = max(math.sqrt(span[0] * span[1] / (n // 2)), span.max() / (n // 2)) or 1.0
        self.lo, self.h = lo.tolist(), float(h)
        self.nx, self.ny = (int(s // h) + 1 for s in span)
        ix, iy = (np.minimum(((positions[:, a] - lo[a]) // h).astype(np.intp), size - 1)
                  for a, size in ((0, self.nx), (1, self.ny)))
        cell = iy * self.nx + ix
        self.order = np.argsort(cell, kind="stable")
        self.starts = np.searchsorted(cell[self.order], np.arange(self.nx * self.ny + 1))
        self.x_before, self.x_after = _edges(positions[:, 0], ix, self.nx)
        self.y_before, self.y_after = _edges(positions[:, 1], iy, self.ny)

    def cells(self, center, half: float) -> tuple[int, int, int, int]:
        """(ix0, ix1, iy0, iy1): the first and last column and row of the
        cells that meet the square of half-width `half` about `center`, a
        pair of floats. The square is clipped to the grid, so a far centre
        gets the cells at the border nearest it."""
        cx, cy = center
        lx, ly, h = self.lo[0], self.lo[1], self.h
        return (int(min(max((cx - half - lx) / h, 0.0), self.nx - 1.0)),
                int(min(max((cx + half - lx) / h, 0.0), self.nx - 1.0)),
                int(min(max((cy - half - ly) / h, 0.0), self.ny - 1.0)),
                int(min(max((cy + half - ly) / h, 0.0), self.ny - 1.0)))

    def block(self, cells) -> Block:
        """The Block of the cells (ix0, ix1, iy0, iy1): their samples in
        ascending index, and those samples' positions."""
        ix0, ix1, iy0, iy1 = cells
        starts, order, nx = self.starts, self.order, self.nx
        samples = np.sort(np.concatenate([order[starts[row + ix0]:starts[row + ix1 + 1]]
                                          for row in range(iy0 * nx, iy1 * nx + 1, nx)]))
        return Block(cells, samples, self.positions.take(samples, axis=0))

    def gap(self, cells, center) -> float:
        """A gap such that every sample outside the cells (ix0, ix1, iy0,
        iy1) has |fl(q_j - center)| >= gap on one axis, for `center` a pair
        of floats; 0 when the centre lies beyond the cells' outer samples.
        Any cells make a valid block: the gap reads the samples themselves."""
        ix0, ix1, iy0, iy1 = cells
        cx, cy = center
        gap = min(cx - self.x_before[ix0], self.x_after[ix1] - cx,
                  cy - self.y_before[iy0], self.y_after[iy1] - cy)
        return max(gap, 0.0)


class Block(NamedTuple):
    """A rectangle of a CloudGrid's cells and the samples they hold, as
    CloudGrid.block gathers it."""

    cells: tuple[int, int, int, int]  # (ix0, ix1, iy0, iy1), CloudGrid.cells
    samples: np.ndarray               # (k,) sample indices, ascending
    points: np.ndarray                # (k, 2) their positions


def _edges(coord, cell, size: int) -> tuple[list[float], list[float]]:
    """(before, after) over `size` columns of one axis: before[i] the
    largest coordinate in the columns before i, after[i] the smallest in
    the columns after i, -inf and +inf when there is none."""
    high = np.full(size, -np.inf)
    low = np.full(size, np.inf)
    np.maximum.at(high, cell, coord)
    np.minimum.at(low, cell, coord)
    before = [-math.inf, *np.maximum.accumulate(high)[:-1].tolist()]
    after = [*np.minimum.accumulate(low[::-1])[::-1][1:].tolist(), math.inf]
    return before, after


def _as_cloud(positions, weights) -> tuple[CloudGrid, np.ndarray]:
    """(grid, weights): positions as a CloudGrid, built here from a plain
    array, and the weights as an (N,) float array, else InputError. The
    weights' values are not checked: that would cost a pass over the
    cloud on every claim."""
    grid = positions if isinstance(positions, CloudGrid) else CloudGrid(positions)
    return grid, _weights_of(weights, grid.positions.shape[0])


def _weights_of(weights, n: int) -> np.ndarray:
    """weights as an (n,) float array, else InputError."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise InputError(f"weights must be ({n},), one per position, got {weights.shape}")
    return weights


def _squared_distances(points, center):
    """The one squared-distance kernel: (N, 2) points to one (2,) centre,
    (N,), or to an (m, 1, 2) block of centres, (m, N)."""
    d = points - center
    d *= d
    return d[..., 0] + d[..., 1]


def _keys(d2, weights, weighted: bool):
    """The fill's keys: squared distance, or (weighted) distance over weight.
    A weighted key that overflows is inf, so its sample ranks after every
    finite key, ties broken by index."""
    if not weighted:
        return d2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.sqrt(d2) / weights


def _blocks(grid: CloudGrid, weights, center, demand: float, mass, first):
    """The blocks a grid claim tries, in order, when demand < mass (by
    default the weights' sum): `first` if given, then the cells about
    `center` (a pair of floats) that hold about _BLOCK_MASS times the
    demand at the mean density mass / cells, their half-width then doubled
    _GROWS times."""
    if mass is None:
        mass = weights.sum()
    if not demand < mass:
        return
    if first:
        yield first
    half = 0.5 * grid.h * math.sqrt(_BLOCK_MASS * demand / mass * grid.nx * grid.ny)
    for _ in range(_GROWS + 1):
        yield grid.block(grid.cells(center, half))
        half *= 2.0


def _claim(grid: CloudGrid, weights, center, demand: float, weighted: bool,
           mass=None, w_max=None, first=()):
    """(indices, taken, exhausted, block): _fill_nearest over the whole
    cloud keyed by _keys, bit for bit, and the Block that served it, () for
    a whole-cloud fill.

    When the grid has cells, it tries the _blocks in turn. No sample
    outside a block has a key below bound = _keys(gap**2, w_max), since fl
    rounding is monotone and w_max (by default the largest weight) is at
    least every weight, so the block's live samples keyed below the bound
    are a head of the whole cloud's stable order; when they hold the
    demand, the fill along them is the whole cloud's. Else the whole cloud
    is filled, the one path to exhaustion and ExhaustionError. A `mass`
    below the weights' sum only widens the first block or sends a claim to
    the whole cloud sooner, and a w_max above the largest weight only
    lowers the bound.
    """
    if grid.order is not None:
        xy = center.tolist()
        for block in _blocks(grid, weights, xy, demand, mass, first):
            if weighted and w_max is None:
                w_max = float(weights.max()) or math.inf  # no live weight, no head
            gap = grid.gap(block.cells, xy)
            # _keys(gap * gap, w_max) in the keys' own float operations
            bound = math.sqrt(gap * gap) / w_max if weighted else gap * gap
            w = weights.take(block.samples)
            keys = _keys(_squared_distances(block.points, center), w, weighted)
            head = ((w > 0) & (keys < bound)).nonzero()[0]
            if head.size:
                idx, taken, exhausted = _take(w, keys, head, demand)
                if not exhausted:
                    return block.samples[idx], taken, False, block
    return (*_fill_nearest(weights, _keys(_squared_distances(grid.positions, center),
                                          weights, weighted), demand), ())


def select_local_samples(weights, positions, prev_center, alpha: float, *,
                         mass: float | None = None, w_max: float | None = None,
                         block: tuple = ()) -> LocalSelection:
    """Greedy selection by ascending weight-normalized Euclidean distance.

    d_j = ||q_j - prev_center|| / beta_j over beta_j > 0; points are taken
    in ascending d_j (ties broken by ascending index), the last one
    partially, until the claimed mass reaches alpha or the weights run out.
    positions is an (N, 2) array or the cloud's CloudGrid. A caller that
    knows them may pass `mass`, at most the weights' sum, `w_max`, at
    least their largest, and `block`, a Block that a claim on the same
    grid recorded, to try first; each changes the time of the claim, not
    its result.
    """
    grid, weights = _as_cloud(positions, weights)
    if not 0 < alpha < math.inf:
        raise InputError("alpha must be positive and finite")
    if w_max is not None and not w_max > 0:
        raise InputError("w_max must be positive")
    prev_center = check_finite(prev_center, 2, "prev_center")
    # every take is > 0: a whole take is a live weight, and the fill stops at
    # the first cum >= alpha - 1e-15, so a partial one is > 1e-15 - ulp
    idx, taken, exhausted, served = _claim(grid, weights, prev_center, alpha, True,
                                           mass, w_max, block)
    pts = grid.positions[idx]
    center = (taken @ pts) / taken.sum()
    return LocalSelection(indices=idx, taken=taken, points=pts,
                          mass_center=center, exhausted=exhausted, block=served)


def weight_update(positions, weights, agent_pos, alpha_next: float, *,
                  mass: float | None = None, block: tuple = ()) -> TransportPlan:
    """Optimal plan moving alpha_next of mass onto the agent's new position.

    The LP (minimize sum gamma_j ||y - q_j||^2 s.t. 0 <= gamma <= beta,
    sum gamma = alpha_next) is solved by its greedy closed form: fill
    gamma_j = min(beta_j, remaining demand) in ascending squared distance,
    ties broken by ascending index; alpha_next = 0 claims nothing. A last
    take that would leave less than WEIGHT_SNAP takes the weight whole.
    ExhaustionError if alpha_next exceeds the live mass by over 1e-12.
    positions is an (N, 2) array or the cloud's CloudGrid; `mass` and
    `block` are select_local_samples' hints.
    """
    grid, weights = _as_cloud(positions, weights)
    if not 0 <= alpha_next < math.inf:
        raise InputError("alpha_next must be nonnegative and finite")
    agent_pos = check_finite(agent_pos, 2, "agent_pos")
    if alpha_next == 0:
        return TransportPlan(np.empty(0, dtype=np.intp), np.empty(0))
    idx, fill, exhausted, _ = _claim(grid, weights, agent_pos, alpha_next, False, mass,
                                     None, block)
    if exhausted and alpha_next > fill.sum() + 1e-12:
        raise ExhaustionError("demanded mass exceeds remaining sample mass")
    if weights[idx[-1]] - fill[-1] < WEIGHT_SNAP:
        fill[-1] = weights[idx[-1]]
    return TransportPlan(idx, fill)


def local_wasserstein(selection: LocalSelection, agent_pos) -> float:
    """sqrt(sum of claimed mass times squared distance to the agent)."""
    if selection.taken.size == 0:
        raise InputError("empty selection")
    agent_pos = check_finite(agent_pos, 2, "agent_pos")
    return float(np.sqrt(selection.taken @ _squared_distances(selection.points, agent_pos)))


def _reduce_cloud(points, weights, cap: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """(points, weights, subsampled): one cloud as global_wasserstein
    transports it. The weights are scaled to unit mass and the zero-mass
    points dropped; a cloud still above cap points is subsampled to cap
    points of equal weight 1/cap, read off the cumulative weights at the
    fixed comb (0.5 + i) / cap, i = 0 .. cap - 1. The weights are then
    rescaled to sum to 1 up to rounding: two reduced clouds' totals can
    still differ by a few ulps, and solve_transport_exact balances them by
    scaling the demand to the supply's total. InputError unless
    errors.check_points takes the points and they are nonempty, with N
    nonnegative weights of positive, finite sum.
    """
    points = check_points(points, "cloud points")
    weights = _weights_of(weights, points.shape[0])
    if points.shape[0] == 0:
        raise InputError("clouds must be nonempty")
    if np.any(weights < 0):
        raise InputError("cloud weights must be nonnegative")
    mass = weights.sum()
    if not 0 < mass < math.inf:
        raise InputError("clouds must carry positive, finite mass")
    w = weights / mass
    live = w > 0
    points, w = points[live], w[live]
    subsampled = w.size > cap
    if subsampled:
        cum = np.cumsum(w)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, (0.5 + np.arange(cap)) / cap, side="right")
        points, w = points[np.minimum(idx, w.size - 1)], np.full(cap, 1.0 / cap)
    return points, w / w.sum(), subsampled


def global_wasserstein(points_a, weights_a, points_b, weights_b,
                       cap: int = TRANSPORT_SIZE_CAP) -> tuple[float, bool]:
    """(W2, subsampled): the exact 2-Wasserstein distance between two
    weighted planar clouds, each reduced by _reduce_cloud with the integer
    cap >= 1, and whether either cloud was subsampled. The reduced clouds
    also pass errors.check_points together, so no cost entry overflows."""
    check_count(cap, "cap", 1)
    points_a, wa, subsampled_a = _reduce_cloud(points_a, weights_a, cap)
    points_b, wb, subsampled_b = _reduce_cloud(points_b, weights_b, cap)
    check_points(np.vstack([points_a, points_b]), "the two clouds' points")
    cost = _squared_distances(points_b, points_a[:, None, :])
    _, total = solve_transport_exact(wa, wb, cost)
    return float(np.sqrt(max(total, 0.0))), subsampled_a or subsampled_b

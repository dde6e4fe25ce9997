"""Reference point clouds and the per-step agent-point mass.

A SampleCloud holds the reference positions q_j and their normalized
initial weights; the engine gives each agent its own mutable copy of the
weight vector at run start, and transport.weight_update owns the rule
that keeps each copy's weights 0 or at least transport.WEIGHT_SNAP.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_count, check_points

MAX_DRAWS_PER_SAMPLE = 1000  # rejection-sampling budget per requested sample


@dataclass(frozen=True)
class SampleCloud:
    positions: np.ndarray  # (N, 2) meters
    weights: np.ndarray    # (N,) nonnegative, sums to 1

    def __post_init__(self):
        pos = check_points(self.positions, "positions")
        w = np.asarray(self.weights, dtype=float)
        if pos.shape[0] == 0:
            raise InputError("positions must be nonempty")
        if w.shape != (pos.shape[0],):
            raise InputError("weights length must match positions")
        if not np.all(np.isfinite(w)):
            raise InputError("weights must be finite")
        if np.any(w < 0):
            raise InputError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise InputError("weights must sum to 1")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class MixtureSpec:
    """Gaussian mixture sampled over a rectangular domain.

    components: sequence of (mean (2,), covariance (2, 2) SPD, mix weight).
    Samples landing outside the domain are rejected and redrawn.
    """

    components: tuple
    n_samples: int
    seed: int
    domain: tuple  # (x_min, x_max, y_min, y_max)

    def __post_init__(self):
        comps = []
        total = 0.0
        for i, (mean, cov, w) in enumerate(self.components):
            mean, cov = np.array(mean, dtype=float), np.array(cov, dtype=float)
            if mean.shape != (2,):
                raise InputError(f"component {i}: mean must hold 2 numbers, got shape "
                                 f"{mean.shape}")
            if cov.shape != (2, 2):
                raise InputError(f"component {i}: cov must be 2 x 2, got shape {cov.shape}")
            if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
                raise InputError("mean and covariance must be finite")
            # cholesky reads only the lower triangle
            if np.abs(cov - cov.T).max() > 1e-12 * np.abs(cov).max():
                raise InputError("covariance must be symmetric")
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise InputError("covariance must be symmetric positive definite")
            if isinstance(w, bool) or not 0 < w < np.inf:
                raise InputError("mixing weights must be positive and finite")
            comps.append((mean, cov, float(w)))
            total += w
        if not comps:
            raise InputError("mixture needs at least one component")
        if abs(total - 1.0) > 1e-9:
            raise InputError("mixing weights must sum to 1")
        check_count(self.n_samples, "n_samples", 1)
        check_count(self.seed, "seed", 0)
        domain = np.asarray(self.domain, dtype=float)
        if domain.shape != (4,):
            raise InputError("domain must hold 4 numbers (x_min, x_max, y_min, y_max), "
                             f"got shape {domain.shape}")
        x_min, x_max, y_min, y_max = domain.tolist()
        if not (x_min < x_max and y_min < y_max):  # also a NaN bound
            raise InputError("empty domain")
        object.__setattr__(self, "components", tuple(comps))
        object.__setattr__(self, "domain", (x_min, x_max, y_min, y_max))


def sample_mixture(spec: MixtureSpec) -> SampleCloud:
    """Draw n_samples points (rejection sampling at the domain boundary)
    with uniform weights 1/N. Deterministic given spec.seed. Raises
    InputError once MAX_DRAWS_PER_SAMPLE * n_samples draws have not filled
    the cloud: the domain holds almost none of the mixture's mass."""
    rng = np.random.default_rng(spec.seed)
    x_min, x_max, y_min, y_max = spec.domain
    mix = np.array([w for _, _, w in spec.components])
    mix = mix / mix.sum()
    factors = [(mean, np.linalg.cholesky(cov)) for mean, cov, _ in spec.components]
    points = np.empty((spec.n_samples, 2))
    filled = drawn = 0
    while filled < spec.n_samples:
        if drawn >= MAX_DRAWS_PER_SAMPLE * spec.n_samples:
            raise InputError("the domain holds almost none of the mixture's mass")
        want = spec.n_samples - filled
        drawn += want
        comp_idx = rng.choice(len(spec.components), size=want, p=mix)
        draws = np.empty((want, 2))
        z = rng.standard_normal((want, 2))
        for c, (mean, chol) in enumerate(factors):
            sel = comp_idx == c
            draws[sel] = mean + z[sel] @ chol.T
        ok = ((draws[:, 0] >= x_min) & (draws[:, 0] <= x_max)
              & (draws[:, 1] >= y_min) & (draws[:, 1] <= y_max))
        kept = draws[ok]
        points[filled:filled + kept.shape[0]] = kept
        filled += kept.shape[0]
    weights = np.full(spec.n_samples, 1.0 / spec.n_samples)
    return SampleCloud(points, weights)


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def load_points(path) -> SampleCloud:
    """Read a cloud from CSV rows "x,y" or "x,y,weight" (optional header).

    Only the first non-blank row may be a header, and only when none of its
    cells is a number; any other non-numeric row is an InputError.
    Missing weights default to uniform; weights are normalized to sum 1.
    Trailing empty cells are ignored; any other empty cell is an InputError.
    The file is UTF-8; a leading byte-order mark is skipped.
    """
    rows = []
    first = True
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for raw in reader:
            cells = [c.strip() for c in raw]
            while cells and not cells[-1]:
                cells.pop()  # trailing empty cells, and blank lines, are fine
            if not cells:
                continue
            if "" in cells:  # an empty cell would shift the columns after it
                raise InputError(f"empty cell in row {raw!r} of {path}")
            values = [_number(c) for c in cells]
            header = first and all(v is None for v in values)
            first = False
            if header:
                continue
            if None in values:
                raise InputError(f"non-numeric row {raw!r} in {path}")
            if len(values) not in (2, 3):
                raise InputError(f"row {raw!r} must have 2 or 3 columns")
            rows.append(values)
    if not rows:
        raise InputError(f"no data rows in {path}")
    if len({len(r) for r in rows}) != 1:
        raise InputError("mixed 2- and 3-column rows")
    arr = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InputError("non-finite values in point file")
    positions = arr[:, :2]
    if arr.shape[1] == 3:
        w = arr[:, 2]
        if np.any(w < 0):
            raise InputError("negative weight in point file")
        if w.sum() <= 0:
            raise InputError("weights sum to zero")
        w = w / w.sum()
    else:
        w = np.full(arr.shape[0], 1.0 / arr.shape[0])
    return SampleCloud(positions, w)


def agent_alpha(agent_budgets) -> float:
    """Common per-step agent-point mass 1 / (sum of step budgets)."""
    budgets = list(agent_budgets)
    if not budgets:
        raise InputError("need at least one agent")
    return 1.0 / int(sum(check_count(m, "budget", 1) for m in budgets))


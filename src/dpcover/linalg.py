"""Small dense matrix kernels: pseudoinverse, PSD QP, exact transport LP.

Everything here operates on problems of modest size (inputs of a few
dimensions, transport instances capped at 500x500) and favors exactness
and determinism over speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import InfeasibleError, InputError, SizeError

TRANSPORT_SIZE_CAP = 500


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise InputError(f"{name} must be 2-D, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InputError(f"{name} contains non-finite entries")
    return M


def pseudo_inverse(M, rel_tol: float = 1e-10) -> np.ndarray:
    """Moore-Penrose inverse via full SVD.

    Singular values below rel_tol * sigma_max are treated as exact zeros,
    so rank-deficient inputs get the minimum-norm inverse.
    """
    M = _as_matrix(M, "M")
    if rel_tol <= 0:
        raise InputError("rel_tol must be positive")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[1], M.shape[0]))
    keep = s > rel_tol * s[0]
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (Vt.T * s_inv) @ U.T


@dataclass(frozen=True)
class PsdQp:
    """Quadratic program  min u'Hu + 2g'u  s.t.  Cu u <= Du  with H PSD."""

    H: np.ndarray
    g: np.ndarray
    Cu: np.ndarray
    Du: np.ndarray

    def __post_init__(self):
        H = _as_matrix(self.H, "H")
        g = np.atleast_1d(np.asarray(self.g, dtype=float))
        Cu = _as_matrix(self.Cu, "Cu")
        Du = np.atleast_1d(np.asarray(self.Du, dtype=float))
        m = H.shape[0]
        if H.shape != (m, m):
            raise InputError("H must be square")
        if g.shape != (m,):
            raise InputError(f"g must have length {m}")
        if Cu.shape[1] != m or Du.shape != (Cu.shape[0],):
            raise InputError("constraint dimensions inconsistent with H")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(Du))):
            raise InputError("non-finite entries in g or Du")
        scale = max(np.abs(H).max(), 1.0)
        if np.abs(H - H.T).max() > 1e-10 * scale:
            raise InputError("H is not symmetric within tolerance")
        eigs = np.linalg.eigvalsh(0.5 * (H + H.T))
        if eigs[0] < -1e-10 * max(eigs[-1], 0.0) - 1e-300:
            raise InputError("H is not positive semidefinite within tolerance")
        object.__setattr__(self, "H", 0.5 * (H + H.T))
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "Cu", Cu)
        object.__setattr__(self, "Du", Du)


def feasible_point(Cu: np.ndarray, Du: np.ndarray) -> np.ndarray:
    """Chebyshev-center LP: a point well inside {u : Cu u <= Du}."""
    c_rows, m = Cu.shape
    norms = np.linalg.norm(Cu, axis=1)
    # variables (u, r): maximize r s.t. Cu u + norms*r <= Du
    obj = np.zeros(m + 1)
    obj[-1] = -1.0
    A_ub = np.hstack([Cu, norms[:, None]])
    res = linprog(obj, A_ub=A_ub, b_ub=Du, bounds=[(None, None)] * m + [(None, None)],
                  method="highs")
    if res.status != 0 or res.x[-1] < -1e-9:
        raise InfeasibleError("constraint polytope is empty")
    return res.x[:m]


def _null_space(A: np.ndarray, m: int) -> np.ndarray:
    """Orthonormal basis of the null space of A (columns). A may be empty."""
    if A.size == 0:
        return np.eye(m)
    U, s, Vt = np.linalg.svd(A)
    rank = int(np.sum(s > max(A.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)))
    return Vt[rank:].T


def solve_psd_qp(qp: PsdQp, tol: float = 1e-8) -> np.ndarray:
    """Primal active-set solver for small PSD QPs.

    Flat directions of H are resolved toward the minimum-norm optimizer:
    the unconstrained minimum-norm point is returned directly when feasible,
    and otherwise a final null-space polish shrinks the solution as far as
    the constraints allow.
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    H, g, Cu, Du = qp.H, qp.g, qp.Cu, qp.Du
    m = H.shape[0]
    n_con = Cu.shape[0]

    u0 = -pseudo_inverse(H) @ g
    if n_con == 0:
        if np.linalg.norm(H @ u0 + g) > tol * (1.0 + np.linalg.norm(g)):
            raise InfeasibleError("objective unbounded below (no constraints)")
        return u0
    if np.all(Cu @ u0 <= Du + tol):
        residual = H @ u0 + g
        if np.linalg.norm(residual) <= tol * (1.0 + np.linalg.norm(g)):
            return u0

    x = feasible_point(Cu, Du)
    work = set(np.nonzero(Cu @ x >= Du - 1e-11)[0].tolist())
    h_scale = max(np.abs(H).max(), np.abs(g).max(), 1.0)

    for _ in range(50 * (m + n_con + 1)):
        idx = sorted(work)
        A_w = Cu[idx] if idx else np.empty((0, m))
        Z = _null_space(A_w, m)
        grad = H @ x + g

        p = np.zeros(m)
        unbounded_dir = None
        if Z.shape[1] > 0:
            Hr = Z.T @ H @ Z
            rhs = -(Z.T @ grad)
            w, V = np.linalg.eigh(Hr)
            pos = w > 1e-12 * max(w[-1], h_scale * 1e-12, 1e-300)
            coeffs = V.T @ rhs
            # component of the gradient living in a flat direction: descend it
            flat = coeffs.copy()
            flat[pos] = 0.0
            if np.linalg.norm(flat) > tol * h_scale:
                unbounded_dir = Z @ (V @ flat)
                unbounded_dir /= np.linalg.norm(unbounded_dir)
            else:
                pr = V @ np.where(pos, coeffs / np.where(pos, w, 1.0), 0.0)
                p = Z @ pr

        if unbounded_dir is not None:
            d = unbounded_dir
            denom = Cu @ d
            ratios = [(Du[i] - Cu[i] @ x) / denom[i]
                      for i in range(n_con) if i not in work and denom[i] > 1e-12]
            if not ratios:
                raise InfeasibleError("objective unbounded below over the polytope")
            step = min(ratios)
            x = x + step * d
            work = set(np.nonzero(Cu @ x >= Du - 1e-9)[0].tolist())
            continue

        if np.linalg.norm(p) <= 1e-12 * (1.0 + np.linalg.norm(x)):
            if not idx:
                break
            lam, *_ = np.linalg.lstsq(A_w.T, -2.0 * grad, rcond=None)
            if np.all(lam >= -tol * h_scale):
                break
            # Bland: drop the lowest-index violating constraint
            drop = next(i for i, l in zip(idx, lam) if l < -tol * h_scale)
            work.discard(drop)
            continue

        alpha = 1.0
        blocking = None
        denom = Cu @ p
        for i in range(n_con):
            if i in work or denom[i] <= 1e-12:
                continue
            ratio = (Du[i] - Cu[i] @ x) / denom[i]
            if ratio < alpha:
                alpha = ratio
                blocking = i
        x = x + alpha * p
        if blocking is not None and alpha < 1.0:
            work.add(blocking)
    else:
        raise InputError("active-set iteration limit exceeded")

    # minimum-norm polish along flat directions that keep the objective fixed
    Z0 = _null_space(H, m)
    if Z0.shape[1] > 0 and np.linalg.norm(g @ Z0) <= tol * h_scale:
        z = -(Z0.T @ x)
        if np.linalg.norm(z) > 0:
            d = Z0 @ z
            t = 1.0
            slack = Du - Cu @ x
            move = Cu @ d
            for i in range(n_con):
                if move[i] > 1e-12:
                    t = min(t, slack[i] / move[i])
            x = x + max(t, 0.0) * d
    return x


@dataclass(frozen=True)
class TransportProblem:
    """Balanced discrete transport instance with squared-Euclidean costs."""

    supply: np.ndarray
    demand: np.ndarray
    cost: np.ndarray

    def __post_init__(self):
        supply = np.atleast_1d(np.asarray(self.supply, dtype=float))
        demand = np.atleast_1d(np.asarray(self.demand, dtype=float))
        cost = _as_matrix(self.cost, "cost")
        if cost.shape != (supply.size, demand.size):
            raise InputError("cost shape inconsistent with supply/demand")
        if np.any(supply < 0) or np.any(demand < 0):
            raise InputError("masses must be nonnegative")
        if not (np.all(np.isfinite(supply)) and np.all(np.isfinite(demand))):
            raise InputError("non-finite masses")
        if abs(supply.sum() - demand.sum()) > 1e-9:
            raise InputError("supply and demand masses are not balanced")
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "cost", cost)


def solve_transport_exact(tp: TransportProblem) -> tuple[np.ndarray, float]:
    """Globally optimal plan for a balanced transport LP.

    Returns (plan, cost) where plan[i, j] is the mass moved between supply
    point i and demand point j. Instances above the 500x500 cap are
    rejected; subsampling is the caller's job.
    """
    n_s, n_d = tp.cost.shape
    if n_s > TRANSPORT_SIZE_CAP or n_d > TRANSPORT_SIZE_CAP:
        raise SizeError(
            f"transport instance {n_s}x{n_d} exceeds the {TRANSPORT_SIZE_CAP} cap; "
            "subsample before solving")
    A_eq = sparse.vstack([
        sparse.kron(sparse.eye(n_s), np.ones((1, n_d))),
        sparse.kron(np.ones((1, n_s)), sparse.eye(n_d)),
    ], format="csc")
    b_eq = np.concatenate([tp.supply, tp.demand])
    res = linprog(
        tp.cost.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise InputError(f"transport LP failed: {res.message}")
    plan = np.maximum(res.x.reshape(n_s, n_d), 0.0)
    cost = float(np.sum(plan * tp.cost))
    return plan, cost

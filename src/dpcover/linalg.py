"""Small dense matrix kernels: pseudoinverse, PSD QP, exact transport.

Everything here operates on problems of modest size (inputs of a few
dimensions, transport instances capped at 500x500) and favors exactness
and determinism over speed. Exact transport has one dispatch rule: equal
sizes with one mass value go to the assignment solver, whose plan
matched the LP's bit for bit in every reference run; every other
instance goes to the HiGHS LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from .errors import InfeasibleError, InputError, SizeError

if TYPE_CHECKING:
    from .controller import GainTerms

TRANSPORT_SIZE_CAP = 500


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise InputError(f"{name} must be 2-D, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InputError(f"{name} contains non-finite entries")
    return M


def pseudo_inverse(M) -> np.ndarray:
    """Moore-Penrose inverse via full SVD.

    Singular values at or below 1e-10 * sigma_max are treated as exact
    zeros, so rank-deficient inputs get the minimum-norm inverse.
    """
    M = _as_matrix(M, "M")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[1], M.shape[0]))
    keep = s > 1e-10 * s[0]
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (Vt.T * s_inv) @ U.T


@dataclass(frozen=True)
class InputPolytope:
    """The input set {u : Cu u <= Du}: c >= 1 rows, finite, nonempty.

    Checked once, at construction, which keeps read-only copies of Cu and
    Du and finds `interior`, the Chebyshev centre (the centre of the
    largest ball inside; radius capped at 1 for unbounded sets): 0 for a
    box |u_i| <= b, by an LP otherwise. An empty polytope raises
    InfeasibleError.
    """

    Cu: np.ndarray
    Du: np.ndarray
    interior: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        Cu = _as_matrix(self.Cu, "Cu").copy()
        Du = np.array(self.Du, dtype=float)
        c_rows, m = Cu.shape
        if c_rows < 1 or m < 1 or Du.shape != (c_rows,) or not np.all(np.isfinite(Du)):
            raise InputError("Cu must be (c, m) with c, m >= 1 and Du finite of length c")
        if np.array_equal(Cu, _box_rows(m)) and Du.min() == Du.max() >= 0:
            interior = np.zeros(m)  # the box |u_i| <= b is centred at 0
        else:
            interior = _chebyshev_centre(Cu, Du)
        for name, arr in (("Cu", Cu), ("Du", Du), ("interior", interior)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def box(cls, bound: float, m: int) -> "InputPolytope":
        """|u_i| <= bound for each of m inputs: Cu = [I; -I], Du = bound."""
        return cls(_box_rows(m), np.full(2 * m, bound))


def _box_rows(m: int) -> np.ndarray:
    return np.vstack([np.eye(m), -np.eye(m)])


def _chebyshev_centre(Cu: np.ndarray, Du: np.ndarray) -> np.ndarray:
    """Centre of the largest ball inside Cu u <= Du, by LP; the radius is
    capped at 1 for unbounded sets. InfeasibleError if the set is empty."""
    m = Cu.shape[1]
    # variables (u, r): maximize r s.t. Cu u + |row of Cu| r <= Du
    obj = np.r_[np.zeros(m), -1.0]
    A_ub = np.hstack([Cu, np.linalg.norm(Cu, axis=1)[:, None]])
    for r_max in (None, 1.0):  # a half-plane holds balls of any radius
        res = linprog(obj, A_ub=A_ub, b_ub=Du,
                      bounds=[(None, None)] * m + [(None, r_max)], method="highs")
        if res.status != 3:  # 3: unbounded
            break
    if res.status != 0 or res.x[-1] < -1e-9:
        raise InfeasibleError("constraint polytope Cu u <= Du is empty")
    return res.x[:m]


def _null_space(A: np.ndarray, m: int) -> np.ndarray:
    """Orthonormal basis of the null space of A (columns). A may be empty."""
    if A.size == 0:
        return np.eye(m)
    U, s, Vt = np.linalg.svd(A)
    rank = int(np.sum(s > max(A.shape) * np.finfo(float).eps * s[0]))
    return Vt[rank:].T


def _step_to_bound(Cu, Du, x, d, rows):
    """(t, i): the largest step t along d keeping every listed row with
    Cu[i] @ d > 1e-12 feasible, and the lowest row i that sets it; (inf,
    None) if none limits it. Each ratio is formed row by row: a vectorised
    Cu @ x can differ from Cu[i] @ x in the last bit."""
    move = Cu @ d
    t, hit = np.inf, None
    for i in rows:
        if move[i] > 1e-12:
            ratio = (Du[i] - Cu[i] @ x) / move[i]
            if ratio < t:
                t, hit = ratio, i
    return t, hit


def solve_psd_qp(q: GainTerms, polytope: InputPolytope) -> np.ndarray:
    """Primal active-set solver for  min u'D1u + 2D2u  s.t.  u in polytope.

    q is the checked quadratic, a controller.GainTerms: symmetric PSD D1
    with its unconstrained minimum-norm optimum u_star = -D1^+ D2'. Flat
    directions of D1 are resolved toward the minimum-norm optimizer:
    u_star itself is returned when feasible, and otherwise a final
    null-space polish shrinks the solution as far as the constraints
    allow. The working set is a boolean mask over the rows of Cu; the one
    ratio test _step_to_bound cuts every step (flat descent, Newton, polish).
    Feasibility, stationarity, multiplier signs and flatness are all
    judged at the fixed relative tolerance 1e-8.
    """
    tol = 1e-8
    H, g, Cu, Du = q.D1, q.D2, polytope.Cu, polytope.Du
    m, n_con = H.shape[0], Cu.shape[0]
    if Cu.shape[1] != m:
        raise InputError("constraint dimensions inconsistent with D1")

    u0 = q.u_star
    if np.all(Cu @ u0 <= Du + tol):
        if np.linalg.norm(H @ u0 + g) <= tol * (1.0 + np.linalg.norm(g)):
            return u0

    x = polytope.interior.copy()
    work = Cu @ x >= Du - 1e-11  # the working set: rows held at equality
    h_scale = max(np.abs(H).max(), np.abs(g).max(), 1.0)

    for _ in range(50 * (m + n_con + 1)):
        idx, free = np.flatnonzero(work), np.flatnonzero(~work)
        A_w = Cu[idx]
        Z = _null_space(A_w, m)
        grad = H @ x + g

        p = np.zeros(m)
        if Z.shape[1] > 0:
            w, V = np.linalg.eigh(Z.T @ H @ Z)
            pos = w > 1e-12 * max(w[-1], h_scale * 1e-12, 1e-300)
            coeffs = V.T @ -(Z.T @ grad)
            # component of the gradient living in a flat direction: descend it
            flat = np.where(pos, 0.0, coeffs)
            if np.linalg.norm(flat) > tol * h_scale:
                d = Z @ (V @ flat)
                d /= np.linalg.norm(d)
                t, i = _step_to_bound(Cu, Du, x, d, free)
                if i is None:
                    raise InfeasibleError("objective unbounded below over the polytope")
                x = x + t * d
                work = Cu @ x >= Du - 1e-9
                continue
            p = Z @ (V @ np.where(pos, coeffs / np.where(pos, w, 1.0), 0.0))

        if np.linalg.norm(p) <= 1e-12 * (1.0 + np.linalg.norm(x)):
            lam, *_ = np.linalg.lstsq(A_w.T, -2.0 * grad, rcond=None)
            neg = lam < -tol * h_scale
            if not neg.any():
                break
            work[idx[np.argmax(neg)]] = False  # Bland: the lowest-index row
            continue

        t, i = _step_to_bound(Cu, Du, x, p, free)
        x = x + min(t, 1.0) * p
        if t < 1.0:
            work[i] = True
    else:
        raise InputError("active-set iteration limit exceeded")

    # minimum-norm polish along flat directions that keep the objective fixed
    Z0 = _null_space(H, m)
    if Z0.shape[1] > 0 and np.linalg.norm(g @ Z0) <= tol * h_scale:
        z = -(Z0.T @ x)
        if np.linalg.norm(z) > 0:
            d = Z0 @ z
            t, _ = _step_to_bound(Cu, Du, x, d, range(n_con))
            x = x + max(min(t, 1.0), 0.0) * d
    return x


def solve_transport_exact(supply, demand, cost) -> tuple[np.ndarray, float]:
    """(plan, total) of the balanced transport LP moving the (n_s,) supply
    onto the (n_d,) demand at the (n_s, n_d) cost, globally optimal;
    plan[i, j] is the mass moved from supply point i to demand point j.
    InputError unless the cost is finite and (n_s, n_d) and the nonempty
    1-D masses are nonnegative, finite and balanced within 1e-9; SizeError
    above the 500x500 cap: subsampling is the caller's job.

    After those checks, one exact rule picks the solver. Equal sizes with
    one mass value in both supply and demand (compared with ==, no
    tolerance) have a permutation as an optimal plan (Birkhoff), which
    linear_sum_assignment finds; in every reference run that plan equalled
    the LP's bit for bit. Every other instance goes to the HiGHS LP. Both
    sum the dense plan times the cost the same way.
    """
    supply = np.atleast_1d(np.asarray(supply, dtype=float))
    demand = np.atleast_1d(np.asarray(demand, dtype=float))
    cost = _as_matrix(cost, "cost")
    if (supply.ndim != 1 or demand.ndim != 1 or supply.size == 0 or demand.size == 0
            or cost.shape != (supply.size, demand.size)):
        raise InputError(f"supply and demand must be nonempty, 1-D and cost (n_s, n_d), got "
                         f"{supply.shape}, {demand.shape} and {cost.shape}")
    if np.any(supply < 0) or np.any(demand < 0):
        raise InputError("masses must be nonnegative")
    if not (np.all(np.isfinite(supply)) and np.all(np.isfinite(demand))):
        raise InputError("non-finite masses")
    if abs(supply.sum() - demand.sum()) > 1e-9:
        raise InputError("supply and demand masses are not balanced")
    n_s, n_d = cost.shape
    if n_s > TRANSPORT_SIZE_CAP or n_d > TRANSPORT_SIZE_CAP:
        raise SizeError(
            f"transport instance {n_s}x{n_d} exceeds the {TRANSPORT_SIZE_CAP} cap; "
            "subsample before solving")
    if n_s == n_d and np.all(supply == supply[0]) and np.all(demand == supply[0]):
        rows, cols = linear_sum_assignment(cost)
        plan = np.zeros((n_s, n_d))
        plan[rows, cols] = supply[rows]
    else:
        plan = _transport_lp(supply, demand, cost)
    return plan, float(np.sum(plan * cost))


def _transport_lp(supply, demand, cost) -> np.ndarray:
    """The optimal plan of the checked, balanced transport instance, by
    HiGHS with 1e-10 feasibility tolerances, clipped at 0."""
    n_s, n_d = cost.shape
    A_eq = sparse.vstack([
        sparse.kron(sparse.eye(n_s), np.ones((1, n_d))),
        sparse.kron(np.ones((1, n_s)), sparse.eye(n_d)),
    ], format="csc")
    b_eq = np.concatenate([supply, demand])
    res = linprog(
        cost.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise InputError(f"transport LP failed: {res.message}")
    return np.maximum(res.x.reshape(n_s, n_d), 0.0)

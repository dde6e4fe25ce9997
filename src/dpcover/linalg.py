"""Small dense matrix kernels: pseudoinverse, PSD QP, exact transport.

Everything here operates on problems of modest size (inputs of a few
dimensions, transport instances capped at 500x500) and favors exactness
and determinism over speed. Exact transport has one dispatch rule: equal
sizes with one mass value go to the assignment solver, whose plan
matched the HiGHS LP's bit for bit in every reference run; every other
instance goes to the transportation simplex. The HiGHS LP is the tests'
oracle and lives with them.

Of scipy, a run loads only the compiled assignment core,
scipy.optimize._lsap, read straight from its file so that
scipy/optimize/__init__ (0.35-0.4 s of imports on a 2-vCPU host) is
skipped; if that file is not where scipy keeps it, the public import is
used instead.
scipy.optimize itself is imported on the first linprog call, which only
an input polytope that is not a centred box makes.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import InfeasibleError, InputError, SizeError

if TYPE_CHECKING:
    from .controller import GainTerms

TRANSPORT_SIZE_CAP = 500
_LSAP = "scipy.optimize._lsap"


def _assignment_path() -> str | None:
    """The file of scipy's compiled assignment core, found without
    importing scipy; None if it is not there."""
    spec = importlib.util.find_spec("scipy")
    for base in (spec.submodule_search_locations if spec else None) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(base, "optimize", "_lsap" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_assignment():
    """scipy's linear_sum_assignment, loaded from scipy.optimize._lsap
    alone and registered under that name, so that a later import of
    scipy.optimize reuses it; the public import if the file is missing,
    does not load or lacks the function."""
    module = sys.modules.get(_LSAP)
    path = None if module else _assignment_path()
    if path is not None:
        try:
            loader = importlib.machinery.ExtensionFileLoader(_LSAP, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(_LSAP, path, loader=loader))
            loader.exec_module(module)
        except ImportError:
            module = None
        else:
            sys.modules[_LSAP] = module
    found = getattr(module, "linear_sum_assignment", None)
    if found is None:
        from scipy.optimize import linear_sum_assignment as found
    return found


linear_sum_assignment = _load_assignment()


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call."""
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


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
    """The input set {u : Cu u <= Du}: c >= 1 rows of finite norm, nonempty.

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
        with np.errstate(over="ignore"):  # the Chebyshev LP's column of row norms
            if not np.all(np.isfinite(np.linalg.norm(Cu, axis=1))):
                raise InputError("Cu has a row whose norm overflows")
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
    capped at 1 for unbounded sets. InfeasibleError if the set is empty.
    A row whose largest |entry| is 2 or more is scaled, with its Du entry,
    by the power of two that brings it into [1, 2): HiGHS rejects 1e15."""
    m = Cu.shape[1]
    shift = np.maximum(np.frexp(np.abs(Cu).max(axis=1))[1] - 1, 0)
    Cu, Du = np.ldexp(Cu, -shift[:, None]), np.ldexp(Du, -shift)
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
    the HiGHS LP's bit for bit. Every other instance goes to the
    transportation simplex, with the demand first scaled to the supply's
    total where the two totals differ (or, with no demand mass, the supply
    zeroed), so every instance that passes the balance check is solvable.
    Both sum the dense plan times the cost the same way.
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
    total_s, total_d = supply.sum(), demand.sum()
    if abs(total_s - total_d) > 1e-9:
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
        if total_s != total_d:
            if total_d > 0:
                demand = demand * (total_s / total_d)
            else:
                supply = np.zeros(n_s)
        plan = _transport_simplex(supply, demand, cost)
    return plan, float(np.sum(plan * cost))


# pivots priced on the candidate cells between two full pricing passes
_CANDIDATE_PIVOTS = 10


def _transport_simplex(supply, demand, cost) -> np.ndarray:
    """The optimal plan of the checked, balanced transport instance, by the
    transportation (network) simplex (Peyre & Cuturi, Computational Optimal
    Transport, 2019, section 3.5), clipped at 0.

    Rows and columns of zero mass carry no flow and are dropped. The basis
    is a spanning tree over the remaining rows and columns, rooted at the
    first row, with potentials pi: u_i for row i, -v_j for column j (node
    n + j), so the reduced cost of cell (i, j) is c_ij - pi_i + pi_(n+j).
    It starts from the greedy least-cost basis of the masses perturbed by
    eps (see _greedy_tree), which makes it strongly feasible: every
    zero-flow arc of the tree points toward the root. Cunningham's leaving
    rule (the last blocking arc of the cycle, walked from its apex in the
    direction of the entering flow) keeps it so, and so degenerate pivots
    cannot cycle; a guard of n*m + 10(n + m) pricing passes raises
    InputError all the same.

    A full pass prices every cell and keeps each row's most negative cell
    as a candidate; the next pivots re-price only the candidates, at most
    _CANDIDATE_PIVOTS of them before the next full pass. A cell enters
    while its reduced cost is below -1e-12 * (1 + |c_ij|).

    The tree is kept as a preorder thread (Glover, Klingman & Stutz, 1974):
    `order` lists the nodes in preorder, `pos` is its inverse and `size`
    holds subtree sizes, so the subtree of v is order[pos[v]:pos[v] +
    size[v]]. The apex of the entering cell's cycle is found by size: a
    node's strict ancestors have larger subtrees. A pivot cuts the subtree
    below the leaving arc off, re-roots it at the entering cell's end e
    (2q + 1 slices of the thread for a stem of q arcs) and moves that block
    to just after the other end f; sizes change only along the cycle. The
    block's potentials all shift by the entering cell's reduced cost, in one
    add. The shifts drift by rounding, so when a full pass finds no
    entering cell every potential is derived again from its parent's, in
    preorder, and the run ends only when a pass over those potentials,
    which are a function of the tree, finds none either. The returned flows
    are recomputed from the final tree by leaf elimination from the masses,
    so they depend on the optimal basis alone and not on rounding
    accumulated over pivots.
    """
    plan = np.zeros(cost.shape)
    rows, cols = np.flatnonzero(supply > 0), np.flatnonzero(demand > 0)
    if rows.size == 0 or cols.size == 0:
        return plan
    c = cost[np.ix_(rows, cols)]
    n, m = c.shape
    N = n + m
    mass = supply[rows].tolist() + demand[cols].tolist()
    parent, thread = _greedy_tree(mass, c)
    size = [1] * N
    for v in reversed(thread[1:]):
        size[parent[v]] += size[v]
    order = np.array(thread)
    pos = np.empty(N, dtype=int)
    pos[order] = index = np.arange(N)

    def arcs() -> tuple[np.ndarray, np.ndarray]:
        """(row, column) of each node's parent arc, for nodes 1 .. N - 1."""
        node, up = np.arange(1, N), np.array(parent[1:])
        is_row = node < n
        return np.where(is_row, node, up), np.where(is_row, up, node) - n

    def potentials() -> np.ndarray:
        """pi from the tree: each node's from its parent's, in preorder."""
        arc = [0.0, *c[arcs()].tolist()]
        pi = [0.0] * N
        for v in order[1:].tolist():
            p = parent[v]
            pi[v] = arc[v] + pi[p] if v < n else pi[p] - arc[v]
        return np.array(pi)

    pi, exact = potentials(), True
    flow = _tree_flows(parent, thread, mass)

    shifted = c + 1e-12 * (1.0 + np.abs(c))  # the entering test as "< 0"
    reduced = np.empty_like(c)
    cand_i = np.zeros(0, dtype=int)
    cand_pivots = 0
    for _ in range(n * m + 10 * (n + m)):
        cell = None
        if cand_pivots < _CANDIDATE_PIVOTS and cand_i.size:
            price = cand_cost - pi[cand_i] + pi[cand_col]
            best = int(price.argmin())
            if price[best] < 0.0:
                cell, cand_pivots = (int(cand_i[best]), int(cand_j[best])), cand_pivots + 1
        if cell is None:
            # pi_i is one constant along row i: subtract it from the best only
            np.add(shifted, pi[n:], out=reduced)
            row_best = reduced.argmin(axis=1)
            row_price = reduced[np.arange(n), row_best] - pi[:n]
            cand_i = np.flatnonzero(row_price < 0.0)
            if cand_i.size == 0:
                if exact:
                    break
                pi, exact = potentials(), True
                continue
            cand_j, cand_pivots = row_best[cand_i], 0
            cand_col, cand_cost = n + cand_j, shifted[cand_i, cand_j]
            best = int(row_price[cand_i].argmin())
            cell = (int(cand_i[best]), int(cand_j[best]))

        # the cycle: the tree paths from k (row) and l (column) up to their apex
        k, l = cell[0], n + cell[1]
        k_path, l_path = [], []
        a, b = k, l
        while a != b:
            if size[a] <= size[b]:
                k_path.append(a)
                a = parent[a]
            else:
                l_path.append(b)
                b = parent[b]
        # flow falls on the arcs of the rows of k_path and the columns of
        # l_path: every other node from the start. Cunningham: the leaving
        # arc is the blocking arc nearest the apex on the l side, else the
        # one nearest k on the k side.
        theta_k, leave_k = np.inf, -1
        for s in range(0, len(k_path), 2):
            if flow[k_path[s]] < theta_k:
                theta_k, leave_k = flow[k_path[s]], s
        theta_l, leave_l = np.inf, -1
        for s in range(0, len(l_path), 2):
            if flow[l_path[s]] <= theta_l:
                theta_l, leave_l = flow[l_path[s]], s
        if theta_l <= theta_k:
            theta, path, q, e, f, other = theta_l, l_path, leave_l, l, k, k_path
        else:
            theta, path, q, e, f, other = theta_k, k_path, leave_k, k, l, l_path
        theta = max(theta, 0.0)
        if theta > 0.0:
            for side in (k_path, l_path):
                for s, v in enumerate(side):
                    flow[v] += theta if s % 2 else -theta

        # the subtree cut off below path[q], re-rooted at e: e's subtree,
        # then each stem node's subtree less the one before; moved to just
        # after f, shifting what lies between
        stem = path[:q + 1]
        at = pos[stem].tolist()
        B, lo, to = size[path[q]], at[q], int(pos[f]) + 1
        pieces = [order[at[0]:at[0] + size[e]]]
        for s in range(1, q + 1):
            pieces += [order[at[s]:at[s - 1]],
                       order[at[s - 1] + size[stem[s - 1]]:at[s] + size[stem[s]]]]
        if to < lo:
            start, moved = to, np.concatenate(pieces + [order[to:lo]])
            block = moved[:B]
        else:
            start, moved = lo, np.concatenate([order[lo + B:to]] + pieces)
            block = moved[-B:]
        order[start:start + moved.size] = moved
        pos[moved] = index[start:start + moved.size]
        r = c[cell] - pi[k] + pi[l]  # the entering cell's reduced cost
        pi[block] += r if e < n else -r
        exact = False

        for v in path[q + 1:]:
            size[v] -= B
        for v in other:
            size[v] += B
        for s in range(q, 0, -1):
            v, w = path[s], path[s - 1]
            parent[v], flow[v], size[v] = w, flow[w], B - size[w]
        parent[e], flow[e], size[e] = f, theta, B
    else:
        raise InputError("transport simplex iteration limit exceeded")

    flow = _tree_flows(parent, order.tolist(), mass)
    i, j = arcs()
    plan[rows[i], cols[j]] = np.maximum(np.array(flow[1:]), 0.0)
    return plan


def _greedy_tree(mass: list, c: np.ndarray) -> tuple[list, list]:
    """(parent, preorder) of the least-cost basis of the positive masses
    (n rows, then m columns) at the (n, m) cost c, rooted at row 0.

    Cells are taken in order of cost (stable), skipping closed rows and
    columns; each closes its row or its column, whichever has less mass
    left, so n + m - 1 cells form a spanning tree. Masses are compared as
    (value, eps coefficient): +eps for each row but row 0, -eps for each
    column and -(n + m - 1) eps for row 0. No cell but the last then
    empties its row and column at once, and every arc of zero flow points
    toward row 0: the tree is strongly feasible. The sorted cells are read
    in chunks of doubling length, each first cleared in numpy of the cells
    whose row or column an earlier chunk closed.
    """
    n, m = c.shape
    N = n + m
    left = [(x, 1) for x in mass[:n]] + [(x, -1) for x in mass[n:]]
    left[0] = (mass[0], 1 - N)
    open_rows, open_cols = n, m
    closed = [False] * N
    adjacent = [[] for _ in range(N)]
    taken = 0
    cells = np.argsort(c, axis=None, kind="stable")
    start, chunk = 0, N
    while taken < N - 1:
        i, j = np.divmod(cells[start:start + chunk], m)
        start, chunk = start + chunk, 2 * chunk
        shut = np.array(closed)
        keep = ~(shut[i] | shut[n + j])
        for a, b in zip(i[keep].tolist(), (n + j[keep]).tolist()):
            if closed[a] or closed[b]:
                continue
            adjacent[a].append(b)
            adjacent[b].append(a)
            taken += 1
            (xa, ea), (xb, eb) = left[a], left[b]
            if ((xa, ea) <= (xb, eb) and open_rows > 1) or open_cols == 1:
                closed[a], left[b], open_rows = True, (xb - xa, eb - ea), open_rows - 1
            else:
                closed[b], left[a], open_cols = True, (xa - xb, ea - eb), open_cols - 1
            if taken == N - 1:
                break
    parent, thread, stack = [-1] * N, [], [0]
    while stack:  # depth first from row 0
        v = stack.pop()
        thread.append(v)
        for w in adjacent[v]:
            if w != parent[v]:
                parent[w] = v
                stack.append(w)
    return parent, thread


def _tree_flows(parent: list, thread: list, mass: list) -> list:
    """Flow on the arc from each node to its parent (0.0 at the root) of
    the tree with the preorder `thread`, by leaf elimination: deepest nodes
    first (ties by index), each passes the mass it has left to its parent.
    A row's left-over supply goes up to its column parent; a column's
    unmet demand comes from its row parent."""
    depth = [0] * len(mass)
    for v in thread[1:]:
        depth[v] = depth[parent[v]] + 1
    left = list(mass)
    flow = [0.0] * len(mass)
    for v in sorted(range(len(mass)), key=depth.__getitem__, reverse=True):
        p = parent[v]
        if p >= 0:
            flow[v] = left[v]
            left[p] -= left[v]
    return flow

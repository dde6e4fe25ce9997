"""The paper's control loop, written plainly: the oracle of engine.run.

No grid, hint, memo, sync shortcut or transport dispatch; each stage comes
from its definition:
- stage A: one stable sort of the whole live cloud by distance over
  weight, filled greedily up to the agent-point mass;
- D1, D2 and D3 from their formulas, with A^P by matrix_power, at the mass
  the claim took (the engine's alpha rule);
- u*: -D1^+ D2' by pseudo_inverse or, under an input set, the best
  feasible stationary point over every set of active rows (enumeration);
- the dynamics step, with its clamp;
- stage B: the greedy fill by squared distance, a last take that would
  leave less than WEIGHT_SNAP taken whole;
- stage C: the min rule on every pair in range, in (r, s) order;
- W2: both clouds reduced by transport._reduce_cloud, the plan by the
  HiGHS transport LP (test_linalg._transport_lp).

check_run replays one engine.run in lock-step with its records: each
step's claims and records are checked against the loop above, and the
loop then advances on the engine's own u, claims and outputs, so that an
ulp of the QP cannot flip a later ranking tie. Claimed indices, exhausted
flags, event flags and counts must match exactly; every float within
1e-12 of its natural scale (the claim's mass, the quadratic's terms), and
W2^2 within 1e-12 relative of the LP's plus what the LP's own error on the
marginals can cost.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from dpcover import transport
from dpcover.engine import REMAINING_MASS_EPS, run
from dpcover.linalg import pseudo_inverse
from dpcover.transport import WEIGHT_SNAP, _reduce_cloud

from test_linalg import _transport_lp

RTOL = 1e-12


def run_with_claims(scenario):
    """(engine.run(scenario), claims): every stage A selection and stage B
    plan the run made, in call order, captured by wrapping the two claim
    functions on the transport module, where the engine looks them up."""
    claims = []

    def capture(fn):
        def wrapper(*args, **kwargs):
            claims.append(fn(*args, **kwargs))
            return claims[-1]
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("select_local_samples", "weight_update"):
            mp.setattr(transport, name, capture(getattr(transport, name)))
        result = run(scenario)
    return result, claims


def _close(got, want, scale=0.0, what=""):
    """got equals want within RTOL of the larger of |want| and scale."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    tol = RTOL * max(float(np.abs(want).max(initial=0.0)), scale)
    err = float(np.abs(got - want).max(initial=0.0))
    assert err <= tol, f"{what}: {got!r} != {want!r}, off by {err:.3g} > {tol:.3g}"


def _same_side(got: bool, value: float, bound: float, scale: float, strict: bool):
    """got is (value < bound) or (value <= bound), unless value lies within
    RTOL * scale of the bound, where an ulp decides."""
    if abs(value - bound) > RTOL * scale:
        assert got == (value < bound if strict else value <= bound)


def greedy_fill(weights, keys, demand):
    """(indices, taken, exhausted): the live samples (weight > 0) in one
    stable sort by key, ties by index, each taken whole until the next
    would bring the running total to demand (within 1e-15), which is taken
    in part; all of them whole (exhausted) if they hold less."""
    live = np.flatnonzero(weights > 0)
    order = live[np.argsort(keys[live], kind="stable")]
    taken, total = [], 0.0
    for j in order.tolist():
        if total + weights[j] >= demand - 1e-15:
            taken.append(demand - total)
            return order[:len(taken)], np.array(taken), False
        taken.append(weights[j])
        total += weights[j]
    return order, np.array(taken), True


def qp_by_enumeration(D1, D2, Cu, Du):
    """argmin u'D1u + 2 D2 u over Cu u <= Du for a positive definite D1:
    the feasible point of least objective among the stationary points of
    the objective on the affine hull of each set of at most m linearly
    independent rows. The optimum is one of them: it is the stationary
    point of the hull of its own active rows."""
    m = D2.size
    best, best_u = math.inf, None
    for size in range(m + 1):
        for rows in itertools.combinations(range(Du.size), size):
            A = Cu[list(rows)]
            if size and np.linalg.matrix_rank(A) < size:
                continue
            kkt = np.block([[D1, A.T], [A, np.zeros((size, size))]])
            u = np.linalg.solve(kkt, np.r_[-D2, Du[list(rows)]])[:m]
            slack_scale = np.abs(Du) + np.abs(Cu) @ np.abs(u)
            if np.all(Cu @ u - Du <= RTOL * slack_scale):
                value = u @ D1 @ u + 2.0 * D2 @ u
                if value < best:
                    best, best_u = value, u
    return best_u


def _squared(points, centre):
    d = points - centre
    return (d * d).sum(axis=1)


class _Agent:
    def __init__(self, idx, sys, x0, budget, weights):
        self.idx, self.sys, self.budget = idx, sys, budget
        self.x = np.asarray(x0, dtype=float)
        self.y = sys.C @ self.x
        self.q_bar = self.y
        self.weights = weights.copy()
        self.active = True
        self.outputs, self.masses = [], []
        self.pending = []  # (taken, points, W^2 then, record) awaiting y^(k+P)


def _step(a, positions, alpha, rec, sel, plan):
    """Stage A, the dynamics step and stage B of one agent, checked against
    the engine's record and claims, then advanced on them."""
    sys = a.sys
    # stage A
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        keys = np.sqrt(_squared(positions, a.q_bar)) / a.weights
    idx, taken, exhausted = greedy_fill(a.weights, keys, alpha)
    assert np.array_equal(sel.indices, idx) and sel.exhausted == exhausted == rec.exhausted
    _close(sel.taken, taken, alpha, "stage A takes")
    points = positions[idx]
    _close(sel.mass_center, taken @ points / taken.sum(), 0.0, "mass centre")
    mass, q_bar = sel.total_mass, sel.mass_center

    # D1, D2, D3 and the unconstrained optimum
    G = sys.C @ np.linalg.matrix_power(sys.A, sys.P - 1) @ sys.B
    y_hat = sys.C @ np.linalg.matrix_power(sys.A, sys.P) @ a.x
    y = sys.C @ a.x
    D1 = mass * G.T @ G
    D2 = mass * (y_hat - q_bar) @ G
    D3 = mass * (y_hat @ y_hat - y @ y) - 2.0 * mass * q_bar @ (y_hat - y)
    d3_scale = mass * (y_hat @ y_hat + y @ y + 2.0 * np.abs(q_bar) @ (np.abs(y_hat) + np.abs(y)))
    gt = rec.gains
    _close(gt.D1, D1, 0.0, "D1")
    _close(gt.D2, D2, mass * np.abs(np.r_[y_hat, q_bar]).max() * np.abs(G).max(), "D2")
    _close(gt.D3, D3, d3_scale, "D3")
    D1_pinv = pseudo_inverse(D1)
    u_star = -D1_pinv @ D2
    _close(gt.u_star, u_star, 0.0, "u*")
    bounds = sys.input_bounds
    u_ref = u_star if bounds is None else qp_by_enumeration(D1, D2, bounds.Cu, bounds.Du)
    _close(rec.u, u_ref, np.abs(u_star).max(), "u")
    u = rec.u
    if bounds is None:
        assert not rec.input_constraint_active
    else:
        assert rec.input_constraint_active == bool(np.any(bounds.Du - bounds.Cu @ u <= 1e-9))
    dw_scale = abs(u @ D1 @ u) + 2.0 * abs(D2 @ u) + d3_scale
    _close(rec.delta_w_pred, u @ D1 @ u + 2.0 * D2 @ u + D3, dw_scale, "dW")
    rhs = D2 @ D1_pinv @ D2 - D3
    rhs_scale = abs(D2 @ D1_pinv @ D2) + d3_scale
    _close(gt.range_rhs, rhs, rhs_scale, "range rhs")
    v = u - u_star
    _same_side(rec.range_nonempty, -rhs, 0.0, rhs_scale, strict=False)
    if rec.range_nonempty:
        _same_side(rec.in_range, v @ D1 @ v, rhs, rhs_scale, strict=True)
    else:
        assert not rec.in_range
    w2_now = taken @ _squared(points, y)
    _close(rec.local_w, math.sqrt(w2_now), 0.0, "local W")

    # the dynamics step, with its clamp
    x_new = sys.A @ a.x + sys.B @ u
    violated = False
    if sys.state_bounds is not None:
        clamped = np.clip(x_new, sys.state_bounds[:, 0], sys.state_bounds[:, 1])
        violated, x_new = bool(np.any(clamped != x_new)), clamped
    assert rec.bound_violation == violated
    y_new = sys.C @ x_new
    _close(rec.y, y_new, 0.0, "y")

    # stage B
    idx, gammas, exhausted = greedy_fill(a.weights, _squared(positions, rec.y), mass)
    assert not exhausted or mass <= gammas.sum() + 1e-12
    if a.weights[idx[-1]] - gammas[-1] < WEIGHT_SNAP:
        gammas[-1] = a.weights[idx[-1]]
    assert np.array_equal(plan.indices, idx)
    _close(plan.gammas, gammas, mass, "stage B takes")

    a.weights[plan.indices] -= plan.gammas
    assert not np.any((a.weights > 0) & (a.weights < WEIGHT_SNAP))
    a.x, a.y, a.q_bar = x_new, rec.y, q_bar
    a.outputs.append(rec.y)
    a.masses.append(mass)
    a.pending.append((sel.taken, sel.points, w2_now, rec))
    if len(a.pending) == sys.P:  # the head's claim was made P steps before y_new
        taken_then, points_then, w2_then, rec_then = a.pending.pop(0)
        w2_later = taken_then @ _squared(points_then, rec.y)
        _close(rec_then.realized_delta_w, w2_later - w2_then, w2_later + w2_then,
               "realized dW")
    if sel.exhausted or len(a.outputs) >= a.budget:
        a.active = False


def check_run(scenario, result, claims):
    """Assert that result, engine.run(scenario), and the claims it made
    (run_with_claims) follow the paper's loop, step by step."""
    cloud = scenario.cloud
    positions = cloud.positions
    alpha = 1.0 / sum(scenario.budgets)
    assert result.alpha == alpha
    agents = [_Agent(i, sys, x0, m, cloud.weights)
              for i, (sys, x0, m) in enumerate(zip(scenario.systems,
                                                   scenario.initial_states,
                                                   scenario.budgets))]
    records, claims, global_w = iter(result.records), iter(claims), iter(result.global_w)
    for k in range(1, max(scenario.budgets) + 1):
        step_records = []
        for a in [a for a in agents if a.active]:
            rec = next(records)
            assert (rec.agent, rec.k) == (a.idx, k)
            _step(a, positions, alpha, rec, next(claims), next(claims))
            step_records.append(rec)

        # stage C: the min rule, pair by pair
        views = [a.weights for a in agents]
        unclaimed = float(np.minimum.reduce(views).sum())
        count = 0
        for r, s in itertools.combinations(range(len(agents)), 2):
            d = scenario.comm.d_comm
            if d is None or np.linalg.norm(agents[r].y - agents[s].y) <= d:
                views[r][:] = views[s][:] = np.minimum(views[r], views[s])
                count += 1
        assert all(rec.comm_events == count for rec in step_records)

        done = unclaimed <= REMAINING_MASS_EPS or not any(a.active for a in agents)
        if k % scenario.global_w_interval == 0 or done:
            _check_w2(next(global_w), k, agents, cloud, scenario.global_w_cap)
        if done:
            break
    for rest in (records, claims, global_w):
        assert next(rest, None) is None
    for a, traj, masses in zip(agents, result.trajectories, result.trajectory_masses):
        assert np.array_equal(traj, np.vstack(a.outputs))
        assert np.array_equal(masses, a.masses)
        assert all(rec.realized_delta_w is None for *_, rec in a.pending)


def _check_w2(entry, k, agents, cloud, cap):
    pts, wa, sub_a = _reduce_cloud(np.vstack([p for a in agents for p in a.outputs]),
                                   np.concatenate([a.masses for a in agents]), cap)
    ref, wb, sub_b = _reduce_cloud(cloud.positions, cloud.weights, cap)
    cost = np.array([_squared(ref, p) for p in pts])
    wb = wb * (wa.sum() / wb.sum())
    plan = _transport_lp(wa, wb, cost)
    total = float(np.sum(plan * cost))
    got_k, w2, subsampled = entry
    assert (got_k, subsampled) == (k, sub_a or sub_b)
    # HiGHS meets the marginals within its 1e-10 tolerance, not exactly: a
    # plan off them by some mass may cost that mass times the largest cost
    # more or less than the optimum
    off = np.abs(plan.sum(axis=1) - wa).sum() + np.abs(plan.sum(axis=0) - wb).sum()
    assert abs(w2 * w2 - total) <= RTOL * total + off * cost.max(), ("W2^2", w2 * w2, total)

"""Per-step orchestration of the three control stages for all agents.

One serial loop: each step runs, for every active agent in index order,
stage A (local sample-point selection, optimal input, convergence check),
one dynamics step, and stage B (the greedy weight update at the new
position); then stage C, one min-rule synchronization round over all
agents. The global 2-Wasserstein distance between the accumulated
trajectory cloud and the original reference is evaluated every K steps.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import controller, coordination, dynamics, transport
from .coordination import CommConfig
from .distribution import SampleCloud, agent_alpha, snap_small_weights
from .dynamics import LtiSystem
from .errors import InputError

REMAINING_MASS_EPS = 1e-9


@dataclass(frozen=True)
class Scenario:
    """Everything needed for one deterministic run."""

    systems: list[LtiSystem]          # one per agent
    initial_states: list[np.ndarray]  # (n_r,) each
    budgets: list[int]                # steps per agent
    cloud: SampleCloud
    comm: CommConfig = CommConfig()
    input_constraints: tuple[np.ndarray, np.ndarray] | None = None
    global_w_interval: int = 50
    global_w_cap: int = 500
    seed: int = 0

    def __post_init__(self):
        if not (len(self.systems) == len(self.initial_states) == len(self.budgets)):
            raise InputError("systems, initial_states, budgets must align")
        if not self.systems:
            raise InputError("need at least one agent")
        if any(m < 1 for m in self.budgets):
            raise InputError("budgets must be >= 1")
        if self.global_w_interval < 1:
            raise InputError("global_w_interval must be >= 1")
        for sys, x0 in zip(self.systems, self.initial_states):
            if np.asarray(x0, dtype=float).shape != (sys.n,):
                raise InputError("initial state dimension mismatch")
            if sys.p != 2:
                raise InputError("outputs must be planar (p = 2)")


@dataclass
class StepRecord:
    agent: int
    k: int
    y: np.ndarray
    u: np.ndarray
    u_unconstrained: np.ndarray
    gains: controller.GainTerms
    delta_w_pred: float
    delta_w_unconstrained: float
    local_w: float
    in_range: bool
    range_nonempty: bool
    bound_violation: bool
    input_constraint_active: bool
    exhausted: bool
    comm_events: int = 0
    comm_sim_ms: float = 0.0
    stage_a_ms: float = 0.0
    stage_b_ms: float = 0.0
    stage_c_ms: float = 0.0
    realized_delta_w: float | None = None


@dataclass
class RunResult:
    records: list[StepRecord]
    trajectories: list[np.ndarray]           # per agent, rows y^1..y^K (k >= 1)
    trajectory_masses: list[np.ndarray]      # per agent-point mass (exhaustion-aware)
    global_w: list[tuple[int, float, bool]]  # (k, W2, subsampled)
    alpha: float


class _AgentCtx:
    def __init__(self, idx: int, sys: LtiSystem, x0, budget: int,
                 weights: np.ndarray, alpha: float, cloud_positions: np.ndarray,
                 constraints: tuple[np.ndarray, np.ndarray] | None):
        self.idx = idx
        self.sys = sys
        self.constraints = constraints
        self.cloud_positions = cloud_positions
        self.x = np.asarray(x0, dtype=float).copy()
        self.budget = budget
        self.weights = weights
        self.alpha = alpha
        self.y = dynamics.output(sys, self.x)
        self.q_bar = self.y.copy()  # previous-step mass center, starts at y^0
        self.active = True
        self.steps_done = 0
        self.masses: list[float] = []
        # (k, selection, W^2 at selection time) awaiting the P-step lookahead
        self.pending: deque = deque()
        self.outputs: list[np.ndarray] = [self.y.copy()]  # y^0, y^1, ...


def _agent_step(ctx: _AgentCtx, k: int) -> StepRecord | None:
    """Stage A + dynamics step + Stage B for one agent. Returns None when
    the agent's view of the cloud is already empty (agent deactivates)."""
    t0 = time.perf_counter()
    remaining = ctx.weights.sum()
    if remaining <= REMAINING_MASS_EPS:
        ctx.active = False
        return None
    positions = ctx.cloud_positions
    selection = transport.select_local_samples(ctx.weights, positions, ctx.q_bar, ctx.alpha)
    alpha_used = selection.total_mass
    gt = controller.gain_terms(ctx.sys, ctx.x, selection.mass_center, alpha_used)
    u_unc = controller.optimal_input_unconstrained(gt)
    if ctx.constraints is not None:
        u = controller.optimal_input_constrained(gt, *ctx.constraints)
        slack = ctx.constraints[1] - ctx.constraints[0] @ u
        constraint_active = bool(np.any(slack <= 1e-9))
    else:
        u = u_unc
        constraint_active = False
    dw = controller.delta_w(gt, u)
    dw_unc = controller.delta_w(gt, u_unc)
    in_range, nonempty = controller.convergence_check(gt, u)
    local_w = transport.local_wasserstein(selection, ctx.y)
    stage_a_ms = (time.perf_counter() - t0) * 1e3

    x_new, violated = dynamics.step_events(ctx.sys, ctx.x, u)
    y_new = dynamics.output(ctx.sys, x_new)

    t1 = time.perf_counter()
    plan = transport.weight_update(positions, ctx.weights, y_new,
                                   min(alpha_used, ctx.weights.sum()))
    ctx.weights -= plan.gammas
    snap_small_weights(ctx.weights)
    stage_b_ms = (time.perf_counter() - t1) * 1e3

    ctx.x = x_new
    ctx.y = y_new
    ctx.q_bar = selection.mass_center
    ctx.steps_done += 1
    ctx.masses.append(alpha_used)
    ctx.outputs.append(y_new.copy())

    record = StepRecord(
        agent=ctx.idx, k=k, y=y_new, u=np.asarray(u, dtype=float),
        u_unconstrained=np.asarray(u_unc, dtype=float), gains=gt,
        delta_w_pred=dw, delta_w_unconstrained=dw_unc, local_w=local_w,
        in_range=in_range, range_nonempty=nonempty,
        bound_violation=violated, input_constraint_active=constraint_active,
        exhausted=selection.exhausted,
        stage_a_ms=stage_a_ms, stage_b_ms=stage_b_ms,
    )
    ctx.pending.append((k, selection, local_w ** 2, record))
    # resolve lookaheads that are now P steps old
    while ctx.pending and ctx.pending[0][0] - 1 + ctx.sys.P <= ctx.steps_done:
        k0, sel, w2_then, rec = ctx.pending.popleft()
        # steps are 1-indexed while outputs[0] is the initial output
        y_ahead = ctx.outputs[k0 - 1 + ctx.sys.P]
        d2 = np.sum((sel.points - y_ahead) ** 2, axis=1)
        rec.realized_delta_w = float(sel.taken @ d2) - w2_then

    if selection.exhausted or ctx.steps_done >= ctx.budget:
        ctx.active = False
    return record


def run(scenario: Scenario) -> RunResult:
    """Execute a full scenario. Deterministic given the scenario seed."""
    cloud = scenario.cloud
    alpha = agent_alpha(scenario.budgets)
    agents = []
    for i, (sys, x0, m) in enumerate(zip(scenario.systems, scenario.initial_states,
                                         scenario.budgets)):
        cons = (scenario.input_constraints if scenario.input_constraints is not None
                else sys.input_bounds)
        agents.append(_AgentCtx(i, sys, x0, m, cloud.weights.copy(), alpha,
                                cloud.positions, cons))
    rng = np.random.default_rng(scenario.seed)

    records: list[StepRecord] = []
    global_w: list[tuple[int, float, bool]] = []
    max_k = max(scenario.budgets)
    for k in range(1, max_k + 1):
        live = [a for a in agents if a.active]
        if not live:
            break
        step_records = [r for r in (_agent_step(a, k) for a in live)
                        if r is not None]

        t2 = time.perf_counter()
        count, sim_ms = coordination.sync_round(
            [a.weights for a in agents], [a.y for a in agents],
            scenario.comm, rng)
        for a in agents:
            snap_small_weights(a.weights)
        stage_c_ms = (time.perf_counter() - t2) * 1e3
        for rec in step_records:
            rec.comm_events = count
            rec.comm_sim_ms = sim_ms
            rec.stage_c_ms = stage_c_ms
        records.extend(step_records)

        shared_remaining = np.minimum.reduce([a.weights for a in agents]).sum()
        done = shared_remaining < REMAINING_MASS_EPS or not any(a.active for a in agents)
        if (k % scenario.global_w_interval == 0 or done or k == max_k) and step_records:
            pts = np.vstack([p for a in agents for p in a.outputs[1:]])
            masses = np.concatenate([np.asarray(a.masses) for a in agents])
            w2, sub = transport.global_wasserstein(
                pts, masses, cloud.positions, cloud.weights,
                cap=scenario.global_w_cap)
            global_w.append((k, w2, sub))
        if done:
            break

    trajectories = [np.vstack(a.outputs[1:]) if a.steps_done else np.empty((0, 2))
                    for a in agents]
    masses = [np.asarray(a.masses) for a in agents]
    return RunResult(records=records, trajectories=trajectories,
                     trajectory_masses=masses, global_w=global_w, alpha=alpha)


def replay_metrics(records: list[StepRecord],
                   global_w: list[tuple[int, float, bool]] | None = None) -> dict:
    """Deterministic aggregation of a run's step records.

    Returns the fraction of steps with a negative predicted change, the
    fraction of nonincreasing consecutive global-W pairs, and per-stage
    timing means.
    """
    if not records:
        raise InputError("no records to summarize")
    n = len(records)
    summary = {
        "steps": n,
        "frac_delta_w_negative": sum(r.delta_w_pred < 0 for r in records) / n,
        "mean_stage_a_ms": sum(r.stage_a_ms for r in records) / n,
        "mean_stage_b_ms": sum(r.stage_b_ms for r in records) / n,
        "mean_stage_c_ms": sum(r.stage_c_ms for r in records) / n,
        "total_comm_events": sum(r.comm_events for r in records),
    }
    if global_w is not None and len(global_w) >= 2:
        values = [w for _, w, _ in global_w]
        drops = sum(b <= a for a, b in zip(values, values[1:]))
        summary["global_w_monotone_frac"] = drops / (len(values) - 1)
    elif global_w is not None:
        summary["global_w_monotone_frac"] = 1.0
    return summary

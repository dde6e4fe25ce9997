"""Per-step orchestration of the three control stages for all agents.

One serial loop: each step runs, for every active agent in index order,
stage A (local sample-point selection, optimal input, convergence check),
one dynamics step, and stage B (the greedy weight update at the new
position); then stage C, one min-rule synchronization round over all
agents, which also reports the mass no agent has claimed. The global
2-Wasserstein distance between the accumulated trajectory cloud and the
original reference is evaluated every K steps. A run draws no random
numbers.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import controller, coordination, dynamics, linalg, transport
from .coordination import CommConfig
from .distribution import SampleCloud, agent_alpha
from .dynamics import LtiSystem
from .errors import InputError, check_count, check_points

REMAINING_MASS_EPS = 1e-9


@dataclass(frozen=True)
class Scenario:
    """Everything needed for one deterministic run. An agent's input set is
    its system's `input_bounds` (None: unconstrained). Construction is the
    one check of each agent's initial_state length and budget M, of the
    total budget, whose inverse is the claim size, and of each initial
    output C x0 and its P-step prediction C A^P x0 lying with the reference
    positions in a box of finite squared diagonal (errors.check_points), so
    no W2 or first-step gain cost overflows."""

    systems: list[LtiSystem]          # one per agent
    initial_states: list[np.ndarray]  # (n_r,) each
    budgets: list[int]                # steps per agent
    cloud: SampleCloud
    comm: CommConfig = CommConfig()
    global_w_interval: int = 50
    global_w_cap: int = linalg.TRANSPORT_SIZE_CAP

    def __post_init__(self):
        if not (len(self.systems) == len(self.initial_states) == len(self.budgets)):
            raise InputError("systems, initial_states, budgets must align")
        if not self.systems:
            raise InputError("need at least one agent")
        check_count(self.global_w_interval, "global_w_interval", 1)
        check_count(self.global_w_cap, "global_w_cap", 1)
        if self.global_w_cap > linalg.TRANSPORT_SIZE_CAP:
            raise InputError(f"global_w_cap must be in 1..{linalg.TRANSPORT_SIZE_CAP}")
        positions = self.cloud.positions
        box = np.vstack([positions.min(axis=0), positions.max(axis=0)])
        for i, (sys, x0, m) in enumerate(zip(self.systems, self.initial_states,
                                             self.budgets)):
            check_count(m, f"agents[{i}]: M", 1)
            shape = np.shape(x0)
            if shape != (sys.n,):
                raise InputError(f"agents[{i}]: initial_state has shape {shape}, "
                                 f"its system needs ({sys.n},)")
            if sys.p != 2:
                raise InputError(f"agents[{i}]: outputs must be planar (p = 2)")
            with np.errstate(over="ignore", invalid="ignore"):  # check_points names inf
                y0 = dynamics.output(sys, x0)
                y_p = sys.CA_p @ x0  # squared by the first step's gain terms
            check_points(np.vstack([box, y0, y_p]), f"agents[{i}]: the initial output "
                         "C x0, its P-step prediction C A^P x0 and the reference positions")
        if sum(self.budgets) > float(np.finfo(float).max):
            raise InputError("the total budget, the sum of every agent's M, must be at "
                             "most 1.8e308, so that the claim size 1 / total is a float")


@dataclass
class StepRecord:
    agent: int
    k: int
    y: np.ndarray
    u: np.ndarray
    gains: controller.GainTerms  # gains.u_star is the unconstrained optimum
    delta_w_pred: float
    local_w: float
    in_range: bool
    range_nonempty: bool
    bound_violation: bool
    input_constraint_active: bool
    exhausted: bool
    comm_events: int = 0
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
                 weights: np.ndarray, alpha: float, grid: transport.CloudGrid,
                 w_max: float):
        self.idx = idx
        self.sys = sys
        self.grid = grid
        self.w_max = w_max  # the cloud's largest weight: no view's weight grows
        self.x = np.asarray(x0, dtype=float).copy()
        self.budget = budget
        self.weights = weights
        self.alpha = alpha
        self.y = dynamics.output(sys, self.x)
        self.q_bar = self.y.copy()  # previous-step mass center, starts at y^0
        self.block = ()  # the grid block that served the previous selection
        self.active = True
        self.masses: list[float] = []
        # (selection, W^2 at selection time, record) of the last steps, up
        # to P, awaiting the P-step lookahead
        self.pending: deque = deque()
        self.outputs: list[np.ndarray] = []  # y^1, y^2, ...


def _agent_step(ctx: _AgentCtx, k: int, unclaimed: float) -> StepRecord:
    """Stage A + dynamics step + Stage B for one active agent.

    The agent's view of the cloud is never empty here. Stage C leaves
    every view at or above the elementwise minimum of all views, and float
    summation is monotone, so the view holds at least the unclaimed mass,
    which exceeds REMAINING_MASS_EPS while the run goes on (run's `done`).
    Both claims take that mass as their lower bound on the view's. Stage
    A first tries the grid block that served the previous selection, which
    holds its centre q_bar, and stage B the one that served stage A.
    """
    t0 = time.perf_counter()
    selection = transport.select_local_samples(ctx.weights, ctx.grid, ctx.q_bar, ctx.alpha,
                                               mass=unclaimed, w_max=ctx.w_max,
                                               block=ctx.block)
    alpha_used = selection.total_mass
    gt = controller.gain_terms(ctx.sys, ctx.x, selection.mass_center, alpha_used)
    bounds = ctx.sys.input_bounds
    if bounds is not None:
        u = controller.optimal_input_constrained(gt, bounds)
        slack = bounds.Du - bounds.Cu @ u
        constraint_active = bool(np.any(slack <= 1e-9))
    else:
        u = controller.optimal_input_unconstrained(gt)
        constraint_active = False
    dw = controller.delta_w(gt, u)
    in_range, nonempty = controller.convergence_check(gt, u)
    local_w = transport.local_wasserstein(selection, ctx.y)
    stage_a_ms = (time.perf_counter() - t0) * 1e3

    x_new, violated = dynamics.step_events(ctx.sys, ctx.x, u)
    y_new = dynamics.output(ctx.sys, x_new)

    t1 = time.perf_counter()
    # alpha_used is a sum of this view's live weights: it exceeds their
    # total by ulps at most, and then every live weight is taken whole
    plan = transport.weight_update(ctx.grid, ctx.weights, y_new, alpha_used,
                                   mass=unclaimed, block=selection.block)
    ctx.weights[plan.indices] -= plan.gammas
    stage_b_ms = (time.perf_counter() - t1) * 1e3

    ctx.x = x_new
    ctx.y = y_new
    ctx.q_bar = selection.mass_center
    ctx.block = selection.block
    ctx.masses.append(alpha_used)
    ctx.outputs.append(y_new)

    record = StepRecord(
        agent=ctx.idx, k=k, y=y_new, u=np.asarray(u, dtype=float), gains=gt,
        delta_w_pred=dw, local_w=local_w,
        in_range=in_range, range_nonempty=nonempty,
        bound_violation=violated, input_constraint_active=constraint_active,
        exhausted=selection.exhausted,
        stage_a_ms=stage_a_ms, stage_b_ms=stage_b_ms,
    )
    ctx.pending.append((selection, local_w ** 2, record))
    if len(ctx.pending) == ctx.sys.P:
        # the head's selection was made P steps before y_new
        sel, w2_then, rec = ctx.pending.popleft()
        d2 = transport._squared_distances(sel.points, y_new)
        rec.realized_delta_w = float(sel.taken @ d2) - w2_then

    if selection.exhausted or len(ctx.outputs) >= ctx.budget:
        ctx.active = False
    return record


def run(scenario: Scenario) -> RunResult:
    """Execute a full scenario. Deterministic: the scenario fixes every
    input, and the run draws no random numbers."""
    cloud = scenario.cloud
    alpha = agent_alpha(scenario.budgets)
    # the positions never move during a run: bucketed once into a grid,
    # so each claim ranks the cells about its centre, with the bits of
    # ranking the whole cloud
    grid = transport.CloudGrid(cloud.positions)
    w_max = float(cloud.weights.max())
    agents = [_AgentCtx(i, sys, x0, m, cloud.weights.copy(), alpha, grid, w_max)
              for i, (sys, x0, m) in enumerate(zip(scenario.systems,
                                                   scenario.initial_states,
                                                   scenario.budgets))]
    unclaimed = float(cloud.weights.sum())  # every view is the cloud at k = 1

    records: list[StepRecord] = []
    global_w: list[tuple[int, float, bool]] = []
    for k in range(1, max(scenario.budgets) + 1):
        live = [a for a in agents if a.active]  # nonempty: `done` ends the loop first
        step_records = [_agent_step(a, k, unclaimed) for a in live]

        t2 = time.perf_counter()
        # stage B leaves each weight 0 or >= WEIGHT_SNAP; minima keep that
        count, unclaimed = coordination.sync_round(
            [a.weights for a in agents], [a.y for a in agents], scenario.comm)
        stage_c_ms = (time.perf_counter() - t2) * 1e3
        for rec in step_records:
            rec.comm_events = count
            rec.stage_c_ms = stage_c_ms
        records.extend(step_records)

        done = unclaimed <= REMAINING_MASS_EPS or not any(a.active for a in agents)
        if k % scenario.global_w_interval == 0 or done:
            pts = np.vstack([p for a in agents for p in a.outputs])
            masses = np.concatenate([np.asarray(a.masses) for a in agents])
            w2, sub = transport.global_wasserstein(
                pts, masses, cloud.positions, cloud.weights,
                cap=scenario.global_w_cap)
            global_w.append((k, w2, sub))
        if done:
            break

    trajectories = [np.vstack(a.outputs) for a in agents]  # every agent steps at k = 1
    masses = [np.asarray(a.masses) for a in agents]
    return RunResult(records=records, trajectories=trajectories,
                     trajectory_masses=masses, global_w=global_w, alpha=alpha)


"""Acceptance gate: one test per release criterion.

Each test prints a single pass/fail line (bypassing capture) so the
outcome of every criterion is visible in the plain pytest log. Property
criteria use independent oracles (direct simulation, perturbation search,
exact LP embedding, vertex enumeration); the desk runs use the frozen
scenario files under scenarios/.
"""

import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from dpcover import cli
from dpcover.controller import (convergence_check, delta_w, gain_terms,
                                optimal_input_constrained,
                                optimal_input_unconstrained)
from dpcover.distribution import MixtureSpec, sample_mixture
from dpcover.dynamics import LtiSystem, make_preset
from dpcover.engine import Scenario, run
from dpcover.linalg import TransportProblem, solve_transport_exact
from dpcover.scenario import build_scenario, load_scenario
from dpcover.transport import weight_update

from conftest import first_order_doc, integrator_chain
from test_controller import random_selection, simulate_delta_w
from test_linalg import enumerate_transport_optimum, random_balanced, w2

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def announce(capsys):
    def _line(number, detail):
        with capsys.disabled():
            print(f"\ncriterion {number:2d}: PASS  {detail}")
    return _line


def double_integrator(dt=0.1):
    block = np.array([[1.0, dt], [0.0, 1.0]])
    A = np.kron(np.eye(2), block)
    B = np.kron(np.eye(2), np.array([[0.0], [dt]]))
    C = np.kron(np.eye(2), np.array([[1.0, 0.0]]))
    return LtiSystem(A=A, B=B, C=C, dt=dt)


# --------------------------------------------------------------- criterion 1

def test_criterion_01_relative_degrees(announce):
    got = (make_preset("first_order", 0.1).P,
           double_integrator().P,
           make_preset("planar_quadrotor", 0.1).P)
    assert got == (1, 2, 4)
    announce(1, f"relative degrees {got} for the three reference systems")


# --------------------------------------------------------------- criterion 2

def test_criterion_02_quadratic_identity(rng, announce):
    """Quadratic gain form vs direct P-step simulation, 1000 instances."""
    worst = 0.0
    for _ in range(1000):
        depth = int(rng.integers(1, 5))
        sys = integrator_chain(depth, 2, 0.1, rng)
        x = rng.normal(size=sys.n) * 2.0
        sel = random_selection(rng, int(rng.integers(1, 10)))
        gt = gain_terms(sys, x, sel.mass_center, sel.total_mass)
        u = rng.normal(size=sys.m) * 3.0
        want = simulate_delta_w(sys, x, sel, u)
        got = delta_w(gt, u)
        err = abs(got - want) / max(1.0, abs(want))
        worst = max(worst, err)
        assert err <= 1e-8
    announce(2, f"1000 instances, worst relative gap {worst:.2e}")


# --------------------------------------------------------------- criterion 3

def test_criterion_03_optimality(rng, announce):
    """No perturbation of the optimal input may lower the predicted change;
    along flat directions of a rank-deficient Hessian the value is flat."""
    flat_cases = 0
    for trial in range(1000):
        if trial % 10 == 0:
            # only one input direction reaches the output: C B has rank 1
            # while B and C individually stay full rank
            b1, b2, c1, c3 = rng.uniform(0.5, 2.0, size=4)
            B = np.array([[b1, 0.0], [0.0, b2], [0.0, 0.0]])
            C = np.array([[c1, 0.0, 0.0], [0.0, 0.0, c3]])
            sys = LtiSystem(A=np.eye(3), B=B, C=C, dt=0.1)
        else:
            depth = int(rng.integers(1, 4))
            sys = integrator_chain(depth, 2, 0.1, rng)
        x = rng.normal(size=sys.n) * 2.0
        sel = random_selection(rng, int(rng.integers(1, 8)))
        gt = gain_terms(sys, x, sel.mass_center, sel.total_mass)
        u_star = optimal_input_unconstrained(gt)
        best = delta_w(gt, u_star)
        deltas = rng.normal(size=(100, sys.m)) * rng.uniform(1e-3, 2.0)
        for d in deltas:
            assert delta_w(gt, u_star + d) >= best - 1e-10
        rank = np.linalg.matrix_rank(gt.D1, tol=1e-10)
        if rank < sys.m:
            flat_cases += 1
            _, _, vt = np.linalg.svd(gt.D1)
            for v in vt[rank:]:
                shifted = delta_w(gt, u_star + 5.0 * v)
                assert abs(shifted - best) <= 1e-9
    assert flat_cases >= 50
    announce(3, f"1000 instances x 100 perturbations, {flat_cases} flat cases")


# --------------------------------------------------------------- criterion 4

def test_criterion_04_range_equivalence(rng, announce):
    """Membership in the convergence range must match the sign of the
    predicted change everywhere outside a 1e-10 boundary band."""
    checked = 0
    while checked < 10000:
        depth = int(rng.integers(1, 4))
        sys = integrator_chain(depth, 2, 0.1, rng)
        x = rng.normal(size=sys.n) * 2.0
        sel = random_selection(rng, int(rng.integers(1, 8)))
        gt = gain_terms(sys, x, sel.mass_center, sel.total_mass)
        for u in rng.normal(size=(25, sys.m)) * rng.uniform(0.1, 5.0):
            dw = delta_w(gt, u)
            if abs(dw) <= 1e-10:
                continue
            inside, _ = convergence_check(gt, u)
            assert inside == (dw < 0.0)
            checked += 1
    announce(4, f"{checked} (gains, input) pairs, zero disagreements")


# --------------------------------------------------------------- criterion 5

def test_criterion_05_greedy_matches_lp(rng, announce):
    """Greedy weight update vs exact transport LP with a zero-cost slack
    demand column, plus the mass-balance constraints, 500 instances."""
    for _ in range(500):
        n = int(rng.integers(1, 9))
        positions = rng.uniform(-4, 4, size=(n, 2))
        weights = rng.random(n) / n + 1e-3
        y = rng.uniform(-4, 4, 2)
        alpha = float(rng.uniform(0.05, 0.95)) * weights.sum()
        plan = weight_update(positions, weights, y, alpha)
        assert plan.gammas.sum() == pytest.approx(alpha, abs=1e-12)
        assert np.all(plan.gammas >= 0.0)
        assert np.all(plan.gammas <= weights + 1e-12)
        d = np.sum((positions - y) ** 2, axis=1)
        cost = np.column_stack([d, np.zeros(n)])
        demand = np.array([alpha, weights.sum() - alpha])
        _, lp_cost = solve_transport_exact(TransportProblem(weights, demand, cost))
        assert float(plan.gammas @ d) == pytest.approx(lp_cost, abs=1e-9)
    announce(5, "500 instances, greedy cost equals LP optimum within 1e-9")


# --------------------------------------------------------------- criterion 6

def test_criterion_06_first_order_desk_run(announce):
    scenario = load_scenario(SCENARIO_DIR / "first_order_desk.json")
    result = run(scenario)
    assert result.records
    assert all(r.delta_w_pred < 0.0 for r in result.records)
    series = [(k, w) for k, w, _ in result.global_w]
    tail = [w for k, w in series if k >= 50]
    assert len(tail) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    ratio = series[-1][1] / series[0][1]
    assert ratio <= 0.15
    announce(6, f"all steps improving, final/initial W2 = {ratio:.4f}")


# --------------------------------------------------------------- criterion 7

def test_criterion_07_constrained_ordering(announce):
    doc = json.loads((SCENARIO_DIR / "first_order_desk.json").read_text())
    for agent in doc["agents"]:
        agent["M"] = 200
    doc["input_constraints"] = {"u_max": 1.0}
    doc["global_w_interval"] = 10 ** 6
    scenario = build_scenario(doc, base_dir=SCENARIO_DIR)
    result = run(scenario)
    assert result.records
    binding = 0
    for r in result.records:
        assert r.delta_w_pred >= r.delta_w_unconstrained - 1e-10
        if r.delta_w_pred > r.delta_w_unconstrained + 1e-10:
            binding += 1
    assert binding > 0  # the bound must actually bite somewhere
    announce(7, f"{len(result.records)} steps ordered, bound active at {binding}")


# --------------------------------------------------------------- criterion 8

def test_criterion_08_quadrotor_windows(announce):
    scenario = load_scenario(SCENARIO_DIR / "quadrotor_desk.json")
    result = run(scenario)
    P = scenario.systems[0].P
    assert P == 4
    windows = [r for r in result.records if r.realized_delta_w is not None]
    assert windows
    good = sum(r.realized_delta_w < 0.0 for r in windows)
    frac = good / len(windows)
    assert frac >= 0.90
    by_agent = {}
    for r in result.records:
        by_agent.setdefault(r.agent, {})[r.k] = r
    unflagged = 0
    for r in windows:
        if r.realized_delta_w < 0.0:
            continue
        steps = by_agent[r.agent]
        flagged = any(steps[k].bound_violation or steps[k].input_constraint_active
                      for k in range(r.k, r.k + P) if k in steps)
        unflagged += not flagged
    assert unflagged == 0
    announce(8, f"{frac:.4f} of {len(windows)} windows decrease; "
                "every violation carries a flag")


# --------------------------------------------------------------- criterion 9

def test_criterion_09_metric_axioms_and_oracle(rng, announce):
    """Distance axioms on random clouds plus agreement with the
    vertex-enumeration transport oracle; 1000 trials, zero failures."""
    trials = 0
    for _ in range(200):
        na, nb, nc = rng.integers(1, 6, size=3)
        pa, wa = rng.uniform(-3, 3, (na, 2)), np.full(na, 1.0 / na)
        pb, wb = rng.uniform(-3, 3, (nb, 2)), np.full(nb, 1.0 / nb)
        pc, wc = rng.uniform(-3, 3, (nc, 2)), np.full(nc, 1.0 / nc)
        ab, ba = w2(pa, wa, pb, wb), w2(pb, wb, pa, wa)
        assert ab >= 0.0
        assert abs(ab - ba) <= 1e-9
        assert w2(pa, wa, pa, wa) <= 1e-9
        assert ab <= w2(pa, wa, pc, wc) + w2(pc, wc, pb, wb) + 1e-9
        trials += 3
    for _ in range(400):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        s, d, cost = random_balanced(rng, m, n)
        _, got = solve_transport_exact(TransportProblem(s, d, cost))
        want = enumerate_transport_optimum(s, d, cost)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
        trials += 1
    assert trials >= 1000
    announce(9, f"{trials} trials (axioms + oracle agreement), zero failures")


# -------------------------------------------------------------- criterion 10

def _timing_scenario(n_agents, budget=60, n_samples=600):
    spec = MixtureSpec(
        components=(((25.0, 25.0), ((30.0, 0.0), (0.0, 30.0)), 1.0),),
        n_samples=n_samples, seed=5, domain=(0.0, 50.0, 0.0, 50.0))
    cloud = sample_mixture(spec)
    starts = np.random.default_rng(9).uniform(5, 45, size=(n_agents, 2))
    sys = make_preset("first_order", 0.1)
    return Scenario(systems=[sys] * n_agents,
                    initial_states=[s for s in starts],
                    budgets=[budget] * n_agents, cloud=cloud,
                    global_w_interval=10 ** 6, seed=3)


def test_criterion_10_scalability(announce):
    """Per-agent step cost must stay flat as the fleet grows at fixed N.
    Medians over records and a best-of-three repeat damp scheduler noise."""
    sizes = (1, 2, 4, 8)
    run(_timing_scenario(sizes[-1]))  # warmup: imports, caches, allocator
    cost = {}
    for n_agents in sizes:
        reps = []
        for _ in range(3):
            result = run(_timing_scenario(n_agents))
            per_step = [r.stage_a_ms + r.stage_b_ms for r in result.records]
            reps.append(float(np.median(per_step)))
            expected = n_agents * (n_agents - 1) // 2
            assert all(r.comm_events == expected for r in result.records)
        cost[n_agents] = min(reps)
    ratio = max(cost.values()) / min(cost.values())
    assert ratio <= 1.25
    announce(10, "stage A+B ms/agent-step "
             + str({k: round(v, 3) for k, v in cost.items()})
             + f", spread x{ratio:.3f}; exchanges L(L-1)/2 exact")


# -------------------------------------------------------------- criterion 11

def test_criterion_11_determinism(tmp_path, announce):
    doc = first_order_doc(n_agents=2, m_steps=12)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    csvs = ("trajectories.csv", "metrics.csv", "global_w.csv")
    kinds = ("trajectories", "deltaw", "ellipses", "globalw")
    outs = []
    for tag in ("a", "b", "c", "d"):
        out = tmp_path / tag
        assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        for kind in kinds:
            assert cli.main(["plot", "--out", str(out), "--kind", kind]) == 0
        outs.append(out)
    base = outs[0]
    for other in outs[1:]:
        for name in csvs + tuple(f"{k}.svg" for k in kinds):
            assert filecmp.cmp(base / name, other / name, shallow=False), name
    announce(11, "byte-identical CSVs and SVGs across four repeated runs")

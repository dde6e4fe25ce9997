"""Full step-loop orchestration: hand traces, determinism, mass ledger."""

import dataclasses

import numpy as np
import pytest

from dpcover.coordination import CommConfig
from dpcover.distribution import SampleCloud
from dpcover.dynamics import make_preset
from dpcover.engine import Scenario, StepRecord, replay_metrics, run
from dpcover.errors import InputError


def uniform_cloud(points):
    points = np.asarray(points, dtype=float)
    n = len(points)
    return SampleCloud(positions=points, weights=np.full(n, 1.0 / n))


def grid_cloud(side, lo=0.0, hi=10.0):
    xs = np.linspace(lo, hi, side)
    pts = np.array([[x, y] for x in xs for y in xs])
    return uniform_cloud(pts)


def first_order_scenario(n_agents=2, m_steps=30, cloud=None, **kw):
    cloud = cloud if cloud is not None else grid_cloud(7)
    sys = make_preset("first_order", 0.1)
    states = [np.array([1.0 + 2.0 * i, 1.0]) for i in range(n_agents)]
    return Scenario(systems=[sys] * n_agents, initial_states=states,
                    budgets=[m_steps] * n_agents, cloud=cloud, **kw)


# ------------------------------------------------------------------ hand trace

def test_single_step_single_point_trace():
    # one agent, one step, one sample-point: the optimal input lands the
    # agent exactly on the point and the full mass is transported
    q = np.array([4.0, 3.0])
    sc = Scenario(systems=[make_preset("first_order", 0.1)],
                  initial_states=[np.array([1.0, 1.0])],
                  budgets=[1], cloud=uniform_cloud([q]), seed=0)
    res = run(sc)
    assert len(res.records) == 1
    r = res.records[0]
    assert np.allclose(r.u, q - [1.0, 1.0], atol=1e-9)
    assert np.allclose(r.y, q, atol=1e-9)
    assert r.delta_w_pred == pytest.approx(-1.0 * np.sum((q - [1.0, 1.0]) ** 2),
                                           abs=1e-9)
    k, w2, sub = res.global_w[-1]
    assert w2 == pytest.approx(0.0, abs=1e-6)
    assert not sub


def test_run_completes_and_drains_mass():
    sc = first_order_scenario(n_agents=2, m_steps=40, seed=1)
    res = run(sc)
    assert res.alpha == pytest.approx(1.0 / 80)
    total_claimed = sum(m.sum() for m in res.trajectory_masses)
    assert total_claimed == pytest.approx(1.0, abs=1e-9)
    assert res.global_w[-1][1] < res.global_w[0][1] or len(res.global_w) == 1


# ----------------------------------------------------------------- determinism

def records_signature(res):
    return [(r.agent, r.k, tuple(r.y), tuple(r.u), r.delta_w_pred, r.local_w,
             r.in_range, r.bound_violation) for r in res.records]


def test_serial_rerun_identical():
    a = run(first_order_scenario(seed=3))
    b = run(first_order_scenario(seed=3))
    assert records_signature(a) == records_signature(b)
    assert a.global_w == b.global_w


# ----------------------------------------------------------------- mass ledger

def test_single_agent_mass_conservation():
    sc = first_order_scenario(n_agents=1, m_steps=25, seed=2)
    res = run(sc)
    # sum beta + k * alpha == 1 until exhaustion; reconstruct from masses
    claimed = np.cumsum(res.trajectory_masses[0])
    for k, total in enumerate(claimed, start=1):
        assert total == pytest.approx(k * res.alpha, abs=1e-9)
    assert claimed[-1] <= 1.0 + 1e-9


def test_weight_monotonicity_via_claims():
    res = run(first_order_scenario(n_agents=2, m_steps=20, seed=4))
    for masses in res.trajectory_masses:
        assert np.all(masses >= 0)
        assert np.all(masses <= res.alpha + 1e-12)


def test_budget_mass_ledger_balances():
    # total claim capacity sum(M_r) * alpha is exactly the unit pool, so a
    # run with disjoint claims drains everything at the budget boundary and
    # overlapping claims leave mass behind, but never the other way round
    cloud = grid_cloud(6)
    sys = make_preset("first_order", 0.1)
    apart = Scenario(systems=[sys, sys],
                     initial_states=[np.array([0.0, 0.0]), np.array([10.0, 10.0])],
                     budgets=[50, 50], cloud=cloud, seed=0)
    res = run(apart)
    assert len(res.records) <= 100
    assert sum(m.sum() for m in res.trajectory_masses) == pytest.approx(1.0, abs=1e-9)
    assert not any(r.exhausted for r in res.records)

    together = Scenario(systems=[sys, sys],
                        initial_states=[np.array([5.0, 5.0])] * 2,
                        budgets=[50, 50], cloud=cloud, seed=0)
    res2 = run(together)
    # overlapping claims can only slow the shared pool down
    assert sum(m.sum() for m in res2.trajectory_masses) <= 1.0 + 1e-9
    assert not any(r.exhausted for r in res2.records)


# ------------------------------------------------------ realized-change windows

def test_realized_matches_prediction_without_clamps():
    # first-order, unconstrained: prediction is exact, so every resolved
    # window must agree with the quadratic form
    res = run(first_order_scenario(n_agents=2, m_steps=30, seed=5))
    resolved = [r for r in res.records if r.realized_delta_w is not None]
    assert resolved
    for r in resolved:
        assert r.realized_delta_w == pytest.approx(r.delta_w_pred, abs=1e-10)
        assert not r.bound_violation


def test_unconstrained_first_order_strictly_decreases():
    res = run(first_order_scenario(n_agents=2, m_steps=30, seed=6))
    for r in res.records:
        assert r.delta_w_pred < 0
        assert r.in_range


# -------------------------------------------------------------- communication

def test_comm_events_per_step():
    res = run(first_order_scenario(n_agents=3, m_steps=5, seed=0))
    for r in res.records:
        assert r.comm_events == 3  # L(L-1)/2 with infinite range


def test_finite_comm_range_changes_nothing_when_apart():
    cloud = uniform_cloud([[0.0, 0.0], [100.0, 100.0]])
    sys = make_preset("first_order", 0.1)
    sc = Scenario(systems=[sys, sys],
                  initial_states=[np.zeros(2), np.array([100.0, 100.0])],
                  budgets=[1, 1], cloud=cloud,
                  comm=CommConfig(d_comm=1.0), seed=0)
    res = run(sc)
    assert all(r.comm_events == 0 for r in res.records)


# -------------------------------------------------------------- replay metrics

def fake_record(dw, **kw):
    base = dict(agent=0, k=1, y=np.zeros(2), u=np.zeros(2),
                u_unconstrained=np.zeros(2), gains=None,
                delta_w_pred=dw, delta_w_unconstrained=dw, local_w=1.0,
                in_range=dw < 0, range_nonempty=True, bound_violation=False,
                input_constraint_active=False, exhausted=False,
                comm_events=0, comm_sim_ms=0.0,
                stage_a_ms=1.0, stage_b_ms=1.0, stage_c_ms=1.0)
    base.update(kw)
    return StepRecord(**base)


def test_replay_metrics_all_negative():
    recs = [fake_record(-1.0) for _ in range(10)]
    assert replay_metrics(recs)["frac_delta_w_negative"] == 1.0


def test_replay_metrics_three_of_four():
    recs = [fake_record(v) for v in (-1.0, -0.5, 0.2, -2.0)]
    assert replay_metrics(recs)["frac_delta_w_negative"] == 0.75


def test_replay_metrics_monotone_series():
    recs = [fake_record(-1.0)]
    gw = [(10, 5.0, False), (20, 4.0, False), (30, 3.0, False)]
    assert replay_metrics(recs, gw)["global_w_monotone_frac"] == 1.0
    gw = [(10, 5.0, False), (20, 6.0, False), (30, 3.0, False)]
    assert replay_metrics(recs, gw)["global_w_monotone_frac"] == 0.5


def test_replay_metrics_empty_rejected():
    with pytest.raises(InputError):
        replay_metrics([])


# ------------------------------------------------------------------ validation

def test_scenario_alignment_checks():
    sys = make_preset("first_order", 0.1)
    cloud = grid_cloud(3)
    with pytest.raises(InputError):
        Scenario(systems=[sys], initial_states=[np.zeros(2), np.zeros(2)],
                 budgets=[5], cloud=cloud)
    with pytest.raises(InputError):
        Scenario(systems=[sys], initial_states=[np.zeros(3)], budgets=[5],
                 cloud=cloud)
    with pytest.raises(InputError):
        Scenario(systems=[sys], initial_states=[np.zeros(2)], budgets=[0],
                 cloud=cloud)

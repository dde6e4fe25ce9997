"""Full step-loop orchestration: hand traces, determinism, mass ledger."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcover import controller, coordination, dynamics, linalg, transport
from dpcover.coordination import CommConfig
from dpcover.distribution import SampleCloud
from dpcover.dynamics import make_preset
from dpcover.engine import Scenario, run
from dpcover.errors import DpcoverError, InputError
from dpcover.linalg import TRANSPORT_SIZE_CAP, InputPolytope
from dpcover.scenario import build_scenario

from conftest import integrator_chain
from reference_engine import check_run, run_with_claims

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def uniform_cloud(points):
    points = np.asarray(points, dtype=float)
    n = len(points)
    return SampleCloud(positions=points, weights=np.full(n, 1.0 / n))


def grid_cloud(side, lo=0.0, hi=10.0):
    xs = np.linspace(lo, hi, side)
    pts = np.array([[x, y] for x in xs for y in xs])
    return uniform_cloud(pts)


def first_order_scenario(n_agents=2, m_steps=30, cloud=None, input_bounds=None, **kw):
    cloud = cloud if cloud is not None else grid_cloud(7)
    sys = dataclasses.replace(make_preset("first_order", 0.1), input_bounds=input_bounds)
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
                  budgets=[1], cloud=uniform_cloud([q]))
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
    sc = first_order_scenario(n_agents=2, m_steps=40)
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
    a = run(first_order_scenario())
    b = run(first_order_scenario())
    assert records_signature(a) == records_signature(b)
    assert a.global_w == b.global_w


# ----------------------------------------------------------------- mass ledger

def test_single_agent_mass_conservation():
    sc = first_order_scenario(n_agents=1, m_steps=25)
    res = run(sc)
    # sum beta + k * alpha == 1 until exhaustion; reconstruct from masses
    claimed = np.cumsum(res.trajectory_masses[0])
    for k, total in enumerate(claimed, start=1):
        assert total == pytest.approx(k * res.alpha, abs=1e-9)
    assert claimed[-1] <= 1.0 + 1e-9


def test_weight_monotonicity_via_claims():
    res = run(first_order_scenario(n_agents=2, m_steps=20))
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
                     budgets=[50, 50], cloud=cloud)
    res = run(apart)
    assert len(res.records) <= 100
    assert sum(m.sum() for m in res.trajectory_masses) == pytest.approx(1.0, abs=1e-9)
    assert not any(r.exhausted for r in res.records)

    together = Scenario(systems=[sys, sys],
                        initial_states=[np.array([5.0, 5.0])] * 2,
                        budgets=[50, 50], cloud=cloud)
    res2 = run(together)
    # overlapping claims can only slow the shared pool down
    assert sum(m.sum() for m in res2.trajectory_masses) <= 1.0 + 1e-9
    assert not any(r.exhausted for r in res2.records)


# ------------------------------------------------------ realized-change windows

def test_realized_matches_prediction_without_clamps():
    # first-order, unconstrained: prediction is exact, so every resolved
    # window must agree with the quadratic form
    res = run(first_order_scenario(n_agents=2, m_steps=30))
    resolved = [r for r in res.records if r.realized_delta_w is not None]
    assert resolved
    for r in resolved:
        assert r.realized_delta_w == pytest.approx(r.delta_w_pred, abs=1e-10)
        assert not r.bound_violation


def cut_quadrotor_desk(budgets):
    doc = json.loads((SCENARIO_DIR / "quadrotor_desk.json").read_text())
    for agent, m_steps in zip(doc["agents"], budgets, strict=True):
        agent["M"] = m_steps
    doc["global_w_cap"] = 100  # one small final W2; the records do not read it
    return build_scenario(doc, base_dir=SCENARIO_DIR)


@pytest.mark.parametrize("P", [1, 4])
def test_lookahead_resolves_all_but_the_last_p_minus_1_steps(P):
    """Every active agent steps each round, and a step's realized change
    is resolved once the agent has taken P - 1 more steps."""
    if P == 1:
        scenario = dataclasses.replace(first_order_scenario(), budgets=[20, 30])
    else:
        scenario = cut_quadrotor_desk([30, 24])
    assert {sys.P for sys in scenario.systems} == {P}
    res = run(scenario)
    steps = [len(t) for t in res.trajectories]
    assert len(res.records) == sum(steps) == sum(scenario.budgets)
    for r in res.records:
        assert (r.realized_delta_w is not None) == (r.k <= steps[r.agent] - P + 1)


def test_unconstrained_first_order_strictly_decreases():
    res = run(first_order_scenario(n_agents=2, m_steps=30))
    for r in res.records:
        assert r.delta_w_pred < 0
        assert r.in_range


# -------------------------------------------------------------- communication

def test_comm_events_per_step():
    res = run(first_order_scenario(n_agents=3, m_steps=5))
    for r in res.records:
        assert r.comm_events == 3  # L(L-1)/2 with infinite range


def test_finite_comm_range_changes_nothing_when_apart():
    cloud = uniform_cloud([[0.0, 0.0], [100.0, 100.0]])
    sys = make_preset("first_order", 0.1)
    sc = Scenario(systems=[sys, sys],
                  initial_states=[np.zeros(2), np.array([100.0, 100.0])],
                  budgets=[1, 1], cloud=cloud,
                  comm=CommConfig(d_comm=1.0))
    res = run(sc)
    assert all(r.comm_events == 0 for r in res.records)


# -------------------------------------------------------------------- claims

def test_default_shaped_claims_rarely_rank_the_whole_cloud(monkeypatch):
    """On the default scenario's cloud (5975 samples, 3 agents), nearly every
    claim is settled inside its grid block: a grid that always fell back to
    the whole-cloud fill would pass every bit-identity test and lose its
    speed."""
    doc = json.loads((SCENARIO_DIR / "first_order_default.json").read_text())
    for agent in doc["agents"]:
        agent["M"] = 20
    scenario = build_scenario(doc, base_dir=SCENARIO_DIR)
    assert scenario.cloud.n_points >= transport.GRID_MIN_SAMPLES
    whole = []
    fill = transport._fill_nearest

    def counting(weights, keys, demand):
        whole.append(weights.size)
        return fill(weights, keys, demand)

    monkeypatch.setattr(transport, "_fill_nearest", counting)
    result = run(scenario)
    claims = 2 * len(result.records)  # a selection and an update per agent-step
    assert len(result.records) == 60
    assert len(whole) < 0.1 * claims


def test_a_grid_run_gathers_about_one_block_a_step_and_never_passes_over_a_view(
        monkeypatch):
    """On the default scenario's cloud, the engine hands each claim its
    bounds (the unclaimed mass, the cloud's largest weight) and a block to
    try first: a claim makes no whole-view sum or max, and the agent-steps
    gather at most 1.25 blocks each."""
    doc = json.loads((SCENARIO_DIR / "first_order_default.json").read_text())
    for agent in doc["agents"]:
        agent["M"] = 20
    scenario = build_scenario(doc, base_dir=SCENARIO_DIR)
    n = scenario.cloud.n_points
    assert n >= transport.GRID_MIN_SAMPLES
    gathers, passes = [], []
    block = transport.CloudGrid.block

    def counting_block(self, *args):
        gathers.append(args)
        return block(self, *args)

    class View(np.ndarray):
        """The weights as a claim sees them, counting whole-view passes."""

        def sum(self, *args, **kwargs):
            passes.extend(["sum"] * (self.size == n))
            return np.asarray(self).sum(*args, **kwargs)

        def max(self, *args, **kwargs):
            passes.extend(["max"] * (self.size == n))
            return np.asarray(self).max(*args, **kwargs)

    claim = transport._claim

    def counting_claim(grid, weights, *args, **kwargs):
        result = claim(grid, weights.view(View), *args, **kwargs)
        return tuple(np.asarray(r) if isinstance(r, View) else r for r in result)

    monkeypatch.setattr(transport.CloudGrid, "block", counting_block)
    monkeypatch.setattr(transport, "_claim", counting_claim)
    result = run(scenario)
    assert len(result.records) == 60
    assert passes == []
    assert len(gathers) <= 1.25 * len(result.records)


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
    # each M is a count, but 1 / (their sum) would overflow when the run starts
    with pytest.raises(InputError, match="total budget"):
        Scenario(systems=[sys, sys], initial_states=[np.zeros(2), np.zeros(2)],
                 budgets=[10**308, 10**308], cloud=cloud)


def test_scenario_polytope_columns_match_inputs():
    # a 3-input box for 2-input agents fails when built, not at the first step
    with pytest.raises(InputError, match="input_bounds"):
        first_order_scenario(input_bounds=InputPolytope.box(1.0, 3))


def test_scenario_names_the_agent_of_a_bad_state_or_budget():
    sys = make_preset("first_order", 0.1)
    with pytest.raises(InputError, match=r"agents\[1\]: initial_state"):
        Scenario(systems=[sys, sys], initial_states=[np.zeros(2), np.zeros(3)],
                 budgets=[5, 5], cloud=grid_cloud(3))
    with pytest.raises(InputError, match=r"agents\[1\]: M"):
        Scenario(systems=[sys, sys], initial_states=[np.zeros(2), np.zeros(2)],
                 budgets=[5, 0], cloud=grid_cloud(3))


def test_initial_state_takes_the_one_vector_rule():
    """A (1, 2) state runs with the bits of the (2,) one, as step_events,
    output and gain_terms already take it; a wrong size or a non-finite
    entry is still an InputError naming the agent."""
    sc = first_order_scenario(m_steps=5)
    flat = run(sc)
    rows = run(dataclasses.replace(sc, initial_states=[x.reshape(1, 2)
                                                       for x in sc.initial_states]))
    assert np.array_equal(np.array([r.u for r in rows.records]),
                          np.array([r.u for r in flat.records]))
    assert all(map(np.array_equal, rows.trajectories, flat.trajectories))
    for bad in (np.zeros((1, 3)), np.array([[np.nan, 1.0]])):
        with pytest.raises(InputError, match=r"agents\[0\]: initial_state"):
            dataclasses.replace(sc, initial_states=[bad, sc.initial_states[1]])


def test_constrained_run_solves_no_chebyshev_lp(monkeypatch):
    """The polytope finds its interior point once, when built: the QP on a
    binding step starts there. The global W2 takes the assignment or the
    transportation simplex, so the run makes no linprog call at all."""
    scenario = first_order_scenario(input_bounds=InputPolytope.box(0.3, 2))
    real_linprog = linalg.linprog
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(linalg, "linprog", counting)
    result = run(scenario)
    assert sum(r.input_constraint_active for r in result.records) > 0
    assert result.global_w and calls == []


def test_constrained_step_inverts_d1_once(monkeypatch):
    """D1^+ is computed once per distinct D1, not once per agent-step: the
    curvature memo in controller serves every later step with the same D1
    bits, even when two agents' D1 values interleave, and the QP reuses
    it; G and A^P come from the system, so the run takes no matrix
    powers."""
    scenario = first_order_scenario(input_bounds=InputPolytope.box(0.3, 2))
    calls = {"pinv": 0, "matrix_power": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    pinv = counting("pinv", linalg.pseudo_inverse)
    controller._curvature_of.cache_clear()
    monkeypatch.setattr(controller, "pseudo_inverse", pinv)
    monkeypatch.setattr(linalg, "pseudo_inverse", pinv)
    monkeypatch.setattr(np.linalg, "matrix_power",
                        counting("matrix_power", np.linalg.matrix_power))
    result = run(scenario)
    assert sum(r.input_constraint_active for r in result.records) > 0
    d1 = [r.gains.D1.tobytes() for r in result.records]
    changes = sum(a != b for a, b in zip(d1, d1[1:]))
    # the agent-point mass, and so D1, moves by an ulp on some steps, and
    # the two agents' values interleave
    assert len(set(d1)) < changes
    assert calls == {"pinv": len(set(d1)), "matrix_power": 0}


def test_step_records_keep_no_dict_and_no_view():
    """A run keeps every step's record and gain terms, so each is slotted
    (no per-instance __dict__), and D2 is the array gain_terms formed, not
    a reshaped view that would keep a second array header alive."""
    result = run(first_order_scenario(m_steps=10))
    assert len(result.records) == 20
    for record in result.records:
        assert not hasattr(record, "__dict__")
        assert not hasattr(record.gains, "__dict__")
        assert record.gains.D2.base is None


@pytest.mark.parametrize("field, value", [
    ("global_w_cap", 100.0), ("global_w_cap", True),
    ("global_w_interval", 2.5), ("global_w_interval", True),
    ("budgets", [2.5, 3]), ("budgets", [True, 3]),
])
def test_scenario_sizes_must_be_integers(field, value):
    """A fractional or boolean budget, interval or cap fails when built,
    not part-way through a run."""
    with pytest.raises(InputError, match="must be an integer >= 1"):
        dataclasses.replace(first_order_scenario(), **{field: value})


def test_scenario_takes_numpy_integer_sizes():
    scenario = dataclasses.replace(first_order_scenario(), budgets=[np.int64(3)] * 2,
                                   global_w_interval=np.int32(2),
                                   global_w_cap=np.int64(40))
    assert [k for k, _, _ in run(scenario).global_w] == [2, 3]


@pytest.mark.parametrize("cap", [0, -5, TRANSPORT_SIZE_CAP + 1])
def test_scenario_cap_within_solver_limit(cap):
    with pytest.raises(InputError, match="global_w_cap"):
        first_order_scenario(global_w_cap=cap)
    assert first_order_scenario().global_w_cap == TRANSPORT_SIZE_CAP


# ----------------------------------------------------------- malformed input

VALUE_KINDS = ("nan", "inf", "-inf")
SHAPE_KINDS = ("empty", "short", "long")


def _malformable_calls():
    """Each public function the step loop calls, with valid arguments and
    the malformations each argument may take (none for the system, gain
    terms and config). Cloud weights given to select_local_samples and
    weight_update take only shape malformations: a check of their values
    would cost a pass over the cloud on every call."""
    sys = make_preset("first_order", 0.1)
    gt = controller.GainTerms(D1=np.eye(2), D2=np.array([0.5, -0.5]), D3=-1.0)
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    w = np.full(3, 1.0 / 3.0)
    any_kind = VALUE_KINDS + SHAPE_KINDS
    return {
        "select_local_samples": (transport.select_local_samples, [
            (w, SHAPE_KINDS), (pos, any_kind), (np.zeros(2), any_kind),
            (0.2, VALUE_KINDS)]),
        "weight_update": (transport.weight_update, [
            (pos, any_kind), (w, SHAPE_KINDS), (np.zeros(2), any_kind),
            (0.2, VALUE_KINDS)]),
        "global_wasserstein": (transport.global_wasserstein, [
            (pos, any_kind), (w, any_kind), (pos + 1.0, any_kind), (w, any_kind)]),
        "gain_terms": (controller.gain_terms, [
            (sys, ()), (np.ones(2), any_kind), (np.zeros(2), any_kind),
            (0.2, VALUE_KINDS)]),
        "delta_w": (controller.delta_w, [(gt, ()), (np.ones(2), any_kind)]),
        "convergence_check": (controller.convergence_check,
                              [(gt, ()), (np.ones(2), any_kind)]),
        "step_events": (dynamics.step_events, [
            (sys, ()), (np.ones(2), any_kind), (np.ones(2), any_kind)]),
        "output": (dynamics.output, [(sys, ()), (np.ones(2), any_kind)]),
        "sync_round": (coordination.sync_round, [
            ([w.copy(), w.copy()], any_kind), ([np.zeros(2), np.ones(2)], any_kind),
            (CommConfig(d_comm=5.0), ())]),
    }


def _malformed(value, kind: str, at: int):
    if kind in VALUE_KINDS:
        if np.ndim(value) == 0:
            return float(kind)
        value = np.array(value, dtype=float)
        value.flat[at % value.size] = float(kind)
        return value
    value = np.asarray(value)
    return {"empty": value[:0], "short": value[:-1],
            "long": np.concatenate([value, value[-1:]])}[kind]


def _all_finite(result) -> bool:
    if isinstance(result, tuple):
        return all(_all_finite(r) for r in result)
    if dataclasses.is_dataclass(result):
        return all(_all_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    return bool(np.all(np.isfinite(np.asarray(result, dtype=float))))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.data())
def test_public_functions_reject_malformed_input_or_return_finite_values(data):
    """Given a NaN, an infinity, an empty array or one of the wrong length,
    each function either raises a DpcoverError or returns finite values
    (a raw RuntimeWarning fails the test too: the suite makes it an error)."""
    calls = _malformable_calls()
    fn, args = calls[data.draw(st.sampled_from(sorted(calls)))]
    slot = data.draw(st.sampled_from([i for i, (_, kinds) in enumerate(args) if kinds]))
    value, kinds = args[slot]
    kind = data.draw(st.sampled_from(kinds))
    at = data.draw(st.integers(min_value=0, max_value=5))
    if isinstance(value, list):  # one agent's vector or position
        value = list(value)
        value[at % len(value)] = _malformed(value[at % len(value)], kind, at)
    else:
        value = _malformed(value, kind, at)
    call = [v for v, _ in args]
    call[slot] = value
    try:
        result = fn(*call)
    except DpcoverError:
        return
    assert _all_finite(result), (fn.__name__, slot, kind, result)


@pytest.mark.parametrize("call", [
    # a negative weight would be dropped with the zero-mass points
    lambda: transport.global_wasserstein(np.zeros((2, 2)), [1.0, -0.5],
                                         np.ones((1, 2)), [1.0]),
    # an infinite mass would claim the whole cloud as exhausted
    lambda: transport.select_local_samples(np.full(2, 0.5), np.eye(2), np.zeros(2),
                                           np.inf),
    # a NaN position is at no distance, so no pair with it is in range
    lambda: coordination.sync_round([np.full(2, 0.5), np.full(2, 0.5)],
                                    [np.zeros(2), np.array([np.nan, 0.0])],
                                    CommConfig(d_comm=5.0)),
], ids=["negative-weight", "infinite-alpha", "nan-position"])
def test_malformed_input_with_a_finite_answer_is_still_rejected(call):
    with pytest.raises(InputError):
        call()


# -------------------------------------------------------------- reference loop

@st.composite
def reference_scenarios(draw):
    """Small scenarios over every path of the step loop: 1-4 agents of
    relative degree 1-3, with no input set, a box or a polytope, with or
    without state bounds; N from 1 to 3001, so that clouds of
    GRID_MIN_SAMPLES or more take the grid claim; a lattice cloud (ties in
    distance) or a scattered one, uniform or weighted, of mass 1 or short
    of it; an infinite or a finite communication range."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(1, 80),
                       st.integers(transport.GRID_MIN_SAMPLES, 3001)))
    positions = rng.uniform(0.0, 10.0, size=(n, 2))
    if draw(st.booleans()):
        positions = np.round(positions)
    weights = np.full(n, 1.0) if draw(st.booleans()) else rng.uniform(0.2, 1.0, n)
    # a cloud short of 1 by 5e-13 (SampleCloud's tolerance is 1e-12) runs dry
    # before the budgets do: the exhausted claims
    mass = draw(st.sampled_from([1.0, 1.0 - 5e-13]))
    systems, states = [], []
    for _ in range(draw(st.integers(1, 4))):
        P = draw(st.integers(1, 3))
        sys = integrator_chain(P, 2, 0.1, rng)
        bound = draw(st.sampled_from([2.0, 20.0, 200.0]))
        rows = rng.normal(size=(int(rng.integers(3, 6)), 2))
        input_bounds = draw(st.sampled_from([
            None, InputPolytope.box(bound, 2),
            InputPolytope(rows, bound * rng.uniform(0.3, 1.0, len(rows)))]))
        state_bounds = None
        if draw(st.booleans()):  # clamp the positions at P = 1, else the rest
            state_bounds = ([[1.0, 9.0]] * 2 if P == 1 else
                            [[-np.inf, np.inf]] * 2 + [[-1.0, 1.0]] * (2 * P - 2))
        systems.append(dataclasses.replace(sys, state_bounds=state_bounds,
                                           input_bounds=input_bounds))
        states.append(np.r_[rng.uniform(-2.0, 12.0, 2), rng.normal(scale=0.5, size=2 * P - 2)])
    budgets = [int(m) for m in rng.integers(1, 9, size=len(systems))]
    return Scenario(systems=systems, initial_states=states, budgets=budgets,
                    cloud=SampleCloud(positions, weights / weights.sum() * mass),
                    comm=CommConfig(draw(st.sampled_from([None, 0.5, 3.0]))),
                    global_w_interval=draw(st.integers(1, 4)),
                    global_w_cap=draw(st.sampled_from([16, 100, TRANSPORT_SIZE_CAP])))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(reference_scenarios())
def test_run_follows_the_reference_loop(scenario):
    """engine.run against the paper's loop written plainly
    (reference_engine): every claim, gain term, input, event flag, output,
    exchange count and W2 of the run, step by step."""
    check_run(scenario, *run_with_claims(scenario))

"""Local selection, the greedy weight update, and Wasserstein diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcover.errors import ExhaustionError, InputError
from dpcover.linalg import TransportProblem, solve_transport_exact
from dpcover.transport import (LocalSelection, global_wasserstein,
                               local_wasserstein, select_local_samples,
                               weight_update)


# ------------------------------------------------------------------- selection

def test_selection_hand_example():
    # distances 1, 2, 0.1 with weights 0.5, 0.5, 0.01 give wnE keys 2, 4, 10
    center = np.zeros(2)
    positions = np.array([[1.0, 0.0], [0.0, 2.0], [0.1, 0.0]])
    weights = np.array([0.5, 0.5, 0.01])
    sel = select_local_samples(weights, positions, center, 0.6)
    assert list(sel.indices) == [0, 1]
    assert np.allclose(sel.taken, [0.5, 0.1])
    want = (0.5 * positions[0] + 0.1 * positions[1]) / 0.6
    assert np.allclose(sel.mass_center, want)
    assert not sel.exhausted


def test_selection_single_point():
    positions = np.array([[3.0, 4.0]])
    sel = select_local_samples(np.array([0.25]), positions, np.zeros(2), 0.25)
    assert np.allclose(sel.taken, [0.25])
    assert np.allclose(sel.mass_center, [3.0, 4.0])


def test_selection_tie_breaks_to_lowest_index():
    # four equidistant points with equal weights; alpha fits one point
    positions = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    weights = np.full(4, 0.25)
    sel = select_local_samples(weights, positions, np.zeros(2), 0.25)
    assert list(sel.indices) == [0]


def test_selection_mass_constraint_and_partial_take(rng):
    for _ in range(50):
        n = int(rng.integers(2, 20))
        positions = rng.uniform(-5, 5, size=(n, 2))
        weights = rng.random(n) / n
        alpha = float(rng.uniform(0.1, 0.9)) * weights.sum()
        sel = select_local_samples(weights, positions, rng.uniform(-5, 5, 2), alpha)
        assert sel.total_mass == pytest.approx(alpha, abs=1e-12)
        assert np.all(sel.taken > 0)
        assert np.all(sel.taken <= weights[sel.indices] + 1e-15)
        # without the final (partial) point the demand is not met
        assert sel.taken[:-1].sum() < alpha


def test_selection_exhaustion():
    positions = np.array([[0.0, 0.0], [1.0, 0.0]])
    weights = np.array([0.1, 0.05])
    sel = select_local_samples(weights, positions, np.zeros(2), 0.5)
    assert sel.exhausted
    assert sel.total_mass == pytest.approx(0.15, abs=1e-12)


def test_selection_all_zero_weights_is_exhaustion_signal():
    with pytest.raises(ExhaustionError):
        select_local_samples(np.zeros(3), np.zeros((3, 2)), np.zeros(2), 0.1)


def test_selection_scaling_invariance(rng):
    positions = rng.uniform(-5, 5, size=(12, 2))
    weights = rng.random(12) / 12
    alpha = 0.3 * weights.sum()
    base = select_local_samples(weights, positions, np.zeros(2), alpha)
    for s in (0.5, 2.0, 17.0):
        scaled = select_local_samples(weights * s, positions, np.zeros(2), alpha * s)
        assert list(scaled.indices) == list(base.indices)
        assert np.allclose(scaled.taken, base.taken * s)


# ----------------------------------------------------------------- mass center

def test_mass_center_symmetry():
    positions = np.array([[0.0, 0.0], [2.0, 0.0]])
    sel = select_local_samples(np.array([0.5, 0.5]), positions,
                               np.array([1.0, 0.0]), 1.0)
    assert np.allclose(sel.mass_center, [1.0, 0.0])


def test_mass_center_weighted():
    # the second point is taken partially: claimed masses 0.5 and 0.1
    q = np.array([[1.0, 1.0], [4.0, 0.0]])
    sel = select_local_samples(np.array([0.5, 0.5]), q, np.array([1.0, 1.0]), 0.6)
    assert np.allclose(sel.taken, [0.5, 0.1])
    assert np.allclose(sel.mass_center, (0.5 * q[0] + 0.1 * q[1]) / 0.6)


# --------------------------------------------------------------- weight update

def test_weight_update_hand_example():
    positions = np.array([[1.0, 0.0], [2.0, 0.0]])
    weights = np.array([0.3, 0.3])
    plan = weight_update(positions, weights, np.zeros(2), 0.4)
    assert np.allclose(plan.gammas, [0.3, 0.1])
    # brute force the one free parameter t = mass taken from the far point
    costs = np.array([1.0, 4.0])
    best = min(float(np.array([0.4 - t, t]) @ costs)
               for t in np.linspace(0.1, 0.3, 2001))
    assert float(plan.gammas @ costs) <= best + 1e-9


def test_weight_update_zero_demand():
    plan = weight_update(np.zeros((3, 2)), np.full(3, 0.1), np.zeros(2), 0.0)
    assert np.all(plan.gammas == 0.0)


def test_weight_update_forced_single_point():
    plan = weight_update(np.array([[1.0, 1.0]]), np.array([0.2]),
                         np.zeros(2), 0.2)
    assert np.allclose(plan.gammas, [0.2])


def test_weight_update_excess_demand_raises():
    with pytest.raises(ExhaustionError):
        weight_update(np.zeros((2, 2)), np.array([0.1, 0.1]), np.zeros(2), 0.3)


def test_weight_update_matches_exact_lp(rng):
    """The greedy plan must equal the LP optimum.

    The bounded problem min sum(gamma_j d_j), 0 <= gamma <= beta,
    sum(gamma) = alpha is embedded in a balanced transport instance with a
    zero-cost slack demand column absorbing the unclaimed mass.
    """
    for _ in range(100):
        n = int(rng.integers(1, 9))
        positions = rng.uniform(-4, 4, size=(n, 2))
        weights = rng.random(n) / n + 1e-3
        y = rng.uniform(-4, 4, 2)
        alpha = float(rng.uniform(0.05, 0.95)) * weights.sum()
        plan = weight_update(positions, weights, y, alpha)
        assert plan.gammas.sum() == pytest.approx(alpha, abs=1e-12)
        assert np.all(plan.gammas >= 0)
        assert np.all(plan.gammas <= weights + 1e-12)

        d = np.sum((positions - y) ** 2, axis=1)
        cost = np.column_stack([d, np.zeros(n)])
        demand = np.array([alpha, weights.sum() - alpha])
        lp_plan, lp_cost = solve_transport_exact(
            TransportProblem(weights, demand, cost))
        assert float(plan.gammas @ d) == pytest.approx(lp_cost, abs=1e-9)
        assert np.allclose(lp_plan.sum(axis=1), weights, atol=1e-9)


# ------------------------------------------------------------------- distances

def test_local_wasserstein_at_selected_point():
    sel = LocalSelection(indices=np.array([0]), taken=np.array([0.2]),
                         points=np.array([[1.0, 1.0]]),
                         mass_center=np.array([1.0, 1.0]), exhausted=False)
    assert local_wasserstein(sel, [1.0, 1.0]) == pytest.approx(0.0)


def test_local_wasserstein_single_point_formula():
    sel = LocalSelection(indices=np.array([0]), taken=np.array([0.25]),
                         points=np.array([[3.0, 0.0]]),
                         mass_center=np.array([3.0, 0.0]), exhausted=False)
    assert local_wasserstein(sel, [0.0, 0.0]) == pytest.approx(np.sqrt(0.25) * 3.0)


def test_parallel_decomposition_identity(rng):
    # sum beta ||y - q||^2 == alpha ||y - qbar||^2 + sum beta ||q - qbar||^2
    for _ in range(100):
        n = int(rng.integers(1, 15))
        pts = rng.uniform(-5, 5, size=(n, 2))
        taken = rng.random(n) / n + 1e-4
        qbar = (taken @ pts) / taken.sum()
        sel = LocalSelection(indices=np.arange(n), taken=taken, points=pts,
                             mass_center=qbar, exhausted=False)
        y = rng.uniform(-5, 5, 2)
        lhs = local_wasserstein(sel, y) ** 2
        rhs = (taken.sum() * np.sum((y - qbar) ** 2)
               + float(taken @ np.sum((pts - qbar) ** 2, axis=1)))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_global_wasserstein_identical_clouds():
    pts = np.array([[0.0, 0.0], [1.0, 2.0]])
    w = np.array([0.5, 0.5])
    val, sub = global_wasserstein(pts, w, pts, w)
    assert val == pytest.approx(0.0, abs=1e-9)
    assert not sub


def test_global_wasserstein_point_pair():
    val, _ = global_wasserstein(np.array([[0.0, 0.0]]), np.array([1.0]),
                                np.array([[3.0, 4.0]]), np.array([1.0]))
    assert val == pytest.approx(5.0, abs=1e-9)


def test_global_wasserstein_two_point_shift():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[1.0, 0.0], [2.0, 0.0]])
    w = np.array([0.5, 0.5])
    val, _ = global_wasserstein(a, w, b, w)
    assert val ** 2 == pytest.approx(1.0, abs=1e-9)


def test_global_wasserstein_renormalizes():
    # masses scale out: a partial trajectory cloud of total mass < 1 works
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    val, _ = global_wasserstein(a, np.array([0.2]), b, np.array([1.0]))
    assert val == pytest.approx(5.0, abs=1e-9)


def test_global_wasserstein_subsampling_flag_and_determinism(rng):
    pts_a = rng.uniform(0, 10, size=(60, 2))
    w_a = np.full(60, 1.0 / 60)
    pts_b = rng.uniform(0, 10, size=(80, 2))
    w_b = np.full(80, 1.0 / 80)
    v1, sub1 = global_wasserstein(pts_a, w_a, pts_b, w_b, cap=40)
    v2, sub2 = global_wasserstein(pts_a, w_a, pts_b, w_b, cap=40)
    assert sub1 and sub2
    assert v1 == v2
    exact, sub = global_wasserstein(pts_a, w_a, pts_b, w_b)
    assert not sub
    # the subsampled diagnostic should be close to, not wildly off, the truth
    assert abs(v1 - exact) < 0.5


def test_global_wasserstein_empty_cloud_rejected():
    with pytest.raises(InputError):
        global_wasserstein(np.zeros((0, 2)), np.zeros(0),
                           np.array([[0.0, 0.0]]), np.array([1.0]))


# ----------------------------------------------------------- property sampling

@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10_000))
def test_selection_mass_never_exceeds_supply(n, seed):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-5, 5, size=(n, 2))
    weights = rng.random(n) / n
    alpha = float(rng.uniform(0.0, 1.5)) * max(weights.sum(), 1e-9) + 1e-9
    sel = select_local_samples(weights, positions, np.zeros(2), alpha)
    assert sel.total_mass <= min(alpha, weights.sum()) + 1e-12
    assert sel.exhausted == (weights.sum() < alpha - 1e-15)

"""Local selection, the greedy weight update, and Wasserstein diagnostics."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcover.errors import ExhaustionError, InputError
from dpcover.linalg import solve_transport_exact
from dpcover.transport import (GRID_MIN_SAMPLES, WEIGHT_SNAP, CloudGrid, LocalSelection,
                               TransportPlan, _fill_nearest, _reduce_cloud,
                               _squared_distances, global_wasserstein, local_wasserstein,
                               select_local_samples, weight_update)


def _dense(plan, n):
    """The plan as an n-vector: the mass moved from every sample."""
    gammas = np.zeros(n)
    gammas[plan.indices] = plan.gammas
    return gammas


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



def test_selection_key_that_overflows_ranks_last_without_a_warning():
    """3 / 1e-320 overflows to an inf key: that sample ranks after every
    finite key, and the overflow raises no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sel = select_local_samples([1e-320, 0.5], [[3.0, 0.0], [0.0, 0.0]], [0.0, 0.0], 0.4)
    assert list(sel.indices) == [1]
    assert list(sel.taken) == [0.4]

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


@pytest.mark.parametrize("alpha", [0.0, -0.1, np.nan])
def test_selection_rejects_a_demand_not_positive(alpha, rng):
    with pytest.raises(InputError, match="alpha must be positive"):
        select_local_samples(np.full(100, 0.01), rng.uniform(-5, 5, size=(100, 2)),
                             np.zeros(2), alpha)


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
    assert plan.indices.size == plan.gammas.size == 0


@pytest.mark.parametrize("alpha_next", [-0.1, np.nan])
def test_weight_update_rejects_a_negative_demand(alpha_next, rng):
    with pytest.raises(InputError, match="alpha_next must be nonnegative"):
        weight_update(rng.uniform(-5, 5, size=(100, 2)), np.full(100, 0.01),
                      np.zeros(2), alpha_next)


def test_weight_update_forced_single_point():
    plan = weight_update(np.array([[1.0, 1.0]]), np.array([0.2]),
                         np.zeros(2), 0.2)
    assert np.allclose(plan.gammas, [0.2])


def test_weight_update_demand_just_above_supply_takes_all():
    # within the 1e-12 slack every candidate is taken whole, none beyond
    weights = np.array([0.1, 0.2, 0.0, 0.3])
    plan = weight_update(np.arange(8.0).reshape(4, 2), weights, np.zeros(2),
                         weights.sum() + 5e-13)
    assert np.array_equal(_dense(plan, 4), weights)


def test_weight_update_excess_demand_raises():
    with pytest.raises(ExhaustionError):
        weight_update(np.zeros((2, 2)), np.array([0.1, 0.1]), np.zeros(2), 0.3)


def test_weight_update_tiny_demand_on_no_mass_raises():
    # 1e-13 is within the 1e-12 slack of zero remaining mass, but no
    # sample-point is left to take it from
    with pytest.raises(ExhaustionError, match="weights are zero"):
        weight_update(np.zeros((3, 2)), np.zeros(3), np.zeros(2), 1e-13)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=150),
       st.sampled_from(["cum_minus", "cum", "random", "total"]),
       st.integers(min_value=0, max_value=2**32 - 1))
@example(3, "cum_minus", 0)
@example(84, "cum_minus", 1)
def test_weight_update_leaves_no_sub_snap_residue(n, demand_kind, seed):
    """weights - gammas is 0 or at least WEIGHT_SNAP, never negative."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-5, 5, size=(n, 2))
    weights = rng.random(n) / n
    weights[rng.random(n) < 0.2] = 0.0
    if not weights.any():
        weights[0] = 1.0 / n
    y = rng.uniform(-5, 5, 2)
    d2 = np.sum((positions - y) ** 2, axis=1)
    live = np.flatnonzero(weights > 0)
    cum = np.cumsum(weights[live[np.argsort(d2[live], kind="stable")]])
    i = int(rng.integers(cum.size))
    demand = {"cum_minus": lambda: cum[i] - 1e-13,
              "cum": lambda: cum[i],
              "random": lambda: rng.uniform(0.0, cum[-1]),
              "total": lambda: cum[-1]}[demand_kind]()
    plan = weight_update(positions, weights, y, float(demand))
    assert np.unique(plan.indices).size == plan.indices.size
    assert np.all(plan.gammas > 0)
    left = weights - _dense(plan, n)
    assert not np.any(left < 0)
    assert not np.any((left > 0) & (left < WEIGHT_SNAP))


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
        gammas = _dense(weight_update(positions, weights, y, alpha), n)
        assert gammas.sum() == pytest.approx(alpha, abs=1e-12)
        assert np.all(gammas >= 0)
        assert np.all(gammas <= weights + 1e-12)

        d = np.sum((positions - y) ** 2, axis=1)
        cost = np.column_stack([d, np.zeros(n)])
        demand = np.array([alpha, weights.sum() - alpha])
        lp_plan, lp_cost = solve_transport_exact(weights, demand, cost)
        assert float(gammas @ d) == pytest.approx(lp_cost, abs=1e-9)
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


def test_squared_distances_block_equals_single_centres(rng):
    """The global W2 cost matrix, one row per centre of an (m, 1, 2) block,
    has the bits of m single-centre calls."""
    for _ in range(50):
        points = rng.uniform(-50, 50, size=(int(rng.integers(1, 40)), 2))
        centres = rng.uniform(-50, 50, size=(int(rng.integers(1, 40)), 2))
        block = _squared_distances(points, centres[:, None, :])
        rows = np.array([_squared_distances(points, c) for c in centres])
        assert block.tobytes() == rows.tobytes()


CENTRE = np.array([0.5, -1.5])


@pytest.mark.parametrize("centre", [[0.5, -1.5], (0.5, -1.5), CENTRE[None, :],
                                    CENTRE[:, None], CENTRE.reshape(1, 1, 2)])
def test_public_functions_take_any_two_element_centre(centre, rng):
    positions = rng.uniform(-5, 5, size=(30, 2))
    weights = np.full(30, 1 / 30)
    sel = select_local_samples(weights, positions, centre, 0.2)
    want = select_local_samples(weights, positions, CENTRE, 0.2)
    assert np.array_equal(sel.indices, want.indices)
    assert sel.mass_center.tobytes() == want.mass_center.tobytes()
    plan = weight_update(positions, weights, centre, 0.2)
    want_plan = weight_update(positions, weights, CENTRE, 0.2)
    assert np.array_equal(plan.indices, want_plan.indices)
    assert plan.gammas.tobytes() == want_plan.gammas.tobytes()
    assert local_wasserstein(sel, centre) == local_wasserstein(want, CENTRE)


@pytest.mark.parametrize("centre", [0.5, [0.5], [0.5, -1.5, 2.0], np.zeros((2, 2))])
def test_public_functions_reject_a_centre_of_another_size(centre, rng):
    positions = rng.uniform(-5, 5, size=(2, 2))
    weights = np.full(2, 0.5)
    sel = select_local_samples(weights, positions, CENTRE, 0.2)
    for call in (lambda: select_local_samples(weights, positions, centre, 0.2),
                 lambda: weight_update(positions, weights, centre, 0.2),
                 lambda: local_wasserstein(sel, centre)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("centre", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, np.nan]])
def test_public_functions_reject_a_non_finite_centre(centre):
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    weights = np.full(4, 0.25)
    sel = select_local_samples(weights, positions, CENTRE, 0.2)
    for call in (lambda: select_local_samples(weights, positions, centre, 0.2),
                 lambda: weight_update(positions, weights, centre, 0.2),
                 lambda: weight_update(positions, weights, centre, 0.0),
                 lambda: local_wasserstein(sel, centre)):
        with pytest.raises(InputError, match="must be finite"):
            call()


@pytest.mark.parametrize("positions", [
    [[0.0, 0.0], [1.0, np.nan], [2.0, 2.0], [np.inf, 0.0]],
    [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [np.inf, 0.0]],
    [[0.0, 0.0], [1.0, 1.0], [2.0, -np.inf], [3.0, 0.0]],
    [[0.0, 0.0], [1e308, 1.0], [2.0, 2.0], [-1e308, 0.0]],
], ids=["nan", "inf", "-inf", "extent"])
def test_claims_reject_plain_positions_that_check_points_rejects(positions):
    """A plain array passes the same check as a CloudGrid's positions: a NaN
    or infinite position, or a cloud whose squared extent overflows, is an
    InputError, not a NaN mass centre or an overflow warning."""
    weights = np.full(4, 0.25)
    for call in (lambda: select_local_samples(weights, positions, CENTRE, 0.9),
                 lambda: weight_update(positions, weights, CENTRE, 0.9)):
        with pytest.raises(InputError, match="positions must be"):
            call()


@pytest.mark.parametrize("clouds", [
    ([[1e154, 0.0]], [1.0], [[-1e154, 0.0]], [1.0]),
    ([[1e308, 0.0], [-1e308, 0.0]], [0.5, 0.5], [[0.0, 0.0]], [1.0]),
], ids=["pair-apart", "one-cloud-spans"])
def test_global_wasserstein_rejects_clouds_whose_costs_overflow(clouds):
    """Finite points whose squared distance overflows are an InputError,
    raised before any cost entry is formed (the suite makes a
    RuntimeWarning an error)."""
    with pytest.raises(InputError, match="bounding box of finite squared diagonal"):
        global_wasserstein(*(np.array(c) for c in clouds))


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


@pytest.mark.parametrize("cap", [0, -2, 2.5, True])
def test_global_wasserstein_rejects_a_cap_below_one_or_fractional(cap, rng):
    pts = rng.uniform(0, 10, size=(5, 2))
    w = np.full(5, 0.2)
    with pytest.raises(InputError, match="cap must be an integer >= 1"):
        global_wasserstein(pts, w, pts, w, cap=cap)


def test_global_wasserstein_takes_a_numpy_integer_cap(rng):
    pts = rng.uniform(0, 10, size=(5, 2))
    w = np.full(5, 0.2)
    assert (global_wasserstein(pts, w, pts[::-1], w, cap=np.int64(3))
            == global_wasserstein(pts, w, pts[::-1], w, cap=3))


def test_global_wasserstein_empty_cloud_rejected():
    with pytest.raises(InputError):
        global_wasserstein(np.zeros((0, 2)), np.zeros(0),
                           np.array([[0.0, 0.0]]), np.array([1.0]))


# a small fixed pair of clouds, and the W2 values dpcover has given for them
PAIR_A = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 2.0], [0.5, 3.0], [3.0, 1.0]])
PAIR_WA = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
PAIR_B = np.array([[1.0, 1.0], [2.5, 0.0], [0.0, 2.0], [3.0, 3.0]])
PAIR_WB = np.array([0.4, 0.1, 0.3, 0.2])


@pytest.mark.parametrize("cap, expected", [
    (500, (1.1884864324004714, False)),  # neither cloud reduced
    (4, (1.25, True)),                   # only the 5-point cloud is above cap
    (3, (1.0801234497346432, True)),     # both clouds resampled to 3 points
])
def test_global_wasserstein_pins_its_bits(cap, expected):
    assert global_wasserstein(PAIR_A, PAIR_WA, PAIR_B, PAIR_WB, cap=cap) == expected


def test_global_wasserstein_zero_mass_points_do_not_count_toward_cap(rng):
    pts = rng.uniform(0, 10, size=(90, 2))
    w = np.full(90, 1.0 / 60)
    w[::3] = 0.0
    ref = rng.uniform(0, 10, size=(40, 2))
    w_ref = np.full(40, 1.0 / 40)
    got = global_wasserstein(pts, w, ref, w_ref, cap=60)
    assert not got[1]
    assert got == global_wasserstein(pts[w > 0], w[w > 0], ref, w_ref, cap=60)


def test_reduced_cloud_size_in_the_benchmark_counter_matches(monkeypatch, rng):
    """perfbench/layers.py sizes each reduced cloud for its cost_cells
    counter without calling dpcover; it must agree with _reduce_cloud."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import layers

    for n, n_zero, cap in [(90, 30, 60), (90, 29, 60), (5, 0, 500), (500, 0, 499),
                           (40, 39, 1), (300, 100, 7)]:
        pts = rng.uniform(0, 10, size=(n, 2))
        w = rng.uniform(0.5, 1.0, size=n)
        w[rng.permutation(n)[:n_zero]] = 0.0
        points, weights, subsampled = _reduce_cloud(pts, w, cap)
        assert layers._reduced_cloud(w, cap)[0] == weights.size == points.shape[0]
        assert subsampled == (n - n_zero > cap)


# ----------------------------------------------------------- property sampling

@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10_000))
def test_selection_mass_never_exceeds_supply(n, seed):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-5, 5, size=(n, 2))
    weights = rng.random(n) / n
    alpha = float(rng.uniform(0.0, 1.5)) * max(weights.sum(), 1e-9) + 1e-9
    sel = select_local_samples(weights, positions, np.zeros(2), alpha)
    assert np.all(sel.taken > 0)
    assert sel.total_mass <= min(alpha, weights.sum()) + 1e-12
    assert sel.exhausted == (weights.sum() < alpha - 1e-15)


def _fill_full_sort(weights, candidates, keys, demand):
    """The greedy fill over the full stable order of the keys."""
    order = candidates[np.argsort(keys, kind="stable")]
    avail = weights[order]
    cum = np.cumsum(avail)
    exhausted = cum[-1] < demand - 1e-15
    n_take = avail.size if exhausted else int(np.searchsorted(cum, demand - 1e-15)) + 1
    taken = avail[:n_take].copy()
    if not exhausted:
        taken[-1] = demand - (cum[n_take - 1] - avail[n_take - 1])
    return order[:n_take], taken, exhausted


DEEP = 1024  # a fill that takes over a thousand samples


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.sampled_from([1, 5, 63, 64, 65, 300, DEEP + 50, 5975]),
       st.sampled_from(["real", "integer", "equal", "half_inf"]),
       st.sampled_from(["below_first", "at_boundary", "deep", "random", "above_total"]),
       st.sampled_from(["seven", "mostly"]),
       st.sampled_from(["nan", "inf", "-inf", "below_live"]),
       st.integers(min_value=0, max_value=2**32 - 1))
@example(5975, "integer", "deep", "seven", "nan", 0)
@example(5975, "equal", "at_boundary", "seven", "-inf", 1)
@example(DEEP + 50, "real", "deep", "seven", "below_live", 2)
@example(63, "integer", "above_total", "seven", "inf", 3)
@example(300, "equal", "below_first", "seven", "nan", 4)
@example(5975, "real", "random", "mostly", "below_live", 5)
@example(5975, "integer", "above_total", "mostly", "-inf", 6)
@example(5975, "half_inf", "above_total", "mostly", "inf", 7)
@example(300, "half_inf", "random", "seven", "inf", 8)
def test_fill_nearest_matches_full_stable_sort(n, key_kind, demand_kind, spent,
                                               spent_key, seed):
    """n live samples among 7 spent ones, or ("mostly" spent) fewer than
    64 live among n; every spent sample carries a key that would rank
    it first, tie it with a live +inf key or poison the order, were it not
    ranked after every live sample."""
    rng = np.random.default_rng(seed)
    if spent == "seven":
        size, n_live = n + 7, n
    else:
        size, n_live = n, int(rng.integers(1, min(n, 63) + 1))
    weights = np.zeros(size)
    weights[rng.choice(size, size=n_live, replace=False)] = rng.random(n_live) / n_live
    candidates = np.flatnonzero(weights > 0)
    keys = np.empty(size)
    keys[candidates] = {"real": lambda: rng.random(n_live),
                        "integer": lambda: rng.integers(0, 4, size=n_live).astype(float),
                        "equal": lambda: np.full(n_live, 2.5),
                        "half_inf": lambda: np.where(rng.random(n_live) < 0.5, np.inf,
                                                     rng.random(n_live))}[key_kind]()
    live_keys = keys[candidates]
    n_spent = size - n_live
    keys[weights == 0] = {"nan": lambda: np.full(n_spent, np.nan),
                          "inf": lambda: np.full(n_spent, np.inf),
                          "-inf": lambda: np.full(n_spent, -np.inf),
                          "below_live": lambda: live_keys.min() - 1.0
                          - rng.random(n_spent)}[spent_key]()
    avail = weights[candidates[np.argsort(live_keys, kind="stable")]]
    cum = np.cumsum(avail)
    if demand_kind == "below_first":
        demand = 0.5 * avail[0]
    elif demand_kind == "at_boundary":
        demand = float(cum[rng.integers(n_live)])
    elif demand_kind == "deep":
        demand = float(cum[rng.integers(min(DEEP, n_live - 1), n_live)])
    elif demand_kind == "random":
        demand = float(rng.uniform(0.0, cum[-1]))
    else:
        demand = 1.5 * float(cum[-1])
    idx, taken, exhausted = _fill_nearest(weights, keys, demand)
    want_idx, want_taken, want_exhausted = _fill_full_sort(weights, candidates,
                                                           live_keys, demand)
    assert np.array_equal(idx, want_idx)
    assert taken.tobytes() == want_taken.tobytes()
    assert np.all(taken > 0)  # so a selection claims only what it takes
    assert exhausted == want_exhausted == (demand_kind == "above_total")
    if demand_kind == "deep" and n_live > DEEP:
        assert idx.size > DEEP


# ------------------------------------------------------------------ cloud grid

def test_cloud_grid_is_csr_over_about_two_samples_a_cell(rng):
    positions = rng.normal(0.0, 10.0, size=(GRID_MIN_SAMPLES + 500, 2))
    grid = CloudGrid(positions)
    n = positions.shape[0]
    assert np.array_equal(np.sort(grid.order), np.arange(n))
    assert grid.starts[0] == 0 and grid.starts[-1] == n
    assert len(grid.starts) - 1 == grid.nx * grid.ny <= 2 * n
    for c in range(grid.nx * grid.ny):
        cell = grid.order[grid.starts[c]:grid.starts[c + 1]]
        assert np.all(np.diff(cell) > 0)
        ix, iy = c % grid.nx, c // grid.nx
        assert np.all(positions[cell, 0] >= grid.x_before[ix])
        assert np.all(positions[cell, 1] <= grid.y_after[iy])
    small = CloudGrid(positions[:GRID_MIN_SAMPLES - 1])
    assert small.order is None
    assert small.positions.tobytes() == positions[:GRID_MIN_SAMPLES - 1].tobytes()


def _spread(far):
    """A GRID_MIN_SAMPLES cloud at the origin but for a pair at (±far, ±far)."""
    positions = np.zeros((GRID_MIN_SAMPLES, 2))
    positions[:2] = [[far, far], [-far, -far]]
    return positions


@pytest.mark.parametrize("positions", [np.zeros((5, 3)), np.zeros(4),
                                       np.array([[0.0, np.nan]] * GRID_MIN_SAMPLES),
                                       _spread(1.5e308), _spread(1e200)])
def test_cloud_grid_rejects_positions_not_finite_n_by_2(positions):
    with pytest.raises(InputError, match="positions must be"):
        CloudGrid(positions)


def _outcome(call):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return call()
    except (ExhaustionError, InputError) as exc:
        return type(exc), str(exc)


def _bits(result):
    """A selection, a plan or an error's type as comparable bytes."""
    if isinstance(result, tuple):
        return result[0]
    if isinstance(result, LocalSelection):
        return (result.indices.tobytes(), result.taken.tobytes(), result.points.tobytes(),
                result.mass_center.tobytes(), result.exhausted)
    return result.indices.tobytes(), result.gammas.tobytes()


def _whole_cloud_claim(positions, weights, centre, demand, weighted):
    """The oracle of both claims, ranking the whole cloud: _fill_full_sort
    over the live samples keyed by squared distance (the update) or by
    distance over weight (the selection), then the selection's mass centre
    or the update's excess-demand error and WEIGHT_SNAP rule."""
    live = np.flatnonzero(weights > 0)
    if live.size == 0:
        raise ExhaustionError("no live sample")
    d = positions[live] - centre
    keys = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    if weighted:
        keys = np.sqrt(keys) / weights[live]
    idx, taken, exhausted = _fill_full_sort(weights, live, keys, demand)
    if weighted:
        points = positions[idx]
        return LocalSelection(idx, taken, points, (taken @ points) / taken.sum(), exhausted)
    if exhausted and demand > taken.sum() + 1e-12:
        raise ExhaustionError("demand exceeds the live mass")
    if weights[idx[-1]] - taken[-1] < WEIGHT_SNAP:
        taken[-1] = weights[idx[-1]]
    return TransportPlan(idx, taken)


def test_claim_hints_that_break_their_bounds_raise_typed_errors(rng):
    """A mass floor above a spent cloud's mass, and a weight ceiling that is
    not positive, end in ExhaustionError and InputError, not in a division
    by zero."""
    n = GRID_MIN_SAMPLES
    grid = CloudGrid(rng.uniform(0.0, 10.0, size=(n, 2)))
    centre = np.array([5.0, 5.0])
    with pytest.raises(ExhaustionError):
        select_local_samples(np.zeros(n), grid, centre, 1e-3, mass=1.0)
    with pytest.raises(ExhaustionError):
        weight_update(grid, np.zeros(n), centre, 1e-3, mass=1.0)
    for w_max in (0.0, -1.0, np.nan):
        with pytest.raises(InputError, match="w_max must be positive"):
            select_local_samples(np.full(n, 1.0 / n), grid, centre, 1e-3, w_max=w_max)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.sampled_from([1, 3, 600, GRID_MIN_SAMPLES, 3001]),
       st.sampled_from(["uniform", "clusters", "duplicates", "collinear", "identical"]),
       st.sampled_from(["fresh", "spent", "partial", "outlier", "claimed", "empty"]),
       st.sampled_from(["inside", "lattice", "outside", "far"]),
       st.sampled_from(["one", "few", "boundary", "many", "total", "beyond"]),
       st.integers(min_value=0, max_value=2**32 - 1))
@example(GRID_MIN_SAMPLES, "duplicates", "fresh", "lattice", "boundary", 12)
@example(GRID_MIN_SAMPLES, "duplicates", "partial", "lattice", "boundary", 4)
@example(3001, "duplicates", "partial", "lattice", "boundary", 26)
@example(3001, "clusters", "claimed", "inside", "one", 1)
@example(3001, "uniform", "outlier", "inside", "few", 2)
@example(GRID_MIN_SAMPLES, "collinear", "partial", "outside", "many", 3)
@example(GRID_MIN_SAMPLES, "identical", "spent", "far", "beyond", 4)
@example(3001, "uniform", "claimed", "far", "total", 5)
@example(GRID_MIN_SAMPLES, "uniform", "empty", "inside", "one", 6)
def test_grid_claims_equal_whole_cloud_fills(n, layout, state, where, demand_kind, seed):
    """A claim through the cloud's CloudGrid, and through the plain array,
    returns the bits, or raises the error type, of the same claim ranked
    over the whole cloud by _whole_cloud_claim. Clouds of GRID_MIN_SAMPLES
    or more take the grid's blocks. The "duplicates" "lattice" "boundary"
    examples put a sample outside the first block on a key equal to its
    bound, where a claim that ranked it after an equal key inside the
    block would take the wrong sample. So do the grid claims given the
    engine's hints: a mass floor, exact or half the view's mass, a weight
    ceiling above the largest weight, and a first block that served
    another claim at an unrelated centre."""
    rng = np.random.default_rng(seed)
    positions = {"uniform": lambda: rng.uniform(-50.0, 50.0, size=(n, 2)),
                 "clusters": lambda: (rng.normal(0.0, 2.0, size=(n, 2))
                                      + rng.choice([-30.0, 0.0, 30.0], size=(n, 2))),
                 # few distinct points: most keys tie
                 "duplicates": lambda: rng.integers(-5, 6, size=(n, 2)).astype(float),
                 "collinear": lambda: np.column_stack([rng.uniform(-50.0, 50.0, n),
                                                       np.full(n, 2.5)]),
                 "identical": lambda: np.tile([1.5, -2.0], (n, 1))}[layout]()
    weights = np.full(n, 1.0 / n)
    if state == "spent":
        weights[rng.random(n) < 0.7] = 0.0
    elif state == "partial":
        weights *= rng.choice([0.0, 1e-3, 0.5, 1.0], size=n)
    elif state == "outlier":
        weights[rng.integers(n)] = 200.0 / n
    elif state == "claimed":  # holes where earlier claims emptied the cloud
        for _ in range(40):
            plan = weight_update(positions, weights, rng.uniform(-40.0, 40.0, 2),
                                 min(float(rng.uniform(1.0, 30.0)) / n, weights.sum()))
            weights[plan.indices] -= plan.gammas
    elif state == "empty":
        weights[:] = 0.0
    lo, hi = positions.min(axis=0), positions.max(axis=0)
    # a lattice centre ties the keys of "duplicates" samples in different
    # cells, and puts some exactly on a block's bound
    centre = {"inside": lambda: rng.uniform(lo, hi),
              "lattice": lambda: rng.integers(-5, 6, size=2).astype(float),
              "outside": lambda: hi + rng.uniform(1.0, 20.0, 2),
              "far": lambda: np.array([1e6, -3e5])}[where]()
    # "boundary" ends the update's claim at the edge of a group of tied keys
    live = np.flatnonzero(weights > 0)
    d2 = _squared_distances(positions[live], centre)
    cum = np.cumsum(weights[live[np.argsort(d2, kind="stable")]])
    total = float(weights.sum())
    demand = {"one": lambda: 0.5 / n, "few": lambda: float(rng.uniform(1.0, 20.0)) / n,
              "boundary": lambda: float(cum[rng.integers(cum.size)]),
              "many": lambda: 0.3 * total, "total": lambda: total,
              "beyond": lambda: 1.5 * total}[demand_kind]() if live.size else 1.0 / n
    grid = CloudGrid(positions)
    assert (grid.order is not None) == (n >= GRID_MIN_SAMPLES)
    foreign = select_local_samples(np.full(n, 1.0 / n), grid, rng.uniform(lo, hi),
                                   float(rng.uniform(1.0, 20.0)) / n).block
    ceiling = 2.0 * float(weights.max()) or 1.0
    hints = [{}, {"mass": total}, {"mass": 0.5 * total}, {"w_max": ceiling},
             {"block": foreign}, {"mass": 0.5 * total, "w_max": ceiling, "block": foreign}]
    for weighted, claim in (
            (True, lambda p, **h: select_local_samples(weights, p, centre, demand, **h)),
            (False, lambda p, w_max=None, **h: weight_update(p, weights, centre, demand, **h))):
        want = _bits(_outcome(lambda: _whole_cloud_claim(positions, weights, centre, demand,
                                                         weighted)))
        for hint in hints:
            assert _bits(_outcome(lambda: claim(grid, **hint))) == want, hint
        assert _bits(_outcome(lambda: claim(positions))) == want

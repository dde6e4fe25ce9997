"""Per-step optimal control: gains, optima, convergence range, ellipses.

The quadratic gain form is cross-checked against a direct simulation of
the dynamics (the definitional route), and optima against perturbation
and grid oracles, so the two routes stay independent.
"""

import numpy as np
import pytest

from dpcover import controller
from dpcover.controller import (GainTerms, convergence_check,
                                convergence_ellipse, delta_w, gain_terms,
                                optimal_input_constrained,
                                optimal_input_unconstrained)
from dpcover.dynamics import make_preset, output, step_events
from dpcover.errors import InputError
from dpcover.linalg import InputPolytope, solve_psd_qp
from dpcover.transport import LocalSelection, select_local_samples

from conftest import integrator_chain


def first_order_gains(x=(0.0, 0.0), q_bar=(3.0, 4.0), alpha=0.2):
    sys = make_preset("first_order", 0.1)
    return gain_terms(sys, np.asarray(x, float), np.asarray(q_bar, float), alpha)


def box(m, hi):
    return InputPolytope.box(hi, m)


# ----------------------------------------------------------------------- gains

def test_gains_first_order_example():
    gt = first_order_gains()
    assert np.allclose(gt.D1, 0.2 * np.eye(2))
    assert np.allclose(gt.D2, 0.2 * np.array([-3.0, -4.0]))
    assert gt.D3 == pytest.approx(0.0, abs=1e-14)


def test_gains_agent_at_target():
    gt = first_order_gains(x=(3.0, 4.0), q_bar=(3.0, 4.0))
    assert np.allclose(gt.D2, 0.0, atol=1e-14)
    assert gt.D3 == pytest.approx(0.0, abs=1e-12)


def test_gains_quadrotor_d1_structure():
    sys = make_preset("planar_quadrotor", 0.1)
    alpha = 1e-3
    gt = gain_terms(sys, np.zeros(8), np.array([1.0, 1.0]), alpha)
    G = sys.C @ np.linalg.matrix_power(sys.A, 3) @ sys.B
    assert np.allclose(gt.D1, alpha * G.T @ G, atol=1e-14)


# --------------------------------------------------------------------- delta_w

def test_delta_w_reaching_the_center():
    gt = first_order_gains()
    assert delta_w(gt, [3.0, 4.0]) == pytest.approx(-5.0, abs=1e-12)


def test_delta_w_no_motion_needed():
    gt = first_order_gains(x=(3.0, 4.0), q_bar=(3.0, 4.0))
    assert delta_w(gt, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_delta_w_zero_on_the_circle():
    # inputs that land on the circle ||y' - qbar|| = ||y - qbar|| change nothing
    gt = first_order_gains(x=(0.0, 0.0), q_bar=(3.0, 4.0))
    # reflect the agent across the center: y' = 2*qbar - y, same radius
    assert delta_w(gt, [6.0, 8.0]) == pytest.approx(0.0, abs=1e-12)
    # rotate: any point at distance 5 from (3, 4)
    assert delta_w(gt, [3.0 + 5.0, 4.0 - 0.0]) == pytest.approx(0.0, abs=1e-12)


def simulate_delta_w(sys, x, selection, u):
    """Definitional route: step the dynamics P times and difference the
    weighted squared distances to the selected sample-points."""
    y0 = output(sys, x)
    for i in range(sys.P):
        x = step_events(sys, x, u if i == 0 else np.zeros(sys.m))[0]
    yp = output(sys, x)
    d_now = np.sum((selection.points - y0) ** 2, axis=1)
    d_then = np.sum((selection.points - yp) ** 2, axis=1)
    return float(selection.taken @ (d_then - d_now))


def random_selection(rng, n_pts=8):
    pts = rng.uniform(-5, 5, size=(n_pts, 2))
    taken = rng.random(n_pts) / n_pts + 1e-4
    center = (taken @ pts) / taken.sum()
    return LocalSelection(indices=np.arange(n_pts), taken=taken, points=pts,
                          mass_center=center, exhausted=False)


def test_quadratic_form_matches_simulation(rng):
    for _ in range(200):
        depth = int(rng.integers(1, 5))
        sys = integrator_chain(depth, 2, 0.1, rng)
        x = rng.normal(size=sys.n)
        sel = random_selection(rng, int(rng.integers(1, 10)))
        gt = gain_terms(sys, x, sel.mass_center, sel.total_mass)
        u = rng.normal(size=sys.m) * 3.0
        want = simulate_delta_w(sys, x, sel, u)
        got = delta_w(gt, u)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


# ---------------------------------------------------------------------- optima

def test_optimal_input_first_order():
    u = optimal_input_unconstrained(first_order_gains())
    assert np.allclose(u, [3.0, 4.0], atol=1e-10)


def test_optimal_input_zero_gradient():
    gt = GainTerms(D1=np.eye(2), D2=np.zeros(2), D3=0.0)
    assert np.allclose(optimal_input_unconstrained(gt), 0.0)


def test_optimal_input_rank_deficient_minimum_norm():
    gt = GainTerms(D1=np.diag([1.0, 0.0]), D2=np.array([-1.0, 0.0]), D3=0.0)
    assert np.allclose(optimal_input_unconstrained(gt), [1.0, 0.0], atol=1e-10)


def test_constrained_box_clips():
    u = optimal_input_constrained(first_order_gains(), box(2, 2.0))
    assert np.allclose(u, [2.0, 2.0], atol=1e-8)


def test_constrained_box_contains_optimum():
    u = optimal_input_constrained(first_order_gains(), box(2, 10.0))
    assert np.allclose(u, [3.0, 4.0], atol=1e-8)


def test_both_optima_return_u_star_when_it_is_feasible(rng):
    """u* = -D1^+ D2' is derived once, in GainTerms: the analytic input
    and the QP on a polytope that contains it both hand back its bits."""
    for _ in range(20):
        sys = integrator_chain(int(rng.integers(1, 4)), 2, 0.1, rng)
        gt = gain_terms(sys, rng.normal(size=sys.n), rng.normal(size=2), 0.3)
        assert gt.u_star.tobytes() == (-gt.D1_pinv @ gt.D2).tobytes()
        assert optimal_input_unconstrained(gt).tobytes() == gt.u_star.tobytes()
        polytope = box(sys.m, 2.0 * float(np.abs(gt.u_star).max()) + 1.0)
        assert solve_psd_qp(gt, polytope).tobytes() == gt.u_star.tobytes()


def test_constrained_never_beats_unconstrained(rng):
    for _ in range(50):
        sys = integrator_chain(int(rng.integers(1, 4)), 2, 0.1, rng)
        x = rng.normal(size=sys.n) * 2.0
        sel = random_selection(rng, 5)
        gt = gain_terms(sys, x, sel.mass_center, sel.total_mass)
        uu = optimal_input_unconstrained(gt)
        uc = optimal_input_constrained(gt, box(sys.m, float(rng.uniform(0.1, 2.0))))
        assert delta_w(gt, uc) >= delta_w(gt, uu) - 1e-10


def test_optimality_against_perturbations(rng):
    for _ in range(100):
        sys = integrator_chain(int(rng.integers(1, 5)), 2, 0.1, rng)
        x = rng.normal(size=sys.n)
        sel = random_selection(rng, 4)
        gt = gain_terms(sys, x, sel.mass_center, sel.total_mass)
        u = optimal_input_unconstrained(gt)
        base = delta_w(gt, u)
        deltas = rng.normal(size=(100, sys.m)) * rng.uniform(1e-3, 10.0)
        for d in deltas:
            assert delta_w(gt, u + d) >= base - 1e-10


def test_flat_directions_leave_delta_w_unchanged(rng):
    gt = GainTerms(D1=np.diag([2.0, 0.0]), D2=np.array([-1.0, 0.0]), D3=-0.1)
    u = optimal_input_unconstrained(gt)
    base = delta_w(gt, u)
    for _ in range(50):
        h = rng.normal(size=2) * 10.0
        flat = np.array([0.0, h[1]])  # null space of D1
        assert delta_w(gt, u + flat) == pytest.approx(base, abs=1e-9)


# ---------------------------------------------------------------------- range

def test_convergence_range_disk():
    gt = first_order_gains()
    # range is the open disk ||u - (3,4)|| < 5
    assert convergence_check(gt, [1.0, 1.0]) == (True, True)
    in_range, nonempty = convergence_check(gt, [0.0, 0.0])  # boundary point
    assert not in_range and nonempty
    assert convergence_check(gt, [-1.0, -1.0])[0] is False


def test_center_is_in_range():
    gt = first_order_gains()
    u = optimal_input_unconstrained(gt)
    assert convergence_check(gt, u) == (True, True)


def test_empty_range():
    gt = GainTerms(D1=np.eye(2), D2=np.zeros(2), D3=0.5)
    in_range, nonempty = convergence_check(gt, [0.0, 0.0])
    assert not nonempty
    assert not in_range


def test_range_sign_equivalence(rng):
    band = 1e-10
    for _ in range(200):
        R = rng.normal(size=(2, 2))
        D1 = R.T @ R + 0.1 * np.eye(2)
        D2 = rng.normal(size=2)
        D3 = float(rng.normal())
        gt = GainTerms(D1=D1, D2=D2, D3=D3)
        for _ in range(20):
            u = rng.normal(size=2) * 4.0
            dw = delta_w(gt, u)
            if abs(dw) <= band:
                continue
            assert convergence_check(gt, u)[0] == (dw < 0)


# -------------------------------------------------------------------- ellipses

def test_ellipse_is_the_circle():
    pts = convergence_ellipse(first_order_gains(), 64)
    radii = np.linalg.norm(pts - [3.0, 4.0], axis=1)
    assert np.allclose(radii, 5.0, atol=1e-9)
    dws = [delta_w(first_order_gains(), u) for u in pts]
    assert np.allclose(dws, 0.0, atol=1e-9)  # boundary means delta W = 0


def test_ellipse_four_points_at_quarter_angles():
    pts = convergence_ellipse(first_order_gains(), 4)
    want = np.array([[8.0, 4.0], [3.0, 9.0], [-2.0, 4.0], [3.0, -1.0]])
    assert np.allclose(pts, want, atol=1e-9)


def test_ellipse_degenerate_radius_zero():
    # D2 D1^+ D2' == D3 collapses the boundary to the center point
    gt = GainTerms(D1=np.eye(2), D2=np.array([-1.0, 0.0]), D3=1.0)
    pts = convergence_ellipse(gt, 8)
    assert np.allclose(pts, [1.0, 0.0], atol=1e-12)


def test_ellipse_rank_deficient_rejected():
    gt = GainTerms(D1=np.diag([1.0, 0.0]), D2=np.array([-1.0, 0.0]), D3=-1.0)
    with pytest.raises(InputError):
        convergence_ellipse(gt, 16)


@pytest.mark.parametrize("n_points", [2.5, True])
def test_ellipse_point_count_must_be_an_integer(n_points):
    gt = GainTerms(D1=np.eye(2), D2=np.zeros(2), D3=-1.0)
    with pytest.raises(InputError, match="n_points must be an integer"):
        convergence_ellipse(gt, n_points)
    assert convergence_ellipse(gt, np.int64(3)).shape == (3, 2)


def test_ellipse_empty_range_rejected():
    gt = GainTerms(D1=np.eye(2), D2=np.zeros(2), D3=0.5)
    with pytest.raises(InputError):
        convergence_ellipse(gt, 16)


# ------------------------------------------------------------ curvature memo

@pytest.fixture
def cold_memo():
    controller._curvature_of.cache_clear()


@pytest.mark.parametrize("D1, message", [
    (np.array([[1.0, 0.5], [0.0, 1.0]]), "not symmetric"),
    (np.diag([1.0, -1.0]), "positive semidefinite"),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
    (np.array([[1.0, 0.0], [0.0, np.inf]]), "non-finite"),
])
def test_memo_never_admits_an_invalid_d1(cold_memo, D1, message):
    valid = GainTerms(D1=np.eye(2), D2=np.ones(2), D3=0.0)  # cached
    for _ in range(2):  # the failure is not cached either
        with pytest.raises(InputError, match=message):
            GainTerms(D1=D1, D2=np.ones(2), D3=0.0)
    assert GainTerms(D1=np.eye(2), D2=np.zeros(2), D3=0.0).D1 is valid.D1


def test_memo_hit_is_bit_identical_to_a_cold_build():
    D1 = 0.2 * np.array([[1.3, 0.1 + 1e-17], [0.1, 0.7]])  # symmetric within tolerance
    D2, D3 = np.array([-0.61, 0.37]), 0.25
    controller._curvature_of.cache_clear()
    cold = GainTerms(D1=D1, D2=D2, D3=D3)
    hit = GainTerms(D1=D1.copy(), D2=D2, D3=D3)
    assert hit.D1 is cold.D1 and hit.D1_pinv is cold.D1_pinv
    hit_curvature = controller._curvature(D1)
    controller._curvature_of.cache_clear()
    fresh = GainTerms(D1=D1, D2=D2, D3=D3)
    assert fresh.D1 is not cold.D1
    # symmetrised D1, D1^+ and the eigenpairs
    for a, b in zip(hit_curvature, controller._curvature(D1), strict=True):
        assert a.tobytes() == b.tobytes()
    for name in ("D1", "D1_pinv", "u_star"):
        assert getattr(hit, name).tobytes() == getattr(fresh, name).tobytes()
    assert np.float64(hit.range_rhs).tobytes() == np.float64(fresh.range_rhs).tobytes()


def test_memo_serves_interleaved_d1_and_stays_bounded(cold_memo, monkeypatch):
    calls = []
    pinv = controller.pseudo_inverse

    def counting(M):
        calls.append(M)
        return pinv(M)

    monkeypatch.setattr(controller, "pseudo_inverse", counting)
    d1s = [np.eye(2), np.diag([np.nextafter(1.0, 2.0), 1.0])]
    for step in range(10):  # two agents' D1, an ulp apart, step by step
        gt = GainTerms(D1=d1s[step % 2], D2=np.ones(2), D3=0.0)
        assert gt.D1.tobytes() == d1s[step % 2].tobytes()
    assert len(calls) == 2
    info = controller._curvature_of.cache_info()
    for scale in range(1, 3 * info.maxsize):
        GainTerms(D1=scale * np.eye(2), D2=np.ones(2), D3=0.0)
        info = controller._curvature_of.cache_info()
        assert info.currsize <= info.maxsize


def test_shared_curvature_is_read_only(cold_memo):
    first = GainTerms(D1=np.eye(2), D2=np.ones(2), D3=0.0)
    second = GainTerms(D1=np.eye(2), D2=np.zeros(2), D3=1.0)
    assert second.D1 is first.D1
    for arr in (first.D1, first.D1_pinv, first.u_star,
                *controller._curvature(first.D1)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 5.0
    assert second.D1_pinv.tobytes() == np.eye(2).tobytes()


# ------------------------------------------------------------- selection + gains

def test_gains_with_real_selection(rng):
    # end-to-end stage A arithmetic on a concrete selection
    sys = make_preset("first_order", 0.1)
    positions = rng.uniform(0, 10, size=(30, 2))
    weights = np.full(30, 1.0 / 30)
    sel = select_local_samples(weights, positions, np.array([5.0, 5.0]), 0.1)
    x = np.array([5.0, 5.0])
    gt = gain_terms(sys, x, sel.mass_center, sel.total_mass)
    u = optimal_input_unconstrained(gt)
    assert np.allclose(x + u, sel.mass_center, atol=1e-9)
    assert delta_w(gt, u) == pytest.approx(
        -sel.total_mass * np.sum((x - sel.mass_center) ** 2), abs=1e-12)

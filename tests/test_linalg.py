"""Numeric kernels: pseudoinverse, input polytope, PSD QP, exact transport.

The QP cases are checked against dense grid searches and the transport
solver against an exhaustive basis enumeration (small sizes) plus an LP
dual certificate (larger sizes), so no assertion trusts the solver alone.
The assignment branch (equal sizes, one mass value) is checked against
the HiGHS LP (`_transport_lp`, kept here as the oracle), bit for bit,
and against the enumeration; the transportation simplex, which takes
every other instance, against the same LP at relative 1e-12 and against
the enumeration; one digest pins its plans' bytes, and the prices of its
final tree pin its stop rule. The assignment core that linalg loads by
file is pinned to scipy's public linear_sum_assignment.
"""

import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from dpcover import linalg
from dpcover.controller import GainTerms
from dpcover.engine import run
from dpcover.errors import InfeasibleError, InputError, SizeError
from dpcover.linalg import (InputPolytope, _chebyshev_centre, pseudo_inverse,
                            solve_psd_qp, solve_transport_exact)
from dpcover.scenario import build_scenario

from conftest import run_fresh_python

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# ---------------------------------------------------------------- pseudoinverse

def test_pinv_identity():
    assert np.allclose(pseudo_inverse(np.eye(2)), np.eye(2))


def test_pinv_rank_deficient_diagonal():
    got = pseudo_inverse(np.diag([2.0, 0.0]))
    assert np.allclose(got, np.diag([0.5, 0.0]))


def test_pinv_nonfinite_rejected():
    with pytest.raises(InputError):
        pseudo_inverse(np.array([[1.0, np.nan], [0.0, 1.0]]))


def _penrose_ok(M, Mp, tol=1e-8):
    scale = max(1.0, np.abs(M).max())
    return (np.allclose(M @ Mp @ M, M, atol=tol * scale)
            and np.allclose(Mp @ M @ Mp, Mp, atol=tol * max(1.0, np.abs(Mp).max()))
            and np.allclose((M @ Mp).T, M @ Mp, atol=tol)
            and np.allclose((Mp @ M).T, Mp @ M, atol=tol))


def test_pinv_penrose_identities_random(rng):
    for _ in range(200):
        r = int(rng.integers(1, 9))
        c = int(rng.integers(1, 9))
        M = rng.normal(size=(r, c))
        if rng.random() < 0.3:  # force rank deficiency sometimes
            M[:, -1] = M[:, 0] if c > 1 else 0.0
        assert _penrose_ok(M, pseudo_inverse(M))


def test_pinv_full_row_rank_reproduces():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(2, 3))
    Mp = pseudo_inverse(M)
    assert np.allclose(M @ Mp @ M, M, atol=1e-8)


# -------------------------------------------------------------- input polytope

def box(m, hi):
    return InputPolytope.box(hi, m)


def quadratic(H, g):
    """The checked objective u'Hu + 2g'u the QP solver takes."""
    return GainTerms(D1=H, D2=g, D3=0.0)


def test_polytope_box():
    poly = box(3, 2.0)
    assert np.array_equal(poly.Cu, np.vstack([np.eye(3), -np.eye(3)]))
    assert np.array_equal(poly.Du, np.full(6, 2.0))
    assert np.all(poly.Cu @ poly.interior <= poly.Du)
    assert np.array_equal(poly.interior, np.zeros(3))
    assert np.array_equal(poly.interior, _chebyshev_centre(poly.Cu, poly.Du))


def test_polytope_box_empty_or_off_centre_takes_the_lp():
    with pytest.raises(InfeasibleError):
        box(2, -1.0)
    shifted = InputPolytope(np.vstack([np.eye(2), -np.eye(2)]), [3.0, 3.0, 1.0, 1.0])
    assert np.allclose(shifted.interior, [1.0, 1.0])


@pytest.mark.parametrize("Cu, Du", [
    (np.empty((0, 2)), np.empty(0)),
    ([[1.0, 0.0], [-1.0, 0.0]], [1.0]),
    ([[1.0, np.nan], [-1.0, 0.0]], [1.0, 1.0]),
    ([[1.0, 0.0], [-1.0, 0.0]], [1.0, np.inf]),
], ids=["zero-rows", "du-length", "cu-nan", "du-inf"])
def test_polytope_malformed_rejected(Cu, Du):
    with pytest.raises(InputError):
        InputPolytope(Cu, Du)


def test_qp_infeasible_raises():
    Cu = np.array([[1.0], [-1.0]])
    Du = np.array([-2.0, 1.0])  # u <= -2 and u >= -1
    with pytest.raises(InfeasibleError):
        InputPolytope(Cu, Du)


def test_qp_half_plane():
    # u1 <= 1 is unbounded, so its Chebyshev LP is unbounded; not empty
    poly = InputPolytope(np.array([[1.0, 0.0]]), np.array([1.0]))
    assert poly.Cu @ poly.interior <= poly.Du
    u = solve_psd_qp(quadratic(np.eye(2), np.array([-5.0, 0.0])), poly)
    assert np.allclose(u, [1.0, 0.0], atol=1e-8)


def test_polytope_copies_without_freezing_the_caller():
    Cu = np.vstack([np.eye(2), -np.eye(2)])
    Du = np.ones(4)
    poly = InputPolytope(Cu, Du)
    Cu[0, 0] = 5.0  # the caller's arrays stay writable ...
    Du[:] = 0.0
    assert poly.Cu[0, 0] == 1.0 and np.all(poly.Du == 1.0)  # ... and unshared
    for arr in (poly.Cu, poly.Du, poly.interior):
        with pytest.raises(ValueError):
            arr[0] = 0.0


# ------------------------------------------------------------------------- QP


def grid_search_box(H, g, hi, res=1e-3):
    """Dense search over the box; oracle for 2-d problems."""
    axis = np.arange(-hi, hi + res / 2, res)
    best, best_u = np.inf, None
    for u1 in axis:
        # vectorize the inner loop for speed
        u = np.column_stack([np.full_like(axis, u1), axis])
        vals = np.einsum("ij,jk,ik->i", u, H, u) + 2.0 * u @ g
        j = int(np.argmin(vals))
        if vals[j] < best:
            best, best_u = vals[j], u[j]
    return best_u, best


def qp_objective(H, g, u):
    return float(u @ H @ u + 2.0 * g @ u)


def test_qp_box_projection_case():
    H = 0.2 * np.eye(2)
    g = -0.2 * np.array([3.0, 4.0])
    u = solve_psd_qp(quadratic(H, g), box(2, 2.0))
    assert np.allclose(u, [2.0, 2.0], atol=1e-8)
    _, oracle = grid_search_box(H, g, 2.0)
    assert qp_objective(H, g, u) <= oracle + 1e-6


def test_qp_interior_optimum():
    u = solve_psd_qp(quadratic(np.eye(2), np.array([-1.0, 0.0])), box(2, 5.0))
    assert np.allclose(u, [1.0, 0.0], atol=1e-8)


def test_qp_flat_direction_minimum_norm():
    H = np.diag([1.0, 0.0])
    g = np.array([-1.0, 0.0])
    u = solve_psd_qp(quadratic(H, g), box(2, 2.0))
    # u2 is free in the objective; the minimum-norm member is (1, 0)
    assert np.allclose(u, [1.0, 0.0], atol=1e-8)
    _, oracle = grid_search_box(H, g, 2.0)
    assert qp_objective(H, g, u) <= oracle + 1e-6


def test_qp_polish_moves_an_interior_flat_coordinate_to_the_minimum_norm_point():
    # u2 is flat and u2 >= 1; the loop ends at (0.7, 2) from the interior
    # (2, 2) with an empty working set, and the polish takes u2 down to 1
    poly = InputPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                         np.array([3.0, 3.0, 3.0, -1.0]))
    assert np.array_equal(poly.interior, [2.0, 2.0])
    u = solve_psd_qp(quadratic(np.diag([1.0, 0.0]), np.array([-0.7, 0.0])), poly)
    assert np.allclose(u, [0.7, 1.0], rtol=0.0, atol=1e-12)


def test_qp_unbounded_below_raises():
    # the linear objective 2 u1 falls without bound on the half-plane u1 <= 1
    poly = InputPolytope(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(InfeasibleError, match="unbounded below"):
        solve_psd_qp(quadratic(np.zeros((2, 2)), np.array([1.0, 0.0])), poly)


def test_qp_non_psd_rejected():
    with pytest.raises(InputError, match="positive semidefinite"):
        quadratic(np.diag([1.0, -1.0]), np.zeros(2))
    with pytest.raises(InputError, match="symmetric"):
        quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))


def test_qp_polytope_columns_must_match_h():
    with pytest.raises(InputError):
        solve_psd_qp(quadratic(np.eye(3), np.zeros(3)), box(2, 1.0))


def _kkt_residual(H, g, Cu, Du, u, tol=1e-6):
    """Stationarity/complementarity via nonnegative least squares on the
    active set; returns the stationarity residual."""
    from scipy.optimize import nnls

    slack = Du - Cu @ u
    assert np.all(slack >= -tol), "infeasible point"
    active = slack <= 1e-7
    grad = 2.0 * H @ u + 2.0 * g
    if not np.any(active):
        return float(np.linalg.norm(grad))
    lam, _ = nnls(Cu[active].T, -grad)
    return float(np.linalg.norm(Cu[active].T @ lam + grad))


def _random_polytope(rng, m):
    """3-6 unit-normal rows at random margins around a random centre c;
    returns the polytope and c."""
    n = int(rng.integers(3, 7))
    Cu = rng.normal(size=(n, m))
    Cu /= np.linalg.norm(Cu, axis=1, keepdims=True)
    c = rng.normal(size=m)
    return InputPolytope(Cu, Cu @ c + rng.uniform(0.2, 3.0, size=n)), c


def _unbounded_below(H, g, Cu):
    """Whether some direction d with Cu d <= 0 and H d = 0 has g'd < 0."""
    from scipy.linalg import null_space
    from scipy.optimize import linprog

    Z = null_space(H)
    if Z.shape[1] == 0:
        return False
    res = linprog(Z.T @ g, A_ub=Cu @ Z, b_ub=np.zeros(Cu.shape[0]),
                  bounds=[(-1.0, 1.0)] * Z.shape[1], method="highs")
    return res.status == 0 and res.fun < -1e-9


def test_qp_kkt_property_random(rng):
    # boxes, whose rows have coefficients 0 and +-1, and general polytopes,
    # where a row-by-row and a vectorised Cu @ x can differ in the last bit
    for _ in range(300):
        m = int(rng.integers(1, 4))
        R = rng.normal(size=(m, m))
        H = R.T @ R
        if rng.random() < 0.3:  # rank deficiency
            H = R.T @ np.diag([1.0] * (m - 1) + [0.0]) @ R if m > 1 else np.zeros((1, 1))
            H = (H + H.T) / 2
        g = rng.normal(size=m)
        hi = float(rng.uniform(0.2, 3.0))
        for poly, centre, reach in ((box(m, hi), np.zeros(m), hi),
                                    (*_random_polytope(rng, m), 3.0)):
            Cu, Du = poly.Cu, poly.Du
            try:
                u = solve_psd_qp(quadratic(H, g), poly)
            except InfeasibleError:
                assert _unbounded_below(H, g, Cu)
                continue
            assert np.all(Cu @ u <= Du + 1e-8)
            assert _kkt_residual(H, g, Cu, Du, u) <= 1e-6
            # no random feasible point may beat the returned objective
            cand = centre + rng.uniform(-reach, reach, size=(50, m))
            cand = cand[np.all(cand @ Cu.T <= Du, axis=1)]
            vals = np.einsum("ij,jk,ik->i", cand, H, cand) + 2.0 * cand @ g
            assert qp_objective(H, g, u) <= vals.min(initial=np.inf) + 1e-8


# ------------------------------------------------------------------ transport

def test_transport_single_pair():
    plan, cost = solve_transport_exact(np.array([1.0]), np.array([1.0]),
                                       np.array([[25.0]]))
    assert np.allclose(plan, [[1.0]])
    assert cost == pytest.approx(25.0, abs=1e-10)


def test_transport_identical_clouds_zero_cost():
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
    cost = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    w = np.array([0.2, 0.5, 0.3])
    _, c = solve_transport_exact(w, w, cost)
    assert c == pytest.approx(0.0, abs=1e-9)


def test_transport_line_instance():
    # supply at x = 0, 1; demand at x = 1, 2; brute force the single free
    # parameter t = mass sent 0 -> 2
    supply = np.array([0.5, 0.5])
    demand = np.array([0.5, 0.5])
    cost = np.array([[1.0, 4.0], [0.0, 1.0]])
    best = min(
        (0.5 - t) * 1.0 + t * 4.0 + t * 0.0 + (0.5 - t) * 1.0
        for t in np.linspace(0.0, 0.5, 5001)
    )
    _, c = solve_transport_exact(supply, demand, cost)
    assert c == pytest.approx(1.0, abs=1e-9)
    assert c == pytest.approx(best, abs=1e-6)


@pytest.mark.parametrize("supply, demand, cost, error, message", [
    pytest.param([1.5, -0.5], [1.0], [[1.0], [2.0]], InputError, "nonnegative",
                 id="negative-mass"),
    pytest.param([np.nan], [1.0], [[1.0]], InputError, "non-finite masses",
                 id="nan-mass"),
    pytest.param([0.5, 0.5], [1.0], [[1.0, 2.0]], InputError, "1-D and cost",
                 id="cost-shape"),
    pytest.param([[0.5], [0.5]], [1.0], [[1.0], [2.0]], InputError, "1-D and cost",
                 id="2-d-mass"),
    pytest.param([], [], np.zeros((0, 0)), InputError, "nonempty, 1-D and cost",
                 id="empty-masses"),
    pytest.param([1.0], [1.0], [[np.inf]], InputError, "cost contains non-finite",
                 id="nonfinite-cost"),
    pytest.param([1.0], [0.5], [[1.0]], InputError, "not balanced", id="unbalanced"),
    pytest.param(np.ones(501) / 501, [1.0], np.ones((501, 1)), SizeError,
                 "501x1 exceeds the 500 cap", id="size-cap"),
    # equal sizes with one mass value: the checks still come before the dispatch
    pytest.param(np.full(501, 1 / 501), np.full(501, 1 / 501), np.ones((501, 501)),
                 SizeError, "501x501 exceeds the 500 cap", id="equal-uniform-size-cap"),
    pytest.param([0.5, 0.5], [0.5, 0.5], [[1.0, np.inf], [2.0, 0.0]], InputError,
                 "cost contains non-finite", id="equal-uniform-nonfinite-cost"),
    pytest.param([[0.5], [0.5]], [[0.5], [0.5]], np.ones((2, 2)), InputError,
                 "1-D and cost", id="equal-uniform-2-d-masses"),
])
def test_transport_rejects_bad_input(supply, demand, cost, error, message):
    """Each check of the solver's arrays, and the size cap, by its message."""
    with pytest.raises(error, match=message):
        solve_transport_exact(supply, demand, cost)


def enumerate_transport_optimum(supply, demand, cost):
    """Exhaustive basis enumeration over the transportation polytope.

    The vertices of {G >= 0, row sums = supply, col sums = demand} are the
    basic solutions with at most m + n - 1 support cells; trying every
    candidate basis is a true (if slow) LP oracle for small instances.
    """
    m, n = cost.shape
    # drop the last (redundant) balance row so candidate bases are square
    Aeq = np.zeros((m + n - 1, m * n))
    for i in range(m):
        Aeq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n - 1):
        Aeq[m + j, j::n] = 1.0
    beq = np.concatenate([supply, demand[:-1]])
    k = m + n - 1
    bases = np.array(list(itertools.combinations(range(m * n), k)))
    Ab = Aeq[:, bases.ravel()].reshape(k, len(bases), k).transpose(1, 0, 2)
    good = np.abs(np.linalg.det(Ab)) > 1e-9
    g = int(good.sum())
    sols = np.linalg.solve(Ab[good],
                           np.broadcast_to(beq[:, None], (g, k, 1)).copy())[:, :, 0]
    feas = np.all(sols >= -1e-10, axis=1)
    costs = np.einsum("ij,ij->i", cost.ravel()[bases[good]], sols)
    return float(costs[feas].min())


def _transport_lp(supply, demand, cost):
    """The optimal plan of a balanced transport instance, by HiGHS with
    1e-10 feasibility tolerances, clipped at 0: the oracle for the
    assignment branch and the transportation simplex."""
    n_s, n_d = cost.shape
    A_eq = sparse.vstack([
        sparse.kron(sparse.eye(n_s), np.ones((1, n_d))),
        sparse.kron(np.ones((1, n_s)), sparse.eye(n_d)),
    ], format="csc")
    b_eq = np.concatenate([supply, demand])
    res = linprog(
        cost.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, f"transport LP failed: {res.message}"
    return np.maximum(res.x.reshape(n_s, n_d), 0.0)


def random_balanced(rng, m, n):
    # rational masses: integer units over a common denominator
    s = rng.integers(1, 9, size=m)
    while s.sum() < n:
        s = s + 1
    # every demand point gets at least one unit so masses stay positive
    d = 1.0 + rng.multinomial(int(s.sum()) - n, np.full(n, 1.0 / n))
    s = s.astype(float)
    tot = s.sum()
    a = rng.normal(size=(m, 2))
    b = rng.normal(size=(n, 2))
    cost = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return s / tot, d / tot, cost


def test_transport_matches_enumeration_oracle(rng):
    for _ in range(40):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        s, d, cost = random_balanced(rng, m, n)
        _, got = solve_transport_exact(s, d, cost)
        want = enumerate_transport_optimum(s, d, cost)
        assert got == pytest.approx(want, abs=1e-9)


def dual_certificate_holds(plan, cost, tol=1e-8):
    """Build tree potentials on the support and verify dual feasibility.

    Returns None when the support is degenerate (disconnected), in which
    case the certificate does not determine the potentials.
    """
    m, n = cost.shape
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    u[0] = 0.0
    support = plan > 1e-12
    for _ in range(m + n):
        for i in range(m):
            for j in range(n):
                if not support[i, j]:
                    continue
                if not np.isnan(u[i]) and np.isnan(v[j]):
                    v[j] = cost[i, j] - u[i]
                elif np.isnan(u[i]) and not np.isnan(v[j]):
                    u[i] = cost[i, j] - v[j]
    if np.any(np.isnan(u)) or np.any(np.isnan(v)):
        return None
    return bool(np.all(u[:, None] + v[None, :] <= cost + tol))


def continuous_balanced(rng, m, n):
    s = rng.random(m) + 0.1
    d = rng.random(n) + 0.1
    d *= s.sum() / d.sum()
    a = rng.normal(size=(m, 2))
    b = rng.normal(size=(n, 2))
    cost = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return s, d, cost


def test_transport_dual_certificate_larger(rng):
    checked = 0
    for _ in range(120):
        m = int(rng.integers(5, 7))
        n = int(rng.integers(5, 7))
        s, d, cost = continuous_balanced(rng, m, n)
        plan, got = solve_transport_exact(s, d, cost)
        assert np.allclose(plan.sum(axis=1), s, atol=1e-9)
        assert np.allclose(plan.sum(axis=0), d, atol=1e-9)
        assert got == pytest.approx(float(np.sum(plan * cost)), abs=1e-9)
        cert = dual_certificate_holds(plan, cost)
        if cert is not None:
            checked += 1
            assert cert
    assert checked >= 100  # degenerate supports should be rare for generic masses


def equal_uniform(seed, n, duplicates=False):
    """(mass, cost): two clouds of n random planar points, each point of
    mass 1/n, and their squared-distance cost. With duplicates, each cloud
    repeats its first ceil(n / 2) points, so optimal plans tie."""
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, n, 2)) * 3.0
    if duplicates:
        half = (n + 1) // 2
        a, b = a[np.arange(n) % half], b[np.arange(n) % half]
    cost = np.sum((b - a[:, None, :]) ** 2, axis=2)
    return np.full(n, 1.0 / n), cost


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=60),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_assignment_plan_is_the_lp_plan_bit_for_bit(n, seed):
    """Distinct points, one mass value: the assignment branch returns the
    LP's plan and total exactly."""
    mass, cost = equal_uniform(seed, n)
    plan, total = solve_transport_exact(mass, mass, cost)
    lp_plan = _transport_lp(mass, mass, cost)
    assert np.array_equal(plan, lp_plan)
    assert total == float(np.sum(lp_plan * cost))


def test_assignment_matches_enumeration_oracle():
    for seed in range(40):
        n = seed % 4 + 1
        mass, cost = equal_uniform(seed, n)
        _, got = solve_transport_exact(mass, mass, cost)
        assert got == pytest.approx(enumerate_transport_optimum(mass, mass, cost),
                                    rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_assignment_with_ties_matches_the_lp_optimum(n):
    """Duplicated points make several plans optimal: the branch may pick a
    different one from the LP's, at the same total."""
    mass, cost = equal_uniform(n, n, duplicates=True)
    plan, total = solve_transport_exact(mass, mass, cost)
    assert np.array_equal(np.sort(plan, axis=None)[-n:], mass)
    assert np.count_nonzero(plan) == n
    lp_plan = _transport_lp(mass, mass, cost)
    assert total == pytest.approx(float(np.sum(lp_plan * cost)), rel=1e-12)
    if n <= 4:
        assert total == pytest.approx(enumerate_transport_optimum(mass, mass, cost),
                                      rel=1e-12)



# ------------------------------------------------ the assignment core's loader

def _desk_calls(monkeypatch, name):
    """The arguments desk document 0 (benchmark seed 7) hands linalg.<name>,
    one list of copies a call."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    calls, solver = [], getattr(linalg, name)

    def recording(*args):
        calls.append([a.copy() for a in args])
        return solver(*args)

    monkeypatch.setattr(linalg, name, recording)
    run(build_scenario(workloads.generate("desk", 7)))
    monkeypatch.setattr(linalg, name, solver)
    return calls


def test_loaded_assignment_matches_the_public_one_bit_for_bit(monkeypatch):
    """The core read from scipy.optimize._lsap returns the public
    linear_sum_assignment's (rows, cols), dtype and bytes included: on
    tied, all-equal, 1x1 and 1e150-scale costs, and on every equal-size
    instance of desk document 0."""
    rng = np.random.default_rng(11)
    desk = [cost for (cost,) in _desk_calls(monkeypatch, "linear_sum_assignment")]
    assert len(desk) == 6 and all(c.shape == (225, 225) for c in desk)
    for cost in [rng.integers(0, 3, size=(30, 30)).astype(float),
                 np.full((25, 25), 2.5), np.zeros((1, 1)),
                 rng.random((40, 40)) * 1e150, *desk]:
        got = linalg.linear_sum_assignment(cost)
        want = scipy.optimize.linear_sum_assignment(cost)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_assignment_loader_falls_back_to_the_public_import(monkeypatch, tmp_path):
    """No file found, or a file that does not load: the public function."""
    monkeypatch.delitem(sys.modules, linalg._LSAP, raising=False)
    monkeypatch.setattr(linalg, "_assignment_path", lambda: None)
    assert linalg._load_assignment() is scipy.optimize.linear_sum_assignment
    broken = tmp_path / "_lsap.so"
    broken.write_bytes(b"not an extension module")
    monkeypatch.setattr(linalg, "_assignment_path", lambda: str(broken))
    assert linalg._load_assignment() is scipy.optimize.linear_sum_assignment


def test_scipy_optimize_imported_after_the_core_reuses_it():
    """In a fresh interpreter, dpcover.linalg loads the core without
    scipy.optimize; a later import of scipy.optimize works and binds the
    same function, and linalg.linprog imports and runs the LP."""
    proc = run_fresh_python([
        "import sys",
        "from dpcover import linalg",
        "assert 'scipy.optimize' not in sys.modules",
        "import scipy.optimize",
        "assert scipy.optimize.linear_sum_assignment is linalg.linear_sum_assignment",
        "res = linalg.linprog([1.0], bounds=[(2.0, 3.0)], method='highs')",
        "assert res.status == 0 and res.x[0] == 2.0",
    ])
    assert proc.returncode == 0, proc.stderr


def _third():
    return np.full(3, 1.0 / 3)


def _ulp_off():
    off = _third()
    off[1] = np.nextafter(off[1], 1.0)
    return off


@pytest.mark.parametrize("supply, demand, simplex_calls", [
    pytest.param(_third(), _third(), 0, id="equal-uniform"),
    pytest.param(np.zeros(3), np.zeros(3), 0, id="equal-uniform-zero"),
    pytest.param(_third(), _ulp_off(), 1, id="one-weight-an-ulp-off"),
    pytest.param(_ulp_off(), _third(), 1, id="one-supply-weight-an-ulp-off"),
    pytest.param(_third(), np.full(3, np.nextafter(1.0 / 3, 1.0)), 1,
                 id="supply-value-differs-from-demand-value"),
    pytest.param(_third(), np.full(2, 0.5), 1, id="unequal-sizes"),
])
def test_transport_dispatch_rule(monkeypatch, supply, demand, simplex_calls):
    """Only equal sizes with one mass value in both skip the simplex; the
    test is ==, so one ulp sends an instance to the simplex. No instance
    reaches the HiGHS LP."""
    calls, simplex = [], linalg._transport_simplex

    def counting(*args):
        calls.append(1)
        return simplex(*args)

    monkeypatch.setattr(linalg, "_transport_simplex", counting)
    monkeypatch.setattr(linalg, "linprog", None)  # any LP call fails
    rng = np.random.default_rng(5)
    cost = rng.random((supply.size, demand.size))
    plan, _ = solve_transport_exact(supply, demand, cost)
    assert len(calls) == simplex_calls
    assert np.allclose(plan.sum(axis=1), supply, atol=1e-12)
    assert np.allclose(plan.sum(axis=0), demand, atol=1e-12)


def _use_solver(monkeypatch, solver):
    """Send solve_transport_exact's non-assignment instances to `solver`:
    the simplex as it is, or the HiGHS LP in its place."""
    if solver == "oracle":
        monkeypatch.setattr(linalg, "_transport_simplex", _transport_lp)


@pytest.mark.parametrize("solver", ["simplex", "oracle"])
@pytest.mark.parametrize("imbalance", [2e-10, 5e-10, 9e-10])
def test_masses_balanced_within_the_check_are_solvable(monkeypatch, solver, imbalance):
    """The check admits totals 1e-9 apart; the demand is scaled to the
    supply's total first, so both solvers find a plan. HiGHS alone failed
    on these ("The problem is infeasible") from about 1e-10 on."""
    _use_solver(monkeypatch, solver)
    supply = np.array([0.5, 0.5])
    demand = np.array([0.3, 0.3, 0.4 + imbalance])
    cost = np.array([[1.0, 4.0, 2.0], [0.0, 1.0, 3.0]])
    plan, total = solve_transport_exact(supply, demand, cost)
    assert np.all(plan >= 0)
    assert np.allclose(plan.sum(axis=1), supply, rtol=0, atol=1e-12)
    assert np.allclose(plan.sum(axis=0), demand / demand.sum(), rtol=0, atol=1e-12)
    assert total == pytest.approx(enumerate_transport_optimum(
        supply, demand / demand.sum(), cost), rel=1e-9)


@pytest.mark.parametrize("solver", ["simplex", "oracle"])
def test_supply_within_the_check_of_no_demand_moves_nothing(monkeypatch, solver):
    _use_solver(monkeypatch, solver)
    plan, total = solve_transport_exact([5e-10, 0.0], [0.0, 0.0, 0.0], np.ones((2, 3)))
    assert not plan.any() and total == 0.0


@st.composite
def transport_instances(draw):
    """(supply, demand, cost) of 1..40 by 1..40 points, with duplicated
    points, zero masses or masses an ulp apart drawn in; each side keeps
    some mass and the totals agree within a few ulps."""
    n = draw(st.integers(min_value=1, max_value=40))
    m = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a, b = rng.normal(size=(n, 2)) * 3.0, rng.normal(size=(m, 2)) * 3.0
    if draw(st.booleans()):  # duplicated points: tied costs
        a, b = a[np.arange(n) % ((n + 1) // 2)], b[np.arange(m) % ((m + 1) // 2)]
    supply, demand = (_masses(rng, size, draw(st.sampled_from(["random", "zeros", "ulp-apart"])))
                      for size in (n, m))
    cost = np.sum((b - a[:, None, :]) ** 2, axis=2)
    return supply, demand, cost


def _masses(rng, size, kind):
    """`size` masses summing to 1 (to an ulp): "random", "zeros" (about 40%
    zero, one point at the largest), "ulp-apart" (one value but one mass an
    ulp above) or "uniform"."""
    w = rng.random(size) + 0.1
    if kind == "zeros":
        w[rng.random(size) < 0.4] = 0.0
        w[rng.integers(size)] = 1.0
    elif kind == "ulp-apart":
        w = np.full(size, 1.0 / size)
        w[rng.integers(size)] = np.nextafter(1.0 / size, 1.0)
    elif kind == "uniform":
        w = np.full(size, 1.0 / size)
    return w / w.sum()


def _assert_matches_the_lp(supply, demand, cost):
    plan, total = solve_transport_exact(supply, demand, cost)
    scaled = demand * (supply.sum() / demand.sum())
    lp_plan = _transport_lp(supply, scaled, cost)
    assert total == pytest.approx(float(np.sum(lp_plan * cost)), rel=1e-12)
    assert np.all(plan >= 0)
    assert np.abs(plan.sum(axis=1) - supply).max() <= 1e-12
    assert np.abs(plan.sum(axis=0) - demand).max() <= 1e-12


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(transport_instances())
def test_simplex_matches_the_lp_oracle(instance):
    _assert_matches_the_lp(*instance)


@pytest.mark.parametrize("duplicates", [False, True], ids=["distinct", "duplicated"])
@pytest.mark.parametrize("n", [100, 200])
def test_simplex_matches_the_lp_oracle_at_desk_shapes(n, duplicates):
    """desk's unequal instances: n uniform points against 225, where the
    basis trees have long stems and the pivots move large blocks. With
    duplicated points (each cloud repeats its first half) the costs tie."""
    rng = np.random.default_rng(n + duplicates)
    a, b = rng.normal(size=(n, 2)) * 3.0, rng.normal(size=(225, 2)) * 3.0
    if duplicates:
        a, b = a[np.arange(n) % (n // 2)], b[np.arange(225) % 113]
    cost = np.sum((b - a[:, None, :]) ** 2, axis=2)
    _assert_matches_the_lp(_masses(rng, n, "uniform"), _masses(rng, 225, "uniform"), cost)


def test_simplex_matches_enumeration_oracle():
    """Every shape up to 4x4, on rational masses, whose partial sums tie
    often: degenerate bases are the rule here."""
    rng = np.random.default_rng(23)
    for n, m in itertools.product(range(1, 5), repeat=2):
        for _ in range(4):
            s, d, cost = random_balanced(rng, n, m)
            plan = linalg._transport_simplex(s, d, cost)
            assert float(np.sum(plan * cost)) == pytest.approx(
                enumerate_transport_optimum(s, d, cost), rel=1e-12, abs=1e-15)


def _pinned_instances():
    """200 seeded instances of 1..60 by 1..60 distinct points, every pair
    of the four mass kinds, the demand scaled to the supply's total."""
    rng = np.random.default_rng(29)
    kinds = ["uniform", "random", "zeros", "ulp-apart"]
    for t in range(200):
        n, m = (int(x) for x in rng.integers(1, 61, size=2))
        a, b = rng.normal(size=(n, 2)) * 3.0, rng.normal(size=(m, 2)) * 3.0
        supply, demand = _masses(rng, n, kinds[t % 4]), _masses(rng, m, kinds[t // 4 % 4])
        cost = np.sum((b - a[:, None, :]) ** 2, axis=2)
        yield supply, demand * (supply.sum() / demand.sum()), cost


# SHA-256 of the simplex's plans when its tree was walked node by node
SIMPLEX_PLANS_SHA256 = "08476390190436e1f97c9c71dd0a050c75dfb131ca8afb0bbbce8b0174a6408b"


def test_simplex_plans_keep_their_bytes(monkeypatch):
    """One SHA-256 over the plans of the pinned instances and of the two
    unequal instances desk document 0 hands the simplex, so a change to
    the solver's upkeep cannot move a plan byte. Points are distinct:
    tied costs (duplicated points) have several optimal bases, and an ulp
    in a price may end at another of them, at a total a few ulps away."""
    desk = _desk_calls(monkeypatch, "_transport_simplex")
    assert [cost.shape for _, _, cost in desk] == [(100, 225), (200, 225)]
    digest = hashlib.sha256()
    for supply, demand, cost in [*_pinned_instances(), *desk]:
        digest.update(linalg._transport_simplex(supply, demand, cost).tobytes())
    assert digest.hexdigest() == SIMPLEX_PLANS_SHA256


def _tree_prices(plan, cost):
    """The entering test's prices c_ij + 1e-12 (1 + |c_ij|) - u_i + v_j
    under the potentials of the plan's support, rooted at row 0 and each
    derived from its parent's as the simplex derives them; None when the
    support is not a spanning tree."""
    n, m = cost.shape
    rows, cols = np.nonzero(plan > 0)
    if rows.size != n + m - 1:
        return None
    adjacent = [[] for _ in range(n + m)]
    for i, j in zip(rows.tolist(), cols.tolist()):
        adjacent[i].append(n + j)
        adjacent[n + j].append(i)
    pi, stack = [0.0] + [None] * (n + m - 1), [0]
    while stack:
        v = stack.pop()
        for w in adjacent[v]:
            if pi[w] is None:
                pi[w] = pi[v] - cost[v, w - n] if v < n else cost[w, v - n] + pi[v]
                stack.append(w)
    if None in pi:
        return None
    pi = np.array(pi)
    return cost + 1e-12 * (1.0 + np.abs(cost)) + pi[n:] - pi[:n, None]


def test_simplex_stops_where_its_tree_prices_no_cell():
    """Four clusters about 1e4 apart, points 1e-4 apart within them: costs
    span 16 orders of magnitude, so potentials shifted pivot by pivot
    drift past the entering tolerance. The run must still stop only where
    the potentials derived from its final tree price no cell below it.
    Supplies are random, so every plan is non-degenerate and its support
    is that tree."""
    rng = np.random.default_rng(37)
    for _ in range(20):
        n, m = (int(x) for x in rng.integers(20, 61, size=2))
        centres = rng.normal(size=(4, 2)) * 1e4
        a = centres[rng.integers(4, size=n)] + rng.normal(size=(n, 2)) * 1e-4
        b = centres[rng.integers(4, size=m)] + rng.normal(size=(m, 2)) * 1e-4
        supply = _masses(rng, n, "random")
        demand = np.full(m, supply.sum() / m)
        cost = np.sum((b - a[:, None, :]) ** 2, axis=2)
        prices = _tree_prices(linalg._transport_simplex(supply, demand, cost), cost)
        assert prices is not None and prices.min() >= 0.0


def test_simplex_is_deterministic():
    supply, demand, cost = continuous_balanced(np.random.default_rng(3), 120, 90)
    first = solve_transport_exact(supply, demand, cost)
    again = solve_transport_exact(supply.copy(), demand.copy(), cost.copy())
    assert first[0].tobytes() == again[0].tobytes()
    assert first[1] == again[1]


# ------------------------------------------------------------- W2 as a metric

def w2(pts_a, w_a, pts_b, w_b):
    cost = np.sum((pts_a[:, None, :] - pts_b[None, :, :]) ** 2, axis=2)
    _, c = solve_transport_exact(w_a, w_b, cost)
    return np.sqrt(max(c, 0.0))


def random_cloud(rng, n):
    pts = rng.normal(size=(n, 2)) * 3.0
    w = rng.random(n) + 0.1
    return pts, w / w.sum()


def test_w2_metric_axioms(rng):
    for _ in range(120):
        na, nb, nc = (int(rng.integers(1, 6)) for _ in range(3))
        a, wa = random_cloud(rng, na)
        b, wb = random_cloud(rng, nb)
        c, wc = random_cloud(rng, nc)
        dab = w2(a, wa, b, wb)
        dba = w2(b, wb, a, wa)
        dac = w2(a, wa, c, wc)
        dbc = w2(b, wb, c, wc)
        assert dab >= 0.0
        assert dab == pytest.approx(dba, abs=1e-7)
        assert w2(a, wa, a, wa) == pytest.approx(0.0, abs=1e-7)
        assert dac <= dab + dbc + 1e-7

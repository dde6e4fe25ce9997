"""LTI models, relative degree detection, and the two presets."""

import numpy as np
import pytest

from dpcover.dynamics import (LtiSystem, make_preset, output, relative_degree,
                              step_events)
from dpcover.errors import InputError

from conftest import integrator_chain


def double_integrator(dt=0.1):
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.0], [dt]])
    C = np.array([[1.0, 0.0]])
    return A, B, C


# --------------------------------------------------------------- relative degree

def test_relative_degree_first_order():
    sys = make_preset("first_order", 0.1)
    assert sys.P == 1


def test_relative_degree_double_integrator():
    assert relative_degree(*double_integrator()) == 2
    assert relative_degree(*double_integrator(dt=0.01)) == 2


def test_relative_degree_quadrotor():
    assert make_preset("planar_quadrotor", 0.1).P == 4


def test_relative_degree_scaling_invariance(rng):
    A, B, C = double_integrator()
    for _ in range(20):
        s = float(rng.uniform(1e-6, 1e6))
        assert relative_degree(A, B * s, C) == 2
        assert relative_degree(A, B, C * s) == 2


def test_relative_degree_unreachable_output():
    A = np.zeros((2, 2))
    B = np.array([[1.0], [0.0]])
    C = np.array([[0.0, 1.0]])
    with pytest.raises(InputError, match="unreachable"):
        relative_degree(A, B, C)


def test_quadrotor_markov_block_zeros():
    sys = make_preset("planar_quadrotor", 0.1)
    for i in range(3):
        prod = sys.C @ np.linalg.matrix_power(sys.A, i) @ sys.B
        assert np.all(prod == 0.0)  # exact zeros by construction
    assert np.any(sys.C @ np.linalg.matrix_power(sys.A, 3) @ sys.B != 0.0)


# ------------------------------------------------------------------------ step

def test_step_first_order():
    sys = make_preset("first_order", 0.1)
    assert np.allclose(step_events(sys, [1.0, 1.0], [2.0, -1.0])[0], [3.0, 0.0])


def test_step_zero_input_is_drift(rng):
    A, B, C = double_integrator()
    sys = LtiSystem(A=A, B=B, C=C, dt=0.1)
    x = rng.normal(size=2)
    assert np.allclose(step_events(sys, x, [0.0])[0], A @ x)


def test_step_quadrotor_hover():
    sys = make_preset("planar_quadrotor", 0.1)
    assert np.allclose(step_events(sys, np.zeros(8), np.zeros(2))[0], np.zeros(8))


def test_step_dimension_mismatch():
    sys = make_preset("first_order", 0.1)
    with pytest.raises(InputError):
        step_events(sys, [1.0, 2.0, 3.0], [0.0, 0.0])
    with pytest.raises(InputError):
        step_events(sys, [1.0, 2.0], [0.0])


def test_step_nonfinite_input_rejected():
    sys = make_preset("first_order", 0.1)
    with pytest.raises(InputError):
        step_events(sys, [0.0, 0.0], [np.inf, 0.0])


def test_step_linearity_without_bounds(rng):
    sys = integrator_chain(3, 2, 0.1, rng)
    for _ in range(20):
        x1, x2 = rng.normal(size=(2, sys.n))
        u1, u2 = rng.normal(size=(2, sys.m))
        lhs = step_events(sys, x1 + x2, u1 + u2)[0]
        rhs = step_events(sys, x1, u1)[0] + step_events(sys, x2, u2)[0]
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_step_events_clamping():
    A, B, C = double_integrator()
    bounds = np.array([[-1.0, 1.0], [-0.5, 0.5]])
    sys = LtiSystem(A=A, B=B, C=C, dt=0.1, state_bounds=bounds)
    x, violated = step_events(sys, [0.9, 0.4], [100.0])
    assert violated
    assert x[1] == 0.5  # clamped velocity
    x, violated = step_events(sys, [0.0, 0.0], [0.1])
    assert not violated


def test_quadrotor_state_bounds_attached():
    sys = make_preset("planar_quadrotor", 0.1)
    sb = sys.state_bounds
    assert sb is not None
    assert np.allclose(sb[0], [-0.52, 0.52])
    assert np.allclose(sb[2], [-10.47, 10.47])
    assert np.allclose(sb[4], [-0.5, 0.5])  # 5 m/s scaled by dt
    Cu, Du = sys.input_bounds
    assert np.all(np.abs(Cu @ np.array([100.0, 100.0])) <= Du + 1e-12)
    assert np.any(Cu @ np.array([101.0, 0.0]) > Du)


# ---------------------------------------------------------------------- output

def test_output_first_order_is_state():
    sys = make_preset("first_order", 0.1)
    assert np.allclose(output(sys, [2.0, -3.0]), [2.0, -3.0])


def test_output_quadrotor_position():
    sys = make_preset("planar_quadrotor", 0.1)
    x = np.arange(8.0)
    assert np.allclose(output(sys, x), [6.0, 7.0])


def test_output_dimension_mismatch():
    sys = make_preset("first_order", 0.1)
    with pytest.raises(InputError):
        output(sys, [1.0])


# --------------------------------------------------------------------- presets

def test_make_preset_unknown_name():
    with pytest.raises(InputError):
        make_preset("tricopter", 0.1)


def test_make_preset_bad_dt():
    with pytest.raises(InputError):
        make_preset("planar_quadrotor", 0.0)
    with pytest.raises(InputError):
        make_preset("first_order", -0.1)


def test_first_order_matrices():
    sys = make_preset("first_order", 0.1)
    assert np.allclose(sys.A, np.eye(2))
    assert np.allclose(sys.B, np.eye(2))
    assert np.allclose(sys.C, np.eye(2))


def test_quadrotor_params_override():
    sys = make_preset("planar_quadrotor", 0.1, {"inertia_x": 0.2})
    base = make_preset("planar_quadrotor", 0.1)
    assert not np.allclose(sys.B, base.B)
    assert sys.P == 4


# ------------------------------------------------------------------ invariants

def test_rank_deficient_b_rejected():
    A = np.eye(2)
    B = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(InputError):
        LtiSystem(A=A, B=B, C=np.eye(2), dt=0.1)


def test_integrator_chain_relative_degrees(rng):
    for depth in (1, 2, 3, 4):
        assert integrator_chain(depth, 2, 0.1, rng).P == depth


def test_trajectory_repeatability(rng):
    sys = integrator_chain(2, 2, 0.1, rng)
    x0 = rng.normal(size=sys.n)
    us = rng.normal(size=(10, sys.m))

    def roll():
        x = x0.copy()
        out = []
        for u in us:
            x = step_events(sys, x, u)[0]
            out.append(x.copy())
        return np.array(out)

    a, b = roll(), roll()
    assert np.array_equal(a, b)  # bit-identical

"""Discrete-time LTI agent models.

x' = A x + B u,  y = C x.  Systems carry their output relative degree P
(the number of steps before an input first moves the output) plus optional
state and input bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

GRAVITY = 9.81  # m/s^2
DEFAULT_INERTIA = 0.1  # kg m^2, both axes

PRESET_NAMES = ("first_order", "planar_quadrotor")


def relative_degree(A, B, C, tol: float = 1e-10) -> int:
    """Smallest P >= 1 with C A^(P-1) B nonzero, searched up to P = n.

    The zero test is relative: ||C A^i B|| is compared against
    tol * ||C|| * ||A||^i * ||B|| so badly scaled models behave.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape[0] != n or C.shape[1] != n:
        raise InputError("inconsistent system matrix dimensions")
    if tol <= 0:
        raise InputError("tol must be positive")
    norm_a = np.linalg.norm(A)
    scale = np.linalg.norm(C) * np.linalg.norm(B)
    Ai_B = B.copy()
    for i in range(n):
        prod = C @ Ai_B
        if np.linalg.norm(prod) > tol * max(scale, 1e-300):
            return i + 1
        Ai_B = A @ Ai_B
        scale *= max(norm_a, 1e-300)
    raise InputError("output unreachable from input: C A^i B = 0 for all i < n")


@dataclass(frozen=True)
class LtiSystem:
    """Immutable LTI model with derived relative degree and optional bounds.

    state_bounds: (n, 2) per-component [lo, hi] on x, or None.
    input_bounds: (Cu, Du) polyhedron on u, or None.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    dt: float
    P: int = field(init=False)
    state_bounds: np.ndarray | None = None
    input_bounds: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        C = np.asarray(self.C, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        if C.ndim == 1:
            C = C[None, :]
        n = A.shape[0]
        if A.shape != (n, n) or B.shape[0] != n or C.shape[1] != n:
            raise InputError("inconsistent system matrix dimensions")
        if not all(np.all(np.isfinite(M)) for M in (A, B, C)):
            raise InputError("system matrices contain non-finite entries")
        if self.dt <= 0:
            raise InputError("dt must be positive")
        for M, want, name in ((B, B.shape[1], "B"), (C, C.shape[0], "C")):
            s = np.linalg.svd(M, compute_uv=False)
            if int(np.sum(s > 1e-10 * s[0])) != want:
                raise InputError(f"{name} must have full rank {want}")
        if self.state_bounds is not None:
            sb = np.asarray(self.state_bounds, dtype=float)
            if sb.shape != (n, 2) or np.any(sb[:, 0] > sb[:, 1]):
                raise InputError("state_bounds must be (n, 2) with lo <= hi")
            object.__setattr__(self, "state_bounds", sb)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "P", relative_degree(A, B, C))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


def step_events(sys: LtiSystem, x, u) -> tuple[np.ndarray, bool]:
    """One propagation step; returns (new state, bound-violation flag).

    With state bounds present the raw A x + B u is clamped componentwise
    and the flag reports whether any clamp fired.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (sys.n,) or u.shape != (sys.m,):
        raise InputError("state/input dimension mismatch")
    if not np.all(np.isfinite(u)):
        raise InputError("input contains non-finite entries")
    nxt = sys.A @ x + sys.B @ u
    if sys.state_bounds is None:
        return nxt, False
    clipped = np.clip(nxt, sys.state_bounds[:, 0], sys.state_bounds[:, 1])
    return clipped, bool(np.any(clipped != nxt))


def output(sys: LtiSystem, x) -> np.ndarray:
    """Output map y = C x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.n,):
        raise InputError("state dimension mismatch")
    return sys.C @ x


def make_preset(name: str, dt: float, params: dict | None = None) -> LtiSystem:
    """Build one of the two scenario systems.

    first_order: A = B = C = I2 (position is state, P = 1).

    planar_quadrotor: 8-state Euler-discretized integrator chain
    torque -> angular rate -> angle -> per-step displacement -> position,
    state x = (phi, theta, dphi, dtheta, dpx, dpy, px, py), inputs
    (tau_x, tau_y). P = 4 by construction, with angle/rate/velocity state
    bounds and |tau| <= 100 input bounds attached. params may override
    g, inertia_x, inertia_y, tau_max.
    """
    if dt <= 0:
        raise InputError("dt must be positive")
    params = dict(params or {})
    if name == "first_order":
        if params:
            raise InputError(f"first_order takes no params, got {sorted(params)}")
        eye = np.eye(2)
        return LtiSystem(A=eye, B=eye, C=eye, dt=dt)
    if name == "planar_quadrotor":
        g = float(params.pop("g", GRAVITY))
        ixx = float(params.pop("inertia_x", DEFAULT_INERTIA))
        iyy = float(params.pop("inertia_y", DEFAULT_INERTIA))
        tau_max = float(params.pop("tau_max", 100.0))
        if params:
            raise InputError(f"unknown quadrotor params {sorted(params)}")
        A = np.eye(8)
        A[0, 2] = dt          # phi   += dphi * dt
        A[1, 3] = dt          # theta += dtheta * dt
        A[4, 1] = g * dt      # dpx += g * theta * dt
        A[5, 0] = g * dt      # dpy += g * phi * dt
        A[6, 4] = 1.0         # px += dpx
        A[7, 5] = 1.0         # py += dpy
        B = np.zeros((8, 2))
        B[2, 0] = dt / ixx
        B[3, 1] = dt / iyy
        C = np.zeros((2, 8))
        C[0, 6] = 1.0
        C[1, 7] = 1.0
        big = np.inf
        bounds = np.array([
            [-0.52, 0.52],            # phi (rad)
            [-0.52, 0.52],            # theta (rad)
            [-10.47, 10.47],          # dphi (rad/s)
            [-10.47, 10.47],          # dtheta (rad/s)
            [-5.0 * dt, 5.0 * dt],    # dpx (m per step, 5 m/s)
            [-5.0 * dt, 5.0 * dt],    # dpy
            [-big, big],              # px
            [-big, big],              # py
        ])
        Cu = np.vstack([np.eye(2), -np.eye(2)])
        Du = tau_max * np.ones(4)
        return LtiSystem(A=A, B=B, C=C, dt=dt, state_bounds=bounds,
                         input_bounds=(Cu, Du))
    raise InputError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")

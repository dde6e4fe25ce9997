"""Per-step optimal control: quadratic gain terms, the predicted change in
squared local Wasserstein distance, optimal inputs (analytic and QP), and
the convergence-range test.

For an LTI system with relative degree P, the predicted change when
applying input u now is the quadratic

    dW(u) = u' D1 u + 2 D2 u + D3,

with D1 = a G'G, D2 = a (x'(A^P)'C' - qbar') G, G = C A^(P-1) B, and
D3 = a x'((A^P)'C'C A^P - C'C) x - 2 a qbar' C (A^P - I) x, where a is the
agent-point mass and qbar the target mass center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import LtiSystem
from .errors import InputError
from .linalg import PsdQp, pseudo_inverse, solve_psd_qp


@dataclass(frozen=True)
class GainTerms:
    D1: np.ndarray  # (m, m) symmetric PSD
    D2: np.ndarray  # (m,)
    D3: float

    def __post_init__(self):
        D1 = np.asarray(self.D1, dtype=float)
        D2 = np.asarray(self.D2, dtype=float).reshape(-1)
        if D1.shape != (D2.size, D2.size):
            raise InputError("D1/D2 dimensions inconsistent")
        if not (np.all(np.isfinite(D1)) and np.all(np.isfinite(D2))
                and np.isfinite(self.D3)):
            raise InputError("non-finite gain terms")
        object.__setattr__(self, "D1", 0.5 * (D1 + D1.T))
        object.__setattr__(self, "D2", D2)
        object.__setattr__(self, "D3", float(self.D3))


def gain_terms(sys: LtiSystem, x, q_bar, alpha: float) -> GainTerms:
    """Quadratic coefficients of the predicted squared-distance change."""
    if alpha <= 0:
        raise InputError("alpha must be positive")
    x = np.asarray(x, dtype=float).reshape(sys.n)
    q_bar = np.asarray(q_bar, dtype=float).reshape(sys.p)
    A, B, C, P = sys.A, sys.B, sys.C, sys.P
    A_pm1 = np.linalg.matrix_power(A, P - 1)
    A_p = A @ A_pm1
    G = C @ A_pm1 @ B
    D1 = alpha * G.T @ G
    D2 = alpha * ((x @ A_p.T @ C.T) - q_bar) @ G
    CA_p_x = C @ A_p @ x
    Cx = C @ x
    D3 = alpha * (CA_p_x @ CA_p_x - Cx @ Cx) - 2.0 * alpha * (q_bar @ (CA_p_x - Cx))
    return GainTerms(D1=D1, D2=D2, D3=D3)


def delta_w(gt: GainTerms, u) -> float:
    """Predicted change in squared local Wasserstein distance at input u."""
    u = np.asarray(u, dtype=float).reshape(gt.D2.size)
    return float(u @ gt.D1 @ u + 2.0 * gt.D2 @ u + gt.D3)


def optimal_input_unconstrained(gt: GainTerms) -> np.ndarray:
    """Minimum-norm member -D1^+ D2' of the set-valued optimum."""
    return -pseudo_inverse(gt.D1) @ gt.D2


def optimal_input_constrained(gt: GainTerms, Cu, Du, tol: float = 1e-8) -> np.ndarray:
    """Optimal input over the polytope Cu u <= Du (PSD QP)."""
    return solve_psd_qp(PsdQp(H=gt.D1, g=gt.D2, Cu=Cu, Du=Du), tol=tol)


def convergence_check(gt: GainTerms, u) -> tuple[bool, bool]:
    """(in_range, range_nonempty) for input u.

    The range is {u : ||u + D1^+ D2'||^2_D1 < D2 D1^+ D2' - D3}; it is
    nonempty iff the right-hand side is nonnegative. Boundary points count
    as outside (the predicted change there is zero, not a decrease).
    """
    u = np.asarray(u, dtype=float).reshape(gt.D2.size)
    pinv = pseudo_inverse(gt.D1)
    rhs = float(gt.D2 @ pinv @ gt.D2 - gt.D3)
    v = u + pinv @ gt.D2
    lhs = float(v @ gt.D1 @ v)
    return (rhs >= 0.0 and lhs < rhs), rhs >= 0.0


def convergence_ellipse(gt: GainTerms, n_points: int) -> np.ndarray:
    """Boundary polyline of the convergence range for 2-D inputs.

    Samples the ellipse ||u + D1^{-1} D2'||^2_D1 = rhs at n_points equally
    spaced parameter angles starting at 0. Requires full-rank D1 and a
    nonempty range; a zero-radius range yields n_points copies of the
    center.
    """
    if gt.D2.size != 2:
        raise InputError("ellipse emission supports 2-D inputs only")
    if n_points < 1:
        raise InputError("n_points must be >= 1")
    w, V = np.linalg.eigh(gt.D1)
    if w[0] <= 1e-12 * max(w[-1], 1e-300):
        raise InputError("D1 is rank deficient: range unbounded in flat direction")
    center = -np.linalg.solve(gt.D1, gt.D2)
    rhs = float(gt.D2 @ np.linalg.solve(gt.D1, gt.D2) - gt.D3)
    if rhs < 0.0:
        raise InputError("convergence range is empty")
    theta = 2.0 * np.pi * np.arange(n_points) / n_points
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    radii = np.sqrt(rhs / w)
    return center + (circle * radii) @ V.T

"""Per-step optimal control: quadratic gain terms, the predicted change in
squared local Wasserstein distance, optimal inputs (analytic and QP), and
the convergence-range test.

For an LTI system with relative degree P, the predicted change when
applying input u now is the quadratic

    dW(u) = u' D1 u + 2 D2 u + D3,

with D1 = a G'G, D2 = a (x'(A^P)'C' - qbar') G, G = C A^(P-1) B, and
D3 = a x'((A^P)'C'C A^P - C'C) x - 2 a qbar' C (A^P - I) x, where a is the
agent-point mass and qbar the target mass center. G and A^P are fixed per
system and derived once, as LtiSystem.G and LtiSystem.A_p. The same
checked quadratic, GainTerms, is the objective of the constrained QP.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .dynamics import LtiSystem
from .errors import InputError, check_count
from .linalg import InputPolytope, pseudo_inverse, solve_psd_qp


def _curvature(D1: np.ndarray) -> tuple[np.ndarray, ...]:
    """(symmetrised D1, D1^+, ascending eigenvalues, eigenvectors) of a
    finite, symmetric, PSD D1, each within the relative tolerance 1e-10;
    InputError otherwise.

    D1 depends only on the system and the agent-point mass, so a run sees
    few distinct values (1 to 3 in the checked-in scenarios, where agents'
    claimed masses differ by an ulp and their steps interleave). Each is
    checked, decomposed by one eigh (the PSD check and the ellipse's axes)
    and inverted once, in an LRU cache on D1's shape and bytes that never
    stores an invalid D1; the arrays returned are shared and read-only.
    """
    return _curvature_of(D1.shape, D1.tobytes())


@functools.lru_cache(maxsize=16)
def _curvature_of(shape: tuple, data: bytes) -> tuple[np.ndarray, ...]:
    D1 = np.frombuffer(data).reshape(shape)
    if not np.all(np.isfinite(D1)):
        raise InputError("non-finite gain terms")
    if np.abs(D1 - D1.T).max() > 1e-10 * max(np.abs(D1).max(), 1.0):
        raise InputError("D1 is not symmetric within tolerance")
    D1 = 0.5 * (D1 + D1.T)
    w, V = np.linalg.eigh(D1)
    if w[0] < -1e-10 * max(w[-1], 0.0) - 1e-300:
        raise InputError("D1 is not positive semidefinite within tolerance")
    entry = (D1, pseudo_inverse(D1), w, V)
    for arr in entry:
        arr.flags.writeable = False
    return entry


@dataclass(frozen=True)
class GainTerms:
    """The quadratic u'D1u + 2D2u + D3 of one step, checked once.

    D1 must be finite, symmetric and positive semidefinite, each within
    the relative tolerance 1e-10; it is kept symmetrised. D1^+ is derived
    once per distinct D1 (_curvature); the unconstrained optimum u_star,
    the centre of the convergence range, and its bound once per step.
    """

    D1: np.ndarray  # (m, m) symmetric PSD, read-only
    D2: np.ndarray  # (m,)
    D3: float
    D1_pinv: np.ndarray = field(init=False, repr=False)  # derived: D1^+, read-only
    u_star: np.ndarray = field(init=False)  # derived: -D1^+ D2', read-only
    range_rhs: float = field(init=False)  # derived: D2 D1^+ D2' - D3

    def __post_init__(self):
        D1 = np.asarray(self.D1, dtype=float)
        D2 = np.asarray(self.D2, dtype=float).reshape(-1)
        if D2.size < 1 or D1.shape != (D2.size, D2.size):
            raise InputError("D1/D2 dimensions inconsistent")
        if not (np.all(np.isfinite(D2)) and np.isfinite(self.D3)):
            raise InputError("non-finite gain terms")
        D1, D1_pinv, _, _ = _curvature(D1)
        u_star = -D1_pinv @ D2
        u_star.flags.writeable = False
        object.__setattr__(self, "D1", D1)
        object.__setattr__(self, "D2", D2)
        object.__setattr__(self, "D3", float(self.D3))
        object.__setattr__(self, "D1_pinv", D1_pinv)
        object.__setattr__(self, "u_star", u_star)
        object.__setattr__(self, "range_rhs",
                           float(D2 @ D1_pinv @ D2 - self.D3))


def gain_terms(sys: LtiSystem, x, q_bar, alpha: float) -> GainTerms:
    """Quadratic coefficients of the predicted squared-distance change."""
    if alpha <= 0:
        raise InputError("alpha must be positive")
    x = np.asarray(x, dtype=float).reshape(sys.n)
    q_bar = np.asarray(q_bar, dtype=float).reshape(sys.p)
    A_p, C, G = sys.A_p, sys.C, sys.G
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
    """Minimum-norm member -D1^+ D2' of the set-valued optimum (gt.u_star)."""
    return gt.u_star


def optimal_input_constrained(gt: GainTerms, polytope: InputPolytope) -> np.ndarray:
    """Optimal input over the polytope Cu u <= Du (PSD QP on gt)."""
    return solve_psd_qp(gt, polytope)


def convergence_check(gt: GainTerms, u) -> tuple[bool, bool]:
    """(in_range, range_nonempty) for input u.

    The range is {u : ||u - gt.u_star||^2_D1 < gt.range_rhs}; it is
    nonempty iff gt.range_rhs is nonnegative. Boundary points count
    as outside (the predicted change there is zero, not a decrease).
    """
    u = np.asarray(u, dtype=float).reshape(gt.D2.size)
    v = u - gt.u_star
    lhs = float(v @ gt.D1 @ v)
    return (gt.range_rhs >= 0.0 and lhs < gt.range_rhs), gt.range_rhs >= 0.0


def convergence_ellipse(gt: GainTerms, n_points: int) -> np.ndarray:
    """Boundary polyline of the convergence range for 2-D inputs.

    Samples the ellipse ||u - gt.u_star||^2_D1 = gt.range_rhs at n_points
    equally spaced parameter angles starting at 0, on D1's eigenpairs from
    the curvature memo. Requires full-rank D1 and a nonempty range; a
    zero-radius range yields n_points copies of the center.
    """
    if gt.D2.size != 2:
        raise InputError("ellipse emission supports 2-D inputs only")
    check_count(n_points, "n_points", 1)
    _, _, w, V = _curvature(gt.D1)
    if w[0] <= 1e-12 * max(w[-1], 1e-300):
        raise InputError("D1 is rank deficient: range unbounded in flat direction")
    if gt.range_rhs < 0.0:
        raise InputError("convergence range is empty")
    theta = 2.0 * np.pi * np.arange(n_points) / n_points
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    radii = np.sqrt(gt.range_rhs / w)
    return gt.u_star + (circle * radii) @ V.T

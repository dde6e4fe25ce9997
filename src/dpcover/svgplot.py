"""Deterministic SVG emission for run diagnostics.

Plots are built as plain strings with fixed float formatting and no
timestamps, so identical inputs produce identical bytes. Polyline vertices
and the reference cloud are mapped to the viewport as whole arrays; the
map is elementwise IEEE arithmetic, so each coordinate has the bits it
would have alone, and is formatted from its Python float as before.
"""

from __future__ import annotations

import numpy as np

from .controller import GainTerms, convergence_ellipse
from .errors import InputError

WIDTH = 640
HEIGHT = 640
MARGIN = 50
PALETTE = ("#d62728", "#1f77b4", "#e6b012", "#2ca02c", "#9467bd",
           "#8c564b", "#17becf", "#7f7f7f")


def _f(v: float) -> str:
    return f"{float(v):.4f}".rstrip("0").rstrip(".")


class _Frame:
    """Affine map from the padded extent of (n, 2) points to the viewport (y up)."""

    def __init__(self, points):
        points = np.asarray(points, dtype=float)
        if points.size == 0:
            raise InputError("nothing to plot")
        (x_lo, y_lo), (x_hi, y_hi) = points.min(axis=0), points.max(axis=0)
        if not (np.isfinite([x_lo, x_hi, y_lo, y_hi]).all()):
            raise InputError("non-finite plot extent")
        with np.errstate(over="ignore"):
            pad_x = (x_hi - x_lo) * 0.05 or 1.0
            pad_y = (y_hi - y_lo) * 0.05 or 1.0
            self.x_lo, self.x_hi = x_lo - pad_x, x_hi + pad_x
            self.y_lo, self.y_hi = y_lo - pad_y, y_hi + pad_y
            spans = (self.x_hi - self.x_lo, self.y_hi - self.y_lo)
        if not np.isfinite(spans).all():
            raise InputError("plot extent overflows")

    def x(self, v):
        return MARGIN + (v - self.x_lo) / (self.x_hi - self.x_lo) * (WIDTH - 2 * MARGIN)

    def y(self, v):
        return HEIGHT - MARGIN - (v - self.y_lo) / (self.y_hi - self.y_lo) * (HEIGHT - 2 * MARGIN)


def _document(elements: list[str], title: str) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
            f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>\n')
    return head + "\n".join(elements) + "\n</svg>\n"


def _axes(frame: _Frame, x_label: str, y_label: str) -> list[str]:
    els = [
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="14" y="{HEIGHT // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {HEIGHT // 2})">{y_label}</text>',
    ]
    for (vx, label) in ((frame.x_lo, _f(frame.x_lo)), (frame.x_hi, _f(frame.x_hi))):
        els.append(f'<text x="{_f(frame.x(vx))}" y="{HEIGHT - MARGIN + 16}" '
                   f'text-anchor="middle" font-family="sans-serif" font-size="10">{label}</text>')
    for (vy, label) in ((frame.y_lo, _f(frame.y_lo)), (frame.y_hi, _f(frame.y_hi))):
        els.append(f'<text x="{MARGIN - 6}" y="{_f(frame.y(vy) + 3)}" '
                   f'text-anchor="end" font-family="sans-serif" font-size="10">{label}</text>')
    return els


def _polyline(frame: _Frame, xs, ys, color: str, width: float = 1.2,
              dash: str | None = None) -> str:
    pts = " ".join(f"{_f(x)},{_f(y)}"
                   for x, y in zip(frame.x(xs).tolist(), frame.y(ys).tolist()))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{_f(width)}"{dash_attr}/>')


def plot_trajectories(trajectories: dict[int, np.ndarray],
                      reference: np.ndarray) -> str:
    """Agent polylines over the reference point cloud. Start points marked
    with a cross, terminal points with a filled circle."""
    if not trajectories or all(t.shape[0] == 0 for t in trajectories.values()):
        raise InputError("empty trajectory")
    frame = _Frame(np.vstack([*trajectories.values(), reference]))
    els = _axes(frame, "x (m)", "y (m)")
    for cx, cy in zip(frame.x(reference[:, 0]).tolist(),
                      frame.y(reference[:, 1]).tolist()):
        els.append(f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="1.3" fill="#9ecae1"/>')
    for idx, agent in enumerate(sorted(trajectories)):
        traj = trajectories[agent]
        if traj.shape[0] == 0:
            continue
        color = PALETTE[idx % len(PALETTE)]
        els.append(_polyline(frame, traj[:, 0], traj[:, 1], color))
        sx, sy = frame.x(traj[0, 0]), frame.y(traj[0, 1])
        els.append(f'<path d="M {_f(sx - 4)} {_f(sy)} H {_f(sx + 4)} '
                   f'M {_f(sx)} {_f(sy - 4)} V {_f(sy + 4)}" '
                   f'stroke="blue" stroke-width="1.6"/>')
        els.append(f'<circle cx="{_f(frame.x(traj[-1, 0]))}" '
                   f'cy="{_f(frame.y(traj[-1, 1]))}" r="4" fill="#e6b012" '
                   f'stroke="black" stroke-width="0.6"/>')
    return _document(els, "Agent trajectories over the reference cloud")


def plot_series(series: dict[int, tuple[np.ndarray, np.ndarray]],
                title: str, y_label: str) -> str:
    """One line per series key (an agent, or 0) of a scalar vs step index."""
    frame = _Frame(np.vstack([np.empty((0, 2)), *map(np.column_stack, series.values())]))
    els = _axes(frame, "step k", y_label)
    for idx, key in enumerate(sorted(series)):
        ks, vs = series[key]
        els.append(_polyline(frame, ks, vs, PALETTE[idx % len(PALETTE)]))
    return _document(els, title)


def plot_ellipses(steps: list[dict]) -> str:
    """Convergence-range boundaries plus the input u and the unconstrained
    optimum gains.u_star traced over a step window, in input space. A step
    whose range is empty has no boundary; its inputs stay on the traces.

    Each entry needs keys k, gains (GainTerms), u.
    """
    boundaries = []
    for entry in steps:
        gt: GainTerms = entry["gains"]
        if gt.range_rhs >= 0.0:
            boundaries.append(convergence_ellipse(gt, 128))
    u_trace = np.array([e["u"] for e in steps])
    uu_trace = np.array([e["gains"].u_star for e in steps])
    frame = _Frame(np.vstack(boundaries + [u_trace, uu_trace]))
    els = _axes(frame, "u1", "u2")
    for boundary in boundaries:
        closed = np.vstack([boundary, boundary[:1]])
        els.append(_polyline(frame, closed[:, 0], closed[:, 1], "#888888",
                             width=1.0, dash="4 3"))
    els.append(_polyline(frame, u_trace[:, 0], u_trace[:, 1], "#1f77b4", width=1.6))
    els.append(_polyline(frame, uu_trace[:, 0], uu_trace[:, 1], "#d62728",
                         width=1.6, dash="6 3"))
    lo, hi = steps[0]["k"], steps[-1]["k"]
    return _document(els, f"Convergence range, steps {lo} to {hi}")

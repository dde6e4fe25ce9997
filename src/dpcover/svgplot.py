"""Deterministic SVG emission for run diagnostics.

Plots are built as plain strings with fixed float formatting and no
timestamps, so identical inputs produce identical bytes.
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
    """Affine map from data coordinates to the SVG viewport (y up)."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        if not (np.isfinite([x_lo, x_hi, y_lo, y_hi]).all()):
            raise InputError("non-finite plot extent")
        pad_x = (x_hi - x_lo) * 0.05 or 1.0
        pad_y = (y_hi - y_lo) * 0.05 or 1.0
        self.x_lo, self.x_hi = x_lo - pad_x, x_hi + pad_x
        self.y_lo, self.y_hi = y_lo - pad_y, y_hi + pad_y

    def x(self, v):
        return MARGIN + (v - self.x_lo) / (self.x_hi - self.x_lo) * (WIDTH - 2 * MARGIN)

    def y(self, v):
        return HEIGHT - MARGIN - (v - self.y_lo) / (self.y_hi - self.y_lo) * (HEIGHT - 2 * MARGIN)

    def pt(self, xv, yv):
        return f"{_f(self.x(xv))},{_f(self.y(yv))}"


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
    pts = " ".join(frame.pt(x, y) for x, y in zip(xs, ys))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{_f(width)}"{dash_attr}/>')


def _series_frame(xss, yss) -> _Frame:
    all_x = np.concatenate([np.asarray(x, dtype=float) for x in xss])
    all_y = np.concatenate([np.asarray(y, dtype=float) for y in yss])
    if all_x.size == 0:
        raise InputError("nothing to plot")
    return _Frame(all_x.min(), all_x.max(), all_y.min(), all_y.max())


def plot_trajectories(trajectories: dict[int, np.ndarray],
                      reference: np.ndarray) -> str:
    """Agent polylines over the reference point cloud. Start points marked
    with a cross, terminal points with a filled circle."""
    if not trajectories or all(t.shape[0] == 0 for t in trajectories.values()):
        raise InputError("empty trajectory")
    xs = np.concatenate([t[:, 0] for t in trajectories.values()] + [reference[:, 0]])
    ys = np.concatenate([t[:, 1] for t in trajectories.values()] + [reference[:, 1]])
    frame = _Frame(xs.min(), xs.max(), ys.min(), ys.max())
    els = _axes(frame, "x (m)", "y (m)")
    for qx, qy in reference:
        els.append(f'<circle cx="{_f(frame.x(qx))}" cy="{_f(frame.y(qy))}" '
                   f'r="1.3" fill="#9ecae1"/>')
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
    """One line per agent (key -1 = aggregate) of a scalar vs step index."""
    if not series:
        raise InputError("nothing to plot")
    frame = _series_frame([s[0] for s in series.values()],
                          [s[1] for s in series.values()])
    els = _axes(frame, "step k", y_label)
    for idx, key in enumerate(sorted(series)):
        ks, vs = series[key]
        els.append(_polyline(frame, ks, vs, PALETTE[idx % len(PALETTE)]))
    return _document(els, title)


def plot_ellipses(steps: list[dict]) -> str:
    """Convergence-range boundaries plus the constrained and unconstrained
    input traces over a step window, in input space. A step whose range is
    empty has no boundary; its inputs still appear in the traces.

    Each entry needs keys k, gains (GainTerms), u, u_unc.
    """
    if not steps:
        raise InputError("empty window")
    boundaries = []
    for entry in steps:
        gt: GainTerms = entry["gains"]
        # the emptiness test convergence_ellipse applies
        if gt.D2 @ np.linalg.solve(gt.D1, gt.D2) - gt.D3 >= 0.0:
            boundaries.append(convergence_ellipse(gt, 128))
    all_pts = np.vstack(boundaries + [np.array([e["u"] for e in steps]),
                                      np.array([e["u_unc"] for e in steps])])
    frame = _Frame(all_pts[:, 0].min(), all_pts[:, 0].max(),
                   all_pts[:, 1].min(), all_pts[:, 1].max())
    els = _axes(frame, "u1", "u2")
    for boundary in boundaries:
        closed = np.vstack([boundary, boundary[:1]])
        els.append(_polyline(frame, closed[:, 0], closed[:, 1], "#888888",
                             width=1.0, dash="4 3"))
    u_trace = np.array([e["u"] for e in steps])
    uu_trace = np.array([e["u_unc"] for e in steps])
    els.append(_polyline(frame, u_trace[:, 0], u_trace[:, 1], "#1f77b4", width=1.6))
    els.append(_polyline(frame, uu_trace[:, 0], uu_trace[:, 1], "#d62728",
                         width=1.6, dash="6 3"))
    lo, hi = steps[0]["k"], steps[-1]["k"]
    return _document(els, f"Convergence range, steps {lo} to {hi}")

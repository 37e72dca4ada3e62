"""Self-contained SVG emitters for swarm snapshots and density curves.

No plotting dependency: these build small deterministic SVG documents that
can be golden-tested byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

VIEW = 800
ARENA_MIN = -0.6
ARENA_MAX = 0.6
NODE_RADIUS = 4

DENSITY_W = 800
DENSITY_H = 500
MARGIN = 60


def _px(v: float) -> str:
    """A view coordinate to 2 decimals; ValueError unless it is finite."""
    if not math.isfinite(v):
        raise ValueError(f"cannot draw view coordinate {v}")
    return format(v, ".2f")


def arena_to_view(x: float, y: float) -> tuple[float, float]:
    """Linear map of the [-0.6, 0.6]^2 arena onto the 800x800 viewport,
    y pointing up in the arena and down in the viewport."""
    scale = VIEW / (ARENA_MAX - ARENA_MIN)
    return (x - ARENA_MIN) * scale, (ARENA_MAX - y) * scale


def snapshot_svg(points: list[tuple[float, float]],
                 rho: tuple[float, float] = (0.0, 0.0)) -> str:
    """Scatter of node positions with a crosshair marker at the darkest
    spot; one filled circle per node."""
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" '
        f'height="{VIEW}" viewBox="0 0 {VIEW} {VIEW}">',
        f'<rect width="{VIEW}" height="{VIEW}" fill="white"/>',
    ]
    mx, my = arena_to_view(*rho)
    lines.append(
        f'<path class="rho" stroke="#c02020" stroke-width="2" fill="none" '
        f'd="M {_px(mx - 10)} {_px(my)} L {_px(mx + 10)} {_px(my)} '
        f'M {_px(mx)} {_px(my - 10)} L {_px(mx)} {_px(my + 10)}"/>')
    for x, y in points:
        vx, vy = arena_to_view(x, y)
        lines.append(f'<circle class="node" cx="{_px(vx)}" cy="{_px(vy)}" '
                     f'r="{NODE_RADIUS}" fill="#20508c" fill-opacity="0.75"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# Share of each curve's mass left out of the view on either side.
VIEW_TAIL = 1e-3


def mass_range(z: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """The VIEW_TAIL and 1 - VIEW_TAIL quantiles of the mass of a pdf sampled
    at the increasing nodes z, by the trapezoid rule; the ends of z when the
    samples hold no mass."""
    z = np.asarray(z, float)
    p = np.asarray(p, float)
    cdf = np.concatenate([[0.0], np.cumsum((p[1:] + p[:-1]) * 0.5 * np.diff(z))])
    if not cdf[-1] > 0:
        return float(z[0]), float(z[-1])
    lo, hi = np.interp([VIEW_TAIL * cdf[-1], (1 - VIEW_TAIL) * cdf[-1]], cdf, z)
    return float(lo), float(hi)


def density_svg(curves: list[tuple[int, np.ndarray, np.ndarray]]) -> str:
    """Line plot of one or more (t, z, pdf) curves with plain axes.

    The x-axis spans where the curves' mass is (see ``mass_range``), not the
    whole grid, whose log-graded tails can be many times wider; every
    sample stays in the polyline, clipped to the plot area.
    """
    if not curves:
        raise ValueError("no curves to plot")
    ranges = [mass_range(z, p) for _, z, p in curves]
    z_lo = min(lo for lo, _ in ranges)
    z_hi = max(hi for _, hi in ranges)
    p_hi = max(float(p.max()) for _, _, p in curves)
    if p_hi <= 0:
        p_hi = 1.0
    if z_hi <= z_lo:
        z_hi = z_lo + 1.0

    x0, x1 = MARGIN, DENSITY_W - MARGIN
    y0, y1 = DENSITY_H - MARGIN, MARGIN  # y0 is the axis (pdf = 0)

    def to_view(z: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vx = x0 + (z - z_lo) / (z_hi - z_lo) * (x1 - x0)
        vy = y0 - p / p_hi * (y0 - y1)
        return vx, vy

    palette = ("#20508c", "#c02020", "#208040", "#806010", "#602080")
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{DENSITY_W}" '
        f'height="{DENSITY_H}" viewBox="0 0 {DENSITY_W} {DENSITY_H}">',
        f'<rect width="{DENSITY_W}" height="{DENSITY_H}" fill="white"/>',
        f'<clipPath id="plot"><rect x="{x0}" y="{y1}" width="{x1 - x0}" '
        f'height="{y0 - y1}"/></clipPath>',
        f'<line class="axis" x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
        f'stroke="black"/>',
        f'<line class="axis" x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
        f'stroke="black"/>',
        f'<text x="{x0}" y="{y0 + 20}" font-size="12">{z_lo:.9g}</text>',
        f'<text x="{x1}" y="{y0 + 20}" font-size="12" '
        f'text-anchor="end">{z_hi:.9g}</text>',
        f'<text x="{x0 - 6}" y="{y0}" font-size="12" '
        f'text-anchor="end">0</text>',
        f'<text x="{x0 - 6}" y="{y1}" font-size="12" '
        f'text-anchor="end">{p_hi:.9g}</text>',
    ]
    for k, (t, z, p) in enumerate(curves):
        vx, vy = to_view(np.asarray(z, float), np.asarray(p, float))
        pts = " ".join(f"{_px(a)},{_px(b)}" for a, b in zip(vx, vy))
        color = palette[k % len(palette)]
        lines.append(f'<polyline class="curve" data-t="{t}" fill="none" '
                     f'stroke="{color}" clip-path="url(#plot)" '
                     f'points="{pts}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

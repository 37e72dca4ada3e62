import re

import numpy as np
import pytest
from scipy.stats import norm

from shinerswarm.svg import (
    DENSITY_H,
    DENSITY_W,
    MARGIN,
    arena_to_view,
    density_svg,
    mass_range,
    snapshot_svg,
)


@pytest.mark.parametrize("arena, view", [
    ((-0.6, 0.6), (0.0, 0.0)),
    ((0.6, -0.6), (800.0, 800.0)),
    ((0.0, 0.0), (400.0, 400.0)),
])
def test_arena_mapping_corners_and_center(arena, view):
    vx, vy = arena_to_view(*arena)
    assert (vx, vy) == (pytest.approx(view[0]), pytest.approx(view[1]))


def test_snapshot_svg_element_counts():
    rng = np.random.default_rng(1)
    pts = [(float(x), float(y)) for x, y in rng.uniform(-0.5, 0.5, (100, 2))]
    text = snapshot_svg(pts)
    assert text.count('class="node"') == 100
    assert text.count('class="rho"') == 1
    assert 'r="4"' in text


def test_node_at_rho_shares_marker_coordinates():
    rho = (0.12, -0.3)
    text = snapshot_svg([rho], rho=rho)
    mx, my = arena_to_view(*rho)
    circle = re.search(r'<circle class="node" cx="([^"]+)" cy="([^"]+)"', text)
    assert circle is not None
    # same mapping, so the printed coordinates are identical
    assert circle.group(1) == f"{mx:.2f}"
    assert circle.group(2) == f"{my:.2f}"
    # the crosshair is centered on the same point
    assert f'M {mx - 10:.2f} {my:.2f}' in text


def test_density_svg_polyline_has_all_points():
    z = np.linspace(-60, 60, 6001)
    p = np.exp(-0.5 * z * z)
    text = density_svg([(1, z, p)])
    polylines = re.findall(r'<polyline class="curve"[^>]*points="([^"]*)"', text)
    assert len(polylines) == 1
    assert len(polylines[0].split()) == 6001
    assert text.count('class="axis"') == 2


def test_density_svg_one_polyline_per_curve():
    z = np.linspace(0, 1, 11)
    text = density_svg([(t, z, np.full(11, t)) for t in (1, 2, 3)])
    assert text.count('<polyline class="curve"') == 3
    assert 'data-t="2"' in text


def _axis_labels(text):
    """The z values printed at the left and right ends of the x-axis."""
    lo = re.search(r'<text x="[^"]+" y="[^"]+" font-size="12">([^<]+)</text>', text)
    hi = re.search(r'<text x="[^"]+" y="[^"]+" font-size="12" '
                   r'text-anchor="end">([^<]+)</text>', text)
    return float(lo.group(1)), float(hi.group(1))


def test_density_view_spans_the_mass_not_the_grid():
    z = np.linspace(-60, 60, 6001)
    p = norm.pdf(z)
    assert mass_range(z, p) == (pytest.approx(norm.ppf(1e-3), abs=1e-3),
                                pytest.approx(norm.ppf(1 - 1e-3), abs=1e-3))
    text = density_svg([(1, z, p)])
    assert _axis_labels(text) == (pytest.approx(norm.ppf(1e-3), abs=1e-3),
                                  pytest.approx(norm.ppf(1 - 1e-3), abs=1e-3))
    # every sample is kept, and the curve is clipped to the plot area
    assert f'<clipPath id="plot"><rect x="{MARGIN}" ' in text
    assert 'clip-path="url(#plot)"' in text


def test_density_view_of_zero_mass_is_the_grid():
    z = np.linspace(-2.0, 3.0, 11)
    assert mass_range(z, np.zeros(11)) == (-2.0, 3.0)


def test_density_svg_of_no_curves_is_refused():
    with pytest.raises(ValueError, match="^no curves to plot$"):
        density_svg([])


def test_reference_t3_curve_fills_the_plot(ref_chain):
    # the README's density --x0 5 --t 3 example, on the +/-1000 log-graded grid
    f = ref_chain[3]
    text = density_svg([(3, f.z, f.values)])
    pts = re.search(r'points="([^"]*)"', text).group(1).split()
    xy = np.array([[float(v) for v in pt.split(",")] for pt in pts])
    axis_y = DENSITY_H - MARGIN
    inked = xy[(xy[:, 0] >= MARGIN) & (xy[:, 0] <= DENSITY_W - MARGIN)
               & (xy[:, 1] < axis_y - 1)]
    width = inked[:, 0].max() - inked[:, 0].min()
    assert width > 0.5 * (DENSITY_W - 2 * MARGIN)

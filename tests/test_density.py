import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from conftest import REF_KERNEL, REF_X0, trapezoid_weights, tv_distance_to_samples
from oracle import propagate_every_entry
from shinerswarm.density import (
    DEFAULT_N_POINTS,
    GridPdf,
    GridSpanError,
    KernelParams,
    grid_stats,
    initial_pdf,
    kernel_pdf,
    mc_sample,
    pdf_at_time,
    propagate,
)


# ---------------------------------------------------------------------------
# kernel_pdf


def test_kernel_peak_at_origin():
    # 1 / (0.1 * sqrt(2*pi))
    assert kernel_pdf(0.0, 0.0, REF_KERNEL) == pytest.approx(3.98942280, rel=1e-8)


def test_kernel_peak_at_five():
    # sd = 1 * (0.1 + 5) = 5.1, peak 1 / (5.1 * sqrt(2*pi))
    assert kernel_pdf(5.0, 5.0, REF_KERNEL) == pytest.approx(0.0782239766, rel=1e-8)


def test_kernel_symmetry_about_mean():
    rng = np.random.default_rng(1)
    for _ in range(50):
        mu = float(rng.normal(scale=3))
        d = float(rng.uniform(0, 10))
        assert kernel_pdf(mu, mu + d, REF_KERNEL) == pytest.approx(
            kernel_pdf(mu, mu - d, REF_KERNEL), rel=1e-12)


def test_kernel_positive_and_matches_scipy():
    z = np.linspace(-20, 20, 101)
    mine = kernel_pdf(3.0, z, REF_KERNEL)
    ref = norm.pdf(z, loc=3.0, scale=REF_KERNEL.sd(3.0))
    assert np.all(mine > 0)
    np.testing.assert_allclose(mine, ref, rtol=1e-12)


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(c1=0.0)
    with pytest.raises(ValueError):
        KernelParams(c2=-0.5)


# ---------------------------------------------------------------------------
# initial_pdf


def test_initial_pdf_mass_close_to_one(ref_chain):
    stats = grid_stats(ref_chain[1], eps=1.0)
    assert abs(stats.mass - 1.0) < 1e-6


def test_initial_pdf_peak_at_start(ref_chain):
    f = ref_chain[1]
    k = np.argmax(f.values)
    half_spacing = max(f.z[k] - f.z[k - 1], f.z[k + 1] - f.z[k]) / 2
    assert f.z[k] == pytest.approx(5.0, abs=half_spacing)


def test_initial_pdf_mean_is_start(ref_chain):
    stats = grid_stats(ref_chain[1], eps=1.0)
    assert stats.mean == pytest.approx(5.0, abs=1e-6)


def test_initial_pdf_rejects_narrow_grid():
    with pytest.raises(GridSpanError, match="span at least"):
        initial_pdf(REF_X0, REF_KERNEL, z_min=-2.0, z_max=8.0, n_points=501)


def test_initial_pdf_coarse_grid_names_point_count():
    with pytest.raises(GridSpanError, match="7 points are too few") as info:
        initial_pdf(REF_X0, REF_KERNEL, n_points=7)
    assert "span at least" not in str(info.value)


def test_initial_pdf_rejects_nodes_too_far_apart_for_the_kernel():
    # nodes 0.26 apart in u against a kernel 0.17 wide there: one propagation
    # of this grid gains 1e-4 of mass
    params = KernelParams(0.2084948428880079, 0.4385806037013126)
    with pytest.raises(GridSpanError, match="^grid .*: 44 points are too few: "):
        initial_pdf(-1.3114711711202176, params, -100.0, 100.0, 44)


def _uniform_grid_pdf(z_min, z_max, n, values, t=1) -> GridPdf:
    """A GridPdf on np.linspace nodes with trapezoid weights of its own."""
    z = np.linspace(z_min, z_max, n)
    return GridPdf(z, trapezoid_weights(z), values, t=t)


# ---------------------------------------------------------------------------
# propagate

DIRAC_STEP = 0.02  # spacing of the uniform grid the point mass sits on


def _dirac_at_zero() -> GridPdf:
    values = np.zeros(6001)
    values[3000] = 1.0 / DIRAC_STEP  # unit trapezoid mass in one interior cell
    return _uniform_grid_pdf(-60.0, 60.0, 6001, values)


def test_propagate_point_mass_reproduces_kernel():
    out = propagate(_dirac_at_zero(), REF_KERNEL)
    assert out.t == 2
    z = out.z
    expected = kernel_pdf(0.0, z, REF_KERNEL)
    np.testing.assert_allclose(out.values, expected, rtol=1e-12, atol=1e-300)
    stats = grid_stats(out, eps=1.0)
    assert abs(stats.mean) <= DIRAC_STEP
    sd = np.sqrt(np.trapezoid(z * z * out.values, z) / stats.mass
                 - stats.mean ** 2)
    assert sd == pytest.approx(REF_KERNEL.c1 * REF_KERNEL.c2, rel=0.05)


def test_propagate_point_mass_matches_kernel_away_from_tails():
    out = propagate(_dirac_at_zero(), REF_KERNEL)
    expected = kernel_pdf(0.0, out.z, REF_KERNEL)
    body = expected >= 0.01 * expected.max()
    rel = np.abs(out.values[body] - expected[body]) / expected[body]
    assert rel.max() < 1e-3


def test_propagate_preserves_mean_from_initial(ref_chain):
    s1 = grid_stats(ref_chain[1], eps=1.0)
    s2 = grid_stats(ref_chain[2], eps=1.0)
    assert s2.mean == pytest.approx(s1.mean, abs=0.1)


def test_propagate_never_gains_mass(ref_chain):
    masses = [grid_stats(ref_chain[t], eps=1.0).mass for t in (1, 2, 3)]
    assert masses[1] <= masses[0] + 1e-9
    assert masses[2] <= masses[1] + 1e-9
    out = propagate(_dirac_at_zero(), REF_KERNEL)
    assert float(np.trapezoid(out.values, out.z)) <= 1.0 + 1e-9


def _direct_quadrature(f: GridPdf, params: KernelParams) -> np.ndarray:
    """Oracle for propagate: sum_j w_j f_j N(z_i; z_j, sd_j) with scipy's
    normal pdf, the whole kernel matrix at once."""
    sd = params.c1 * (params.c2 + np.abs(f.z))
    return norm.pdf(f.z[:, None], loc=f.z, scale=sd) @ (f.w * f.values)


def _graded_nodes(n, half_width, c2):
    """n nodes uniform in u = sign(x) * log(1 + |x| / c2) on
    [-half_width, half_width], built here apart from the program's grid."""
    u = np.linspace(-1.0, 1.0, n) * math.log1p(half_width / c2)
    return np.sign(u) * c2 * np.expm1(np.abs(u))


# Tolerances fixed from float64 rounding before comparing: each kernel term
# carries a few ulps of its exponent, at most ~700, so 1e-12 relative; values
# below 1e-300 sit near the subnormal range, whose precision is lower.
ORACLE_RTOL, ORACLE_ATOL = 1e-12, 1e-300


@pytest.mark.parametrize("t", [1, 2])
def test_propagate_matches_direct_quadrature_partial_last_block(t):
    # 1237 points: the row blocks do not divide the grid, so the last one is
    # partial
    f = pdf_at_time(REF_X0, t, REF_KERNEL, n_points=1237)
    np.testing.assert_allclose(propagate(f, REF_KERNEL).values,
                               _direct_quadrature(f, REF_KERNEL),
                               rtol=ORACLE_RTOL, atol=ORACLE_ATOL)


def test_propagate_matches_direct_quadrature_below_one_block():
    # nodes about 0.35 apart in u against a kernel about 1 wide there
    params = KernelParams(c1=1.0, c2=1.0)
    z = _graded_nodes(5, 1.0, params.c2)
    w = trapezoid_weights(z)
    values = norm.pdf(z, loc=0.5, scale=params.sd(0.5))
    f = GridPdf(z, w, 0.9 * values / (w @ values), t=1)
    out = propagate(f, params)
    assert out.t == 2
    np.testing.assert_allclose(out.values, _direct_quadrature(f, params),
                               rtol=ORACLE_RTOL, atol=ORACLE_ATOL)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(c1=st.floats(0.5, 2.0), c2=st.floats(0.05, 1.0),
       x0=st.floats(-10.0, 10.0), extra=st.integers(0, 40))
def test_propagate_matches_oracle_and_never_gains_mass(c1, c2, x0, extra):
    # Small program grids over +-200 with nodes at most 0.05 apart in u,
    # where the kernel is about c1 >= 0.5 wide everywhere. The trapezoid
    # error at the origin's kink, about du^2 / (6 c1 sqrt(2 pi)), then stays
    # below the 1e-3 deficit initial_pdf allows. On coarser grids, some of
    # which initial_pdf accepts, the quadrature itself can gain mass.
    params = KernelParams(c1, c2)
    u_max = math.log1p(200.0 / c2)
    n = 2 + math.ceil(u_max / 0.025) + extra
    f = initial_pdf(x0, params, -200.0, 200.0, n)
    out = propagate(f, params)
    np.testing.assert_allclose(out.values, _direct_quadrature(f, params),
                               rtol=ORACLE_RTOL, atol=ORACLE_ATOL)
    assert out.w @ out.values <= f.w @ f.values + 1e-9


def _same_bits_as_oracle(f: GridPdf, params: KernelParams) -> GridPdf:
    out = propagate(f, params)
    assert out.t == f.t + 1
    assert out.values.tobytes() == propagate_every_entry(f, params).values.tobytes()
    return out


@pytest.mark.parametrize("t", [1, 2, 3])
def test_propagate_equals_every_entry_oracle_on_reference_chain(ref_chain, t):
    _same_bits_as_oracle(ref_chain[t], REF_KERNEL)


@pytest.mark.parametrize("x0, params, z_min, z_max, n_points", [
    # the last row block is partial
    (REF_X0, REF_KERNEL, -1000.0, 1000.0, 1237),
    (REF_X0, REF_KERNEL, -1000.0, 1000.0, 6001),
    (REF_X0, REF_KERNEL, -50.0, 300.0, 1501),
    # kernels narrow enough that the blocks near x0 lose sources at both
    # ends of the grid as well as around the origin
    (REF_X0, KernelParams(c1=0.02, c2=0.1), -100.0, 100.0, 4001),
])
def test_propagate_equals_every_entry_oracle(x0, params, z_min, z_max,
                                             n_points):
    f = initial_pdf(x0, params, z_min, z_max, n_points)
    for _ in range(2):
        f = _same_bits_as_oracle(f, params)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(c1=st.integers(0, 1000).map(lambda i: 0.02 * 150.0 ** (i / 1000)),
       c2=st.floats(0.01, 2.0), x0=st.floats(-20.0, 20.0),
       left=st.floats(8.0, 300.0), right=st.floats(8.0, 300.0),
       extra=st.integers(0, 200))
def test_propagate_equals_every_entry_oracle_on_accepted_grids(
        c1, c2, x0, left, right, extra):
    # c1 log-uniform on [0.02, 3]; spans of 8 to 300 first-step sds either
    # side of x0, on the fewest points initial_pdf accepts plus up to 200,
    # and at most 1500 in all. Kernels below c1 = 0.1 leave pdf values under
    # 1e-300 in reach of sources 30 to 40 sds away, where exp is not yet 0.
    params = KernelParams(c1, c2)
    sd = float(params.sd(x0))
    z_min, z_max = x0 - left * sd, x0 + right * sd
    u_min, u_max = (math.copysign(math.log1p(abs(x) / c2), x)
                    for x in (z_min, z_max))
    n = 3 + math.ceil((u_max - u_min) / (0.25 * c1 / (1.0 + c1))) + extra
    assume(n <= 1500)
    try:
        f = initial_pdf(x0, params, z_min, z_max, n)
    except GridSpanError:
        assume(False)
    for _ in range(2):
        f = _same_bits_as_oracle(f, params)


# ---------------------------------------------------------------------------
# pdf_at_time


def test_pdf_at_time_one_equals_initial():
    a = pdf_at_time(REF_X0, 1, REF_KERNEL)
    b = initial_pdf(REF_X0, REF_KERNEL)
    assert a.t == b.t == 1
    np.testing.assert_array_equal(a.values, b.values)


def test_pdf_at_time_rejects_t_zero():
    with pytest.raises(ValueError):
        pdf_at_time(REF_X0, 0, REF_KERNEL)


def test_darkness_spike_with_heavy_start_side(ref_chain):
    f3 = ref_chain[3]
    z = f3.z
    # a sharp mode at the darkest spot...
    assert abs(z[np.argmax(f3.values)]) <= 0.5
    # ...while the start side of the axis stays much heavier than the far side
    at = lambda x: f3.values[np.argmin(np.abs(z - x))]
    assert at(5.0) > 1.5 * at(-5.0)
    right = (z >= 2) & (z <= 8)
    left = (z >= -8) & (z <= -2)
    assert (np.trapezoid(f3.values[right], z[right])
            > 1.5 * np.trapezoid(f3.values[left], z[left]))


def test_mass_concentrates_at_darkest_spot(ref_chain):
    near = [grid_stats(ref_chain[t], eps=1.0).mass_near for t in (1, 2, 3)]
    assert near[0] < near[1] < near[2]


@pytest.mark.parametrize("t", [1, 2, 3])
def test_grid_pdf_against_monte_carlo(ref_chain, t):
    rng = np.random.default_rng(2718 + t)
    samples = mc_sample(REF_X0, t, 1_000_000, REF_KERNEL, rng)
    edges = np.linspace(-20.0, 30.0, 201)
    tv = tv_distance_to_samples(ref_chain[t], samples, edges)
    assert tv < 0.02


def test_two_propagations_match_direct_double_quadrature():
    # Independent path: explicit two-variable contraction using scipy's
    # normal pdf on the same coarse grid.
    params = REF_KERNEL
    n, lo, hi = 2001, -60.0, 60.0
    f3 = pdf_at_time(REF_X0, 3, params, lo, hi, n)
    z = f3.z
    w = trapezoid_weights(z)
    sd = params.c1 * (params.c2 + np.abs(z))
    a = w * norm.pdf(z, loc=REF_X0, scale=params.sd(REF_X0))
    inner = np.zeros(n)
    for lo_i in range(0, n, 256):
        hi_i = min(lo_i + 256, n)
        block = norm.pdf(z[None, :], loc=z[lo_i:hi_i, None],
                         scale=sd[lo_i:hi_i, None])
        inner += a[lo_i:hi_i] @ block
    for probe in (0.0, 2.5, 5.0, 7.5, 10.0):
        direct = float(np.sum(w * inner * norm.pdf(probe, loc=z, scale=sd)))
        mine = float(np.interp(probe, z, f3.values))
        assert abs(mine - direct) / direct < 1e-3


def test_grid_refinement_is_second_order():
    # Halving the step scales the change by ~1/4 ...
    coarse = pdf_at_time(REF_X0, 3, REF_KERNEL, n_points=3001).values
    mid = pdf_at_time(REF_X0, 3, REF_KERNEL, n_points=6001).values
    fine = pdf_at_time(REF_X0, 3, REF_KERNEL, n_points=12001).values
    d_cm = np.abs(coarse - mid[::2]).max()
    d_mf = np.abs(mid - fine[::2]).max()
    assert 3.0 < d_cm / d_mf < 5.0
    # ... and doubling the default grid is expected to move the pdf by
    # less than 1e-4 in sup norm.
    assert d_mf < 1e-4


# ---------------------------------------------------------------------------
# mc_sample


def test_mc_single_step_moments():
    rng = np.random.default_rng(55)
    n = 200_000
    x = mc_sample(REF_X0, 1, n, REF_KERNEL, rng)
    sd = REF_KERNEL.sd(REF_X0)
    assert x.mean() == pytest.approx(REF_X0, abs=4 * sd / np.sqrt(n))
    assert x.std() == pytest.approx(sd, rel=0.02)


def test_mc_mean_is_martingale_at_t3():
    rng = np.random.default_rng(56)
    n = 500_000
    x = mc_sample(REF_X0, 3, n, REF_KERNEL, rng)
    se = x.std() / np.sqrt(n)
    assert abs(x.mean() - REF_X0) <= 3 * se


def test_mc_deterministic_given_seed():
    a = mc_sample(REF_X0, 3, 1000, REF_KERNEL, np.random.default_rng(9))
    b = mc_sample(REF_X0, 3, 1000, REF_KERNEL, np.random.default_rng(9))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# grid_stats


def test_grid_stats_uniform():
    f = _uniform_grid_pdf(-1.0, 1.0, 201, np.full(201, 0.5))
    stats = grid_stats(f, eps=0.5)
    assert stats.mass == pytest.approx(1.0)
    assert stats.mean == pytest.approx(0.0, abs=1e-12)
    assert stats.mass_near == pytest.approx(0.5)


def test_grid_stats_mass_near_counts_partial_cells():
    f = _uniform_grid_pdf(-1.0, 1.0, 5, np.full(5, 0.5))  # nodes 0.5 apart
    assert grid_stats(f, eps=0.25).mass_near == pytest.approx(0.25)
    assert grid_stats(f, eps=0.75).mass_near == pytest.approx(0.75)
    assert grid_stats(f, eps=5.0).mass_near == pytest.approx(1.0)
    assert grid_stats(f, eps=0.0).mass_near == 0.0


@pytest.mark.parametrize("n_points", [3001, 12001])
def test_mass_near_on_graded_grids_matches_closed_form(n_points):
    # the first step from 0 is N(0, 0.1^2); eps = 0.1 falls inside a cell of
    # either grid, and its mass within 0.1 is erf(1 / sqrt(2))
    f = initial_pdf(0.0, REF_KERNEL, n_points=n_points)
    assert grid_stats(f, eps=0.1).mass_near == pytest.approx(
        math.erf(2 ** -0.5), abs=1e-5)


@pytest.mark.parametrize("n_points", [1501, DEFAULT_N_POINTS, 6001])
def test_mass_near_of_a_peak_at_the_origin_stays_below_mass(n_points):
    # N(0, 0.1^2), as sharp as the reference kernel gets: integrated by the
    # trapezoid rule in z, mass_near exceeded the mass here by 5.5e-5 at
    # 1501 points and 3.4e-6 at 6001
    stats = grid_stats(initial_pdf(0.0, KernelParams(), n_points=n_points),
                       eps=1.0)
    assert stats.mass_near <= stats.mass + 1e-12


def _mass_between(f: GridPdf, a: float, b: float) -> float:
    """Mass on [a, b] by the grid's u rule, as ``grid_stats`` takes it on
    [-eps, eps]: the integral in u of the linear interpolant of
    ``values * (c2 + |z|)``, partial cells at both ends included."""
    ua, ub = (math.copysign(math.log1p(abs(x) / f.c2), x) for x in (a, b))
    u, g = f.u, f.values * (f.c2 + np.abs(f.z))
    un = np.concatenate(([ua], u[(ua < u) & (u < ub)], [ub]))
    return float(np.trapezoid(np.interp(un, u, g), un))


@pytest.mark.parametrize("n_points", [1501, DEFAULT_N_POINTS, 3001, 6001])
def test_first_step_mass_within_one_sd_of_x0(n_points):
    # the t = 1 pdf is N(x0, sd^2) sampled at the nodes, so its mass on
    # [x0 - sd, x0 + sd] is erf(1 / sqrt(2)) wherever the nodes fall. The
    # gate, fixed before measuring, is about four times the rule's leading
    # error at 1501 points: h^2 / 12 * |f'| at x0 + sd = 10.1, where nodes
    # are h = 0.126 apart and f' = 0.242 / sd^2, about 1.2e-5
    f = initial_pdf(REF_X0, REF_KERNEL, n_points=n_points)
    sd = float(REF_KERNEL.sd(REF_X0))
    assert _mass_between(f, REF_X0 - sd, REF_X0 + sd) == pytest.approx(
        math.erf(2 ** -0.5), abs=5e-5)


@st.composite
def graded_pdfs(draw) -> GridPdf:
    """A pdf at t = 1 or 2 on a random graded grid that initial_pdf accepts:
    the span holds x0 +/- 8 sd, and nodes are at most about a fifth of the
    kernel's width apart in u."""
    params = KernelParams(draw(st.floats(0.2, 3.0)), draw(st.floats(0.01, 2.0)))
    x0 = draw(st.floats(-10.0, 10.0))
    sd = float(params.sd(x0))
    z_min = x0 - 8 * sd - draw(st.floats(0.0, 50.0))
    z_max = x0 + 8 * sd + draw(st.floats(0.0, 50.0))

    def u(x):
        return math.copysign(math.log1p(abs(x) / params.c2), x)

    width = params.c1 / (1 + params.c1)
    n = (3 + math.ceil((u(z_max) - u(z_min)) / (0.2 * width))
         + draw(st.integers(0, 200)))
    try:
        f = initial_pdf(x0, params, z_min, z_max, n)
    except GridSpanError:  # a one-cell side of the origin can be too wide
        assume(False)
    return propagate(f, params) if draw(st.booleans()) else f


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(f=graded_pdfs(), eps=st.lists(st.floats(0.0, 100.0), min_size=2,
                                     max_size=2).map(sorted))
def test_mass_near_is_at_most_mass_and_grows_with_eps(f, eps):
    small, large, whole = (grid_stats(f, e) for e in (*eps, 1e9))
    assert small.mass_near <= large.mass_near + 1e-12
    assert large.mass_near <= large.mass + 1e-12
    assert whole.mass_near == pytest.approx(whole.mass, rel=0, abs=1e-12)


def test_default_grid_meets_its_accuracy_target(ref_chain):
    # the target the default point count was chosen by, on the t = 3 chain:
    # a deficit of at most 1e-5 and mass_near(1) within 1e-6 of 12001 points,
    # on a grid that nests into 6001 points
    assert 6000 % (DEFAULT_N_POINTS - 1) == 0
    assert ref_chain[3].z.size == DEFAULT_N_POINTS
    stats = grid_stats(ref_chain[3], eps=1.0)
    fine = grid_stats(pdf_at_time(REF_X0, 3, REF_KERNEL, n_points=12001),
                      eps=1.0)
    assert 1.0 - stats.mass <= 1e-5
    assert abs(stats.mass_near - fine.mass_near) <= 1e-6


def test_pdfs_on_one_grid_share_its_read_only_arrays(ref_chain):
    f1, f3 = ref_chain[1], ref_chain[3]
    assert f1.z is f3.z and f1.u is f3.u and f1.w is f3.w
    assert not (f3.z.flags.writeable or f3.u.flags.writeable
                or f3.w.flags.writeable)
    # across calls too, and each pdf still owns its values
    g1, g3 = initial_pdf(REF_X0, REF_KERNEL), pdf_at_time(REF_X0, 3, REF_KERNEL)
    assert g1.z is g3.z and g1.w is g3.w
    np.testing.assert_array_equal(g3.values, f3.values)
    assert g3.values is not f3.values


def test_grid_stats_rejects_zero_mass():
    f = _uniform_grid_pdf(-1.0, 1.0, 11, np.zeros(11))
    with pytest.raises(ValueError, match="zero mass"):
        grid_stats(f, eps=0.5)


def test_grid_pdf_validation():
    with pytest.raises(ValueError):
        _uniform_grid_pdf(1.0, -1.0, 11, np.zeros(11))
    with pytest.raises(ValueError):
        _uniform_grid_pdf(-1.0, 1.0, 11, -np.ones(11))
    with pytest.raises(ValueError):
        _uniform_grid_pdf(-1.0, 1.0, 12, np.zeros(11))
    with pytest.raises(ValueError, match="mass"):
        _uniform_grid_pdf(-1.0, 1.0, 11, np.ones(11))  # trapezoid mass 2

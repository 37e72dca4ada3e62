import dataclasses
import inspect
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import norm

from conftest import REF_KERNEL, REF_X0, trapezoid_weights, tv_distance_to_samples
from oracle import mc_sample, propagate_every_entry
from shinerswarm import core, density
from shinerswarm.core import ParamError, row_blocks
from shinerswarm.density import (
    DEFAULT_N_POINTS,
    GridPdf,
    GridSpanError,
    KernelParams,
    grid_stats,
    initial_pdf,
    pdf_at_time,
    propagate,
    _graded_grid,
)


# ---------------------------------------------------------------------------
# the transition kernel


def _kernel_pdf(mu, z, params: KernelParams):
    """The kernel's normal pdf from mu at z, ``norm * exp(-(k (z - mu))**2)``
    with ``KernelParams.factors`` at mu: the values ``initial_pdf`` samples
    (see ``test_initial_pdf_is_the_kernel_from_x0_bit_for_bit``)."""
    k, norm = params.factors(mu)
    return norm * np.exp(-np.square(k * (np.asarray(z) - mu)))


def test_kernel_peak_at_origin():
    # 1 / (0.1 * sqrt(2*pi)), read at the origin, a node of the default grid
    f = initial_pdf(0.0, REF_KERNEL)
    assert f.values[f.z == 0.0] == pytest.approx([3.98942280], rel=1e-8)


def test_kernel_peak_at_five():
    # sd = 1 * (0.1 + 5) = 5.1, peak 1 / (5.1 * sqrt(2*pi))
    assert _kernel_pdf(5.0, 5.0, REF_KERNEL) == pytest.approx(0.0782239766, rel=1e-8)


def test_kernel_symmetry_about_mean():
    rng = np.random.default_rng(1)
    for _ in range(50):
        mu = float(rng.normal(scale=3))
        d = float(rng.uniform(0, 10))
        assert _kernel_pdf(mu, mu + d, REF_KERNEL) == pytest.approx(
            _kernel_pdf(mu, mu - d, REF_KERNEL), rel=1e-12)


def test_kernel_positive_and_matches_scipy():
    z = np.linspace(-20, 20, 101)
    mine = _kernel_pdf(3.0, z, REF_KERNEL)
    ref = norm.pdf(z, loc=3.0, scale=REF_KERNEL.sd(3.0))
    assert np.all(mine > 0)
    np.testing.assert_allclose(mine, ref, rtol=1e-12)


@pytest.mark.parametrize("x0, c1, c2", [
    (REF_X0, REF_KERNEL.c1, REF_KERNEL.c2), (0.0, 1.0, 0.1), (-3.25, 0.5, 2.0),
    (7, 3.0, 0.01)])
def test_initial_pdf_is_the_kernel_from_x0_bit_for_bit(x0, c1, c2):
    params = KernelParams(c1, c2)
    f = initial_pdf(x0, params)
    assert f.values.tobytes() == _kernel_pdf(x0, f.z, params).tobytes()


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


def test_a_grid_whose_kernel_sd_rounds_to_zero_is_refused_without_a_warning():
    # c1 = 5e-324 rounds the sd to 0 within about 0.4 of the origin, where
    # the grid's k and norm read inf; initial_pdf refuses it by its spacing
    params = KernelParams(5e-324, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridSpanError, match="2001 points are too few"):
            initial_pdf(REF_X0, params)
    grid = _graded_grid(-1000.0, 1000.0, DEFAULT_N_POINTS, params)
    assert np.isinf(grid.k).any() and np.isinf(grid.norm).any()


def test_initial_pdf_rejects_nodes_too_far_apart_for_the_kernel():
    # nodes 0.26 apart in u against a kernel 0.17 wide there: one propagation
    # of this grid gains 1e-4 of mass
    params = KernelParams(0.2084948428880079, 0.4385806037013126)
    with pytest.raises(GridSpanError, match="^grid .*: 44 points are too few: "):
        initial_pdf(-1.3114711711202176, params, -100.0, 100.0, 44)


def _u(x: float, c2: float) -> float:
    """The graded grid's coordinate u = sign(x) * log(1 + |x| / c2)."""
    return math.copysign(math.log1p(abs(x) / c2), x)


def _uniform_in_u(z_min, z_max, n, c2=0.1) -> GridPdf:
    """The pdf uniform in u on the builder's grid: ``values * (c2 + |z|)``
    is constant, so the weights' rule integrates it exactly, to mass 1, and
    its mass on [a, b] is ``(u(b) - u(a)) / (u(z_max) - u(z_min))``."""
    grid = _graded_grid(z_min, z_max, n, KernelParams(c2=c2))
    u_span = _u(z_max, c2) - _u(z_min, c2)
    return GridPdf(grid, 1.0 / (u_span * (c2 + np.abs(grid.z))), t=1)


# ---------------------------------------------------------------------------
# propagate


def _dirac_at_zero() -> GridPdf:
    """Unit mass at the origin, a node of every span across 0."""
    grid = _graded_grid(-60.0, 60.0, 6001, REF_KERNEL)
    k = int(np.flatnonzero(grid.z == 0.0)[0])
    values = np.zeros(grid.z.size)
    values[k] = 1.0 / grid.w[k]
    return GridPdf(grid, values, t=1)


def test_propagate_point_mass_reproduces_kernel():
    out = propagate(_dirac_at_zero())
    assert out.t == 2
    z = out.z
    expected = _kernel_pdf(0.0, z, REF_KERNEL)
    np.testing.assert_allclose(out.values, expected, rtol=1e-12, atol=1e-300)
    stats = grid_stats(out, eps=1.0)
    assert abs(stats.mean) <= 0.02
    sd = np.sqrt(np.trapezoid(z * z * out.values, z) / stats.mass
                 - stats.mean ** 2)
    assert sd == pytest.approx(REF_KERNEL.c1 * REF_KERNEL.c2, rel=0.05)


def test_propagate_point_mass_matches_kernel_away_from_tails():
    out = propagate(_dirac_at_zero())
    expected = _kernel_pdf(0.0, out.z, REF_KERNEL)
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
    out = propagate(_dirac_at_zero())
    assert out.grid.w @ out.values <= 1.0 + 1e-9


def _direct_quadrature(f: GridPdf, params: KernelParams) -> np.ndarray:
    """Oracle for propagate: sum_j w_j f_j N(z_i; z_j, sd_j) with scipy's
    normal pdf, the whole kernel matrix at once."""
    sd = params.c1 * (params.c2 + np.abs(f.z))
    return norm.pdf(f.z[:, None], loc=f.z, scale=sd) @ (f.grid.w * f.values)


# Tolerances fixed from float64 rounding before comparing: each kernel term
# carries a few ulps of its exponent, at most ~700, so 1e-12 relative; values
# below 1e-300 sit near the subnormal range, whose precision is lower.
ORACLE_RTOL, ORACLE_ATOL = 1e-12, 1e-300


@pytest.mark.parametrize("t", [1, 2])
def test_propagate_matches_direct_quadrature_partial_last_block(t):
    # 1237 points: the row blocks do not divide the grid, so the last one is
    # partial
    f = pdf_at_time(REF_X0, t, REF_KERNEL, n_points=1237)
    np.testing.assert_allclose(propagate(f).values,
                               _direct_quadrature(f, REF_KERNEL),
                               rtol=ORACLE_RTOL, atol=ORACLE_ATOL)


def test_propagate_matches_direct_quadrature_below_one_block():
    # nodes about 0.35 apart in u against a kernel about 1 wide there
    params = KernelParams(c1=1.0, c2=1.0)
    grid = _graded_grid(-1.0, 1.0, 5, params)
    values = norm.pdf(grid.z, loc=0.5, scale=params.sd(0.5))
    f = GridPdf(grid, 0.9 * values / (grid.w @ values), t=1)
    out = propagate(f)
    assert out.t == 2
    np.testing.assert_allclose(out.values, _direct_quadrature(f, params),
                               rtol=ORACLE_RTOL, atol=ORACLE_ATOL)


@settings(max_examples=60)
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
    out = propagate(f)
    np.testing.assert_allclose(out.values, _direct_quadrature(f, params),
                               rtol=ORACLE_RTOL, atol=ORACLE_ATOL)
    assert out.grid.w @ out.values <= f.grid.w @ f.values + 1e-9


def _same_bits_as_oracle(f: GridPdf, params: KernelParams) -> GridPdf:
    out = propagate(f)
    assert out.t == f.t + 1
    assert out.values.tobytes() == propagate_every_entry(f, params).values.tobytes()
    return out


@pytest.mark.parametrize("t", [1, 2, 3])
def test_propagate_equals_every_entry_oracle_on_reference_chain(ref_chain, t):
    _same_bits_as_oracle(ref_chain[t], REF_KERNEL)


ORACLE_GRIDS = pytest.mark.parametrize("x0, params, z_min, z_max, n_points", [
    # the last row block is partial
    (REF_X0, REF_KERNEL, -1000.0, 1000.0, 1237),
    (REF_X0, REF_KERNEL, -1000.0, 1000.0, 6001),
    (REF_X0, REF_KERNEL, -50.0, 300.0, 1501),
    # kernels narrow enough that the blocks near x0 lose sources at both
    # ends of the grid as well as around the origin
    (REF_X0, KernelParams(c1=0.02, c2=0.1), -100.0, 100.0, 4001),
])


@ORACLE_GRIDS
def test_propagate_equals_every_entry_oracle(x0, params, z_min, z_max,
                                             n_points):
    f = initial_pdf(x0, params, z_min, z_max, n_points)
    for _ in range(2):
        f = _same_bits_as_oracle(f, params)


@ORACLE_GRIDS
def test_propagate_equals_every_entry_oracle_at_each_worker_count(
        monkeypatch, x0, params, z_min, z_max, n_points):
    # more workers than blocks start one thread per block, so they are run
    # only on the grids of few blocks
    counts = [1, 2, 3] + [10 ** 6] * (len(row_blocks(n_points, 8)) <= 20)
    f = initial_pdf(x0, params, z_min, z_max, n_points)
    # threads switch as often as they can, so that a block done in another
    # order or by two workers at once would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            # every output, the oracle's too, is kept alive: an output made
            # in the memory of one freed before it would hold that one's
            # values in any rows that no worker wrote
            expected = propagate_every_entry(f, params)
            outs = []
            for workers in counts:
                monkeypatch.setattr(core, "_cpus", lambda: workers)
                outs.append(propagate(f))
                assert outs[-1].t == f.t + 1
                assert (outs[-1].values.tobytes()
                        == expected.values.tobytes()), workers
            f = outs[0]
    finally:
        sys.setswitchinterval(interval)


def test_propagate_raises_a_worker_error_once_every_worker_has_joined(
        monkeypatch):
    # 12 row blocks; worker 1 reads from the second block on, and fails
    f = initial_pdf(REF_X0, REF_KERNEL, n_points=1237)
    kernel_rows = density._kernel_rows

    def fail_in_worker_1(*args):
        buf, blocks = args[-2:]
        if blocks[0] == len(buf):
            raise RuntimeError("worker 1 failed")
        kernel_rows(*args)

    monkeypatch.setattr(density, "_kernel_rows", fail_in_worker_1)
    before = threading.active_count()
    for workers in (2, 3):
        monkeypatch.setattr(core, "_cpus", lambda: workers)
        with pytest.raises(RuntimeError, match="worker 1 failed"):
            propagate(f)
        assert threading.active_count() == before
    # one worker is the caller, which reads every block from the first and
    # makes no thread
    monkeypatch.setattr(core, "_cpus", lambda: 1)
    monkeypatch.setattr(core, "threading", None)
    assert propagate(f).values.tobytes() == (
        propagate_every_entry(f, REF_KERNEL).values.tobytes())


@pytest.mark.parametrize("args, message", [
    # test_cli's grid on which an sd and a node distance both overflow in
    # the second step, on 400 points rather than 240: two row blocks, both
    # with distances that overflow, the second of them worker 1's
    ((KernelParams(c1=2.0, c2=1e300), -1e308, 1e308, 400),
     "t = 2: pdf values must be finite and >= 0"),
    # test_cli's grid near the float range, on which the norm, the reach
    # and some entries overflow to their limits and the step succeeds
    ((KernelParams(c1=100.0, c2=0.1), -1e306, 1e306, 6000), None),
])
def test_propagate_on_two_workers_warns_of_no_overflow_in_any_thread(
        monkeypatch, args, message):
    params, z_min, z_max, n_points = args
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    f = initial_pdf(REF_X0, params, z_min, z_max, n_points)
    # numpy's errstate is per thread, while the warnings filter is global
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            assert propagate(f).t == 2
        else:
            with pytest.raises(ValueError, match=message):
                propagate(f)


def test_propagate_calls_the_errstate_function_alike_at_each_worker_count(
        monkeypatch, ref_chain):
    # the reference t = 1 pdf's step underflows in exp; every worker holds
    # the caller's errstate, its "call" mode and its function alike, so the
    # count does not depend on how the blocks are shared
    calls = []
    counts = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(core, "_cpus", lambda: workers)
        calls.clear()
        with np.errstate(under="call", call=lambda *_: calls.append(1)):
            propagate(ref_chain[1])
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts == counts[:1] * 3


@settings(max_examples=100)
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


def test_a_pdf_steps_only_through_the_kernel_its_grid_was_checked_for():
    # a kernel passed to propagate beside the pdf could be one its grid was
    # never checked for: c1 = 0.02 is refused on the default grid, yet a
    # c1 = 1 pdf stepped through it there to a mass of 0.99999986. So the
    # grid holds its kernel, one grid per kernel, and propagate takes none.
    assert list(inspect.signature(propagate).parameters) == ["f"]
    fields = {field.name for field in dataclasses.fields(density.Grid)}
    assert "kernel" in fields and "c2" not in fields
    with pytest.raises(GridSpanError, match="2001 points are too few"):
        initial_pdf(REF_X0, KernelParams(0.02, 0.1))
    grids = []
    for params in (REF_KERNEL, KernelParams(0.5, 0.1)):
        f = initial_pdf(REF_X0, params)
        assert f.grid.kernel == params
        assert (propagate(f).values.tobytes()
                == propagate_every_entry(f, params).values.tobytes())
        grids.append(f.grid)
    assert grids[0] is not grids[1]


def test_propagate_reads_its_grid_not_its_kernel(monkeypatch):
    # the kernel's per-node factors and reach bounds are made once, with the
    # grid: a step reads them from there, asks the kernel for nothing and
    # steps a pdf alike on a copy of its grid that holds no kernel
    def refuse(*_):
        raise AssertionError("propagate asked the kernel")

    for params in (REF_KERNEL, KernelParams(0.5, 0.1)):
        f = initial_pdf(REF_X0, params)
        expected = propagate_every_entry(f, params)
        bare = GridPdf(dataclasses.replace(f.grid, kernel=None), f.values, f.t)
        with monkeypatch.context() as patch:
            patch.setattr(KernelParams, "sd", refuse)
            patch.setattr(KernelParams, "factors", refuse)
            outs = propagate(f), propagate(bare)
        for out in outs:
            assert out.values.tobytes() == expected.values.tobytes()


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
    f = _uniform_in_u(-1.0, 1.0, 201)
    stats = grid_stats(f, eps=0.5)
    assert stats.mass == pytest.approx(1.0)
    assert stats.mean == pytest.approx(0.0, abs=1e-12)
    assert stats.mass_near == pytest.approx(_u(0.5, 0.1) / _u(1.0, 0.1))


def test_grid_stats_mass_near_counts_partial_cells():
    # nodes at 0, +-(sqrt(2) - 1) and +-1: eps = 0.25 and 0.75 fall inside
    # the first and the second cell
    f = _uniform_in_u(-1.0, 1.0, 5, c2=1.0)
    for eps in (0.25, 0.75):
        assert grid_stats(f, eps).mass_near == pytest.approx(
            _u(eps, 1.0) / _u(1.0, 1.0))
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
    grid = f.grid
    c2 = grid.kernel.c2
    ua, ub = (_u(x, c2) for x in (a, b))
    u, g = grid.u, f.values * (c2 + np.abs(grid.z))
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

    width = params.c1 / (1 + params.c1)
    n = (3 + math.ceil((_u(z_max, params.c2) - _u(z_min, params.c2)) / (0.2 * width))
         + draw(st.integers(0, 200)))
    try:
        f = initial_pdf(x0, params, z_min, z_max, n)
    except GridSpanError:  # a one-cell side of the origin can be too wide
        assume(False)
    return propagate(f) if draw(st.booleans()) else f


def _check_mass_near(f: GridPdf, eps: list[float]) -> None:
    small, large, whole = (grid_stats(f, e) for e in (*eps, 1e9))
    assert small.mass_near <= large.mass_near + 1e-12
    assert large.mass_near <= large.mass + 1e-12
    assert whole.mass_near == pytest.approx(whole.mass, rel=0, abs=1e-12)


@settings(max_examples=200)
@given(f=graded_pdfs(), eps=st.lists(st.floats(0.0, 100.0), min_size=2,
                                     max_size=2).map(sorted))
def test_mass_near_is_at_most_mass_and_grows_with_eps(f, eps):
    _check_mass_near(f, eps)


@st.composite
def builder_grid_pdfs(draw) -> GridPdf:
    """Arbitrary nonnegative values of mass at most 1 on a random grid of the
    program's builder, either side of the origin or across it: values drawn
    freely, scaled down to mass 1 if they hold more."""
    z_min = draw(st.floats(-500.0, 500.0))
    z_max = z_min + draw(st.floats(0.01, 1000.0))
    grid = _graded_grid(z_min, z_max, draw(st.integers(3, 300)),
                        KernelParams(c2=draw(st.floats(0.01, 2.0))))
    raw = draw(arrays(np.float64, grid.z.size, elements=st.floats(0.0, 1e6)))
    mass = grid.w @ raw
    assume(mass > 0.0)
    return GridPdf(grid, raw / max(1.0, mass), t=1)


@settings(max_examples=200)
@given(f=builder_grid_pdfs(),
       eps=st.lists(st.floats(0.0, 1500.0), min_size=2, max_size=2).map(sorted))
def test_mass_near_of_any_values_on_a_builder_grid_is_at_most_mass(f, eps):
    # the pdf owns no weights, so its mass and mass_near take one rule
    _check_mass_near(f, eps)


@pytest.mark.parametrize("n", [3, 4, 300])
@pytest.mark.parametrize("c2", [0.01, 0.5, 2.0])
def test_mass_near_on_a_grid_from_the_smallest_subnormal(n, c2):
    # the span [-5e-324, 1] once drawn by the property above, pinned so that
    # it runs whichever modules a run collects: at c2 <= 0.5 the cell left
    # of the origin is 5e-324 wide, and at c2 = 2 the left end rounds onto
    # the origin
    grid = _graded_grid(-5e-324, 1.0, n, KernelParams(c2=c2))
    raw = np.random.default_rng(n).uniform(0.0, 1e6, n)
    f = GridPdf(grid, raw / max(1.0, grid.w @ raw), t=1)
    for eps in ([0.0, 5e-324], [1e-3, 0.5], [0.5, 1500.0]):
        _check_mass_near(f, eps)


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
    grid = f3.grid
    assert f1.grid is grid and f3.z is grid.z
    for name in ("z", "u", "w", "k", "norm", "left", "right"):
        assert not getattr(grid, name).flags.writeable, name
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.w = np.ones(grid.z.size)
    # across calls too, and each pdf still owns its values
    g1, g3 = initial_pdf(REF_X0, REF_KERNEL), pdf_at_time(REF_X0, 3, REF_KERNEL)
    assert g1.grid is g3.grid
    np.testing.assert_array_equal(g3.values, f3.values)
    assert g3.values is not f3.values


def test_grid_pdf_fields_cannot_be_reassigned():
    # values assigned to a pdf would pass by GridPdf's checks and give
    # grid_stats a mass of 10000.07; replace builds a new pdf, which is
    # checked anew
    f = initial_pdf(REF_X0, REF_KERNEL)
    mass = grid_stats(f, eps=1.0).mass
    five = np.full(f.z.size, 5.0)
    for field, value in (("values", five), ("grid", f.grid), ("t", 2)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, field, value)
    assert grid_stats(f, eps=1.0).mass == mass
    with pytest.raises(ValueError, match="mass .* exceeds 1"):
        dataclasses.replace(f, values=five)


@pytest.mark.parametrize("eps", [-1.0, math.nan])
def test_grid_stats_rejects_an_eps_out_of_range(eps):
    f = pdf_at_time(0.5, 2, KernelParams())
    with pytest.raises(ParamError, match="eps must be >= 0") as info:
        grid_stats(f, eps)
    assert info.value.key == "eps"
    assert grid_stats(f, 0.0).mass_near == 0.0


def test_grid_stats_rejects_zero_mass():
    f = GridPdf(_graded_grid(-1.0, 1.0, 11, KernelParams()), np.zeros(11), t=1)
    with pytest.raises(ValueError, match="zero mass"):
        grid_stats(f, eps=0.5)


def test_grid_pdf_validation():
    grid = _graded_grid(-1.0, 1.0, 11, KernelParams())
    with pytest.raises(ValueError):
        _graded_grid(1.0, -1.0, 11, KernelParams())
    with pytest.raises(ValueError):
        GridPdf(grid, -np.ones(11), t=1)
    with pytest.raises(ValueError):
        GridPdf(_graded_grid(-1.0, 1.0, 12, KernelParams()), np.zeros(11), t=1)
    with pytest.raises(ValueError):
        GridPdf(grid, np.full(11, np.nan), t=1)
    with pytest.raises(ValueError, match="mass"):
        GridPdf(grid, np.ones(11), t=1)  # mass 2, the span's length

import inspect
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from conftest import FakeStream
from oracle import (fresh_step_normals, heading_angle, indices, indptr,
                    mc_sample, node_step, philox4x64_10, radial_within_eps,
                    stepped_walk, unit_box_radius_pdf)
from shinerswarm import core, engine
from shinerswarm.core import (
    ParamError,
    SwarmParams,
    build_neighborhood,
    row_blocks,
    speed_law,
)
from shinerswarm.density import KernelParams, initial_pdf, pdf_at_time
from shinerswarm.engine import (
    DEFAULT_EPS,
    Box,
    SwarmState,
    advance_swarm,
    compute_metrics,
    first_passage,
    init_swarm,
    resolve_sigma_const,
    run,
    step_draws,
)

UNIT_BOX = Box(-0.5, -0.5, 0.5, 0.5)


# ---------------------------------------------------------------------------
# init_swarm


def test_init_positions_inside_region():
    params = SwarmParams(n_nodes=100)
    state = init_swarm(params, 3, UNIT_BOX)
    assert state.t == 0
    assert state.positions.shape == (100,)
    assert np.all(np.abs(state.positions.real) <= 0.5)
    assert np.all(np.abs(state.positions.imag) <= 0.5)


def test_init_is_deterministic_per_seed():
    params = SwarmParams(n_nodes=50)
    a = init_swarm(params, 9, UNIT_BOX)
    b = init_swarm(params, 9, UNIT_BOX)
    c = init_swarm(params, 10, UNIT_BOX)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_init_mean_is_region_center():
    params = SwarmParams(n_nodes=100_000)
    state = init_swarm(params, 17, UNIT_BOX)
    # uniform on [-0.5, 0.5]: sd 1/sqrt(12), so 0.005 is ~5.5 standard errors
    assert abs(state.positions.real.mean()) < 0.005
    assert abs(state.positions.imag.mean()) < 0.005


def test_degenerate_region_rejected():
    with pytest.raises(ValueError):
        Box(0.0, 0.0, 0.0, 1.0)


def test_region_width_must_be_positive_and_finite_on_each_axis():
    for box, key in [((-0.5, -0.5, math.inf, 0.5), "max_x"),
                     ((-1e308, -0.5, 1e308, 0.5), "max_x"),
                     ((-0.5, -math.inf, 0.5, 0.5), "max_y"),
                     ((-0.5, -0.5, 0.5, math.nan), "max_y")]:
        with pytest.raises(ValueError, match="finite width") as info:
            Box(*box)
        assert info.value.key == key


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_uint64_rejected(seed):
    params = SwarmParams(n_nodes=3)
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        init_swarm(params, seed, UNIT_BOX)
    with pytest.raises(ValueError, match="seed"):
        SwarmState(0, np.zeros(3, dtype=complex), seed)


def test_swarm_state_holds_one_dimensional_complex_positions():
    p = _reference_density_state(100).positions
    assert SwarmState(0, p, 0).positions is p  # the walk's arrays: no copy
    listed = SwarmState(0, [0.5, 1j], 0).positions
    assert listed.dtype == np.complex128 and listed.tolist() == [0.5, 1j]
    # a 2-D frame once gave compute_metrics a wrong pairwise mean (0.0489
    # for 0.5454: its graph ravelled the array, its row sums broadcast it)
    # and advance_swarm an IndexError; now neither gets such a state
    for bad in (p.reshape(10, 10), p[0]):
        with pytest.raises(ParamError, match="^positions must be 1-D, got "
                           "shape") as info:
            SwarmState(0, bad, 0)
        assert info.value.key == "positions"


def test_swarm_state_fields_cannot_be_reassigned():
    # a 2-D frame assigned to a state would pass by the check above and give
    # compute_metrics the pairwise mean 0.0471 for 0.5262; replace builds a
    # new state, which is checked anew
    params = SwarmParams()
    state = init_swarm(params, 0, UNIT_BOX)
    p = state.positions
    before = compute_metrics(state, params, DEFAULT_EPS)
    for field, value in (("positions", p.reshape(10, 10)), ("seed", -1),
                         ("t", 1)):
        with pytest.raises(FrozenInstanceError):
            setattr(state, field, value)
    assert state.positions is p
    assert compute_metrics(state, params, DEFAULT_EPS) == before
    with pytest.raises(ParamError, match="^positions must be 1-D"):
        replace(state, positions=p.reshape(10, 10))


@pytest.mark.parametrize("t", [-1, 2 ** 64])
def test_step_outside_uint64_rejected(t):
    with pytest.raises(ParamError, match=r"^t must be in \[0, 2\*\*64\), got"):
        step_draws(0, t, 3, False)


def test_step_draws_node_count_is_a_whole_number():
    with pytest.raises(ParamError, match=r"^n must be >= 0, got -1$") as info:
        step_draws(0, 0, -1, False)
    assert info.value.key == "n"
    with pytest.raises(ParamError, match=r"^n must be an integer, got 2.5$"):
        step_draws(0, 0, 2.5, False)
    for social in (False, True):
        assert [f.shape for f in step_draws(0, 0, 0, social)] == [(0,), (0,)]


def test_largest_seed_accepted():
    state = init_swarm(SwarmParams(n_nodes=3), 2 ** 64 - 1, UNIT_BOX)
    assert np.all(np.isfinite(advance_swarm(state, SwarmParams(n_nodes=3)).positions))


# ---------------------------------------------------------------------------
# step_draws


def _factor_oracle(words) -> tuple[float, complex, complex]:
    """(length, heading, noise) from four 64-bit words, in scalar arithmetic
    on the 53-bit uniforms (word >> 11) * 2**-53."""
    u = [(int(w) >> 11) * 2.0 ** -53 for w in words]
    heading = complex(math.cos(2 * math.pi * u[3]), math.sin(2 * math.pi * u[3]))
    return (math.sqrt(-2.0 * math.log1p(-u[0])), heading,
            math.sqrt(-2.0 * math.log1p(-u[2])) * heading)


def test_philox_oracle_reproduces_the_published_known_answers():
    # two of Random123's known-answer vectors for Philox4x64-10
    assert philox4x64_10((0, 0, 0, 0), (0, 0)) == (
        0x16554d9eca36314c, 0xdb20fe9d672d0fdc, 0xd7e772cee186176b,
        0x7e68b68aec7ba23b)
    assert philox4x64_10(
        (0x243f6a8885a308d3, 0x13198a2e03707344, 0xa4093822299f31d0,
         0x082efa98ec4e6c89),
        (0x452821e638d01377, 0xbe5466cf34e90c6c)) == (
        0xa528f45403e61d95, 0x38c72dbd566e9788, 0xa5a1610e72fd18b5,
        0x57bd43b5e52b7fe6)


@pytest.mark.parametrize("seed, t", [(0, 0), (5, 3), (2 ** 63 + 5, 1),
                                     (2 ** 64 - 1, 10 ** 6)])
def test_step_draws_rows_are_fresh_philox_blocks(seed, t):
    length, heading = step_draws(seed, t, 9, False)
    _, noise = step_draws(seed, t, 9, True)
    assert length.shape == heading.shape == noise.shape == (9,)
    for i in range(9):
        # the spec's block at the documented key (seed, 0) and counter
        # (i + 1, t, 0, 0), made without numpy's generator
        words = philox4x64_10((i + 1, t, 0, 0), (seed, 0))
        # scalar libm and numpy's vector loops may differ in the last ulp
        np.testing.assert_allclose([length[i], heading[i], noise[i]],
                                   _factor_oracle(words), rtol=0, atol=1e-14)


def test_step_draws_rows_stable_under_prefix():
    for social in (False, True):
        full = step_draws(11, 4, 300, social)
        for m in (1, 2, 17, 299):
            for got, want in zip(step_draws(11, 4, m, social), full):
                assert np.array_equal(got, want[:m])
        for other in (step_draws(11, 5, 300, social),
                      step_draws(12, 4, 300, social)):
            for got, want in zip(other, full):
                assert not np.array_equal(got, want)


def test_step_draw_moments():
    length, heading = step_draws(2024, 7, 250_000, False)
    _, noise = step_draws(2024, 7, 250_000, True)
    assert np.all(np.isfinite(length)) and np.all(np.isfinite(noise))
    # 250k samples: the Rayleigh length has E[R] = sqrt(pi / 2) and
    # E[R^2] = 2, standard errors 0.0013 and 0.004
    assert length.mean() == pytest.approx(math.sqrt(math.pi / 2), abs=0.01)
    assert (length ** 2).mean() == pytest.approx(2, abs=0.02)
    # a uniform angle: |heading| = 1, and E[heading] = E[heading^2] = 0,
    # standard error 0.002
    np.testing.assert_allclose(np.abs(heading), 1, rtol=0, atol=4e-16)
    assert abs(heading.mean()) < 0.01 and abs((heading ** 2).mean()) < 0.01
    # the noise is a standard complex normal: standard error of the mean
    # 0.002 per part
    g = np.stack([noise.real, noise.imag])
    assert np.all(np.abs(g.mean(axis=1)) < 0.01)
    assert np.all(np.abs(g.var(axis=1) - 1) < 0.02)
    assert np.all(np.abs((g ** 4).mean(axis=1) - 3) < 0.1)
    # the length and either draw's parts are uncorrelated
    for z in (heading, noise):
        corr = np.corrcoef([length, z.real, z.imag])
        assert np.all(np.abs(corr - np.eye(3)) < 0.01)


def _block_steps(n: int) -> int:
    """Steps in one of a walk's block draws of n nodes: 32 bytes of Philox
    words per node-step, at most ``engine._DRAW_BYTES`` per block."""
    return max(1, engine._DRAW_BYTES // (32 * n))


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 64 - 1), t0=st.integers(0, 10 ** 6),
       n=st.integers(1, 300), extra=st.integers(1, 12), social=st.booleans())
def test_walk_draws_are_the_step_draws(seed, t0, n, extra, social):
    # more steps than one block holds: the walk's draws cross the byte cap,
    # and each of its rows is that of a generator made for its step alone
    n_steps = _block_steps(n) + extra
    walk = list(engine._draws(seed, t0, n, n_steps, social))
    assert len(walk) == n_steps
    for j in range(n_steps):
        draw = step_draws(seed, t0 + j, n, social)
        assert [f.shape for f in draw] == [(n,)] * 2
        for got, want in zip(walk[j], draw):
            assert got.tobytes() == want.tobytes()


def test_no_draw_word_reads_the_generator_seed(monkeypatch):
    # each row sets the generator's whole state, so the one seed every walk
    # makes its generator from reaches no factor, across block boundaries
    def factors():
        n_steps = 2 * _block_steps(50) + 3
        return [f.tobytes() for social in (False, True)
                for draw in engine._draws(9, 3, 50, n_steps, social)
                for f in draw]

    want = factors()
    monkeypatch.setattr(engine, "_philox_seed",
                        lambda: np.random.SeedSequence(2 ** 63 + 17))
    assert factors() == want


def test_importing_the_package_loads_no_numpy_random():
    # numpy loads numpy.random on its first use: a generator seed made at
    # import would add about 12 ms to every import of the package
    code = "import sys, shinerswarm; sys.exit('numpy.random' in sys.modules)"
    src = str(Path(engine.__file__).parents[1])
    assert subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src)).returncode == 0


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 64 - 1), t0=st.integers(0, 10 ** 6),
       n=st.integers(1, 300), extra=st.integers(1, 12))
def test_block_draws_are_the_box_muller_factors(seed, t0, n, extra):
    # the factors are those of the four Box-Muller normals of a Philox
    # generator made for each step alone: the length is hypot(g0, g1) and
    # the heading the unit vector of g2 + 1j g3 within a few ulp, and the
    # noise is g2 + 1j g3 bit for bit, across the walk's block boundaries
    n_steps = _block_steps(n) + extra
    walks = [list(engine._draws(seed, t0, n, n_steps, social))
             for social in (False, True)]
    for j, ((length, heading), (length_on, noise)) in enumerate(zip(*walks)):
        g = fresh_step_normals(seed, t0 + j, n)
        z = g[:, 2] + 1j * g[:, 3]
        assert length.tobytes() == length_on.tobytes()
        np.testing.assert_array_max_ulp(length, np.hypot(g[:, 0], g[:, 1]),
                                        maxulp=4)
        # a unit vector's parts are within 4 ulp of 1
        np.testing.assert_allclose(heading, z / np.hypot(z.real, z.imag),
                                   rtol=0, atol=4 * np.spacing(1.0))
        assert noise.tobytes() == z.tobytes()


# ---------------------------------------------------------------------------
# advance_swarm


def test_single_node_moves_by_noise_angle():
    params = SwarmParams(n_nodes=1, c1=0.1, c2=0.1, rho=0j)
    state = init_swarm(params, 5, UNIT_BOX)
    p0 = complex(state.positions[0])
    g1, g2, zr, zi = fresh_step_normals(5, 0, 1)[0]
    sigma = 0.1 * (0.1 + abs(p0))
    expected = p0 + sigma * math.hypot(g1, g2) * np.exp(1j * math.atan2(zi, zr))
    new = advance_swarm(state, params)
    assert new.t == 1
    assert new.positions[0] == pytest.approx(expected, abs=1e-12)


def test_advance_matches_scalar_reference_path():
    params = SwarmParams(n_nodes=60)
    state = init_swarm(params, 21, UNIT_BOX)
    graph = build_neighborhood(state.positions, params.r)
    g = fresh_step_normals(21, 0, 60)
    expected = np.empty(60, dtype=np.complex128)
    for i in range(60):
        disp, _ = node_step(i, state.positions, graph, params,
                            FakeStream(g[i]))
        expected[i] = state.positions[i] + disp
    new = advance_swarm(state, params)
    np.testing.assert_allclose(new.positions, expected, rtol=0, atol=1e-12)


def test_step_magnitude_at_darkest_spot():
    # w = 0 equivalent (social off), all nodes at rho: |step| = c1*c2*u_raw,
    # so the empirical mean must hit c1*c2*sqrt(pi/2) within 1%.
    params = SwarmParams(n_nodes=10_000, c1=0.1, c2=0.1, rho=0j,
                         social_enabled=False)
    state = init_swarm(params, 8, UNIT_BOX)
    mags = []
    state.positions[:] = 0j
    for _ in range(100):
        new = advance_swarm(state, params)
        mags.append(np.abs(new.positions))  # previous positions all at rho
        new.positions[:] = 0j
        state = new
    mean = np.concatenate(mags).mean()
    expected = 0.1 * 0.1 * math.sqrt(math.pi / 2)
    assert mean == pytest.approx(expected, rel=0.01)


def test_step_level_martingale_with_social_off():
    params = SwarmParams(n_nodes=1000, social_enabled=False)
    state = init_swarm(params, 30, UNIT_BOX)
    displacements = []
    sigma_max = 0.0
    for _ in range(100):
        sigma_max = max(sigma_max,
                        float(params.c1 * (params.c2 + np.abs(state.positions - params.rho)).max()))
        new = advance_swarm(state, params)
        displacements.append(new.positions - state.positions)
        state = new
    pooled = np.concatenate(displacements)
    assert pooled.size == 100_000
    bound = 4 * sigma_max * math.sqrt(math.pi / 2) / math.sqrt(pooled.size)
    assert abs(pooled.mean()) <= bound


def test_permutation_equivariance():
    n = 40
    params = SwarmParams(n_nodes=n)
    rng = np.random.default_rng(123)
    pos = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
    perm = rng.permutation(n)
    draw = step_draws(7, 0, n, True)
    # identical up to float summation order of the relabeled neighbor sums
    np.testing.assert_allclose(
        engine._step(pos[perm], params, np.abs(pos[perm] - params.rho),
                     tuple(f[perm] for f in draw)),
        engine._step(pos, params, np.abs(pos - params.rho), draw)[perm],
        rtol=0, atol=1e-12)


lattice = st.tuples(st.integers(-40, 40), st.integers(-40, 40))


@settings(max_examples=150)
@given(points=st.lists(lattice, min_size=1, max_size=60),
       shift=st.tuples(st.integers(-4096, 4096), st.integers(-4096, 4096)),
       social=st.booleans(), seed=st.integers(0, 2 ** 64 - 1))
def test_translation_equivariance(points, shift, social, seed):
    # positions, rho and the shift c on a 1/64 lattice: every difference
    # p_j - p_i and p_i - rho is exact before and after the shift, so only
    # the final p + step rounds differently
    p = np.array([complex(x, y) for x, y in points]) / 64
    c = complex(*shift) / 64
    params = SwarmParams(n_nodes=p.size, rho=complex(3, -5) / 64,
                         social_enabled=social)
    graph = build_neighborhood(p, params.r)
    moved = build_neighborhood(p + c, params.r)
    assert np.array_equal(indptr(moved), indptr(graph))
    assert np.array_equal(indices(moved), indices(graph))
    shifted = advance_swarm(SwarmState(0, p + c, seed),
                            replace(params, rho=params.rho + c))
    np.testing.assert_allclose(
        shifted.positions,
        advance_swarm(SwarmState(0, p, seed), params).positions + c,
        rtol=0, atol=1e-12)


@pytest.mark.parametrize("env", [True, False])
def test_move_without_social_term_is_the_step_formula(env):
    # the step is (sigma * length) * heading, multiplied in that order;
    # sigma * (length * heading) differs in the last bits
    params = replace(SwarmParams(n_nodes=500, social_enabled=False,
                                 env_enabled=env), sigma_const=0.07)
    p = init_swarm(params, 4, UNIT_BOX).positions
    length, heading = step_draws(4, 9, p.size, False)
    sigma = (speed_law(params.c1, params.c2, np.abs(p - params.rho))
             if env else params.sigma_const)
    step = (sigma * length) * heading
    after = advance_swarm(SwarmState(9, p, 4), params)
    assert after.positions.tobytes() == (p + step).tobytes()


def test_move_nodes_a_subnormal_distance_apart():
    # hammer(5e-324) is -0.08, as for any distance well inside s, so the
    # step is the one from a pair 1e-300 apart; positions differ by less
    # than an ulp of the step
    params = SwarmParams(n_nodes=2)

    def moved(p):
        return advance_swarm(SwarmState(0, p, 3), params).positions

    for offset in (5e-324, 3e-309 + 1e-309j):
        got = moved(np.array([0j, offset]))
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(
            got, moved(np.array([0j, 1e-300 * (offset / abs(offset))])),
            rtol=1e-15, atol=0)


def test_advance_env_off_requires_sigma_const():
    # the refusal names the step it would take, as a diverging step does
    params = SwarmParams(n_nodes=3, env_enabled=False, sigma_const=None)
    state = replace(init_swarm(params, 1, UNIT_BOX), t=4)
    with pytest.raises(ValueError,
                       match=r"^step 5: sigma_const must be set when the "
                             r"environmental factor is disabled; "):
        advance_swarm(state, params)


def test_advance_swarm_names_the_step_it_diverges_at():
    # the step from t = 41 is step 42, as a walk names the step that
    # reaches t; the node and position follow as in ``_step``'s error
    state = SwarmState(41, np.array([1e300 + 0j, 1, 2]), 1)
    params = SwarmParams(n_nodes=3, c1=1e300, social_enabled=False)
    with pytest.raises(ValueError, match=r"^step 42: node 0: position "
                       r"\(-inf-infj\) is not finite$"):
        advance_swarm(state, params)


# ---------------------------------------------------------------------------
# compute_metrics


def test_metrics_degenerate_collapse():
    params = SwarmParams(n_nodes=5, rho=0.1 + 0.2j)
    state = SwarmState(0, np.full(5, 0.1 + 0.2j), 0)
    m = compute_metrics(state, params, eps=0.15)
    assert m.mean_dist_to_rho == 0.0
    assert m.frac_within_eps == 1.0
    assert m.mean_pairwise_dist == 0.0
    assert m.cluster_count == 1


def test_metrics_disconnected_pair():
    params = SwarmParams(n_nodes=2, r=0.2)
    state = SwarmState(0, np.array([0j, 0.6 + 0j]), 0)
    m = compute_metrics(state, params, eps=0.15)
    assert m.cluster_count == 2


def test_metrics_hand_case():
    params = SwarmParams(n_nodes=4, r=0.2, rho=0j)
    state = SwarmState(0, np.array([0j, 0.1 + 0j, 0.2 + 0j, 1 + 0j]), 0)
    m = compute_metrics(state, params, eps=0.15)
    assert m.cluster_count == 2
    # pairs: 0.1, 0.2, 1.0, 0.1, 0.9, 0.8 -> 3.1/6
    assert m.mean_pairwise_dist == pytest.approx(3.1 / 6)
    assert m.mean_dist_to_rho == pytest.approx(0.325)
    assert m.frac_within_eps == pytest.approx(0.5)


def test_metrics_single_node():
    params = SwarmParams(n_nodes=1)
    state = SwarmState(0, np.array([0.3 + 0.4j]), 0)
    m = compute_metrics(state, params, eps=0.15)
    assert m.mean_pairwise_dist == 0.0
    assert m.cluster_count == 1
    assert m.mean_dist_to_rho == pytest.approx(0.5)


def test_metrics_reject_non_finite_positions_before_arithmetic():
    state = SwarmState(0, np.array([0j, np.inf, np.inf]), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^node 1: position .* not finite"):
            compute_metrics(state, SwarmParams(n_nodes=3), eps=0.15)


@pytest.mark.parametrize("positions, rho, r", [
    ([0j, 0j, 0j], complex(1e308, 1e308), 0.2),  # each |p - rho| is 1.4e308
    ([-7.5e307, 7.5e307, 7.5e307 + 1j], 0j, np.inf),  # pairs 1.5e308 apart
])
def test_metrics_report_distance_sums_that_overflow(positions, rho, r):
    state = SwarmState(0, np.array(positions, dtype=complex), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^distances overflow: "):
            compute_metrics(state, SwarmParams(n_nodes=3, r=r, rho=rho), 0.15)


@pytest.mark.parametrize("eps", [-0.1, math.nan])
def test_metrics_reject_negative_or_nan_eps(eps):
    params = SwarmParams()
    state = init_swarm(params, 0, UNIT_BOX)
    with pytest.raises(ParamError, match="eps must be >= 0") as info:
        compute_metrics(state, params, eps)
    assert info.value.key == "eps"


def test_metrics_reject_a_frame_without_nodes():
    state = SwarmState(0, np.empty(0, dtype=complex), 0)
    with pytest.raises(ParamError, match="n_nodes must be >= 1, got 0") as info:
        compute_metrics(state, SwarmParams(), 0.15)
    assert info.value.key == "n_nodes"


def _reference_density_state(n, seed=0):
    """n nodes placed at the reference node density (box side sqrt(n / 100))."""
    half = 0.5 * math.sqrt(n / 100)
    return init_swarm(SwarmParams(n_nodes=n), seed, Box(-half, -half, half, half))


# 200 nodes fit one row block, and 1000 nodes end in a partial one
@pytest.mark.parametrize("n", [1, 2, 200, 1000])
def test_metrics_pairwise_mean_matches_pdist(n):
    assert len(row_blocks(200, 16)) == 1 and 1000 % row_blocks(1000, 16).step
    state = _reference_density_state(n, seed=n)
    p = state.positions
    expected = pdist(np.column_stack([p.real, p.imag])).mean() if n > 1 else 0.0
    m = compute_metrics(state, SwarmParams(n_nodes=n), eps=0.15)
    assert m.mean_pairwise_dist == pytest.approx(expected, rel=1e-12, abs=0)


def test_metrics_memory_is_linear_in_nodes():
    # all 2e6 pairs of 2000 nodes at once would take 92 MiB
    state = _reference_density_state(2000)
    params = SwarmParams(n_nodes=2000)
    tracemalloc.start()
    try:
        compute_metrics(state, params, eps=0.15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


# ---------------------------------------------------------------------------
# run


def test_run_snapshot_schedule():
    params = SwarmParams(n_nodes=20)
    records = run(params, 2, UNIT_BOX, n_steps=70, snapshot_stride=35)
    assert [st.t for st, _ in records] == [0, 35, 70]
    records = run(params, 2, UNIT_BOX, n_steps=8, snapshot_stride=3)
    assert [st.t for st, _ in records] == [0, 3, 6, 8]


def test_run_zero_steps():
    params = SwarmParams(n_nodes=10)
    records = run(params, 4, UNIT_BOX, n_steps=0, snapshot_stride=5)
    assert len(records) == 1
    assert records[0][0].t == 0


@pytest.mark.parametrize("eps", [-0.1, math.nan])
def test_run_rejects_negative_or_nan_eps(eps):
    with pytest.raises(ValueError, match="eps must be >= 0") as info:
        run(SwarmParams(n_nodes=3), 0, UNIT_BOX, 2, 1, eps=eps)
    assert info.value.key == "eps"


def test_run_names_step_0_when_the_placement_cannot_be_measured():
    # every distance to a darkest spot at (-1e308, -1e308) overflows
    params = SwarmParams(n_nodes=3, rho=complex(-1e308, -1e308))
    with pytest.raises(ValueError, match=r"^step 0: distances overflow: "):
        run(params, 0, UNIT_BOX, n_steps=1, snapshot_stride=1)


def test_an_unset_sigma_const_names_the_mean_distance_that_overflows():
    # the user set no sigma_const; the mean of ten distances near 1e308
    # overflows, and that distance is what the message names
    params = SwarmParams(n_nodes=10, env_enabled=False)
    far = Box(1e307, -0.5, 1.7e308, 0.5)
    message = (r"^step 0: the speed at the placement's mean distance to rho, "
               r"inf, is not finite$")
    with pytest.raises(ValueError, match=message):
        run(params, 0, far, n_steps=1, snapshot_stride=1)
    with pytest.raises(ValueError, match=message):
        first_passage(params, 0, far, 0.15, 0.9, 1)


def test_run_is_bit_reproducible():
    params = SwarmParams(n_nodes=30)
    a = run(params, 11, UNIT_BOX, n_steps=12, snapshot_stride=4)
    b = run(params, 11, UNIT_BOX, n_steps=12, snapshot_stride=4)
    for (sa, ma), (sb, mb) in zip(a, b):
        assert np.array_equal(sa.positions, sb.positions)
        assert ma == mb


@pytest.mark.parametrize("mode", ["both", "env", "social", "none"])
def test_run_snapshots_are_resumable(mode):
    # a record resumes under the params the walk stepped with: in modes none
    # and social, run fills in sigma_const, and the error of a resume
    # without it names how
    params = SwarmParams(n_nodes=25, env_enabled=mode in ("both", "env"),
                         social_enabled=mode in ("both", "social"))
    records = run(params, 13, UNIT_BOX, n_steps=10, snapshot_stride=5)
    mid = records[1][0]
    assert mid.t == 5
    resolved = resolve_sigma_const(
        params, init_swarm(params, 13, UNIT_BOX).positions)
    if not params.env_enabled:
        with pytest.raises(ValueError, match=re.escape(
                "engine.resolve_sigma_const(params, init_swarm(params, seed, "
                "region).positions)")):
            advance_swarm(mid, params)
    state = mid
    for _ in range(5):
        state = advance_swarm(state, resolved)
    assert np.array_equal(state.positions, records[2][0].positions)


@pytest.mark.parametrize("mode, n_steps, stride, builds", [
    ("both", 70, 35, 71), ("social", 10, 4, 11),
    ("env", 70, 35, 3), ("env", 10, 4, 4)])
def test_run_builds_each_state_graph_once(monkeypatch, mode, n_steps, stride,
                                          builds):
    # a social run needs every state's graph but the last's for its step,
    # and the last state is recorded: n_steps + 1 builds; an env-only run
    # builds at recorded states only (t = 0, 35, 70 and t = 0, 4, 8, 10)
    built = []

    def counted(positions, r):
        built.append(positions)
        return build_neighborhood(positions, r)

    monkeypatch.setattr(engine, "build_neighborhood", counted)
    params = SwarmParams(n_nodes=30, env_enabled=mode != "social",
                         social_enabled=mode != "env")
    run(params, 3, UNIT_BOX, n_steps=n_steps, snapshot_stride=stride)
    assert len(built) == builds
    assert len({id(p) for p in built}) == builds


def test_compute_metrics_counts_the_clusters_of_its_own_frame():
    # a graph passed beside the frame could be another frame's: the graph of
    # the first 3 nodes would report 2 clusters, the frame's own counts 4.
    # So compute_metrics takes none and builds the frame's own
    assert list(inspect.signature(compute_metrics).parameters) == [
        "state", "params", "eps"]
    params = SwarmParams(n_nodes=5)
    p = np.array([0, 0.1, 1, 2, 3], dtype=np.complex128)
    state = SwarmState(t=0, positions=p, seed=0)
    assert compute_metrics(state, params, 0.15).cluster_count == 4


def test_compute_metrics_counts_the_clusters_of_each_seed_and_radius():
    # seed 0's 50 nodes form 2 clusters at r = 0.2 and 50 at r = 0.01;
    # seed 1's form 1 at r = 0.2
    params = SwarmParams(n_nodes=50)
    state = init_swarm(params, 0, UNIT_BOX)
    assert compute_metrics(state, params, 0.15).cluster_count == 2
    other = init_swarm(params, 1, UNIT_BOX)
    assert compute_metrics(other, params, 0.15).cluster_count == 1
    coarse = replace(params, r=0.01)
    assert compute_metrics(state, coarse, 0.15).cluster_count == 50


def test_snapshot_resumes_bit_for_bit_from_plain_data():
    params = SwarmParams(n_nodes=25)
    records = run(params, 13, UNIT_BOX, n_steps=10, snapshot_stride=5)
    mid = records[1][0]
    before = mid.positions.copy()
    # a state is (t, positions, seed): rebuilt from a pickle, it resumes the
    # run, and advancing the same snapshot twice gives the same result
    for start in (pickle.loads(pickle.dumps(mid)), mid, mid):
        state = start
        for _ in range(5):
            state = advance_swarm(state, params)
        assert state.t == 10
        assert np.array_equal(state.positions, records[2][0].positions)
    assert np.array_equal(mid.positions, before)


# ---------------------------------------------------------------------------
# sigma_const resolution and first passage


def test_default_sigma_const_formula():
    params = SwarmParams(c1=0.1, c2=0.1, rho=0j, env_enabled=False)
    positions = np.array([0.3 + 0.4j, 1 + 0j])  # distances 0.5 and 1.0
    assert resolve_sigma_const(params, positions).sigma_const == pytest.approx(
        0.1 * (0.1 + 0.75))


def test_resolve_sigma_const_only_when_needed():
    positions = np.array([1 + 0j])
    env_on = SwarmParams()
    assert resolve_sigma_const(env_on, positions) is env_on
    social = SwarmParams(env_enabled=False)
    resolved = resolve_sigma_const(social, positions)
    assert resolved.sigma_const == pytest.approx(0.1 * 1.1)
    explicit = SwarmParams(env_enabled=False, sigma_const=0.3)
    assert resolve_sigma_const(explicit, positions) is explicit


def test_social_only_run_uses_placement_speed():
    params = SwarmParams(n_nodes=40, env_enabled=False, social_enabled=True)
    records = run(params, 3, UNIT_BOX, n_steps=5, snapshot_stride=5)
    assert len(records) == 2
    assert np.all(np.isfinite(records[-1][0].positions))


def test_first_passage_reached_and_not_reached():
    params = SwarmParams(n_nodes=100)
    t = first_passage(params, 0, UNIT_BOX, eps=0.15, frac=0.9, max_steps=400)
    assert t is not None and 1 <= t <= 400
    assert first_passage(params, 0, UNIT_BOX, eps=0.15, frac=1.0,
                         max_steps=3) is None


@pytest.mark.parametrize("key, eps, frac, max_steps", [
    ("eps", math.nan, 0.9, 5), ("eps", -1.0, 0.9, 5),
    ("frac", 0.15, math.nan, 5), ("frac", 0.15, 1.5, 5), ("frac", 0.15, 0.0, 5),
    ("max_steps", 0.15, 0.9, -3)])
def test_first_passage_rejects_out_of_range_arguments(key, eps, frac,
                                                      max_steps):
    with pytest.raises(ParamError) as info:
        first_passage(SwarmParams(n_nodes=10), 0, UNIT_BOX, eps, frac,
                      max_steps)
    assert info.value.key == key


def test_first_passage_names_the_step_as_run_does():
    # c1 = 3 diverges until a position overflows at step 558
    params = SwarmParams(c1=3.0)
    with pytest.raises(ValueError, match=r"^step 558: node \d+: ") as passage:
        first_passage(params, 0, UNIT_BOX, 0.15, 0.9, 2000)
    with pytest.raises(ValueError) as ran:
        run(params, 0, UNIT_BOX, n_steps=2000, snapshot_stride=2000)
    assert str(passage.value) == str(ran.value)


def test_env_only_divergence_is_named_at_the_step_it_happens():
    # no graph is built with the social factor off; the step that first
    # overflows a position is caught by the walk's step, and numpy's
    # overflow warnings (errors under this suite's settings) stay inside it
    params = SwarmParams(c1=3.0, social_enabled=False)
    message = r"^step 558: node 88: position \(inf-infj\) is not finite$"
    with pytest.raises(ValueError, match=message):
        first_passage(params, 0, UNIT_BOX, 0.15, 0.9, 2000)
    with pytest.raises(ValueError, match=message):
        run(params, 0, UNIT_BOX, n_steps=1000, snapshot_stride=1000)


@pytest.mark.parametrize("walk, outcome", [
    (lambda: first_passage(SwarmParams(), 0, UNIT_BOX, 0.15, 0.3, 400), 20),
    (lambda: first_passage(SwarmParams(), 0, UNIT_BOX, 0.0, 1.0, 20), None),
    (lambda: len(run(SwarmParams(), 0, UNIT_BOX, 70, 10)), 8),
    (lambda: first_passage(SwarmParams(c1=3.0), 0, UNIT_BOX, 0.15, 0.9, 600),
     r"^step 558: "),
    (lambda: run(SwarmParams(c1=3.0), 0, UNIT_BOX, 600, 600), r"^step 558: "),
    (lambda: run(SwarmParams(n_nodes=3, rho=complex(-1e308, -1e308)), 0,
                 UNIT_BOX, 1, 1), r"^step 0: distances overflow: "),
], ids=["first_passage-passage", "first_passage-none", "run",
        "first_passage-diverges", "run-diverges", "run-placement"])
def test_a_walk_leaves_numpy_error_state_as_it_found_it(walk, outcome):
    # a walk's errstate holds across its yields; the caller's settings come
    # back when it returns from inside the loop, runs to its end, or raises
    old = np.seterr(all="raise")
    try:
        want = np.geterr()
        if isinstance(outcome, str):
            with pytest.raises(ValueError, match=outcome):
                walk()
        else:
            assert walk() == outcome
        assert np.geterr() == want
    finally:
        np.seterr(**old)


# ---------------------------------------------------------------------------
# run and first_passage against a walk stepped one draw at a time

_MODES = [(env, social) for env in (True, False) for social in (True, False)]
_K = _block_steps(100)  # steps 1.._K of a 100-node walk take its first block


@pytest.mark.parametrize("env, social", _MODES)
@pytest.mark.parametrize("n_steps, stride", [(0, 5), (2 * _K + 7, 10),
                                             (2 * _K, _K)])
def test_run_is_the_per_step_walk(env, social, n_steps, stride):
    # the reference swarm, then 300 nodes, whose graphs come from the cell
    # list, about a darkest spot off the origin: a record's metrics must read
    # its own frame's distances to rho and its own graph
    for n, rho in ((100, 0j), (300, 0.3 - 0.2j)):
        params = SwarmParams(n_nodes=n, rho=rho, env_enabled=env,
                             social_enabled=social)
        walk = list(stepped_walk(params, 5, UNIT_BOX, n_steps))
        resolved = resolve_sigma_const(params, walk[0].positions)
        records = run(params, 5, UNIT_BOX, n_steps, stride)
        assert [s.t for s, _ in records] == [
            t for t in range(n_steps + 1) if t % stride == 0 or t == n_steps]
        for state, metrics in records:
            want = walk[state.t]
            assert state.positions.tobytes() == want.positions.tobytes()
            assert metrics == compute_metrics(want, resolved, DEFAULT_EPS)


def _passage_inputs(walk, target: int, rho: complex):
    """(eps, frac) at which the walk's first passage, from step 1 on, is
    step ``target``, or None: eps is the m-th smallest distance to rho at
    ``target`` and frac = m / N, for an m at which that distance is below
    the m-th smallest at every earlier step."""
    q = np.sort([np.abs(s.positions - rho) for s in walk[1:target + 1]],
                axis=1)
    n = q.shape[1]
    for m in range(n, 0, -1):
        if target == 1 or q[-1, m - 1] < q[:-1, m - 1].min():
            return float(q[-1, m - 1]), m / n
    return None


def _record_steps(monkeypatch) -> list:
    """The positions of every step, as ``engine.check_finite`` sees them."""
    seen = []
    check_finite = engine.check_finite

    def recorded(p):
        seen.append(p)
        check_finite(p)

    monkeypatch.setattr(engine, "check_finite", recorded)
    return seen


@pytest.mark.parametrize("env, social", _MODES)
@pytest.mark.parametrize("target", [_K // 2, _K, 2 * _K])
def test_first_passage_is_the_per_step_walk(monkeypatch, env, social, target):
    # a passage mid-block, on the first block's last step and on the
    # second's, reached by the walk of the first seed that has one there
    params = SwarmParams(env_enabled=env, social_enabled=social)
    for seed in range(20):
        walk = list(stepped_walk(params, seed, UNIT_BOX, target))
        inputs = _passage_inputs(walk, target, params.rho)
        if inputs is not None:
            break
    assert inputs is not None
    seen = _record_steps(monkeypatch)
    assert first_passage(params, seed, UNIT_BOX, *inputs, 3 * _K) == target
    assert ([p.tobytes() for p in seen]
            == [s.positions.tobytes() for s in walk[1:]])


@pytest.mark.parametrize("env, social", _MODES)
@pytest.mark.parametrize("max_steps", [0, 2 * _K + 7])
def test_first_passage_without_passage_is_the_per_step_walk(
        monkeypatch, env, social, max_steps):
    params = SwarmParams(env_enabled=env, social_enabled=social)
    walk = list(stepped_walk(params, 2, UNIT_BOX, max_steps))
    seen = _record_steps(monkeypatch)
    # no node lands exactly on rho
    assert first_passage(params, 2, UNIT_BOX, 0.0, 1.0, max_steps) is None
    assert ([p.tobytes() for p in seen]
            == [s.positions.tobytes() for s in walk[1:]])


def _large_walk_peak(social: bool) -> float:
    """The traced peak, in units of 16 N bytes, of a 2-step first_passage
    at N = 1e5 and constant density (seed 5)."""
    n = 100_000
    half = 0.5 * math.sqrt(n / 100)
    box = Box(-half, -half, half, half)
    params = SwarmParams(n_nodes=n, social_enabled=social)
    # untraced warm-up: numpy's lazy set-up is not the walk's
    first_passage(replace(params, n_nodes=10), 0, box, 0.15, 1.0, 2)
    tracemalloc.start()
    try:
        first_passage(params, 5, box, 0.15, 1.0, 2)
        return tracemalloc.get_traced_memory()[1] / (16 * n)
    finally:
        tracemalloc.stop()


def test_walk_draws_one_step_at_a_time_at_large_n():
    # Gate: a 2-step environment-only first_passage at N = 1e5 peaks at no
    # more than 5.25 * 16 N bytes (8.4 MB). The walk peaks at 5.04 * 16 N,
    # with one step's Philox words at 2 * 16 N. A heading made through an
    # angle array of its own peaked at 5.54 * 16 N, and a block of two steps
    # would add 2 * 16 N of words alone.
    assert _large_walk_peak(social=False) <= 5.25


def test_social_walk_keeps_no_extra_pair_array_at_large_n():
    # Gate: the same walk with the social factor on peaks at no more than
    # 62.5 * 16 N bytes (100 MB). It peaks at 59.51 * 16 N in the first
    # step's neighbor build, where the swarm is densest: one more array of
    # its 1.05e6 candidate pairs kept alive there, 5.2 * 16 N as int64 and
    # 10.5 * 16 N as complex, fails the gate.
    assert _large_walk_peak(social=True) <= 62.5


def _radial_chain_z(region: Box, r0) -> np.ndarray:
    """The binomial z of an environment-only walk's fraction within 0.15 of
    rho at t = 1..70, 1e5 nodes placed in region from seed 2014 (c1 = c2 =
    0.1), against ``radial_within_eps`` from r0. The walk records nothing:
    one record costs about 25 s here."""
    n, eps, n_steps = 100_000, 0.15, 70
    params = SwarmParams(n_nodes=n, c1=0.1, c2=0.1, social_enabled=False)
    walk = engine._walk(params, 2014, region, n_steps)
    # d becomes the next step's speed in place, so count it as it comes
    within = np.array([np.count_nonzero(d <= eps) / n
                       for t, d, _ in walk if t > 0])
    want = radial_within_eps(0.1, 0.1, r0, eps, n_steps)
    return (within - want) / np.sqrt(want * (1 - want) / n)


def test_env_only_walk_follows_the_radial_rice_chain():
    # With the social factor off, a node's distance R to rho is a Markov
    # chain, R' | R ~ Rice(R, speed_law(c1, c2, R)): the 1D radial
    # propagator predicts the walk's fraction within eps at every step.
    # Gate, fixed before the test first ran: 4 binomial standard errors on
    # the largest gap over t = 1..70, at 1e5 nodes placed at distance 0.5.
    # A step length 2% long read 5.75 on one seed of a prototype, headings
    # squeezed 10% in y 8.61; at 2e4 nodes the squeeze read 3.99, so the
    # walk uses 1e5
    z = _radial_chain_z(Box(0.5, 0, 0.5 + 1e-12, 1e-12), 0.5)
    assert np.abs(z).max() <= 4, (np.abs(z).argmax() + 1, z)


def test_env_only_walk_from_the_box_follows_the_radial_chain():
    # Criterion 3's environment-only arm, placed uniformly in the reference
    # box, from R_0 of the box's own radial pdf. Gate, fixed before the test
    # first ran: 5 binomial standard errors on the largest gap over
    # t = 1..70. A prototype read 2.41 at this seed and 1.31-3.93 over
    # seeds 1-12; a 2401-point chain moved the prediction by at most 0.05
    # standard errors.
    # A step length 2% long read only 1.74-4.65, so the point start above
    # is the test that catches it
    z = _radial_chain_z(UNIT_BOX, unit_box_radius_pdf)
    assert np.abs(z).max() <= 5, (np.abs(z).argmax() + 1, z)


def _stepped_passage(walk, rho: complex, eps: float, frac: float):
    """The first step from 1 on at which the fraction of the walk's nodes
    within eps of rho reaches frac, or None."""
    for state in walk[1:]:
        if (np.abs(state.positions - rho) <= eps).mean() >= frac:
            return state.t
    return None


@pytest.mark.parametrize("env, social", _MODES)
@pytest.mark.parametrize("n, max_steps", [
    (100, 0), (100, _K - 1), (100, _K), (100, _K + 1),
    # from N = 2049 on, each block is a single step
    (2100, 3)])
@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 64 - 1), data=st.data())
def test_first_passage_is_the_stepped_walk_passage(env, social, n, max_steps,
                                                   seed, data):
    # (eps, frac) give the first passage at step t where the walk has one
    # there; otherwise eps is the m-th smallest distance to rho at step t,
    # or a part of it, and frac = m / n: a passage at or before step t, at
    # a later one, or none
    half = 0.5 * math.sqrt(n / 100)
    box = Box(-half, -half, half, half)
    params = SwarmParams(n_nodes=n, env_enabled=env, social_enabled=social)
    walk = list(stepped_walk(params, seed, box, max_steps))
    t = data.draw(st.integers(0, max_steps), label="t")
    inputs = None
    if t > 0 and data.draw(st.booleans(), label="exact"):
        inputs = _passage_inputs(walk, t, params.rho)
    if inputs is None:
        m = data.draw(st.integers(1, n), label="m")
        scale = data.draw(st.sampled_from([1.0, 0.5, 0.0]), label="scale")
        distances = np.sort(np.abs(walk[t].positions - params.rho))
        inputs = scale * float(distances[m - 1]), m / n
    assert (first_passage(params, seed, box, *inputs, max_steps)
            == _stepped_passage(walk, params.rho, *inputs))


# ---------------------------------------------------------------------------
# every step through engine._step


def test_move_reports_a_position_that_overflows():
    # the speed at |p| = 1e300 overflows to inf; the step names the step
    # and the node, as every step does, instead of warning and returning inf
    params = SwarmParams(n_nodes=2, c1=1e10, social_enabled=False)
    p = np.array([0.1j, 1e300 + 0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^step 1: node 1: position "
                           r".* is not finite"):
            advance_swarm(SwarmState(0, p, 0), params)


@pytest.mark.parametrize("env, social", _MODES)
@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 64 - 1), t=st.integers(0, 10 ** 6),
       n=st.integers(1, 300))
def test_advance_swarm_is_move_on_the_step_draws(env, social, seed, t, n):
    p = init_swarm(SwarmParams(n_nodes=n), seed, UNIT_BOX).positions
    params = resolve_sigma_const(
        SwarmParams(n_nodes=n, env_enabled=env, social_enabled=social), p)
    after = advance_swarm(SwarmState(t, p, seed), params)
    assert (after.t, after.seed) == (t + 1, seed)
    want = engine._step(p, params, np.abs(p - params.rho),
                        step_draws(seed, t, n, social))
    assert after.positions.tobytes() == want.tobytes()


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize("arg", [
    0j, complex(-0.0, 0.0), complex(0.0, -0.0),
    complex(_NAN, 0), complex(0, _NAN), complex(_NAN, _NAN),
    complex(_INF, _NAN), complex(_NAN, -_INF),
    complex(_INF, 5), complex(_INF, -5), complex(-_INF, 5), complex(-_INF, -5),
    complex(5, _INF), complex(-5, -_INF), complex(_INF, _INF),
    complex(-_INF, _INF), complex(1e308, 1e308), complex(-1.5e308, 1e308),
    complex(-1, 0), complex(-1, -0.0), complex(5e-324, 0),
    complex(-5e-324, -5e-324), complex(3e-309, 1e-309), complex(1e-320, 1),
], ids=repr)
def test_heading_is_the_arctan2_heading(arg):
    # finite exactly where exp(1j * angle) is, and within 4 ulp of 1 of it
    # there, alone or beside normal magnitudes, which keep their own bits
    normal = np.array([3 - 4j, -1e-300 + 0j, 2e300j])
    want = np.exp(1j * heading_angle(arg))
    # the caller suppresses overflow and invalid warnings, as the walk does
    with np.errstate(over="ignore", invalid="ignore"):
        got = core._heading(np.array([arg]))
        mixed = core._heading(np.array([arg, *normal]))
    assert mixed[1:].tobytes() == core._heading(normal).tobytes()
    for h in (got[0], mixed[0]):
        assert np.isfinite(h) == np.isfinite(want)
        if np.isfinite(want):
            assert abs(h.real - want.real) <= 4 * np.spacing(1.0)
            assert abs(h.imag - want.imag) <= 4 * np.spacing(1.0)


def test_a_nan_social_sum_is_named_at_its_step(monkeypatch):
    # a NaN hammer gives both nodes of its pair a NaN social sum and so a
    # NaN heading, and the step names the first of them
    hammer = core.hammer
    calls = []

    def nan_hammer(z, s):
        h = hammer(z, s)
        calls.append(h.size)
        h[0] = complex(math.nan, 0)
        return h

    params = SwarmParams()
    graph = build_neighborhood(init_swarm(params, 0, UNIT_BOX).positions,
                               params.r)
    poisoned = min(graph.order[graph.a[0]], graph.order[graph.b[0]])
    monkeypatch.setattr(core, "hammer", nan_hammer)
    with pytest.raises(ValueError) as info:
        run(params, 0, UNIT_BOX, n_steps=5, snapshot_stride=5)
    assert len(calls) == 1
    assert str(info.value) == (f"step 1: node {poisoned}: position "
                               f"(nan+nanj) is not finite")


@pytest.mark.parametrize("env, social", _MODES)
def test_every_step_goes_through_one_function(monkeypatch, env, social):
    calls = []
    step = engine._step

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(engine, "_step", counted)
    params = SwarmParams(n_nodes=30, env_enabled=env, social_enabled=social)
    state = init_swarm(params, 1, UNIT_BOX)
    params = resolve_sigma_const(params, state.positions)
    advance_swarm(state, params)
    assert len(calls) == 1
    run(params, 1, UNIT_BOX, n_steps=9, snapshot_stride=4)
    assert len(calls) == 1 + 9
    # eps = 0: no node lands on rho, so the walk takes all 7 steps
    assert first_passage(params, 1, UNIT_BOX, 0.0, 1.0, 7) is None
    assert len(calls) == 1 + 9 + 7


# ---------------------------------------------------------------------------
# integer arguments

_KERNEL = KernelParams(c1=1.0, c2=0.1)

# (key, call of one integer argument, a valid value of it), one per home of
# an integer rule
_INTEGER_ARGUMENTS = [
    pytest.param("seed", lambda v: init_swarm(SwarmParams(n_nodes=3), v,
                                              UNIT_BOX), 3, id="init_swarm"),
    pytest.param("seed", lambda v: SwarmState(0, np.zeros(3, dtype=complex),
                                              v), 3, id="SwarmState"),
    pytest.param("n_steps", lambda v: run(SwarmParams(n_nodes=3), 0, UNIT_BOX,
                                          v, 1), 2, id="run-n_steps"),
    pytest.param("snapshot_stride", lambda v: run(SwarmParams(n_nodes=3), 0,
                                                  UNIT_BOX, 7, v), 3,
                 id="run-snapshot_stride"),
    pytest.param("max_steps", lambda v: first_passage(
        SwarmParams(n_nodes=3), 0, UNIT_BOX, 0.15, 0.9, v), 2,
                 id="first_passage"),
    pytest.param("t", lambda v: step_draws(0, v, 3, False), 2,
                 id="step_draws"),
    pytest.param("n", lambda v: step_draws(0, 2, v, False), 3,
                 id="step_draws-n"),
    pytest.param("n_nodes", lambda v: SwarmParams(n_nodes=v), 3,
                 id="SwarmParams"),
    pytest.param("n_points", lambda v: initial_pdf(5.0, _KERNEL, n_points=v),
                 2001, id="initial_pdf"),
    pytest.param("t", lambda v: pdf_at_time(5.0, v, _KERNEL), 2,
                 id="pdf_at_time"),
    # the density chain's Monte Carlo reference keeps the rule of the
    # density it checks
    pytest.param("t", lambda v: mc_sample(5.0, v, 10, _KERNEL,
                                          np.random.default_rng(0)), 2,
                 id="mc_sample-t"),
    pytest.param("n_paths", lambda v: mc_sample(5.0, 2, v, _KERNEL,
                                                np.random.default_rng(0)), 10,
                 id="mc_sample-n_paths"),
]


@pytest.mark.parametrize("key, call, valid", _INTEGER_ARGUMENTS)
@pytest.mark.parametrize("value", [2.5, np.float64(3.0), "3"],
                         ids=["float", "numpy-float", "str"])
def test_integer_arguments_refuse_other_values(key, call, valid, value):
    message = rf"^{key} must be an integer, got {value}$"
    with pytest.raises(ParamError, match=message) as info:
        call(value)
    assert info.value.key == key
    # a numpy integer is an integer
    call(np.int64(valid))

import math
import pickle
import warnings

import numpy as np
import pytest

from conftest import FakeStream
from oracle import node_step
from shinerswarm.core import ParamError, SwarmParams, build_neighborhood
from shinerswarm.engine import (
    Box,
    SwarmState,
    advance_swarm,
    compute_metrics,
    default_sigma_const,
    first_passage,
    init_swarm,
    move,
    resolve_sigma_const,
    run,
    step_normals,
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


def test_largest_seed_accepted():
    state = init_swarm(SwarmParams(n_nodes=3), 2 ** 64 - 1, UNIT_BOX)
    assert np.all(np.isfinite(advance_swarm(state, SwarmParams(n_nodes=3)).positions))


# ---------------------------------------------------------------------------
# step_normals


def _box_muller_oracle(words) -> list[float]:
    """Four normals from four 64-bit words, by scalar Box-Muller on the
    53-bit uniforms (word >> 11) * 2**-53."""
    u = [(int(w) >> 11) * 2.0 ** -53 for w in words]
    out = []
    for a, b in ((u[0], u[1]), (u[2], u[3])):
        radius = math.sqrt(-2.0 * math.log1p(-a))
        out += [radius * math.cos(2 * math.pi * b), radius * math.sin(2 * math.pi * b)]
    return out


@pytest.mark.parametrize("seed, t", [(0, 0), (5, 3), (2 ** 63 + 5, 1),
                                     (2 ** 64 - 1, 10 ** 6)])
def test_step_normals_rows_are_fresh_philox_blocks(seed, t):
    g = step_normals(seed, t, 9)
    assert g.shape == (9, 4)
    for i in range(9):
        # integer key and counter: numpy splits them into the 64-bit words
        # (seed, 0) and (i, t, 0, 0)
        words = np.random.Philox(key=seed, counter=i + (t << 64)).random_raw(4)
        # scalar libm and numpy's vector loops may differ in the last ulp
        np.testing.assert_allclose(g[i], _box_muller_oracle(words),
                                   rtol=0, atol=1e-14)


def test_step_normals_rows_stable_under_prefix():
    full = step_normals(11, 4, 300)
    for m in (1, 2, 17, 299):
        assert np.array_equal(step_normals(11, 4, m), full[:m])
    assert not np.array_equal(step_normals(11, 5, 300), full)
    assert not np.array_equal(step_normals(12, 4, 300), full)


def test_step_normals_moments():
    g = step_normals(2024, 7, 250_000)
    assert np.all(np.isfinite(g))
    # 250k samples per column: standard error of the mean 0.002
    assert np.all(np.abs(g.mean(axis=0)) < 0.01)
    assert np.all(np.abs(g.var(axis=0) - 1) < 0.02)
    assert np.all(np.abs((g ** 4).mean(axis=0) - 3) < 0.1)
    corr = np.corrcoef(g, rowvar=False)
    assert np.all(np.abs(corr - np.eye(4)) < 0.01)
    u_raw = np.hypot(g[:, 0], g[:, 1])
    assert u_raw.mean() == pytest.approx(math.sqrt(math.pi / 2), abs=0.01)


# ---------------------------------------------------------------------------
# advance_swarm


def test_single_node_moves_by_noise_angle():
    params = SwarmParams(n_nodes=1, c1=0.1, c2=0.1, rho=0j)
    state = init_swarm(params, 5, UNIT_BOX)
    p0 = complex(state.positions[0])
    g1, g2, zr, zi = step_normals(5, 0, 1)[0]
    sigma = 0.1 * (0.1 + abs(p0))
    expected = p0 + sigma * math.hypot(g1, g2) * np.exp(1j * math.atan2(zi, zr))
    new = advance_swarm(state, params)
    assert new.t == 1
    assert new.positions[0] == pytest.approx(expected, abs=1e-12)


def test_advance_matches_scalar_reference_path():
    params = SwarmParams(n_nodes=60)
    state = init_swarm(params, 21, UNIT_BOX)
    graph = build_neighborhood(state.positions, params.r)
    g = step_normals(21, 0, 60)
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
    g = step_normals(7, 0, n)
    # identical up to float summation order of the relabeled neighbor sums
    np.testing.assert_allclose(move(pos[perm], params, g[perm]),
                               move(pos, params, g)[perm],
                               rtol=0, atol=1e-12)


def test_advance_env_off_requires_sigma_const():
    params = SwarmParams(n_nodes=3, env_enabled=False, sigma_const=None)
    state = init_swarm(params, 1, UNIT_BOX)
    with pytest.raises(ValueError, match="sigma_const"):
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
    # a finite region so far out that its nodes lie beyond 2**30 cells
    far = Box(1e300, 0.0, 2e300, 1.0)
    with pytest.raises(ValueError, match=r"^step 0: node \d+: .* cells of side"):
        run(SwarmParams(n_nodes=3), 0, far, n_steps=1, snapshot_stride=1)


def test_run_is_bit_reproducible():
    params = SwarmParams(n_nodes=30)
    a = run(params, 11, UNIT_BOX, n_steps=12, snapshot_stride=4)
    b = run(params, 11, UNIT_BOX, n_steps=12, snapshot_stride=4)
    for (sa, ma), (sb, mb) in zip(a, b):
        assert np.array_equal(sa.positions, sb.positions)
        assert ma == mb


def test_run_snapshots_are_resumable():
    params = SwarmParams(n_nodes=25)
    records = run(params, 13, UNIT_BOX, n_steps=10, snapshot_stride=5)
    mid = records[1][0]
    assert mid.t == 5
    state = mid
    for _ in range(5):
        state = advance_swarm(state, params)
    assert np.array_equal(state.positions, records[2][0].positions)


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
    assert default_sigma_const(positions, params) == pytest.approx(
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
    # c1 = 3 diverges: by step 14 a node is too far out for the neighbor search
    params = SwarmParams(c1=3.0)
    with pytest.raises(ValueError, match=r"^step 14: node \d+: ") as passage:
        first_passage(params, 0, UNIT_BOX, 0.15, 0.9, 2000)
    with pytest.raises(ValueError) as ran:
        run(params, 0, UNIT_BOX, n_steps=2000, snapshot_stride=2000)
    assert str(passage.value) == str(ran.value)

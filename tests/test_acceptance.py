"""End-to-end acceptance suite.

Each criterion is one test (criterion 3 has a second, 3b) that prints a
PASS/FAIL line with the measured values (run with ``pytest -s`` to see them
on passing runs). Shared heavy artifacts (the reference density chain, the
seed sweeps) are computed once per session.
"""

import math
import statistics
import time

import numpy as np
import pytest
from scipy.stats import norm

from conftest import REF_KERNEL, REF_X0, trapezoid_weights, tv_distance_to_samples
from oracle import (mc_sample, neighbors, radial_within_eps,
                    unit_box_radius_pdf)
from shinerswarm import engine
from shinerswarm.cli import main
from shinerswarm.core import SwarmParams, build_neighborhood, hammer
from shinerswarm.density import grid_stats
from shinerswarm.engine import Box, first_passage, run, step_draws

SEEDS = range(20)
BOX = Box(-0.5, -0.5, 0.5, 0.5)
EPS = 0.15


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}")


def _median(values) -> float:
    return statistics.median(math.inf if v is None else v for v in values)


@pytest.fixture(scope="module")
def both_at_70():
    """Final metrics of the reference two-factor scenario, 20 seeds,
    70 steps, plus the wall-clock for the whole sweep."""
    t0 = time.perf_counter()
    finals = [run(SwarmParams(), seed, BOX, 70, 70, eps=EPS)[-1][1]
              for seed in SEEDS]
    return finals, time.perf_counter() - t0


@pytest.fixture(scope="module")
def social_at_100():
    """First and final metrics of the social-only contrast runs."""
    params = SwarmParams(env_enabled=False)
    records = [run(params, seed, BOX, 100, 100, eps=EPS) for seed in SEEDS]
    return [(rec[0][1], rec[-1][1]) for rec in records]


def test_criterion_1_two_factor_convergence(both_at_70):
    finals, elapsed = both_at_70
    med_dist = _median([m.mean_dist_to_rho for m in finals])
    med_frac = _median([m.frac_within_eps for m in finals])
    ok = med_dist <= 0.10 and med_frac >= 0.90 and elapsed < 5.0
    _report("criterion 1", ok,
            f"median mean_dist={med_dist:.4f} (<=0.10) "
            f"median frac_within(0.15)={med_frac:.3f} (>=0.90) "
            f"elapsed={elapsed:.2f}s (<5s)")
    assert med_dist <= 0.10
    assert med_frac >= 0.90
    assert elapsed < 5.0


def test_criterion_2_social_only_stays_spread_but_coheres(both_at_70,
                                                          social_at_100):
    finals, _ = both_at_70
    med_both = _median([m.mean_dist_to_rho for m in finals])
    med_social = _median([last.mean_dist_to_rho for _, last in social_at_100])
    med_pair_start = _median([first.mean_pairwise_dist
                              for first, _ in social_at_100])
    med_pair_end = _median([last.mean_pairwise_dist
                            for _, last in social_at_100])
    ok = med_social >= 1.5 * med_both and med_pair_end < med_pair_start
    _report("criterion 2", ok,
            f"social@100 mean_dist={med_social:.4f} vs both@70 "
            f"{med_both:.4f} (ratio {med_social / med_both:.2f} >= 1.5); "
            f"pairwise {med_pair_start:.3f} -> {med_pair_end:.3f}")
    assert med_social >= 1.5 * med_both
    assert med_pair_end < med_pair_start


def test_criterion_3_social_factor_expedites_convergence():
    cap = 400
    both = [first_passage(SwarmParams(), seed, BOX, EPS, 0.9, cap)
            for seed in SEEDS]
    env = [first_passage(SwarmParams(social_enabled=False), seed, BOX,
                         EPS, 0.9, cap)
           for seed in SEEDS]
    med_both, med_env = _median(both), _median(env)
    ok = med_both < med_env
    _report("criterion 3", ok,
            f"median first step to frac>=0.9: both={med_both} "
            f"env={med_env} (cap {cap})")
    assert med_both < med_env


def test_criterion_3_two_factor_leads_the_environment_only_prediction():
    # Criterion 3's environment-only arm never reaches frac 0.9, so this
    # compares the two-factor walk with it where it is finite: the radial
    # chain's prediction of its fraction within EPS (which the engine tests
    # hold the walk to). Window and margin, fixed before the test first
    # ran: at every t in 30..70, the 20-seed median two-factor fraction
    # leads the prediction p_t by at least 2 binomial SEs at 100 nodes,
    # sqrt(p_t (1 - p_t) / 100). The crossover is the first step from which
    # the median leads at every step to 70.
    n_steps, window, margin = 70, range(30, 71), 2.0
    params = SwarmParams()
    within = np.array([[np.count_nonzero(d <= EPS) / d.size
                        for t, d, _ in engine._walk(params, seed, BOX, n_steps)
                        if t > 0]
                       for seed in SEEDS])
    median = np.median(within, axis=0)
    want = radial_within_eps(params.c1, params.c2, unit_box_radius_pdf, EPS,
                             n_steps)
    z = (median - want) / np.sqrt(want * (1 - want) / params.n_nodes)
    behind = np.flatnonzero(median <= want)
    crossover = int(behind[-1]) + 2 if behind.size else 1
    lead = z[window.start - 1:window.stop - 1]
    ok = bool(lead.min() >= margin)
    _report("criterion 3b", ok,
            f"two-factor median frac within {EPS} leads the environment-only "
            f"prediction from step {crossover}; least lead over t = "
            f"{window.start}..{window.stop - 1} {lead.min():.2f} SE at "
            f"t = {window.start + int(lead.argmin())} (>= {margin:g})")
    assert lead.min() >= margin, (crossover, z)


def test_criterion_4_reference_density_chain(ref_chain, ref_chain_seconds):
    stats = {t: grid_stats(ref_chain[t], eps=1.0) for t in (1, 2, 3)}
    masses = [stats[t].mass for t in (1, 2, 3)]
    means = [stats[t].mean for t in (1, 2, 3)]
    nears = [stats[t].mass_near for t in (1, 2, 3)]
    mass_ok = all(0.999 <= m <= 1.0 + 1e-9 for m in masses)
    mean_ok = all(abs(m - REF_X0) <= 0.1 for m in means)
    near_ok = nears[0] < nears[1] < nears[2]
    time_ok = ref_chain_seconds < 60.0
    ok = mass_ok and mean_ok and near_ok and time_ok
    _report("criterion 4", ok,
            f"mass={[f'{m:.6f}' for m in masses]} (each in [0.999, 1]); "
            f"mean={[f'{m:.4f}' for m in means]} (each 5 +/- 0.1); "
            f"mass_near(1.0)={[f'{m:.4f}' for m in nears]} (increasing); "
            f"elapsed={ref_chain_seconds:.1f}s (<60s)")
    assert near_ok
    assert time_ok
    assert mass_ok, f"measured masses {masses}, each expected in [0.999, 1]"
    assert mean_ok, f"measured means {means}, each expected within 5 +/- 0.1"


def test_criterion_5_oracle_equivalence(ref_chain):
    rng = np.random.default_rng(31415)
    samples = mc_sample(REF_X0, 3, 1_000_000, REF_KERNEL, rng)
    edges = np.linspace(-20.0, 30.0, 201)
    tv = tv_distance_to_samples(ref_chain[3], samples, edges)

    # direct two-variable quadrature of the three-step pdf, scipy densities
    f3 = ref_chain[3]
    z = f3.z
    w = trapezoid_weights(z)
    sd = REF_KERNEL.sd(z)
    a = w * norm.pdf(z, loc=REF_X0, scale=REF_KERNEL.sd(REF_X0))
    inner = np.zeros(z.size)
    for lo in range(0, z.size, 512):
        hi = min(lo + 512, z.size)
        inner += a[lo:hi] @ norm.pdf(z[None, :], loc=z[lo:hi, None],
                                     scale=sd[lo:hi, None])
    probes = (0.0, 2.5, 5.0, 7.5, 10.0)
    rel = []
    for probe in probes:
        direct = float(np.sum(w * inner * norm.pdf(probe, loc=z, scale=sd)))
        mine = float(np.interp(probe, z, f3.values))
        rel.append(abs(mine - direct) / direct)
    worst = max(rel)
    ok = tv < 0.02 and worst < 1e-3
    _report("criterion 5", ok,
            f"TV(grid, 1e6-path MC)={tv:.4f} (<0.02); "
            f"max rel err vs direct 2D quadrature={worst:.2e} (<1e-3)")
    assert tv < 0.02
    assert worst < 1e-3


def test_criterion_6_sampler_moments():
    # 1e6 draws of the program's own factors, social factor on: 250,000
    # nodes over steps 0-3 of seed 8128, the length factor u and the noise z
    draws = [step_draws(8128, t, 250_000, True) for t in range(4)]
    u = np.concatenate([length for length, _ in draws])
    z = np.concatenate([noise for _, noise in draws])
    u_err = abs(u.mean() - math.sqrt(math.pi / 2))
    var_r, var_i = z.real.var(), z.imag.var()
    counts, _ = np.histogram(np.angle(z), bins=8, range=(-math.pi, math.pi))
    frac = counts / z.size
    bin_err = np.abs(frac - 0.125).max()
    ok = (u_err <= 0.01 and abs(var_r - 1) <= 0.02 and abs(var_i - 1) <= 0.02
          and bin_err <= 0.005)
    _report("criterion 6", ok,
            f"|mean(u)-sqrt(pi/2)|={u_err:.4f} (<=0.01); "
            f"z component vars=({var_r:.4f}, {var_i:.4f}) (1 +/- 0.02); "
            f"max angle-bin deviation={bin_err:.4f} (<=0.005)")
    assert u_err <= 0.01
    assert abs(var_r - 1) <= 0.02 and abs(var_i - 1) <= 0.02
    assert bin_err <= 0.005


def test_criterion_7_hammer_algebra():
    rng = np.random.default_rng(2357)
    z = rng.normal(scale=2, size=10_000) + 1j * rng.normal(scale=2, size=10_000)
    s = rng.uniform(0, 3, size=10_000)
    out = hammer(z, s)
    expected_mag = np.abs(np.abs(z) - s)
    mag_ok = np.allclose(np.abs(out), expected_mag, rtol=1e-12, atol=0)
    flipped = np.real(out * np.conj(z)) < 0
    should_flip = (np.abs(z) > 0) & (np.abs(z) < s)
    flip_ok = bool(np.all(flipped == should_flip))
    ok = mag_ok and flip_ok
    bad = int(np.sum(flipped != should_flip))
    _report("criterion 7", ok,
            f"10^4 random (z, s): magnitude identity to 1e-12 rel: {mag_ok}; "
            f"direction flips exactly inside separation: {flip_ok} "
            f"({bad} mismatches)")
    assert mag_ok
    assert flip_ok


def test_criterion_8_neighbor_graph_oracle():
    rng = np.random.default_rng(1729)
    checked_boundary_pairs = 0
    for case in range(100):
        if case % 7 == 0:
            # exact boundary construction: dyadic coordinates, r = 5/32,
            # injected pairs at axis distance r and scaled 3-4-5 distance r
            r = 5.0 / 32.0
            n = int(rng.integers(40, 200))
            p = (rng.integers(-16, 17, n) / 32.0
                 + 1j * (rng.integers(-16, 17, n) / 32.0)).astype(complex)
            k = int(rng.integers(0, n - 3))
            p[k + 1] = p[k] + r
            p[k + 2] = p[k] + complex(3 / 32.0, 4 / 32.0)
            p[k + 3] = p[k] + complex(np.nextafter(r, np.inf), 0.0)
            checked_boundary_pairs += 2
        else:
            n = int(rng.integers(1, 501))
            scale = float(rng.uniform(0.2, 4.0))
            p = rng.uniform(-scale, scale, n) + 1j * rng.uniform(-scale, scale, n)
            r = float(rng.uniform(0, 0.8) * scale)
        graph = build_neighborhood(p, r)
        # O(N^2) oracle: full pairwise squared-distance matrix
        d = p[:, None] - p[None, :]
        close = (d.real ** 2 + d.imag ** 2) <= r * r
        np.fill_diagonal(close, False)
        for i in range(len(p)):
            expected = np.flatnonzero(close[i])
            assert np.array_equal(neighbors(graph, i), expected), (
                f"case {case}: node {i} adjacency mismatch")
    _report("criterion 8", True,
            f"100 instances (N<=500) match the brute-force oracle, "
            f"including {checked_boundary_pairs} exact |p_i-p_j|=r pairs")


def test_criterion_9_byte_identical_snapshots(tmp_path):
    cfg = tmp_path / "ref.cfg"
    cfg.write_text("steps = 70\nstride = 35\nseed = 3\n")
    outs = [tmp_path / name for name in ("a", "b")]
    for out in outs:
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    same_reruns = ((outs[0] / "snapshots.csv").read_bytes()
                   == (outs[1] / "snapshots.csv").read_bytes())

    # again with enough nodes that each draw block is one step (N > 1024)
    wide = tmp_path / "wide.cfg"
    wide.write_text("steps = 8\nstride = 8\nseed = 5\nn_nodes = 1200\n")
    run_dirs = [tmp_path / name for name in ("w1", "w2")]
    for out in run_dirs:
        assert main(["simulate", "--config", str(wide), "--out", str(out)]) == 0
    same_wide = ((run_dirs[0] / "snapshots.csv").read_bytes()
                 == (run_dirs[1] / "snapshots.csv").read_bytes())
    ok = same_reruns and same_wide
    _report("criterion 9", ok,
            f"reruns byte-identical: {same_reruns}; "
            f"N = 1200 reruns byte-identical: {same_wide}")
    assert same_reruns
    assert same_wide

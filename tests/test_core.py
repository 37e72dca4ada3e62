import math
import os
import re
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeStream
from oracle import (
    StepDraw,
    directed_edges,
    hammer_masked,
    hammer_reference,
    neighbors,
    node_step,
    sample_u,
    sample_z,
    social_direction,
    speed_reference,
    step_displacement,
)
from shinerswarm import core, engine
from shinerswarm.core import (
    NeighborGraph,
    ParamError,
    SwarmParams,
    build_neighborhood,
    hammer,
    row_blocks,
    speed_law,
)
from shinerswarm.density import KernelParams
from shinerswarm.engine import SwarmState, advance_swarm, resolve_sigma_const


def brute_force_adjacency(positions, r):
    """Independent O(N^2) oracle: plain double loop, squared-distance test."""
    p = [complex(v) for v in positions]
    n = len(p)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = p[i] - p[j]
            if d.real * d.real + d.imag * d.imag <= r * r:
                adj[i].append(j)
                adj[j].append(i)
    return [sorted(a) for a in adj]


def as_lists(graph: NeighborGraph):
    return [sorted(int(j) for j in neighbors(graph, i))
            for i in range(graph.n_nodes)]


# ---------------------------------------------------------------------------
# build_neighborhood


def test_neighborhood_hand_case():
    # |p0-p1| = 0.1 <= 0.2, |p1-p2| = 0.4 > 0.2, |p0-p2| = 0.5 > 0.2
    g = build_neighborhood([0j, 0.1 + 0j, 0.5 + 0j], r=0.2)
    assert as_lists(g) == [[1], [0], []]


def test_neighborhood_zero_radius_distinct_points():
    g = build_neighborhood([0j, 1j, 2 + 0j, 3 - 1j], r=0.0)
    assert all(neighbors(g, i).size == 0 for i in range(g.n_nodes))


def test_neighborhood_boundary_distance_is_inclusive():
    g = build_neighborhood([0j, 0.2 + 0j], r=0.2)
    assert as_lists(g) == [[1], [0]]


def test_neighborhood_empty_input():
    g = build_neighborhood([], r=0.5)
    assert g.n_nodes == 0 and directed_edges(g)[0].size == 0


def test_neighborhood_exact_boundary_constructions():
    # Distances exactly representable: axis-aligned r and scaled 3-4-5.
    for k in (0, 3, 7):
        r = 5.0 * 2.0 ** -k
        pts = [0j,
               complex(r, 0.0),
               complex(0.0, r),
               complex(3.0 * 2.0 ** -k, 4.0 * 2.0 ** -k),
               complex(np.nextafter(r, np.inf), 0.0)]
        g = build_neighborhood(pts, r)
        assert 1 in neighbors(g, 0)
        assert 2 in neighbors(g, 0)
        assert 3 in neighbors(g, 0)
        assert 4 not in neighbors(g, 0)


def test_neighborhood_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(421)
    for _ in range(25):
        n = int(rng.integers(1, 120))
        scale = float(rng.uniform(0.1, 5.0))
        p = (rng.uniform(-scale, scale, n)
             + 1j * rng.uniform(-scale, scale, n))
        r = float(rng.uniform(0.0, scale))
        got = as_lists(build_neighborhood(p, r))
        assert got == brute_force_adjacency(p, r)


def test_neighborhood_invariants_and_order_independence():
    rng = np.random.default_rng(99)
    p = rng.uniform(-1, 1, 60) + 1j * rng.uniform(-1, 1, 60)
    g = build_neighborhood(p, 0.3)
    for i in range(g.n_nodes):
        nbrs = neighbors(g, i)
        assert i not in nbrs
        for j in nbrs:
            assert i in neighbors(g, j)
    perm = rng.permutation(60)
    g2 = build_neighborhood(p[perm], 0.3)
    inv = np.argsort(perm)  # inv[original id] = permuted id
    remapped = [sorted(int(perm[j]) for j in neighbors(g2, int(inv[i])))
                for i in range(60)]
    assert remapped == as_lists(g)


def test_neighborhood_keeps_pairs_an_ulp_below_a_cell_boundary():
    # 1 - 2**-53 and 2 pass the distance test with r = 1 (the difference
    # rounds to 1), although on cells of side exactly r they sit two apart;
    # a third node, out of reach, centres the swarm's span on 0, so cells
    # are counted from there
    below = float(np.nextafter(1.0, 0.0))
    for p in ([below + 0j, 2 + 0j, -2 + 10j],
              [0.3 + below * 1j, 0.3 + 2j, 10 - 2j]):
        assert as_lists(build_neighborhood(p, 1.0)) == brute_force_adjacency(p, 1.0)
        assert as_lists(build_neighborhood(p, 1.0)) == [[1], [0], []]
    # with r = 1e-160, r * r is subnormal and a pair 1e-4 beyond r passes
    r = 1e-160
    far = r * (2 + 1e-4 - 1e-9)
    p = [r * (1 - 1e-9) + 0j, far + 0j, -far + 0j]
    assert as_lists(build_neighborhood(p, r)) == brute_force_adjacency(p, r)
    assert as_lists(build_neighborhood(p, r)) == [[1], [0], []]


def test_neighborhood_names_the_node_it_cannot_place():
    with pytest.raises(ValueError, match=r"^node 1: position .* not finite"):
        build_neighborhood([0j, complex(np.inf, 0)], 0.1)
    # far from the origin or from each other, finite nodes are placed
    for p, r in (([0j, 1 + 0j, 1e12j, 0.1 + 1e12j], 0.2),
                 ([0j, complex(-1.1e9, 0.0), complex(-1.1e9, 0.5)], 1.0)):
        assert (as_lists(build_neighborhood(p, r))
                == brute_force_adjacency(p, r))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("at", [0, 3, 6])
def test_neighborhood_names_a_non_finite_node_wherever_it_is(bad, axis, at):
    # the bounds' sum is not finite, so the full check runs and names it
    p = np.linspace(0.0, 0.6, 7) + 0.1j
    p[at] = complex(bad, 0.1) if axis == "x" else complex(p[at].real, bad)
    with pytest.raises(ValueError,
                       match=rf"^node {at}: position .* is not finite"):
        build_neighborhood(p, 0.2)


def test_neighborhood_of_finite_nodes_whose_bounds_sum_overflows():
    # the sum of the four bounds overflows to +-inf, or to nan through
    # inf - inf, for these finite swarms: the full check finds every node
    # finite and the graph is built as for any other swarm
    big = 1.7e308
    swarms = ([complex(big, big), complex(big, 0.0), complex(1.6e308, big)],
              [complex(-big, -big), complex(-big, 1.0), complex(-big, 1.1)],
              [complex(big, big), complex(big, -big), complex(-big, big),
               complex(-big, -big)],
              [complex(0.0, big), complex(1.0, big), complex(big, -big)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in swarms:
            for r in (0.2, 1e100):
                assert (as_lists(build_neighborhood(p, r))
                        == brute_force_adjacency(p, r))
    assert as_lists(build_neighborhood(swarms[2], 0.2)) == [[], [], [], []]
    assert as_lists(build_neighborhood(swarms[1], 0.2)) == [[], [2], [1]]


def test_neighborhood_at_the_cell_limit():
    # opposite corners about 2**31 cells of side r apart: the cells widen
    # to the extent times 2**-30, and the widest keys still fit
    edge = 1.07e9
    p = [complex(-edge, -edge), complex(edge, edge), complex(edge, edge + 0.5)]
    assert as_lists(build_neighborhood(p, 1.0)) == [[], [2], [1]]


def test_neighborhood_radius_so_large_that_squares_overflow():
    # squared distances near 1e600 overflow; the pair 1.6e300 apart is out
    p = [0j, 1e300 + 0j, 2.6e300 + 0j]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert as_lists(build_neighborhood(p, 1.5e300)) == [[1], [0], []]
        assert as_lists(build_neighborhood(p, np.inf)) == [[1, 2], [0, 2],
                                                            [0, 1]]


def test_neighborhood_of_a_swarm_whose_extent_overflows():
    # nodes at +-1e308: the span 2e308 overflows a double, its half does not
    big = 1e308
    p = [complex(big, big), complex(-big, -big), complex(big, big),
         complex(-big, big), 0j, 0.1 + 0j, complex(big, -big),
         complex(np.nextafter(big, 0), -big)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (0.0, 0.2, 1e100, 1e150):
            assert (as_lists(build_neighborhood(p, r))
                    == brute_force_adjacency(p, r))


def test_neighborhood_of_a_cluster_with_one_far_outlier():
    # the outlier widens every cell to about 1e3, so the whole cluster
    # shares a cell and every pair of it is a candidate
    rng = np.random.default_rng(5)
    p = np.append(3 + rng.uniform(-1, 1, 150) + 1j * rng.uniform(-1, 1, 150),
                  complex(-2e12, 1e12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (0.05, 0.2):
            assert (as_lists(build_neighborhood(p, r))
                    == brute_force_adjacency(p, r))


def test_neighborhood_refuses_a_candidate_count_over_its_budget():
    # 1e5 nodes at 100 per unit area and one at (1e12, 0), which puts nearly
    # every pair in one cell: 5e9 candidates, about 224 GiB of temporaries,
    # refused before any is listed
    rng = np.random.default_rng(3)
    p = np.append(rng.uniform(-15.8, 15.8, 100_000)
                  + 1j * rng.uniform(-15.8, 15.8, 100_000), 1e12)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            build_neighborhood(p, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    message = str(info.value)
    assert message.startswith("node 100000 at (1000000000000+0j) stretches")
    count = int(re.search(r"(\d+) neighbor candidates", message).group(1))
    assert 2 ** 26 < count <= 100_001 * 100_000 // 2
    assert message.endswith("for r = 0.2 exceed the budget of 67108864")


def test_neighborhood_over_budget_on_cells_of_side_r_names_no_node():
    # 12000 nodes within r of each other: 7.2e7 candidates at the cells' own
    # side, which no node stretches
    p = np.linspace(0, 1, 12_000) + 0j
    with pytest.raises(ValueError, match=r"^71994000 neighbor candidates on "
                       r"cells of side 2 for r = 2 exceed the budget"):
        build_neighborhood(p, 2.0)


def test_neighbor_graph_holds_its_three_arrays_and_frame():
    p = np.array([1 + 0j, 0.1 + 0j, 0j])
    graph = build_neighborhood(p, r=0.2)
    graph.degrees()
    graph.component_count()
    assert set(vars(graph)) == {"order", "a", "b", "positions"}
    assert graph.n_nodes == graph.order.size == 3
    assert graph.positions.tobytes() == p[graph.order].tobytes()


def test_neighbor_graph_frame_is_read_only():
    p = np.array([0j, 0.1 + 0j, 1 + 0j])
    graph = build_neighborhood(p, r=0.2)
    with pytest.raises(ValueError, match="read-only"):
        graph.positions[0] = 5j
    p[0] = 5j  # the frame is the build's copy, not the caller's array
    assert graph.positions[graph.order == 0] == 0j


def test_neighborhood_rejects_bad_input():
    with pytest.raises(ValueError):
        build_neighborhood([0j, complex(np.nan, 0)], 0.1)
    with pytest.raises(ValueError):
        build_neighborhood([0j], -1.0)


@pytest.mark.parametrize("bad, shape", [
    ([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]], "(3, 2)"), (0.1 + 0.2j, "()")])
def test_a_frame_that_is_not_one_dimensional_is_refused_everywhere(bad, shape):
    # the (3, 2) xy array once gave a graph of 6 nodes, its coordinates read
    # as positions, and resolve_sigma_const averaged its 6 entries
    with pytest.raises(ParamError) as state:
        SwarmState(0, bad, 0)
    assert str(state.value) == f"positions must be 1-D, got shape {shape}"
    with pytest.raises(ParamError) as info:
        build_neighborhood(bad, 0.2)
    assert (info.value.key, str(info.value)) == ("positions", str(state.value))
    for params in (SwarmParams(env_enabled=False), SwarmParams()):
        with pytest.raises(ParamError) as info:  # whether it averages or not
            resolve_sigma_const(params, bad)
        assert str(info.value) == str(state.value)


def test_neighborhood_rejects_nan_radius():
    with pytest.raises(ValueError, match="sensing radius"):
        build_neighborhood([0j, 0.1 + 0j], np.nan)


def test_component_count():
    g = build_neighborhood([0j, 0.1 + 0j, 1 + 0j], r=0.2)
    assert g.component_count() == 2
    assert build_neighborhood([], 0.1).component_count() == 0


# ---------------------------------------------------------------------------
# the step's speed: engine._step from zero positions with unit draws moves
# each node by its speed along +x, bit for bit, and the distances d it is
# given become that speed in place


def step_speed(d: np.ndarray, params: SwarmParams) -> np.ndarray:
    """The speed ``engine._step`` gives the nodes at distances d (a 1-d
    array, overwritten by the speed) from the darkest spot."""
    n = d.size
    moved = engine._step(np.zeros(n, complex),
                         replace(params, social_enabled=False), d,
                         (np.ones(n), np.ones(n, complex)))
    assert not moved.imag.any()
    return moved.real


def speed_at(p, params):
    """The step's speed at position(s) p, from a 1-d copy of ``|p - rho|``."""
    return step_speed(np.array(np.abs(np.asarray(p) - params.rho), ndmin=1),
                      params)


def test_env_speed_at_darkest_spot():
    params = SwarmParams(c1=0.1, c2=0.1, rho=0.3 + 0.4j)
    assert speed_at(0.3 + 0.4j, params) == pytest.approx(0.01)


def test_env_speed_at_distance_five():
    params = SwarmParams(c1=1.0, c2=0.1, rho=0j)
    assert speed_at(5 + 0j, params) == pytest.approx(5.1)


def test_env_speed_constant_mode_ignores_position():
    params = SwarmParams(env_enabled=False, sigma_const=0.05)
    assert speed_at(0j, params) == 0.05
    assert speed_at(100 + 3j, params) == 0.05
    np.testing.assert_array_equal(speed_at(np.array([0j, 1j]), params),
                                  [0.05, 0.05])


def test_env_speed_requires_sigma_const_when_env_off():
    # a walk fills in sigma_const before its first step, so only the public
    # step can reach the step without one, and it refuses, naming its step
    params = SwarmParams(env_enabled=False, sigma_const=None)
    message = ("step 1: sigma_const must be set when the environmental "
               "factor is disabled; run sets it to engine.resolve_sigma_const"
               "(params, init_swarm(params, seed, region).positions)")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        advance_swarm(SwarmState(0, np.array([0j]), 0), params)


_coordinates = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=200)
@given(points=st.lists(st.tuples(_coordinates, _coordinates), min_size=1,
                       max_size=20),
       scalar=st.booleans(), c1=st.floats(1e-3, 1e3), c2=st.floats(1e-3, 1e3),
       rho=st.tuples(_coordinates, _coordinates), env=st.booleans(),
       sigma_const=st.none() | st.floats(0.0, 1e3))
def test_step_speed_is_env_speed_bit_for_bit(points, scalar, c1, c2, rho, env,
                                             sigma_const):
    params = SwarmParams(c1=c1, c2=c2, rho=complex(*rho), env_enabled=env,
                         sigma_const=sigma_const)
    p = complex(*points[0]) if scalar else np.array([complex(*z)
                                                     for z in points])
    d = np.abs(p - params.rho)
    buf = np.array(d, ndmin=1)
    if not env and sigma_const is None:
        with pytest.raises(ValueError, match="sigma_const"):
            advance_swarm(SwarmState(0, np.array(p, ndmin=1), 0), params)
        return
    # in place: the distances' own buffer becomes the speed the step moves by
    assert step_speed(buf, params).tobytes() == buf.tobytes()
    np.testing.assert_allclose(
        buf, [speed_reference(z, params) for z in np.ravel(p)],
        rtol=1e-15, atol=0)


@settings(max_examples=300)
@given(c1=st.floats(1e-6, 1e6), c2=st.floats(1e-6, 1e6),
       d=st.floats(0.0, 1e6))
def test_both_engines_read_one_speed_law_bit_for_bit(c1, c2, d):
    env_off = SwarmParams(c1=c1, c2=c2, env_enabled=False)
    # two nodes at distance d from rho = 0, so their mean distance is d
    placement = np.array([complex(d, 0.0), complex(0.0, -d)])
    speeds = [speed_law(c1, c2, d), speed_law(c1, c2, np.array([d]))[0],
              KernelParams(c1, c2).sd(d), KernelParams(c1, c2).sd(-d),
              step_speed(np.array([d]), SwarmParams(c1=c1, c2=c2))[0],
              resolve_sigma_const(env_off, placement).sigma_const]
    assert {np.float64(v).tobytes() for v in speeds} == {
        np.float64(c1 * (c2 + d)).tobytes()}


def test_env_speed_positive_and_lipschitz():
    params = SwarmParams(c1=0.7, c2=0.3, rho=1 - 2j)
    rng = np.random.default_rng(5)
    p = rng.normal(size=200) + 1j * rng.normal(size=200)
    q = rng.normal(size=200) + 1j * rng.normal(size=200)
    sp, sq = speed_at(p, params), speed_at(q, params)
    assert np.all(sp > 0)
    assert np.all(np.abs(sp - sq) <= params.c1 * np.abs(p - q) + 1e-12)


# ---------------------------------------------------------------------------
# hammer


def test_hammer_shrinks_outside_separation():
    assert hammer(0.16 + 0j, 0.08) == pytest.approx(0.08 + 0j)


def test_hammer_annihilates_on_the_boundary():
    assert hammer(0.08 + 0j, 0.08) == 0j
    assert abs(hammer(0.08j, 0.08)) == pytest.approx(0.0)


def test_hammer_reverses_inside_separation():
    assert hammer(0.04 + 0j, 0.08) == pytest.approx(-0.04 + 0j)


def test_hammer_zero_maps_to_zero():
    assert hammer(0j, 0.08) == 0j


def test_hammer_magnitude_and_direction_properties():
    rng = np.random.default_rng(7)
    z = rng.normal(size=2000) + 1j * rng.normal(size=2000)
    s = rng.uniform(0, 2.5, 2000)
    out = hammer(z, s)
    expected_mag = np.abs(np.abs(z) - s)
    np.testing.assert_allclose(np.abs(out), expected_mag, rtol=1e-12)
    inside = (np.abs(z) < s) & (np.abs(z) > 0)
    outside = np.abs(z) > s
    # same direction outside, flipped inside: compare unit vectors
    unit_z = z / np.abs(z)
    nonzero = expected_mag > 0
    unit_out = np.where(nonzero, out / np.where(nonzero, expected_mag, 1.0), 0)
    np.testing.assert_allclose(unit_out[outside], unit_z[outside], atol=1e-12)
    np.testing.assert_allclose(unit_out[inside & nonzero],
                               -unit_z[inside & nonzero], atol=1e-12)


# parts of z: 0 of either sign, dyadic values (|z| = s exactly for 3-4-5
# triples), and magnitudes from 1e-300 to 1e150, where 1 / |z| and |z| are
# finite
_z_parts = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.integers(-40, 40).map(lambda k: k / 32),
    st.floats(1e-300, 1e150).flatmap(lambda x: st.sampled_from([x, -x])))
_separations = st.one_of(st.integers(0, 12).map(lambda m: m / 32),
                         st.floats(0.0, 10.0))


@settings(max_examples=300)
@given(st.lists(st.tuples(_z_parts, _z_parts), min_size=1, max_size=40),
       _separations)
def test_hammer_is_the_complex_formula_and_exactly_odd(parts, s):
    z = np.array([complex(x, y) for x, y in parts])
    out = hammer(z, s)
    # equal in value on both parts, hence bit for bit except that a zero
    # part may differ in sign
    np.testing.assert_array_equal(out.view(np.float64),
                                  hammer_reference(z, s).view(np.float64))
    # odd bit for bit, signed zeros included: the pair-once social sum
    # gives a pair's second node exactly the negation of the first's hammer
    np.testing.assert_array_equal(hammer(-z, s).view(np.uint64),
                                  (-out).view(np.uint64))


@pytest.mark.parametrize("z", [5e-324 + 0j, 3e-309 + 1e-309j, -1e-320j,
                               2.2e-308 - 5e-324j])
def test_hammer_of_a_subnormal_displacement_is_finite(z):
    # 1 / |z| overflows below |z| ~ 5.6e-309; RuntimeWarnings are errors here
    z = np.array([z, -z, 0.3 + 0.4j])
    for s in (0.08, 1.0):
        out = hammer(z, s)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(np.abs(out), np.abs(np.abs(z) - s),
                                   rtol=4 * np.finfo(float).eps, atol=0)
        # reversed inside s; 2**1022 z is normal, so its unit vector is exact
        # to an ulp
        w = z[:2] * 2.0 ** 1022
        np.testing.assert_allclose(out[:2] / np.abs(out[:2]), -w / np.abs(w),
                                   rtol=0, atol=4 * np.finfo(float).eps)
        assert out[2] == hammer(0.3 + 0.4j, s)
        np.testing.assert_array_equal(hammer(-z, s).view(np.uint64),
                                      (-out).view(np.uint64))


# separations, and the parts of z from which the property below draws:
# signed zeros, subnormals, the smallest normal, parts with |z| = s exactly
# (+-s with a zero, and 3-4-5 triples at s = 5/32), normal values, 1e+-300,
# infinities and NaN
_SEPARATIONS = (0.0, 5 / 32, 0.08, 1.0, 2.5)
_SPECIAL_PARTS = (0.0, 5e-324, 1e-310, 2.0 ** -1022, 3 / 32, 4 / 32,
                  *_SEPARATIONS, 1e-300, 1e300, math.inf, math.nan)
_exact_parts = st.one_of(
    st.sampled_from(_SPECIAL_PARTS),
    st.floats(1e-300, 1e300),
    st.floats(2.0 ** -1074, 2.0 ** -1022)).flatmap(
        lambda x: st.sampled_from([x, -x]))
_exact_separations = st.one_of(st.sampled_from(_SEPARATIONS),
                               st.floats(0.0, 10.0))


@settings(max_examples=400)
@given(st.lists(st.tuples(_exact_parts, _exact_parts), min_size=1,
                max_size=12),
       st.lists(_exact_separations, min_size=1, max_size=3),
       st.sampled_from(["float", "0-d", "broadcast"]))
def test_hammer_equals_the_masked_oracle_byte_for_byte(parts, seps, kind):
    # every call, whichever path it takes, gives the masked oracle's bits:
    # NaN magnitudes among normal ones included, which map to (0, nan)
    z = np.array([complex(x, y) for x, y in parts])
    s = {"float": seps[0], "0-d": np.array(seps[0]),
         "broadcast": np.array(seps)[:, None]}[kind]
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.asarray(hammer(z, s))
        expected = np.asarray(hammer_masked(z, s))
        odd = np.asarray(hammer(-z, s))
    assert out.shape == expected.shape
    np.testing.assert_array_equal(out.view(np.uint64),
                                  expected.view(np.uint64))
    # odd bit for bit, except that a NaN made here (inf * 0) has one sign
    # whatever the sign of z
    nan = np.isnan(out.view(np.float64))
    np.testing.assert_array_equal(np.isnan(odd.view(np.float64)), nan)
    np.testing.assert_array_equal(odd.view(np.uint64)[~nan],
                                  (-out).view(np.uint64)[~nan])


@pytest.mark.parametrize(
    "s", [0.08, np.array(0.08), np.array([[0.08], [1.0]])])
def test_hammer_of_a_nan_part_among_normal_ones(s):
    # a NaN magnitude takes the masked path, as a zero one does: f = 0
    with np.errstate(invalid="ignore"):
        out = hammer(np.array([complex(1, math.nan), 0.3 + 0.4j]), s)
    out = np.asarray(out).reshape(-1, 2)
    assert np.all(out[:, 0].real == 0.0) and np.all(np.isnan(out[:, 0].imag))
    np.testing.assert_array_equal(out[:, 1],
                                  np.ravel(hammer(0.3 + 0.4j, s)))


def test_hammer_rejects_negative_separation():
    with pytest.raises(ValueError):
        hammer(1 + 0j, -0.1)


def test_hammer_rejects_nan_separation():
    with pytest.raises(ValueError, match="separation distance"):
        hammer(1 + 0j, np.nan)
    with pytest.raises(ValueError, match="separation distance"):
        hammer(np.ones(3, dtype=complex), np.array([0.1, np.nan, 0.1]))
    # an infinite s, which SwarmParams rejects too, as a float, a 0-d array
    # and one element of an array
    for s in (math.inf, np.array(math.inf), np.array([0.1, math.inf, 0.1])):
        with pytest.raises(ValueError, match="separation distance s must be "
                                             ">= 0 and finite, got"):
            hammer(np.ones(3, dtype=complex), s)


# ---------------------------------------------------------------------------
# social_direction


def _pair_setup(offset):
    positions = [0j, offset]
    params = SwarmParams(r=0.2, w=20.0, s=0.08)
    graph = build_neighborhood(positions, params.r)
    return positions, graph, params


def test_social_direction_attracts_toward_far_neighbor():
    positions, graph, params = _pair_setup(0.16 + 0j)
    # argument = (20/1) * hammer(0.16) = 1.6, angle 0
    assert social_direction(0, positions, graph, params, 0j) == 0.0


def test_social_direction_repels_from_close_neighbor():
    positions, graph, params = _pair_setup(0.04 + 0j)
    # argument = 20 * (-0.04) = -0.8, angle pi
    assert social_direction(0, positions, graph, params, 0j) == pytest.approx(math.pi)


def test_social_direction_pure_noise_when_alone():
    params = SwarmParams()
    graph = build_neighborhood([0j], params.r)
    assert social_direction(0, [0j], graph, params, 1j) == pytest.approx(math.pi / 2)


def test_social_direction_disabled_equals_noise_angle():
    positions, graph, params = _pair_setup(0.16 + 0j)
    off = SwarmParams(r=0.2, w=20.0, s=0.08, social_enabled=False)
    z = -1 + 1j
    assert social_direction(0, positions, graph, off, z) == pytest.approx(
        math.atan2(1, -1))


def test_social_direction_zero_argument_returns_zero():
    params = SwarmParams()
    graph = build_neighborhood([0j], params.r)
    assert social_direction(0, [0j], graph, params, 0j) == 0.0


def test_social_direction_range():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        p = rng.normal(scale=0.2, size=n) + 1j * rng.normal(scale=0.2, size=n)
        params = SwarmParams(r=0.3, w=float(rng.uniform(0, 30)), s=0.08)
        graph = build_neighborhood(p, params.r)
        z = complex(rng.normal(), rng.normal())
        v = social_direction(0, p, graph, params, z)
        assert -math.pi < v <= math.pi


def test_social_direction_w_zero_reduces_to_noise_angle():
    positions, graph, _ = _pair_setup(0.16 + 0j)
    params = SwarmParams(r=0.2, w=0.0, s=0.08)
    z = 0.3 - 0.7j
    assert social_direction(0, positions, graph, params, z) == pytest.approx(
        math.atan2(-0.7, 0.3))


# ---------------------------------------------------------------------------
# step_displacement


def test_step_displacement_unit_draw_along_real_axis():
    assert step_displacement(0.01, 0.0, 1.0) == pytest.approx(0.01 + 0j)


def test_step_displacement_zero_draw():
    assert step_displacement(5.0, 1.234, 0.0) == 0j


def test_step_displacement_quarter_turn():
    out = step_displacement(5.1, math.pi / 2, 2.0)
    assert out == pytest.approx(10.2j, abs=1e-12)


def test_step_displacement_magnitude_exact():
    rng = np.random.default_rng(13)
    sigma = rng.uniform(0, 3, 1000)
    v = rng.uniform(-math.pi, math.pi, 1000)
    u = rng.uniform(0, 4, 1000)
    out = step_displacement(sigma, v, u)
    np.testing.assert_allclose(np.abs(out), sigma * u, rtol=1e-12)


# ---------------------------------------------------------------------------
# samplers


def test_sample_u_pythagorean_draws():
    assert sample_u(FakeStream([3.0, 4.0])) == 5.0
    assert sample_u(FakeStream([0.0, 0.0])) == 0.0


def test_sample_u_mean_matches_chi_two_dof():
    rng = np.random.default_rng(2024)
    u = sample_u(rng, size=1_000_000)
    assert u.mean() == pytest.approx(math.sqrt(math.pi / 2), abs=0.01)
    assert np.all(u >= 0)


def test_sample_u_scalar_and_array_consume_same_draws():
    a = np.random.default_rng(3)
    b = np.random.default_rng(3)
    scalars = [sample_u(a) for _ in range(5)]
    np.testing.assert_allclose(sample_u(b, size=5), scalars)


def test_sample_z_component_moments():
    rng = np.random.default_rng(77)
    z = sample_z(rng, size=1_000_000)
    assert z.real.mean() == pytest.approx(0.0, abs=0.01)
    assert z.imag.mean() == pytest.approx(0.0, abs=0.01)
    assert z.real.var() == pytest.approx(1.0, abs=0.02)
    assert z.imag.var() == pytest.approx(1.0, abs=0.02)


def test_sample_z_angle_is_uniform():
    rng = np.random.default_rng(88)
    z = sample_z(rng, size=1_000_000)
    angles = np.angle(z)
    counts, _ = np.histogram(angles, bins=8, range=(-math.pi, math.pi))
    frac = counts / z.size
    np.testing.assert_allclose(frac, 0.125, atol=0.005)


def test_sample_z_draw_order_real_then_imag():
    z = sample_z(FakeStream([0.5, -2.0]))
    assert z == 0.5 - 2.0j


# ---------------------------------------------------------------------------
# node_step and domain types


def test_node_step_consumes_four_draws_in_fixed_order():
    params = SwarmParams(c1=0.1, c2=0.1, rho=0j)
    graph = build_neighborhood([0j], params.r)
    disp, draw = node_step(0, [0j], graph, params, FakeStream([3, 4, 0, 1]))
    assert draw.u_raw == 5.0
    assert draw.z == 1j
    assert draw.v == pytest.approx(math.pi / 2)
    assert draw.sigma == pytest.approx(0.01)
    assert disp == pytest.approx(0.05j, abs=1e-12)


def test_swarm_params_validation():
    with pytest.raises(ValueError, match="c1"):
        SwarmParams(c1=0.0)
    with pytest.raises(ValueError, match="c2"):
        SwarmParams(c2=-1.0)
    with pytest.raises(ValueError, match="n_nodes"):
        SwarmParams(n_nodes=0)
    with pytest.raises(ValueError, match="w"):
        SwarmParams(w=-0.5)
    with pytest.raises(ValueError, match="sigma_const"):
        SwarmParams(sigma_const=-0.1)


@pytest.mark.parametrize("key", ["n_nodes", "c1", "c2", "r", "w", "s",
                                 "sigma_const"])
def test_swarm_params_reject_nan(key):
    with pytest.raises(ValueError, match=f"{key} must be") as info:
        SwarmParams(**{key: math.nan})
    assert info.value.key == key


@pytest.mark.parametrize("key", ["w", "s", "sigma_const"])
def test_swarm_params_reject_inf(key):
    with pytest.raises(ValueError,
                       match=f"{key} must be >= 0 and finite, got inf") as info:
        SwarmParams(**{key: math.inf})
    assert info.value.key == key


@pytest.mark.parametrize("rho, key", [(complex(math.nan, 0), "rho.real"),
                                      (complex(0, math.inf), "rho.imag")])
def test_swarm_params_name_the_non_finite_part_of_rho(rho, key):
    with pytest.raises(ValueError, match="must be finite") as info:
        SwarmParams(rho=rho)
    assert info.value.key == key


@pytest.mark.parametrize("key", ["env_enabled", "social_enabled"])
@pytest.mark.parametrize("switch", ["false", "no", "", None, 2, 0.5,
                                    np.array([True, False]), np.array([True]),
                                    np.array([[False]])])
def test_swarm_params_refuse_a_switch_that_is_not_true_or_false(key, switch):
    # a string once switched its factor on: "false" and "no" are truthy. An
    # array is compared elementwise: one of two entries raised numpy's "truth
    # value is ambiguous" error, and one of one entry was taken as the switch
    with pytest.raises(ParamError) as info:
        SwarmParams(**{key: switch})
    assert info.value.key == key
    assert str(info.value) == f"{key} must be True or False, got {switch!r}"


def test_swarm_params_name_the_first_switch_at_fault():
    with pytest.raises(ParamError, match="^env_enabled must be True or False, "
                       "got 'no'$"):
        SwarmParams(social_enabled="false", env_enabled="no")


@pytest.mark.parametrize("on, off", [(True, False), (np.True_, np.False_),
                                     (1, 0), (np.array(True), np.array(False))])
def test_swarm_params_take_a_switch_equal_to_true_or_false(on, off):
    params = SwarmParams(env_enabled=on, social_enabled=off)
    assert (params.env_enabled, params.social_enabled) == (True, False)


@pytest.mark.parametrize("key", ["c1", "c2"])
@pytest.mark.parametrize("params", [SwarmParams, KernelParams])
def test_speed_law_constants_must_be_finite(params, key):
    with pytest.raises(ValueError, match=f"{key} must be positive and finite") as info:
        params(**{key: math.inf})
    assert info.value.key == key


def test_step_draw_validation():
    with pytest.raises(ValueError):
        StepDraw(u_raw=-1.0, z=0j, v=0.0, sigma=1.0)
    with pytest.raises(ValueError):
        StepDraw(u_raw=1.0, z=0j, v=0.0, sigma=-1.0)


# the block geometry the suite relies on: 1000 nodes of 16 bytes take 15
# blocks of 65 rows and a partial one of 25, 200 and 1 node fit one block,
# and the default density grid of 2001 doubles takes 31 blocks of 65 rows
@pytest.mark.parametrize("n, itemsize, count, step, last", [
    (1000, 16, 16, 65, 25),
    (200, 16, 1, 200, 200),
    (1, 16, 1, 1, 1),
    (2001, 8, 31, 65, 51),
])
def test_row_blocks_geometry(n, itemsize, count, step, last):
    blocks = row_blocks(n, itemsize)
    assert (blocks.start, blocks.stop) == (0, n)
    assert (len(blocks), blocks.step, n - blocks[-1]) == (count, step, last)


def test_cpus_are_those_the_process_may_run_on():
    if hasattr(os, "sched_getaffinity"):
        assert core._cpus() == len(os.sched_getaffinity(0))
    else:
        assert core._cpus() == (os.cpu_count() or 1)


def test_cpus_without_affinity_are_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert core._cpus() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert core._cpus() == 1


@pytest.mark.parametrize("blocks", [range(0, 7), range(0, 2001, 65)],
                         ids=["7x1", "2001x65"])
@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_run_workers_deals_block_i_to_worker_i_mod_w(monkeypatch, blocks,
                                                     cpus):
    monkeypatch.setattr(core, "_cpus", lambda: cpus)
    workers = min(cpus, len(blocks))
    calls = []  # list.append is atomic, so threads may share it
    core.run_workers(
        lambda share: calls.append((share, threading.current_thread())),
        blocks)
    calls.sort(key=lambda call: call[0][0])
    shares = [share for share, _ in calls]
    assert shares == [blocks[i::workers] for i in range(workers)]
    assert sorted(b for share in shares for b in share) == list(blocks)
    # the list holds every thread, so no two of them can share an id
    threads = [thread for _, thread in calls]
    assert threads[0] is threading.current_thread()
    assert threading.current_thread() not in threads[1:]
    assert len({id(thread) for thread in threads}) == workers


def _failing_work(blocks, failing, done):
    """Work whose shares in ``failing`` raise at once, naming their worker,
    and whose others finish after 50 ms, adding their worker to done."""
    def work(share):
        i = blocks.index(share[0])
        if i in failing:
            raise RuntimeError(f"worker {i} failed")
        time.sleep(0.05)
        done.append(i)
    return work


@pytest.mark.parametrize("failing, raised", [
    ({1}, 1), ({2}, 2), ({1, 2}, None), ({0, 2}, 0), ({0}, 0)])
def test_run_workers_raises_once_every_thread_has_joined(
        monkeypatch, failing, raised):
    # worker 0's own error wins; of the threads', the first raised wins
    monkeypatch.setattr(core, "_cpus", lambda: 3)
    blocks = range(0, 7)
    done = []
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        core.run_workers(_failing_work(blocks, failing, done), blocks)
    assert sorted(done) == sorted({0, 1, 2} - failing)
    assert threading.active_count() == before
    if raised is None:
        assert str(info.value) in {f"worker {i} failed" for i in failing}
    else:
        assert str(info.value) == f"worker {raised} failed"

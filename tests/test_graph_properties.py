"""Property tests of the CSR neighbor graph and its component count.

Point sets come in three kinds: arbitrary floats, tight clusters with exact
duplicates (many nodes per cell), and dyadic grids where many pairs sit at
distance exactly r. Each graph is checked against an O(N^2) brute-force
oracle, against the CSR invariants, and, for the component count, against
``scipy.sparse.csgraph.connected_components``. The build tests either every
pair or the pairs of its cell list, by the swarm's size; each property is
checked on both lists (``graphs``), and the two must give the same arrays.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from oracle import (dense_move, directed_edges, fresh_step_normals, indices,
                    indptr, neighbors, node_pairs)
from shinerswarm import core
from shinerswarm.core import NeighborGraph, SwarmParams, build_neighborhood
from shinerswarm.engine import SwarmState, advance_swarm, step_draws

PROPERTY_SETTINGS = settings(max_examples=150)

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
radii = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=5.0))


@st.composite
def arbitrary_points(draw):
    xs = draw(st.lists(coords, max_size=80))
    ys = draw(st.lists(coords, min_size=len(xs), max_size=len(xs)))
    return np.array(xs) + 1j * np.array(ys), draw(radii)


@st.composite
def clustered_points(draw):
    centers = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=4))
    spread = draw(st.floats(min_value=0.0, max_value=0.5))
    members = draw(st.lists(
        st.tuples(st.sampled_from(centers),
                  st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        min_size=1, max_size=80))
    p = np.array([complex(cx + spread * dx, cy + spread * dy)
                  for (cx, cy), dx, dy in members])
    repeats = draw(st.lists(st.integers(0, p.size - 1), max_size=10))
    return np.concatenate([p, p[repeats]]), draw(radii)


@st.composite
def dyadic_points(draw):
    # coordinates k/32 and r = m/32: every distance test is exact, and
    # pairs at distance exactly r are common (axis-aligned and 3-4-5)
    ks = st.integers(-40, 40)
    pairs = draw(st.lists(st.tuples(ks, ks), max_size=80))
    p = np.array([complex(x, y) for x, y in pairs]) / 32.0
    return p, draw(st.integers(0, 12)) / 32.0


point_sets = st.one_of(arbitrary_points(), clustered_points(), dyadic_points())


# the all-pairs budget that makes a build test every pair a < b, and the
# one that makes it take the cell list's runs, at any size
CANDIDATE_LISTS = {"all pairs": 2 ** 62, "cell list": -1}


@contextlib.contextmanager
def candidate_list(name):
    """Builds within the block take the named candidate list."""
    saved = core._ALL_PAIRS_MAX
    core._ALL_PAIRS_MAX = CANDIDATE_LISTS[name]
    try:
        yield
    finally:
        core._ALL_PAIRS_MAX = saved


def graphs(p, r):
    """The graph of p and r built from each candidate list."""
    built = []
    for name in CANDIDATE_LISTS:
        with candidate_list(name):
            built.append(build_neighborhood(p, r))
    return built


def brute_force_csr(p, r):
    """O(N^2) oracle: full squared-distance matrix, rows as CSR."""
    d = p[:, None] - p[None, :]
    close = (d.real * d.real + d.imag * d.imag) <= r * r
    np.fill_diagonal(close, False)
    offsets = np.concatenate([[0], np.cumsum(close.sum(axis=1))])
    return offsets, np.nonzero(close)[1]


@PROPERTY_SETTINGS
@given(point_sets)
def test_csr_graph_equals_brute_force(case):
    p, r = case
    want_indptr, want_indices = brute_force_csr(p, r)
    for graph in graphs(p, r):
        np.testing.assert_array_equal(indptr(graph), want_indptr)
        np.testing.assert_array_equal(indices(graph), want_indices)


@PROPERTY_SETTINGS
@given(point_sets)
def test_csr_invariants(case):
    p, r = case
    n = p.size
    for graph in graphs(p, r):
        assert graph.n_nodes == n
        offsets = indptr(graph)
        assert offsets[0] == 0 and offsets[-1] == indices(graph).size
        assert np.all(np.diff(offsets) >= 0)
        edges = set()
        for i in range(n):
            row = neighbors(graph, i)
            assert np.all(np.diff(row) > 0), f"row {i} not strictly ascending"
            assert i not in row, f"loop at node {i}"
            edges.update((i, int(j)) for j in row)
        assert edges == {(j, i) for i, j in edges}
        i_idx, j_idx = directed_edges(graph)
        assert set(zip(i_idx.tolist(), j_idx.tolist())) == edges


def scipy_components(graph: NeighborGraph) -> int:
    n = graph.n_nodes
    cols = indices(graph)
    matrix = csr_matrix((np.ones(cols.size), cols, indptr(graph)),
                        shape=(n, n))
    return connected_components(matrix, directed=False)[0]


@PROPERTY_SETTINGS
@given(point_sets)
def test_component_count_matches_scipy_on_neighbor_graphs(case):
    p, r = case
    for graph in graphs(p, r):
        assert graph.component_count() == scipy_components(graph)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(0, 60))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=3 * n))


def graph_from_edges(n, edges):
    """Pair-list graph of the undirected simple graph on n nodes with these
    edges: each unordered pair once, in the order and orientation first
    listed, with the nodes in their own order. Its frame is node i at i on
    the real axis, which no test of these graphs reads."""
    pairs = {}
    for i, j in edges:
        if i != j:
            pairs.setdefault(frozenset((i, j)), (i, j))
    uv = np.array(list(pairs.values()), dtype=np.int64).reshape(-1, 2)
    return NeighborGraph(np.arange(n), uv[:, 0], uv[:, 1],
                         np.arange(n, dtype=np.complex128))


@PROPERTY_SETTINGS
@given(edge_lists())
def test_component_count_matches_scipy_on_any_graph(case):
    graph = graph_from_edges(*case)
    assert graph.component_count() == scipy_components(graph)


def test_component_count_on_shuffled_long_path():
    # hook-and-shrink takes 7, 1, 2 and 3 rounds on a shuffled path, a path
    # whose labels decrease away from one end, the zig-zag path 0, n - 1, 1,
    # n - 2, ... and a binary tree labelled in reverse BFS order; a count
    # that stops after one round reads 989, 1, 1500 and 1500
    n = 3000
    order = np.random.default_rng(17).permutation(n)
    zigzag = np.empty(n, dtype=np.int64)
    zigzag[0::2] = np.arange((n + 1) // 2)
    zigzag[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    for path in (order, np.arange(n)[::-1], zigzag):
        graph = graph_from_edges(n, zip(path[:-1].tolist(), path[1:].tolist()))
        assert graph.component_count() == 1
    child = np.arange(1, n)
    tree = graph_from_edges(n, zip((n - 1 - (child - 1) // 2).tolist(),
                                   (n - 1 - child).tolist()))
    assert tree.component_count() == 1


@PROPERTY_SETTINGS
@given(point_sets)
def test_pair_list_holds_each_neighbor_pair_once(case):
    p, r = case
    want_indptr, _ = brute_force_csr(p, r)
    for graph in graphs(p, r):
        np.testing.assert_array_equal(graph.degrees(), np.diff(want_indptr))
        u, v = node_pairs(graph)
        assert np.all(u != v)
        pairs = {frozenset(e) for e in zip(u.tolist(), v.tolist())}
        assert len(pairs) == u.size


@PROPERTY_SETTINGS
@given(point_sets, st.floats(0.0, 2.0), st.floats(0.0, 50.0),
       st.integers(0, 2 ** 64 - 1))
def test_pair_list_social_sum_matches_dense_oracle(case, s, w, seed):
    # one hammer per pair, added to one node and negated for the other,
    # against every node summing its own hammers over ascending j
    p, r = case
    params = SwarmParams(r=r, s=s, w=w)
    want = dense_move(p, params, fresh_step_normals(seed, 0, p.size))
    for name in CANDIDATE_LISTS:
        with candidate_list(name):
            got = advance_swarm(SwarmState(0, p, seed), params).positions
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def summed_then_scattered_heading(graph, p, s, w, noise):
    """The social heading formed in node order: each node's hammer sum,
    added over the graph's pairs in their order, weighed by its degree
    (``degrees``) and with the noise added there, then made a unit vector
    by ``core._heading``, the step's formula before ``social_heading``."""
    ps = p[graph.order]
    h = core.hammer(ps[graph.b] - ps[graph.a], s)
    acc = np.zeros(p.size, dtype=np.complex128)
    np.add.at(acc, graph.order[graph.a], h)
    np.subtract.at(acc, graph.order[graph.b], h)
    return core._heading((w / np.maximum(graph.degrees(), 1)) * acc + noise)


def clusters(n, seed):
    """n nodes about four random centres, a few of them inside one another's
    separation distance."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
    return (centers[rng.integers(0, 4, n)]
            + 0.15 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))


# up to 128 nodes a build tests all pairs, from 129 on its cell list's
_SIZES = (100, 128, 129, 400)
_CLUSTERS = [(n, seed) for n in _SIZES for seed in (0, 1, 2)]


@pytest.mark.parametrize("p", [
    np.array([0j, 0.1 + 0j, 5 + 5j]),  # node 2 has no neighbor
    np.array([0.3 + 0.1j, 0.35 + 0.1j, 0.3 + 0.1j]),  # nodes 0 and 2 coincide
    *(clusters(n, seed) for n, seed in _CLUSTERS),
], ids=["isolated", "coincident", *(f"n{n}-seed{s}" for n, s in _CLUSTERS)])
def test_social_heading_is_the_node_order_formula_byte_for_byte(p):
    # the weighted sums are formed in sorted order and scattered once; every
    # elementwise operation has the same operands as in node order
    params = SwarmParams()
    graph = build_neighborhood(p, params.r)
    noise = step_draws(3, 0, p.size, True)[1]
    got = graph.social_heading(params.s, params.w, noise)
    want = summed_then_scattered_heading(graph, p, params.s, params.w, noise)
    assert got.tobytes() == want.tobytes()


def assert_same_graph_bytes(p, r):
    """Both candidate lists give equal int64 arrays, byte for byte, which
    hold the brute-force neighbor pairs."""
    from_all, from_cells = graphs(p, r)
    for name in ("order", "a", "b"):
        got, want = getattr(from_all, name), getattr(from_cells, name)
        assert got.dtype == want.dtype == np.int64, name
        assert got.tobytes() == want.tobytes(), name
    with np.errstate(over="ignore"):  # a far pair's square overflows to inf
        want_indptr, _ = brute_force_csr(p, r)
    np.testing.assert_array_equal(from_all.degrees(), np.diff(want_indptr))


@PROPERTY_SETTINGS
@given(point_sets)
def test_cell_list_and_all_pairs_give_the_same_graph_byte_for_byte(case):
    assert_same_graph_bytes(*case)


def uniform(n, seed=0):
    # the reference node density: 100 nodes per unit area
    half = 0.5 * (n / 100) ** 0.5
    xy = np.random.default_rng(seed).uniform(-half, half, (2, n))
    return xy[0] + 1j * xy[1]


@pytest.mark.parametrize("p, r", [
    (uniform(128), 0.2),  # the most nodes a default build tests all pairs of
    (uniform(129), 0.2),  # the fewest it takes the cell list for
    (uniform(129, 1), 0.0),
    (uniform(129, 2), np.inf),
    (np.repeat(uniform(43, 3), 3), 0.0),  # exact duplicates, each a pair
    (np.repeat(uniform(43, 4), 3), 0.05),
    (np.append(uniform(128, 5), 1e12), 0.2),  # a far outlier widens cells
    (np.append(uniform(40, 6), [1e308, -1e308j]), np.inf),
], ids=["n128", "n129", "r0", "r_inf", "duplicates_r0", "duplicates",
        "far_outlier", "overflowing_spread_r_inf"])
def test_cell_list_and_all_pairs_agree_at_the_edges(p, r):
    assert_same_graph_bytes(p, r)


"""Scalar reference path of one node-step, kept as a test oracle.

These functions compute one node's step from first principles: they read the
node's neighbors one slice at a time from the graph's compressed sparse row
(CSR) form, which ``indptr`` and ``indices`` build here from its pairs, and
take its four normals from an explicit stream argument (anything with a
``standard_normal`` method, such as ``conftest.FakeStream`` or a
``numpy.random.Generator``). The tests compare ``engine.move``, which does
the same for all nodes at once, against them. ``dense_move`` does so for
every node with no graph at all. ``hammer_reference`` keeps the hammer
map's complex formula, and ``hammer_masked`` the masked real arithmetic
that ``core.hammer`` must equal byte for byte. ``fresh_step_normals`` draws
a step's normals from a Philox generator of its own, and ``stepped_walk``
steps a walk one ``step_normals`` and ``move`` at a time: the references
for the engine's block draws. ``propagate_every_entry`` is the density step
that evaluates ``exp`` on every kernel entry, the reference for
``density.propagate``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from shinerswarm.core import (BLOCK_BYTES, NeighborGraph, SwarmParams,
                              check_finite, env_speed, hammer, require)
from shinerswarm.density import GridPdf, KernelParams
from shinerswarm.engine import (SwarmState, init_swarm, move,
                                resolve_sigma_const, step_normals)


def node_pairs(graph: NeighborGraph) -> tuple[np.ndarray, np.ndarray]:
    """The graph's pairs as node ids ``(u, v)``: pair k joins nodes ``u[k]``
    and ``v[k]``, in the graph's pair order."""
    return graph.order[graph.a], graph.order[graph.b]


def directed_edges(graph: NeighborGraph) -> tuple[np.ndarray, np.ndarray]:
    """Both orientations of every edge as flat (i, j) node-id arrays, in no
    particular order."""
    u, v = node_pairs(graph)
    return np.concatenate([u, v]), np.concatenate([v, u])


def indptr(graph: NeighborGraph) -> np.ndarray:
    """CSR row offsets: node i's neighbors are
    ``indices(graph)[indptr(graph)[i]:indptr(graph)[i + 1]]``."""
    return _csr(graph)[0]


def indices(graph: NeighborGraph) -> np.ndarray:
    """CSR column indices: each node's neighbors, ascending."""
    return _csr(graph)[1]


@functools.lru_cache(maxsize=4)
def _csr(graph: NeighborGraph) -> tuple[np.ndarray, np.ndarray]:
    """The read-only CSR arrays of the last few graphs read, so a loop over
    a graph's rows builds them once."""
    offsets = np.zeros(graph.n_nodes + 1, dtype=np.int64)
    np.cumsum(graph.degrees(), out=offsets[1:])
    i_idx, j_idx = directed_edges(graph)
    cols = j_idx[np.lexsort((j_idx, i_idx))]
    offsets.flags.writeable = cols.flags.writeable = False
    return offsets, cols


def neighbors(graph: NeighborGraph, i: int) -> np.ndarray:
    """Node i's neighbors, ascending: its row of the CSR graph."""
    offsets = indptr(graph)
    return indices(graph)[offsets[i]:offsets[i + 1]]


@dataclass(frozen=True)
class StepDraw:
    """One node-step's realized randomness: raw step length, complex noise,
    heading, and speed scale."""

    u_raw: float
    z: complex
    v: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.u_raw >= 0:
            raise ValueError(f"u_raw must be >= 0, got {self.u_raw}")
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


def social_direction(i: int, positions, graph: NeighborGraph,
                     params: SwarmParams, z: complex) -> float:
    """Heading of node i: angle of the neighbor-averaged hammer displacement
    scaled by w, plus the complex noise z.

    With no neighbors, or with the social factor disabled, this reduces to
    the angle of the noise alone (the same as w = 0). Returns a value in
    (-pi, pi]; an exactly-zero argument maps to angle 0.
    """
    p = np.asarray(positions, dtype=np.complex128)
    nbrs = neighbors(graph, i)
    if params.social_enabled and nbrs.size > 0:
        total = complex(np.sum(hammer(p[nbrs] - p[i], params.s)))
        arg = (params.w / nbrs.size) * total + z
    else:
        arg = complex(z)
    if arg == 0:
        return 0.0
    v = math.atan2(arg.imag, arg.real)
    if v == -math.pi:  # atan2(-0.0, x<0); fold onto the (-pi, pi] convention
        return math.pi
    return v


def hammer_reference(z, s):
    """The hammer map in complex arithmetic, ``(|z| - s) * (z / |z|)`` with
    0 mapped to 0: the formula that ``core.hammer`` evaluates part by part
    in real arithmetic."""
    arr = np.asarray(z, dtype=np.complex128)
    mag = np.abs(arr)
    safe = np.where(mag > 0.0, mag, 1.0)
    return np.where(mag > 0.0, (mag - np.asarray(s)) * (arr / safe),
                    0.0 + 0.0j)[()]


# the smallest normal double, below which ``hammer_masked`` rescales
_MIN_NORMAL = 2.0 ** -1022


def hammer_masked(z, s):
    """``core.hammer`` as it was before its unmasked path for normal
    magnitudes: every call masks zero and subnormal magnitudes and checks s
    with a reduction. ``core.hammer`` must equal it byte for byte."""
    require(np.all(np.asarray(s) >= 0), "s", "must be >= 0", s,
            "separation distance ")
    arr = np.asarray(z, dtype=np.complex128)
    mag = np.abs(arr)
    f = np.where(mag > 0.0, mag - np.asarray(s), 0.0)
    re, im, unit_mag = arr.real, arr.imag, mag
    if (mag < _MIN_NORMAL).any():
        scale = np.where((mag > 0.0) & (mag < _MIN_NORMAL), 2.0 ** 1022, 1.0)
        re, im = re * scale, im * scale
        unit_mag = np.where(scale > 1.0, np.hypot(re, im), mag)
    inv = 1.0 / np.where(unit_mag > 0.0, unit_mag, 1.0)
    out = np.empty(f.shape, dtype=np.complex128)
    np.multiply(re * inv, f, out=out.real)
    np.multiply(im * inv, f, out=out.imag)
    return out[()]


def dense_move(positions, params: SwarmParams, g: np.ndarray) -> np.ndarray:
    """``engine.move`` without a neighbor graph: node i's neighbors are read
    from the full squared-distance matrix, its social term sums
    ``hammer_reference(p_j - p_i, s)`` over them in ascending j, and it
    steps with the normals ``g[i]`` as in ``node_step``."""
    p = np.asarray(positions, dtype=np.complex128)
    d = p[None, :] - p[:, None]
    close = d.real * d.real + d.imag * d.imag <= params.r * params.r
    np.fill_diagonal(close, False)
    out = np.empty_like(p)
    for i in range(p.size):
        nbrs = np.flatnonzero(close[i])
        z = complex(g[i, 2], g[i, 3])
        arg = z
        if params.social_enabled and nbrs.size > 0:
            total = complex(np.sum(hammer_reference(d[i, nbrs], params.s)))
            arg = (params.w / nbrs.size) * total + z
        v = math.atan2(arg.imag, arg.real)
        if v == -math.pi:
            v = math.pi
        out[i] = p[i] + step_displacement(env_speed(p[i], params), v,
                                          math.hypot(g[i, 0], g[i, 1]))
    return out


def step_displacement(sigma, v, u_raw):
    """Complex displacement ``(sigma * u_raw) * exp(1j * v)``.

    Accepts scalars or arrays (broadcast together).
    """
    mag = np.asarray(sigma) * np.asarray(u_raw)
    out = mag * np.exp(1j * np.asarray(v))
    if out.ndim == 0:
        return complex(out)
    return out


def sample_u(stream: np.random.Generator, size: int | None = None):
    """Raw step length(s): norm of two consecutive standard normals
    (chi with 2 dof; population mean sqrt(pi/2)).

    With ``size=None`` consumes exactly two normal draws and returns a float;
    otherwise returns an array of ``size`` samples, two draws per sample.
    """
    if size is None:
        g1, g2 = stream.standard_normal(2)
        return math.hypot(g1, g2)
    g = stream.standard_normal((size, 2))
    return np.hypot(g[:, 0], g[:, 1])


def sample_z(stream: np.random.Generator, size: int | None = None):
    """Complex noise with independent standard-normal real and imaginary
    parts (unit variance per component), drawn real part first.
    """
    if size is None:
        zr, zi = stream.standard_normal(2)
        return complex(zr, zi)
    g = stream.standard_normal((size, 2))
    return g[:, 0] + 1j * g[:, 1]


def node_step(i: int, positions, graph: NeighborGraph, params: SwarmParams,
              stream: np.random.Generator) -> tuple[complex, StepDraw]:
    """Single-node update: consume exactly four normals in fixed order
    (two for the step length, then two for the noise) and return the
    displacement together with the realized draw.

    The engine computes the same step for every node at once
    (``engine.move``).
    """
    u_raw = sample_u(stream)
    z = sample_z(stream)
    sigma = env_speed(positions[i], params)
    v = social_direction(i, positions, graph, params, z)
    return step_displacement(sigma, v, u_raw), StepDraw(u_raw, z, v, sigma)


def fresh_step_normals(seed: int, t: int, n: int) -> np.ndarray:
    """The (n, 4) normals of step t, from a Philox generator made for this
    step alone at counter (0, t, 0, 0), by vectorised Box-Muller."""
    key = np.array([seed, 0], dtype=np.uint64)
    counter = np.array([0, t, 0, 0], dtype=np.uint64)
    raw = np.random.Philox(key=key, counter=counter).random_raw(4 * n)
    u = (raw >> 11).reshape(n, 2, 2) * 2.0 ** -53
    g = np.sqrt(-2.0 * np.log1p(-u[..., 0])) * np.exp(2j * np.pi * u[..., 1])
    return g.view(np.float64)


def stepped_walk(params: SwarmParams, seed: int, region, n_steps: int):
    """The states of ``engine.run``'s walk at t = 0, 1, ..., n_steps, each
    step a plain ``step_normals``, ``move`` and ``check_finite``."""
    state = init_swarm(params, seed, region)
    params = resolve_sigma_const(params, state.positions)
    yield state
    p = state.positions
    for t in range(n_steps):
        with np.errstate(over="ignore", invalid="ignore"):
            p = move(p, params, step_normals(seed, t, p.size))
        check_finite(p)
        yield SwarmState(t=t + 1, positions=p, seed=seed)


def propagate_every_entry(f: GridPdf, params: KernelParams) -> GridPdf:
    """``density.propagate`` with ``exp`` taken on every kernel entry, in the
    same row blocks, so its output is the reference bit for bit."""
    z = f.z
    n = z.size
    k, norm = params.factors(z)
    wf = f.w * f.values * norm
    rows = min(n, max(1, BLOCK_BYTES // (n * z.itemsize)))
    buf = np.empty((rows, n))
    out = np.empty(n)
    for lo in range(0, n, rows):
        b = buf[:min(rows, n - lo)]
        np.subtract(z[lo:lo + rows, None], z, out=b)
        np.multiply(b, k, out=b)
        np.square(b, out=b)
        np.negative(b, out=b)
        np.exp(b, out=b)
        np.matmul(b, wf, out=out[lo:lo + b.shape[0]])
    return replace(f, values=out, t=f.t + 1)

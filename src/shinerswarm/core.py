"""Model primitives for golden-shiner-style swarm navigation.

Agents live in the complex plane. Each step an agent draws a step length
``U = sigma * u_raw`` with ``u_raw`` chi-distributed (2 dof, i.e. the norm of
two standard normals) and a heading ``V``. The speed scale ``sigma`` grows
linearly with the distance to the darkest spot ``rho`` (bright = fast,
dark = slow), so agents are slowed down, not steered, by the environment.
Steering comes from the social term: the angle of the neighbor-averaged
"hammer" displacement plus isotropic complex noise. The hammer map shortens
a displacement by the separation distance ``s``, flipping it when the
neighbor is closer than ``s``, which folds attraction and collision
avoidance into a single complex-valued function.

``node_step`` is the scalar reference path of one node-step. It takes its
four normals from an explicit stream argument (anything with a
``standard_normal`` method), whereas the engine's vectorised step
(``engine.move``) takes every node's normals at once from
``engine.step_normals``, a pure function of (seed, node, step). Nothing here
keeps mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# An agent location: x + 1j*y in arena units.
Position = complex


@dataclass(frozen=True)
class SwarmParams:
    """Model constants shared by every node.

    ``sigma_const`` is the fixed speed used when the environmental factor is
    disabled; it may be left as None and resolved later from the initial
    placement (see ``engine.default_sigma_const``).
    """

    n_nodes: int = 100
    c1: float = 0.1
    c2: float = 0.1
    r: float = 0.2
    w: float = 20.0
    s: float = 0.08
    rho: Position = 0j
    env_enabled: bool = True
    social_enabled: bool = True
    sigma_const: float | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if not self.c1 > 0:
            raise ValueError(f"c1 must be positive, got {self.c1}")
        if not self.c2 > 0:
            raise ValueError(f"c2 must be positive, got {self.c2}")
        if self.r < 0:
            raise ValueError(f"sensing radius r must be >= 0, got {self.r}")
        if self.w < 0:
            raise ValueError(f"social weight w must be >= 0, got {self.w}")
        if self.s < 0:
            raise ValueError(f"separation distance s must be >= 0, got {self.s}")
        if not (math.isfinite(self.rho.real) and math.isfinite(self.rho.imag)):
            raise ValueError("rho must be finite")
        if self.sigma_const is not None and not self.sigma_const >= 0:
            raise ValueError(f"sigma_const must be >= 0, got {self.sigma_const}")


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


@dataclass
class NeighborGraph:
    """Symmetric, loop-free adjacency under the sensing-radius relation.

    ``adjacency[i]`` is a sorted int array of the neighbors of node i; an
    edge (i, j) exists exactly when ``|p_i - p_j| <= r``.
    """

    adjacency: list[np.ndarray] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return len(self.adjacency)

    def degrees(self) -> np.ndarray:
        return np.array([a.size for a in self.adjacency], dtype=np.int64)

    def directed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Both orientations of every edge as flat (i, j) index arrays,
        grouped by i with j ascending."""
        if not self.adjacency:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        i_idx = np.repeat(np.arange(self.n_nodes, dtype=np.int64), self.degrees())
        j_idx = (np.concatenate(self.adjacency) if i_idx.size
                 else np.empty(0, dtype=np.int64))
        return i_idx, j_idx

    def component_count(self) -> int:
        """Number of connected components (isolated nodes count as one each)."""
        n = self.n_nodes
        seen = np.zeros(n, dtype=bool)
        count = 0
        for start in range(n):
            if seen[start]:
                continue
            count += 1
            stack = [start]
            seen[start] = True
            while stack:
                node = stack.pop()
                for nbr in self.adjacency[node]:
                    if not seen[nbr]:
                        seen[nbr] = True
                        stack.append(int(nbr))
        return count


def build_neighborhood(positions, r: float) -> NeighborGraph:
    """Fixed-radius neighbor search via spatial hashing on cells of side r.

    Points at distance exactly r are neighbors (inclusive). The distance test
    compares squared magnitudes, so exactly-representable boundary pairs are
    classified without a sqrt round trip.
    """
    p = np.asarray(positions, dtype=np.complex128).ravel()
    n = p.size
    if r < 0:
        raise ValueError(f"sensing radius must be >= 0, got {r}")
    if n == 0:
        return NeighborGraph([])
    if not np.all(np.isfinite(p)):
        raise ValueError("positions must be finite")

    cell = r if r > 0 else 1.0
    kx = np.floor(p.real / cell).astype(np.int64)
    ky = np.floor(p.imag / cell).astype(np.int64)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        buckets.setdefault((int(kx[i]), int(ky[i])), []).append(i)
    cells = {key: np.asarray(idx, dtype=np.int64) for key, idx in buckets.items()}

    r2 = r * r
    heads: list[np.ndarray] = []
    tails: list[np.ndarray] = []
    # Any pair within r lies in the same or an adjacent cell; the four
    # half-neighborhood offsets visit each unordered cell pair once.
    for (cx, cy), idx in cells.items():
        a = p[idx]
        if idx.size > 1:
            d = a[:, None] - a[None, :]
            close = (d.real * d.real + d.imag * d.imag) <= r2
            ii, jj = np.nonzero(np.triu(close, k=1))
            heads.append(idx[ii])
            tails.append(idx[jj])
        for dx, dy in ((1, 0), (1, 1), (0, 1), (-1, 1)):
            other = cells.get((cx + dx, cy + dy))
            if other is None:
                continue
            b = p[other]
            d = a[:, None] - b[None, :]
            ii, jj = np.nonzero((d.real * d.real + d.imag * d.imag) <= r2)
            heads.append(idx[ii])
            tails.append(other[jj])

    if heads:
        u = np.concatenate(heads)
        v = np.concatenate(tails)
    else:
        u = v = np.empty(0, dtype=np.int64)
    i_all = np.concatenate([u, v])
    j_all = np.concatenate([v, u])
    order = np.lexsort((j_all, i_all))
    i_all, j_all = i_all[order], j_all[order]
    counts = np.bincount(i_all, minlength=n)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    adjacency = [j_all[offsets[k]:offsets[k + 1]] for k in range(n)]
    return NeighborGraph(adjacency)


def env_speed(p, params: SwarmParams):
    """Speed scale at location(s) p: ``c1 * (c2 + |p - rho|)`` when the
    environmental factor is on, else the constant ``sigma_const``.

    Accepts a scalar or an array of positions and returns the same shape.
    """
    scalar = np.ndim(p) == 0
    if params.env_enabled:
        out = params.c1 * (params.c2 + np.abs(np.asarray(p) - params.rho))
        return float(out) if scalar else out
    if params.sigma_const is None:
        raise ValueError("sigma_const must be set when the environmental "
                         "factor is disabled")
    sc = float(params.sigma_const)
    return sc if scalar else np.full(np.shape(p), sc)


def hammer(z, s):
    """Shorten a complex displacement by s, keeping its direction when
    ``|z| >= s`` and reversing it when ``|z| < s``; maps 0 to 0.

    Accepts scalars or arrays (broadcast together). The direction is taken
    from ``z / |z|`` rather than a trig round trip, so the output magnitude
    is ``||z| - s|`` to within a few ulp.
    """
    if np.any(np.asarray(s) < 0):
        raise ValueError(f"separation distance must be >= 0, got {s}")
    arr = np.asarray(z, dtype=np.complex128)
    mag = np.abs(arr)
    safe = np.where(mag > 0.0, mag, 1.0)
    out = np.where(mag > 0.0, (mag - np.asarray(s)) * (arr / safe), 0.0 + 0.0j)
    if np.ndim(z) == 0 and np.ndim(s) == 0:
        return complex(out)
    return out


def social_direction(i: int, positions, graph: NeighborGraph,
                     params: SwarmParams, z: complex) -> float:
    """Heading of node i: angle of the neighbor-averaged hammer displacement
    scaled by w, plus the complex noise z.

    With no neighbors, or with the social factor disabled, this reduces to
    the angle of the noise alone (the same as w = 0). Returns a value in
    (-pi, pi]; an exactly-zero argument maps to angle 0.
    """
    p = np.asarray(positions, dtype=np.complex128)
    nbrs = graph.adjacency[i]
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

    This is the scalar reference path; the engine vectorizes the same
    computation across nodes.
    """
    u_raw = sample_u(stream)
    z = sample_z(stream)
    sigma = env_speed(positions[i], params)
    v = social_direction(i, positions, graph, params, z)
    return step_displacement(sigma, v, u_raw), StepDraw(u_raw, z, v, sigma)

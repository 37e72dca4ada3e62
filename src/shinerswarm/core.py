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

Neighbors are the nodes within the sensing radius r. ``build_neighborhood``
finds them with a sorted cell list and returns them as an unsorted pair list
(``NeighborGraph``): two index arrays holding each unordered pair once. The
engine's vectorised step (``engine.move``) takes one hammer per pair and
adds it to one node and its negation to the other, so the step sorts no
edges. Nothing here keeps mutable state.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ParamError(ValueError):
    """A parameter outside its range. ``key`` names the parameter and
    ``rule`` is the rest of the message, e.g. ``must be >= 0, got -1``."""

    def __init__(self, key: str, rule: str, name: str = "") -> None:
        super().__init__(f"{name}{key} {rule}")
        self.key = key
        self.rule = rule


def require(ok: bool, key: str, rule: str, value, name: str = "") -> None:
    """Raise ParamError for ``key`` unless ``ok``. Rules are written as the
    condition that holds, so a NaN, which fails every comparison, fails."""
    if not ok:
        raise ParamError(key, f"{rule}, got {value}", name)


def require_int(key: str, value) -> int:
    """``value`` as an int (``operator.index``, so a numpy integer passes);
    ParamError for ``key`` if it is not an integer, such as 2.5."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParamError(key, f"must be an integer, got {value}") from None


def check_speed_law(c1: float, c2: float) -> None:
    """ParamError unless both constants of the speed law
    ``c1 * (c2 + distance)`` are positive and finite."""
    for key, value in (("c1", c1), ("c2", c2)):
        require(0 < value < math.inf, key, "must be positive and finite", value)


@dataclass(frozen=True)
class SwarmParams:
    """Model constants shared by every node.

    ``sigma_const`` is the fixed speed used when the environmental factor is
    disabled; it may be left as None and resolved later from the initial
    placement (see ``engine.resolve_sigma_const``).
    """

    n_nodes: int = 100
    c1: float = 0.1
    c2: float = 0.1
    r: float = 0.2
    w: float = 20.0
    s: float = 0.08
    rho: complex = 0j
    env_enabled: bool = True
    social_enabled: bool = True
    sigma_const: float | None = None

    def __post_init__(self) -> None:
        require(require_int("n_nodes", self.n_nodes) >= 1, "n_nodes",
                "must be >= 1", self.n_nodes)
        check_speed_law(self.c1, self.c2)
        require(self.r >= 0, "r", "must be >= 0", self.r, "sensing radius ")
        require(self.w >= 0, "w", "must be >= 0", self.w, "social weight ")
        require(self.s >= 0, "s", "must be >= 0", self.s,
                "separation distance ")
        require(math.isfinite(self.rho.real), "rho.real", "must be finite",
                self.rho.real)
        require(math.isfinite(self.rho.imag), "rho.imag", "must be finite",
                self.rho.imag)
        require(self.sigma_const is None or self.sigma_const >= 0,
                "sigma_const", "must be >= 0", self.sigma_const)


# Bytes of pairwise entries that a blocked O(N^2) loop (``density.propagate``,
# ``engine.compute_metrics``) builds at once: a row block this size stays in
# a core's L2 cache through its elementwise passes. On a 2-vCPU Xeon with
# 2 MiB of L2 per core, 2 MiB blocks made a density step about 8% slower.
BLOCK_BYTES = 2 ** 20

# Cells are 2**-20 wider than r. p / cell is rounded, so on cells of side
# exactly r a pair that passes the distance test can land two cells apart
# (x = 1 - 2**-53 and 2 with r = 1). Within 2**30 cells of the origin the
# slack outweighs the rounding, and int64 cell keys cannot overflow. Below
# 2**-511, r * r is subnormal and the test passes pairs up to 1e-4 beyond r,
# so cells are never narrower than that.
_CELL_SLACK = 1.0 + 2.0 ** -20
_MIN_CELL = 2.0 ** -511
_MAX_CELL = 2.0 ** 30

# Cell offsets (dx, dy) that visit every unordered pair of equal or adjacent
# cells once.
_HALF_OFFSETS = ((0, 0), (1, -1), (1, 0), (1, 1), (0, 1))

# The smallest normal double; ``hammer`` rescales magnitudes below it.
_MIN_NORMAL = 2.0 ** -1022


@dataclass(frozen=True, eq=False)
class NeighborGraph:
    """Symmetric, loop-free neighbor graph under the sensing-radius relation,
    as an unsorted pair list.

    Each unordered pair of distinct nodes with ``|p_i - p_j| <= r`` appears
    exactly once, as ``(u[k], v[k])`` for one k, in no particular order and
    orientation. The compressed sparse row form, neighbors ascending, is
    built from the pairs on first read of ``indptr`` or ``indices``; the
    simulation step never reads it.
    """

    n_nodes: int
    u: np.ndarray
    v: np.ndarray

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate([self.u, self.v]),
                           minlength=self.n_nodes)

    def directed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Both orientations of every edge as flat (i, j) index arrays, in
        no particular order."""
        return (np.concatenate([self.u, self.v]),
                np.concatenate([self.v, self.u]))

    @cached_property
    def indptr(self) -> np.ndarray:
        """CSR row offsets: node i's neighbors are
        ``indices[indptr[i]:indptr[i + 1]]``."""
        indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(self.degrees(), out=indptr[1:])
        return indptr

    @cached_property
    def indices(self) -> np.ndarray:
        """CSR column indices: each node's neighbors, ascending."""
        i_idx, j_idx = self.directed_edges()
        return j_idx[np.lexsort((j_idx, i_idx))]

    def component_count(self) -> int:
        """Number of connected components (isolated nodes count as one each).

        Min-label propagation with pointer jumping: each round, the node
        that i points at takes the smallest label of i's neighbors, then
        every node jumps one pointer further. At the fixed point each
        component is labelled by its smallest node, the only node that
        labels itself.
        """
        i_idx, j_idx = self.directed_edges()
        nodes = np.arange(self.n_nodes, dtype=np.int64)
        label = nodes
        while True:
            hooked = label.copy()
            np.minimum.at(hooked, label[i_idx], label[j_idx])
            hooked = hooked[hooked]
            if np.array_equal(hooked, label):
                return int(np.count_nonzero(label == nodes))
            label = hooked


def check_finite(p: np.ndarray) -> None:
    """ValueError naming the first node whose position is not finite."""
    finite = np.isfinite(p)
    # every step of a walk calls this: at N = 100, count_nonzero, which has
    # no reduction set-up, takes a third of the time of all(); at N = 1e5 it
    # takes 6 us more, against a step of about 30 ms
    if np.count_nonzero(finite) < finite.size:
        i = int(np.argmin(finite))
        raise ValueError(f"node {i}: position {p[i]} is not finite")


def build_neighborhood(positions, r: float) -> NeighborGraph:
    """Fixed-radius neighbor search with a sorted cell list (Allen &
    Tildesley, *Computer Simulation of Liquids*) on cells of side just over r.

    Nodes are sorted once by an int64 cell key with a one-cell margin, so no
    offset wraps and every cell is a run of the sorted order. A node's
    candidates are the later members of its own run and the runs of four
    half-offset cells, so each unordered pair is a candidate once, and the
    candidates that pass the distance test are the returned pair list as
    they stand. Points at distance exactly r are neighbors: the test
    compares squared magnitudes, so exactly-representable boundary pairs
    are classified without a sqrt round trip.

    Raises ValueError, naming the node, when a position is not finite or
    lies 2**30 or more cells from the origin.
    """
    p = np.asarray(positions, dtype=np.complex128).ravel()
    n = p.size
    require(r >= 0, "r", "must be >= 0", r, "sensing radius ")
    check_finite(p)
    if n == 0:
        return NeighborGraph(0, np.empty(0, dtype=np.int64),
                             np.empty(0, dtype=np.int64))

    cell = (max(r, _MIN_CELL) if r > 0 else 1.0) * _CELL_SLACK
    with np.errstate(over="ignore"):  # an infinite cell index is refused below
        fx = np.floor(p.real / cell)
        fy = np.floor(p.imag / cell)
    far = np.maximum(np.abs(fx), np.abs(fy))
    i = int(np.argmax(far))
    if far[i] >= _MAX_CELL:
        raise ValueError(f"node {i}: position {p[i]} is {far[i]:.3g} cells of "
                         f"side {cell:g} from the origin; the neighbor search "
                         f"is exact only below 2**30")
    kx = (fx - fx.min() + 1).astype(np.int64)
    ky = (fy - fy.min() + 1).astype(np.int64)
    height = int(ky.max()) + 2
    key = kx * height + ky

    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    offsets = np.array([dx * height + dy for dx, dy in _HALF_OFFSETS])
    target = (offsets[:, None] + sorted_key[None, :]).ravel()
    lo = np.searchsorted(sorted_key, target, "left")
    hi = np.searchsorted(sorted_key, target, "right")
    lo[:n] = np.arange(1, n + 1)  # own cell: only the later members
    counts = hi - lo
    a = np.repeat(np.tile(np.arange(n), len(_HALF_OFFSETS)), counts)
    b = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts),
                                            counts)
    # the distance test gathers the positions in sorted order, which a and
    # b index and where a candidate pair sits close together; only the
    # accepted pairs are mapped back to node ids. Candidates are under
    # 2.9 r apart: no square overflows for r < 2**510
    with np.errstate(over="ignore"):
        if r < 2.0 ** 510:
            x, y = p.real[order], p.imag[order]
            dx, dy = x[a] - x[b], y[a] - y[b]
            close = dx * dx + dy * dy <= r * r
        else:
            ps = p[order]
            close = np.abs(ps[a] - ps[b]) <= r
    return NeighborGraph(n, order[a[close]], order[b[close]])

def distance_speed(d, params: SwarmParams, out: np.ndarray | None = None):
    """Speed scale at distance(s) d from the darkest spot: the speed law
    ``c1 * (c2 + d)`` when the environmental factor is on, else the
    constant ``sigma_const``, for which only d's shape is read.

    Accepts a scalar or an array and returns the same shape. ``out``, an
    array of d's shape such as d itself, receives the speed in place.
    """
    if params.env_enabled:
        if out is None:
            return (params.c1 * (params.c2 + np.asarray(d)))[()]
        np.add(params.c2, d, out=out)
        return np.multiply(params.c1, out, out=out)
    if params.sigma_const is None:
        raise ValueError("sigma_const must be set when the environmental "
                         "factor is disabled")
    if out is None:
        return np.full(np.shape(d), float(params.sigma_const))[()]
    out.fill(params.sigma_const)
    return out


def env_speed(p, params: SwarmParams):
    """Speed scale at location(s) p: ``distance_speed`` at ``|p - rho|``.

    Accepts a scalar or an array of positions and returns the same shape.
    """
    d = np.abs(np.asarray(p) - params.rho) if params.env_enabled else p
    return distance_speed(d, params)


def hammer(z, s):
    """Shorten a complex displacement by s, keeping its direction when
    ``|z| >= s`` and reversing it when ``|z| < s``; maps 0 to 0.

    Accepts scalars or arrays (broadcast together). The direction is taken
    from ``z / |z|`` rather than a trig round trip, so the output magnitude
    is ``||z| - s|`` to within a few ulp. Each part is
    ``part(z) * (1 / |z|) * (|z| - s)`` in real arithmetic, the value
    numpy's complex ``(|z| - s) * (z / |z|)`` gives, and negating z negates
    every part exactly: ``hammer(-z, s) == -hammer(z, s)`` bit for bit. A z
    with subnormal ``|z|``, where ``1 / |z|`` may overflow, takes its
    direction from z scaled by ``2**1022``, which is exact.
    """
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

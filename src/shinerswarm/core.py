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
finds them with a sorted cell list and returns them in that sorted order
(``NeighborGraph``): the node order and two index arrays into it holding
each unordered pair once. The engine's vectorised step (``engine.move``)
gathers the positions in that order once, takes one hammer per pair, adds
it to one node and its negation to the other, and puts the summed social
term back in node order, so the step sorts no edges and maps no pair back
to node ids. Nothing here keeps mutable state.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

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

# Cells are 2**-20 wider than the larger of r and the swarm's extent times
# 2**-30. The cell index of a coordinate x is floor((x - mid) * (1 / cell)),
# counted from the index of the swarm's minimum, mid being the middle of the
# swarm's span on that axis. x - mid cannot overflow for any finite swarm and
# is at most the span, so (x - mid) / cell is under 2**30 in magnitude and
# the indices of a swarm span under 2**30 cells: int64 cell keys cannot
# overflow. The difference, the reciprocal and the product each round by at
# most 2**-53 relative, which moves an index by under 3 * 2**-53 * 2**30 <
# 2**-21 cells, and two indices apart by under 2**-20 cells. The slack
# outweighs that, so a pair that passes the distance test never lands two
# cells apart, as it can on cells of side exactly r (x = 1 - 2**-53 and 2
# with r = 1). Below 2**-511, r * r is subnormal and the test passes pairs up
# to 1e-4 beyond r, so cells are never narrower than that.
_CELL_SLACK = 1.0 + 2.0 ** -20
_MIN_CELL = 2.0 ** -511

# Most candidate pairs one neighbor search tests. Each candidate takes about
# 48 B of temporaries, so this is about 3 GiB. A uniform swarm of 100 nodes
# per unit area makes about 18 candidates per node at r = 0.2 (1.8e6 at
# N = 1e5), but one far outlier widens every cell to the swarm's extent
# times 2**-30, and the candidates then grow as N**2: 5e9 at N = 1e5.
_MAX_CANDIDATES = 2 ** 26

# The smallest normal double; ``hammer`` rescales magnitudes below it.
_MIN_NORMAL = 2.0 ** -1022


@dataclass(frozen=True, eq=False)
class NeighborGraph:
    """Symmetric, loop-free neighbor graph under the sensing-radius relation,
    as a pair list in the sorted order of its build.

    Sorted position k holds node ``order[k]``. Each unordered pair of
    distinct nodes with ``|p_i - p_j| <= r`` appears exactly once, as the
    sorted positions ``(a[k], b[k])`` for one k, in no particular order,
    which are the nodes ``order[a[k]]`` and ``order[b[k]]``.
    """

    n_nodes: int
    order: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def degrees(self) -> np.ndarray:
        """Node i's neighbor count at index i."""
        deg = np.empty(self.n_nodes, dtype=np.int64)
        deg[self.order] = (np.bincount(self.a, minlength=self.n_nodes)
                           + np.bincount(self.b, minlength=self.n_nodes))
        return deg

    def component_count(self) -> int:
        """Number of connected components (isolated nodes count as one each).

        Min-label propagation with pointer jumping: each round, the node
        that i points at takes the smallest label of i's neighbors, then
        every node jumps one pointer further. At the fixed point each
        component is labelled by its smallest node, the only node that
        labels itself. It runs on node ids: sorted positions, being
        spatially local labels, took 10 rounds instead of 8 at N = 1e5.
        """
        i_idx = self.order[np.concatenate([self.a, self.b])]
        j_idx = self.order[np.concatenate([self.b, self.a])]
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
    Tildesley, *Computer Simulation of Liquids*) on cells of side just over
    r, or over the swarm's extent times 2**-30 if that is larger.

    Nodes are sorted once by an int64 cell key, counted from the swarm's
    minimum corner with a one-cell margin, so every cell is a run of the
    sorted order and no neighbor key wraps into another column. A node's
    candidates are two runs: the later members of its own cell with the
    cell above it (keys k and k + 1), and the three cells of the next
    column (keys k + H - 1 to k + H + 1, H the column height). So each
    unordered pair is a candidate once, and the candidates that pass the
    distance test are the returned pairs as they stand. Points at distance
    exactly r are neighbors: the test compares squared magnitudes, so
    exactly-representable boundary pairs are classified without a sqrt
    round trip.

    Raises ValueError, naming the node, when a position is not finite, and
    before any candidate list is made when there would be more than
    ``_MAX_CANDIDATES`` candidates, naming the node farthest from the
    coordinate-wise median when it is the swarm's extent that widens the
    cells.
    """
    p = np.asarray(positions, dtype=np.complex128).ravel()
    n = p.size
    require(r >= 0, "r", "must be >= 0", r, "sensing radius ")
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return NeighborGraph(0, empty, empty, empty)

    x, y = p.real, p.imag
    x_lo, x_hi, y_lo, y_hi = (float(x.min()), float(x.max()),
                              float(y.min()), float(y.max()))
    # min and max carry any NaN or infinity into the bounds, and so into
    # their sum; a finite sum proves every position finite. A sum that
    # overflows from finite bounds only costs the full check
    if not math.isfinite(x_lo + x_hi + y_lo + y_hi):
        check_finite(p)
    # halved first: the span of a finite swarm can overflow, its half cannot
    half = max(0.5 * x_hi - 0.5 * x_lo, 0.5 * y_hi - 0.5 * y_lo)
    side = max(r, _MIN_CELL, half * 2.0 ** -29) * _CELL_SLACK
    inv = 1.0 / side
    mid = complex(0.5 * x_lo + 0.5 * x_hi, 0.5 * y_lo + 0.5 * y_hi)
    # these scalar ops round as the array ops below do, so the minimum and
    # the maximum get the extreme cell indices
    ix_lo = math.floor((x_lo - mid.real) * inv)
    iy_lo = math.floor((y_lo - mid.imag) * inv)
    iy_hi = math.floor((y_hi - mid.imag) * inv)
    height = iy_hi - iy_lo + 3  # a margin cell below and above each column
    # each node's (x, y) cell indices, interleaved as p's parts are
    ixy = (p - mid).view(np.float64)
    ixy *= inv
    ixy = np.floor(ixy, out=ixy).astype(np.int64)
    key = ixy[0::2] * height
    key += ixy[1::2]
    key -= (ix_lo - 1) * height + (iy_lo - 1)  # the minimum's cell is (1, 1)

    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    start = np.empty((n, 2), dtype=np.int64)
    end = np.empty((n, 2), dtype=np.int64)
    start[:, 0] = np.arange(1, n + 1)
    end[:, 0] = sorted_key.searchsorted(sorted_key + 1, "right")
    start[:, 1] = sorted_key.searchsorted(sorted_key + (height - 1), "left")
    end[:, 1] = sorted_key.searchsorted(sorted_key + (height + 1), "right")
    counts = (end - start).ravel()
    total = int(counts.sum())
    if total > _MAX_CANDIDATES:
        why = ""
        if side > max(r, _MIN_CELL) * _CELL_SLACK:  # the extent set the side
            with np.errstate(over="ignore"):
                far = np.hypot(x - np.median(x), y - np.median(y))
            i = int(np.argmax(far))
            why = f"node {i} at {p[i]} stretches the swarm's extent, so "
        raise ValueError(f"{why}{total} neighbor candidates on cells of side "
                         f"{side:.3g} for r = {r:g} exceed the budget of "
                         f"{_MAX_CANDIDATES}")
    a = np.arange(n).repeat(counts[0::2] + counts[1::2])
    b = np.arange(total) + (
        start.ravel() - (np.cumsum(counts) - counts)).repeat(counts)
    # the distance test reads the positions in sorted order, where a
    # candidate pair sits close together. A difference that overflows is
    # beyond any finite r, and a square that does is beyond any r < 2**510,
    # whose own square is finite, so the test stays exact
    ps = p[order]
    with np.errstate(over="ignore"):
        d = ps[a] - ps[b]
        if r < 2.0 ** 510:
            sq = d.view(np.float64)
            sq *= sq
            close = sq[0::2] + sq[1::2] <= r * r
        else:
            close = np.abs(d) <= r
    kept = np.flatnonzero(close)
    return NeighborGraph(n, order, a[kept], b[kept])


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
    numpy's complex ``(|z| - s) * (z / |z|)`` gives. Where ``|z|`` is
    finite, negating z negates every part exactly: ``hammer(-z, s) ==
    -hammer(z, s)`` bit for bit. Where it is infinite, the parts are NaNs
    made by ``inf * 0``, whose sign bit does not follow z's. A z with
    subnormal ``|z|``, where ``1 / |z|`` may overflow, takes its direction
    from z scaled by ``2**1022``, which is exact.

    When every ``|z|`` is normal or infinite, f and ``1 / |z|`` are taken
    directly. Only a call holding a zero, subnormal or NaN magnitude takes
    the masked path, which maps a zero to 0, rescales a subnormal, and
    gives a NaN magnitude ``f = 0`` and ``1 / |z| = 1``; both paths give the
    same bits. A scalar s is checked with one comparison, without a
    reduction; an array s element by element.
    """
    sep = np.asarray(s)
    # a scalar s, as the engine passes, is checked without a reduction
    require(bool(sep >= 0) if sep.ndim == 0 else np.all(sep >= 0), "s",
            "must be >= 0", s, "separation distance ")
    arr = np.asarray(z, dtype=np.complex128)
    mag = np.abs(arr)
    re, im = arr.real, arr.imag
    # routed by >= ... all(), which a NaN fails: a NaN magnitude takes the
    # masked path as a zero one does, so hammer(1 + nan j, s) stays (0, nan)
    if (mag >= _MIN_NORMAL).all():
        f = mag - sep
        inv = 1.0 / mag
    else:
        f = np.where(mag > 0.0, mag - sep, 0.0)
        scale = np.where((mag > 0.0) & (mag < _MIN_NORMAL), 2.0 ** 1022, 1.0)
        re, im = re * scale, im * scale
        unit_mag = np.where(scale > 1.0, np.hypot(re, im), mag)
        inv = 1.0 / np.where(unit_mag > 0.0, unit_mag, 1.0)
    out = np.empty(f.shape, dtype=np.complex128)
    np.multiply(re * inv, f, out=out.real)
    np.multiply(im * inv, f, out=out.imag)
    return out[()]

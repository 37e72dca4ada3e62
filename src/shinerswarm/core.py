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
tests the pairs of a sorted cell list (all pairs up to 128 nodes) and returns
them in that sorted order (``NeighborGraph``) with the frame they were found
in: the node order and two index arrays into it holding each unordered pair
once. Each factor of a step has one home here: the speed law of both
engines, ``speed_law``, which the swarm step ``engine._step`` and
``density.KernelParams.sd`` apply, and the social heading
``NeighborGraph.social_heading``, formed in the sorted order of the graph's
own frame, so a step sorts no edges and maps no pair to node ids. Both O(N^2)
loops go in the blocks of ``row_blocks``, which ``run_workers`` can share
among threads. Nothing here keeps mutable state.
"""

from __future__ import annotations

import contextvars
import functools
import math
import operator
import os
import threading
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
    """ParamError unless both constants of ``speed_law`` are positive and
    finite."""
    for key, value in (("c1", c1), ("c2", c2)):
        require(0 < value < math.inf, key, "must be positive and finite", value)


def speed_law(c1: float, c2: float, d, out: np.ndarray | None = None):
    """``c1 * (c2 + d)``, the speed law of both engines at the distance(s) d
    from the darkest spot; ``out``, such as d itself, receives it in place."""
    return np.multiply(c1, np.add(c2, d, out=out), out=out)


@dataclass(frozen=True)
class SwarmParams:
    """Model constants shared by every node.

    A factor switch equal to neither True nor False (say "no"), or an array of
    one or more dimensions (say ``np.array([True])``), is a ParamError.
    ``sigma_const`` is the fixed speed that the step, ``engine._step``, gives
    every node when the environmental factor is disabled; it may be left as
    None, and a walk fills it in from its initial placement.
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
        require(0 <= self.w < math.inf, "w", "must be >= 0 and finite",
                self.w, "social weight ")
        require(0 <= self.s < math.inf, "s", "must be >= 0 and finite",
                self.s, "separation distance ")
        for key, part in (("rho.real", self.rho.real),
                          ("rho.imag", self.rho.imag)):
            require(math.isfinite(part), key, "must be finite", part)
        for key in ("env_enabled", "social_enabled"):
            on = getattr(self, key)
            # an array's == is elementwise, so its truth is not the switch's
            require(getattr(on, "ndim", 0) == 0 and on in (True, False), key,
                    "must be True or False", repr(on))
        require(self.sigma_const is None or 0 <= self.sigma_const < math.inf,
                "sigma_const", "must be >= 0 and finite", self.sigma_const)


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

# Most pairs a search tests whole, skipping the cell list (n <= 128). Per
# build on 4 uniform swarms of 100 nodes per unit area, r = 0.2, cells vs all
# pairs took 75-107 vs 67-91 us at n = 100, 115-127 vs 114-119 at 128 and
# 118-123 vs 325-359 at 145 (2-vCPU Xeon, numpy 2.4.6). All pairs took a
# quarter to a third less on a cluster; a sparse swarm favours cells at any n.
_ALL_PAIRS_MAX = 2 ** 13

# The smallest normal double; ``hammer`` and ``_heading`` rescale below it.
_MIN_NORMAL = 2.0 ** -1022


@dataclass(frozen=True, eq=False)
class NeighborGraph:
    """Symmetric, loop-free neighbor graph of one frame under the
    sensing-radius relation r, as a pair list in the sorted order of its build.

    Sorted position k holds node ``order[k]``, at ``positions[k]`` (read-only).
    Each unordered pair of distinct nodes with ``|p_i - p_j| <= r`` appears
    exactly once, as the sorted positions ``(a[k], b[k])`` for one k, in no
    particular order, which are the nodes ``order[a[k]]`` and ``order[b[k]]``.
    """

    order: np.ndarray
    a: np.ndarray
    b: np.ndarray
    positions: np.ndarray

    @property
    def n_nodes(self) -> int:
        """The node count, one sorted position per node."""
        return self.order.size

    def degrees(self) -> np.ndarray:
        """Node i's neighbor count at index i."""
        deg = np.empty(self.n_nodes, dtype=np.int64)
        deg[self.order] = (np.bincount(self.a, minlength=self.n_nodes)
                           + np.bincount(self.b, minlength=self.n_nodes))
        return deg

    def component_count(self) -> int:
        """Number of connected components (isolated nodes count as one each).

        Hook-and-shrink on the sorted pairs (Shiloach & Vishkin, 1982, in
        outline): each round hooks the larger root of every remaining pair
        onto the smaller, jumps pointers until every node points at a root,
        and drops the pairs whose ends now share one. The count does not
        depend on the labels, so it runs on sorted positions.
        """
        root, a, b = np.arange(self.n_nodes), self.a, self.b
        while a.size:
            ra, rb = root[a], root[b]
            np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
            while not np.array_equal(up := root[root], root):
                root = up
            keep = root[a] != root[b]
            a, b = a[keep], b[keep]
        return int(np.count_nonzero(root == np.arange(self.n_nodes)))

    def social_heading(self, s: float, w: float, noise) -> np.ndarray:
        """Node i's unit vector of ``w * mean_j hammer(p_j - p_i, s) +
        noise[i]`` over its neighbors j (+0 if none), p the graph's own frame.
        Each sorted pair (a, b) adds its hammer h to a's sum and -h to b's
        (hammer is odd bit for bit); one scatter puts them in node order."""
        a, b, order, n = self.a, self.b, self.order, self.n_nodes
        ps = self.positions
        h = hammer(ps[b] - ps[a], s)
        acc = np.zeros(n, dtype=np.complex128)
        np.add.at(acc, a, h)
        np.subtract.at(acc, b, h)
        deg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
        arg = np.empty_like(acc)
        arg[order] = (w / np.maximum(deg, 1)) * acc
        arg += noise
        return _heading(arg)


def check_finite(p: np.ndarray) -> None:
    """ValueError naming the first node whose position is not finite."""
    finite = np.isfinite(p)
    # every step of a walk calls this: at N = 100, count_nonzero, which has
    # no reduction set-up, takes a third of the time of all(); at N = 1e5 it
    # takes 6 us more, against a step of about 30 ms
    if np.count_nonzero(finite) < finite.size:
        i = int(np.argmin(finite))
        raise ValueError(f"node {i}: position {p[i]} is not finite")


def check_frame(positions) -> np.ndarray:
    """``positions`` as a 1-D complex128 array, itself if it is one; ParamError
    for any other shape, such as an (N, 2) xy array or a 0-d position."""
    p = np.asarray(positions, dtype=np.complex128)
    if p.ndim != 1:  # require would format the shape on each call, +0.4 us
        raise ParamError("positions", f"must be 1-D, got shape {p.shape}")
    return p


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
    distance test are the returned pairs as they stand. Both runs lie past
    k, ascending, the first before the second, so they are the close pairs
    a < b in lexicographic order, and a search of at most ``_ALL_PAIRS_MAX``
    pairs (n <= 128, where cells cost more than they save) tests all pairs.
    Points at distance exactly r are neighbors: the test compares squared
    magnitudes, so exactly-representable boundary pairs are classified
    without a sqrt round trip.

    ParamError unless the positions are 1-D (``check_frame``); ValueError,
    naming the node, when a position is not finite, and before any candidate
    list is made when there would be more than ``_MAX_CANDIDATES``
    candidates, naming the node farthest from the coordinate-wise median
    when it is the swarm's extent that widens the cells.
    """
    p = check_frame(positions)
    n = p.size
    require(r >= 0, "r", "must be >= 0", r, "sensing radius ")
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return NeighborGraph(empty, empty, empty, p)

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
    a, b = (_all_pairs(n) if n * (n - 1) // 2 <= _ALL_PAIRS_MAX
            else _cell_pairs(key[order], height, p, r, side))
    # the distance test reads the graph's frame, the positions in sorted order,
    # where a candidate pair sits close together. A difference that overflows
    # is beyond any finite r, and a square that does is beyond any r < 2**510,
    # whose own square is finite, so the test stays exact
    ps = p[order]
    ps.flags.writeable = False
    with np.errstate(over="ignore"):
        d = ps[a] - ps[b]
        if r < 2.0 ** 510:
            sq = d.view(np.float64)
            sq *= sq
            close = sq[0::2] + sq[1::2] <= r * r
        else:
            close = np.abs(d) <= r
    kept = np.flatnonzero(close)
    return NeighborGraph(order, a[kept], b[kept], ps)


@functools.lru_cache(maxsize=4)
def _all_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair a < b of range(n), lexicographic; cached, so read-only."""
    a, b = (i.astype(np.int64) for i in np.triu_indices(n, 1))
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _cell_pairs(sorted_key, height: int, p, r: float, side: float):
    """The cell list's candidates (a, b); ValueError past the budget."""
    n = sorted_key.size
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
            x, y = p.real, p.imag
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
    return a, b


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
    same bits. ParamError unless ``0 <= s < inf`` everywhere."""
    sep = np.asarray(s)
    x = sep.item() if sep.ndim == 0 else sep  # a 0-d s is not reduced
    ok = (0 <= x) & (x < math.inf)
    require(ok if sep.ndim == 0 else ok.all(), "s", "must be >= 0 and finite",
            s, "separation distance ")
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


def _heading(arg: np.ndarray) -> np.ndarray:
    """The unit vector ``arg / |arg|``: 1 for a zero arg, NaN for a NaN
    part, and for an infinite part the limit that ``exp(1j * angle(arg))``
    takes, ±1 on its axis."""
    re, im = arg.real, arg.imag
    mag = np.hypot(re, im)
    # routed by >= ... all(), which a NaN fails, as in hammer
    if not ((mag >= _MIN_NORMAL) & (mag < np.inf)).all():
        # scale a subnormal magnitude up and one that overflows down; an
        # infinite part becomes ±1 and a finite one beside it ±0, while a
        # NaN part stays NaN; a zero arg points along +x
        inf_part = np.isinf(re) | np.isinf(im)
        scale = np.select([mag < _MIN_NORMAL, inf_part, mag == np.inf],
                          [2.0 ** 1022, 0.0, 0.25], 1.0)
        re = np.where(np.isinf(re), np.copysign(1.0, re), re * scale)
        im = np.where(np.isinf(im), np.copysign(1.0, im), im * scale)
        re = np.where(mag == 0.0, 1.0, re)
        mag = np.hypot(re, im)
    out = np.empty(arg.shape, dtype=np.complex128)
    np.divide(re, mag, out=out.real)
    np.divide(im, mag, out=out.imag)
    return out


# Bytes of pairwise entries a blocked O(N^2) loop builds at once: a row block
# this size stays in a core's L2 cache through its elementwise passes. On a
# 2-vCPU Xeon with 2 MiB of L2 per core, 2 MiB made a density step 8% slower.
BLOCK_BYTES = 2 ** 20


def row_blocks(n: int, itemsize: int) -> range:
    """First rows of the ``BLOCK_BYTES`` blocks (1 to n rows each) of an
    n-column loop over itemsize-byte entries; its step is a block's rows."""
    return range(0, n, min(n, max(1, BLOCK_BYTES // (n * itemsize))))


def _cpus() -> int:
    """CPUs this process may run on, the most workers ``deal`` makes."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def deal(blocks: range) -> list[range]:
    """Each worker's blocks: block i to worker i mod W = min(CPUs, blocks).
    A share's ``.stop`` can pass the row count, so bound a block by the row
    count, never by it: ``range(0, 1001, 65)[1::2].stop == 1040``."""
    workers = min(_cpus(), len(blocks))
    return [blocks[i::workers] for i in range(workers)]


def run_workers(work, shares: list) -> None:
    """``work(i, shares[i])`` for each worker i: worker 0 on the caller, each
    other in a thread started in a copy of the caller's context, so numpy's
    errstate (modes and ``call`` function) holds in all. Every thread is
    joined, even if worker 0 raises; then the first thread error is raised."""
    errors: list[BaseException] = []

    def run(i: int) -> None:
        try:
            work(i, shares[i])
        except BaseException as e:
            errors.append(e)

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(run, i)) for i in range(1, len(shares))]
    try:
        for thread in threads:
            thread.start()
        work(0, shares[0])
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]

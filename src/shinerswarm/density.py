"""One-dimensional location density of a single speed-modulated walker.

In 1D with the darkest spot at the origin, a walker's next location is
normal around its current one with standard deviation ``c1 * (c2 + |x|)``,
``core.speed_law`` at |x|: the one law of the swarm's speed and this width.
The location pdf after t steps has no closed form for t >= 2, so it is
pushed forward numerically: starting from the one-step Gaussian, each
application of ``propagate`` convolves the current grid pdf with the
location-dependent kernel by trapezoidal quadrature. One step costs O(n^2)
kernel evaluations on an n-point grid, in O(n) memory (see ``propagate``).

The kernel width is ``c1 * c2`` at the darkest spot and grows without bound
away from it, so a uniform grid is either too coarse at the origin or too
narrow in the tails. The grid is therefore log-graded: its nodes are uniform
in ``u = sign(x) * log(1 + |x| / c2)``, so the spacing grows in proportion
to ``c2 + |x|`` as the kernel width does, and integrals are taken by the
trapezoid rule in u with the Jacobian ``dx/du = c2 + |x|``. The origin,
where the kernel width has its kink, is always a node when the span holds
it; the rule's only error there makes mass shrink, never grow. Each grid is
one frozen, cached ``Grid``: read-only nodes, u nodes and weights, the
kernel it is graded and checked for, that kernel's per-node factors, and
the plan of its step's row blocks, which ``propagate`` reads. A ``GridPdf``
owns only its values on a grid and its step, so every pdf on a grid is
integrated by that grid's one rule and stepped by its one kernel.

Mass that diffuses past the grid edges is simply lost and shows up as a
total-mass deficit; it is reported by ``grid_stats`` and never renormalized
away, since hiding it would mask an undersized grid.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (check_speed_law, require, require_int, row_blocks,
                   run_workers, speed_law)

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_SQRT_HALF = np.sqrt(0.5)
_FLOAT_MAX = sys.float_info.max

# Default log-graded grid for the reference scenario (x0 = 5, c1 = 1,
# c2 = 0.1): spacing 0.0009 at the origin and 0.047 at x = 5. On this
# symmetric span, 2n - 1 points nest the n-point grid for odd n. The point
# count is the coarsest that nests into 6001 points and meets a target set
# before measuring: on the t = 3 chain a mass deficit of at most 1e-5 and
# mass_near(1) within 1e-6 of its 12001-point value, with every test gate
# unchanged. 2001 points give 5.5e-7 and 8e-8; on 1501 or 3001 points the
# t = 1 peak falls between nodes and is sampled 2.1e-6 low.
DEFAULT_Z_MIN = -1000.0
DEFAULT_Z_MAX = 1000.0
DEFAULT_N_POINTS = 2001

# Largest node spacing in u, as a fraction of the kernel's width in u,
# c1 / (1 + c1): one sd on the kernel's outer side, where the log grading
# squeezes it most (about c1 for small c1). In a derandomised scan of 20000
# grids (c1 0.05-3, c2 0.01-2, spans up to 1000, 3-400 points), each grid
# whose first-step mass exceeded 1 + 1e-9, or which gained more than 1e-9
# over two propagations, had a spacing of at least 0.66 widths.
_MAX_DU = 0.25

# A source is dead for a ``Grid.plan`` block when its reach, 40 kernel sds,
# ends before the block's first row or starts past its last. Beyond it, k_j
# |z_i - z_j| >= sqrt(0.5) * 40 = 28.28, so the exponent is -t with t >= 800,
# past the 745.14 at which exp(-t) underflows to +0.0 in float64. Rounding
# cannot move t across that gap. It is a fact of float64, not an accuracy
# knob: the entries of the dead runs are exactly those exp makes 0.
_REACH_SDS = 40.0


class GridSpanError(ValueError):
    """The grid cannot hold the pdf: its span holds fewer distinct nodes
    than points, all its nodes are closer in u than the smallest normal
    double or some too far apart to resolve the kernel, or it holds less
    than 1 - 1e-3 of the first-step mass."""


@dataclass(frozen=True)
class KernelParams:
    """Constants of the 1D transition kernel N(x, sd(x)^2), its sd being
    ``core.speed_law`` at |x|, the law the swarm's speed follows."""

    c1: float = 1.0
    c2: float = 0.1

    def __post_init__(self) -> None:
        check_speed_law(self.c1, self.c2)

    def sd(self, x):
        """Kernel standard deviation conditioned at x (kinked at x = 0)."""
        return speed_law(self.c1, self.c2, np.abs(x))

    def factors(self, mu):
        """Per-source factors ``(k, norm)`` of the kernel from mu, whose pdf
        at z is ``norm * exp(-(k * (z - mu))**2)``: ``k = sqrt(0.5) / sd``
        and ``norm = 1 / (sd * sqrt(2 pi))``, with sd conditioned at mu."""
        sd = self.sd(mu)
        return _SQRT_HALF / sd, 1.0 / (sd * _SQRT_2PI)


@dataclass(frozen=True)
class Grid:
    """A log-graded grid for the transition ``kernel``, built and checked
    once by ``_graded_grid``: nodes ``z``, finite and strictly increasing,
    uniform on each side of the origin in ``u = sign(z) * log1p(|z| / c2)``
    with the kernel's c2; finite weights ``w``, the trapezoid rule in u
    times the Jacobian ``c2 + |z|``, so ``w @ values`` is a pdf's mass;
    ``du``, the largest node spacing in u; the kernel's factors ``k`` and
    ``norm`` at each node; and ``plan``, one ``(lo, hi, runs)`` per block of
    ``core.row_blocks``: its rows lo:hi and the ``(s, e, live)`` runs of
    columns s:e, each live or dead for it (see ``_REACH_SDS``). All are
    read-only and shared by every pdf on the grid; ``propagate`` steps each
    by them, through the ``kernel`` they are for."""

    z: np.ndarray
    u: np.ndarray
    w: np.ndarray
    k: np.ndarray
    norm: np.ndarray
    plan: tuple
    kernel: KernelParams
    du: float


@dataclass(frozen=True)
class GridPdf:
    """Pdf samples ``values``, one per node of ``grid``, at time step t.
    The grid owns the nodes and weights, and the pdf only its values: they
    must be finite and >= 0, with mass ``grid.w @ values`` at most 1. The
    fields are checked once, so none can be reassigned."""

    grid: Grid
    values: np.ndarray
    t: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.z.shape:
            raise ValueError("pdf values must have one entry per grid node")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError(f"t = {self.t}: pdf values must be finite and >= 0")
        mass = float(self.grid.w @ values)
        if mass > 1.0 + 1e-9:
            raise ValueError(f"t = {self.t}: pdf mass {mass} exceeds 1 "
                             f"(unnormalized input?)")

    @property
    def z(self) -> np.ndarray:
        """The grid's nodes, read-only."""
        return self.grid.z


class GridStats(NamedTuple):
    mass: float
    mean: float
    mass_near: float


# The cache stays because it measures: without it, the repeated t = 3 chain
# (perfbench's density-chain, 5 s runs, numpy 2.4.6, 2 vCPUs) peaked at
# 47.0-47.3 MB RSS, not 43.5-43.8 MB, in 3 of 3 pairs of runs.
@functools.lru_cache(maxsize=8)
@np.errstate(over="ignore", divide="ignore")
def _graded_grid(z_min: float, z_max: float, n_points: int,
                 kernel: KernelParams) -> Grid:
    """The grid for ``kernel`` of n_points nodes uniform in
    u = sign(x) * log(1 + |x| / c2) on [z_min, z_max] (see ``Grid``).

    A span across the origin is split there, each side uniform in u with
    the points shared in proportion to its length, so the origin is a node.
    Each grid is built and checked once per kernel. ParamError unless
    n_points >= 3, z_min < z_max are finite, and each end's u, node and
    Jacobian are finite. GridSpanError when all nodes are closer in u than
    the smallest normal double, and, naming the point count, when the span
    does not hold n_points distinct nodes or a weight overflows.
    """
    require(require_int("n_points", n_points) >= 3, "n_points",
            "must be >= 3", n_points)
    require(np.isfinite(z_min), "z_min", "must be finite", z_min)
    require(z_min < z_max < np.inf, "z_max",
            f"must be finite and greater than z_min = {z_min}", z_max)
    c2 = kernel.c2
    u_min, u_max = (float(np.sign(x) * np.log1p(abs(x) / c2)) for x in (z_min, z_max))
    # the build ignores overflow: an end out of range reads +inf here
    bound = min(c2 * _FLOAT_MAX, _FLOAT_MAX - c2)
    for key, x, u_end in (("z_min", z_min, u_min), ("z_max", z_max, u_max)):
        require(c2 + c2 * np.expm1(abs(u_end)) < np.inf, key,
                f"must be within about +/-{bound:.6g}, past which "
                f"log1p(|{key}| / c2) or the node's weight overflows "
                f"at c2 = {c2:g}", x)
    if u_min < 0.0 < u_max:
        k = min(max(round((n_points - 1) * -u_min / (u_max - u_min)), 1), n_points - 2)
        u = np.concatenate([np.linspace(u_min, 0.0, k + 1),
                            np.linspace(0.0, u_max, n_points - k)[1:]])
    else:
        u = np.linspace(u_min, u_max, n_points)
    z = np.sign(u) * c2 * np.expm1(np.abs(u))
    du = np.diff(u)
    w = np.zeros(n_points)
    w[:-1] += du / 2
    w[1:] += du / 2
    w *= c2 + np.abs(z)
    if not np.all(z[1:] > z[:-1]):
        raise GridSpanError(
            f"grid [{z_min}, {z_max}]: {n_points} points are too many: the "
            f"span does not hold {n_points} distinct graded nodes")
    # a pdf of mass <= 1 has a u-integrand values * (c2 + |z|) of up to
    # about 2 / du, which overflows below the smallest normal double
    du_max = float(du.max())
    if du_max < sys.float_info.min:
        raise GridSpanError(
            f"grid [{z_min}, {z_max}] at c2 = {c2:g}: its nodes are at most "
            f"{du_max:.3g} apart in u = sign(x) log(1 + |x| / c2), closer "
            f"than the smallest normal double")
    if not np.all(np.isfinite(w)):
        raise GridSpanError(
            f"grid [{z_min}, {z_max}]: {n_points} points are too few: their "
            f"quadrature weights overflow")
    # an sd of 0, only on grids initial_pdf refuses, gives k = norm = inf
    reach = _REACH_SDS * kernel.sd(z)
    blocks = row_blocks(n_points, z.itemsize)
    plan = []
    for lo in blocks:
        hi = min(lo + blocks.step, n_points)
        dead = (z + reach < z[lo]) | (z - reach > z[hi - 1])
        cuts = [0, *(np.flatnonzero(dead[1:] != dead[:-1]) + 1).tolist(), n_points]
        plan.append((lo, hi, tuple((s, e, not dead[s]) for s, e in zip(cuts, cuts[1:]))))
    arrays = (z, u, w, *kernel.factors(z))
    for a in arrays:
        a.flags.writeable = False
    return Grid(*arrays, tuple(plan), kernel, du_max)


def initial_pdf(x0: float, params: KernelParams,
                z_min: float = DEFAULT_Z_MIN, z_max: float = DEFAULT_Z_MAX,
                n_points: int = DEFAULT_N_POINTS) -> GridPdf:
    """Pdf after the first step: the kernel from x0, the normal pdf with
    mean x0 and sd ``params.sd(x0)`` (see ``KernelParams.factors``), sampled
    on the log-graded grid of n_points nodes spanning [z_min, z_max].

    Raises GridSpanError, naming the point count, when nodes are more than
    ``_MAX_DU`` kernel widths apart in u, on which the quadrature can gain
    mass. Raises it too, naming the span that would be needed, when the
    grid holds less than 1 - 1e-3 of the mass, and naming the sd when no
    finite span holds x0 +/- 8 sd. ParamError unless x0 is finite and the
    grid is valid (see ``_graded_grid``).
    """
    require(np.isfinite(x0), "x0", "must be finite", x0)
    grid = _graded_grid(z_min, z_max, n_points, params)
    width = params.c1 / (1.0 + params.c1)
    if grid.du > _MAX_DU * width:
        raise GridSpanError(
            f"grid [{z_min}, {z_max}]: {n_points} points are too few: its "
            f"nodes are {grid.du:.3g} apart in u = sign(x) log(1 + |x| / c2), "
            f"more than {_MAX_DU:g} of the kernel's width in u, "
            f"c1 / (1 + c1) = {width:.3g}")
    # an overflow goes to its limit, a norm of 0 or exp(-inf) = 0, and an sd
    # of inf spreads the pdf to 0; only a kernel too narrow for a finite norm
    # makes inf * 0, a NaN that GridPdf's check refuses
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(params.sd(x0))
        k, norm = params.factors(x0)
        values = (norm * np.exp(-np.square(k * (grid.z - x0)))
                  if sd < math.inf else np.zeros(n_points))
    f = GridPdf(grid, values, t=1)
    mass = float(grid.w @ f.values)
    # Once the nodes resolve the kernel, only a span too narrow loses this
    # much: of 60000 random grids (c1 0.01-5, c2 0.005-3, |x0| <= 50, spans
    # 0.1-2000, 3-3000 points), none whose span held x0 +/- 8 sd did.
    if mass < 1.0 - 1e-3:
        lo, hi = x0 - 8 * sd, x0 + 8 * sd
        need = (f"span at least [{lo:.6g}, {hi:.6g}] is required"
                if math.isfinite(lo) and math.isfinite(hi) else
                f"no finite grid spans x0 +/- 8 sd, with sd = {sd:.6g}")
        raise GridSpanError(
            f"grid [{z_min}, {z_max}] of {n_points} points holds only mass "
            f"{mass:.6f} of the first-step pdf; {need}")
    return f


def _kernel_rows(grid, wf, out, buf, share) -> None:
    """Rows lo:hi of ``propagate``'s step, for each ``Grid.plan`` entry
    ``(lo, hi, runs)`` in share, into out's rows, through the one buffer."""
    z, k = grid.z, grid.k
    for lo, hi, runs in share:
        b = buf[:hi - lo]
        # a row copy less the column is cheaper than broadcasting
        # z_i - z_j; z_j - z_i is its exact negation, and squaring after the
        # multiply by k_j removes the sign
        np.copyto(b, z)
        np.subtract(b, z[lo:hi, None], out=b)
        np.multiply(b, k, out=b)
        np.square(b, out=b)
        np.negative(b, out=b)
        # exp only the runs of columns whose source reaches the block
        for s, e, live in runs:
            run = b[:, s:e]
            if live:
                np.exp(run, out=run)
            else:
                run.fill(0.0)
        np.matmul(b, wf, out=out[lo:hi])


# An overflow goes to its limit: an sd of inf gives the grid a norm of 0
# and a source live in every block, and in a step an entry of inf exp = 0.
# Only inf * 0 makes a NaN, where an sd and a node distance both overflow or
# a kernel is too narrow for a finite norm, and GridPdf's check refuses it.
@np.errstate(over="ignore", invalid="ignore")
def propagate(f: GridPdf) -> GridPdf:
    """Push the pdf one step forward on the same grid, through the kernel
    the grid holds (``Grid.kernel``), the one ``initial_pdf`` checked it for.

    Output value i is the quadrature ``sum_j w_j f_j kernel(z_j -> z_i)``
    over the grid's weights, by the kernel arrays the grid holds: its
    normalisation is folded into the source vector once per call,
    ``wf_j = w_j f_j norm_j``, and its width into ``k_j``, so each kernel
    entry costs one subtract, multiply, square and ``exp(-.)``. Output rows
    go in the blocks of the grid's ``plan``, which ``core.run_workers``
    deals out; each worker makes a buffer of its own, of the first block's
    rows, builds its blocks there, in its core's L2 cache, and writes only
    their rows, so the result does not depend on how many run. A block's
    dead runs of source columns get entries of 0 without ``exp``, the +0.0
    ``exp`` would give (see ``_REACH_SDS``). On a grid that resolves the
    kernel, mass can only shrink: tail mass is lost, and ``grid_stats``
    shows the deficit.
    """
    grid = f.grid
    wf = grid.w * f.values * grid.norm
    out = np.empty_like(wf)
    run_workers(lambda share: _kernel_rows(
        grid, wf, out, np.empty((grid.plan[0][1], wf.size)), share), grid.plan)
    return GridPdf(grid, out, f.t + 1)


def pdf_at_time(x0: float, t: int, params: KernelParams,
                z_min: float = DEFAULT_Z_MIN, z_max: float = DEFAULT_Z_MAX,
                n_points: int = DEFAULT_N_POINTS) -> GridPdf:
    """Location pdf after t >= 1 steps from x0 (initial pdf plus t-1
    propagations)."""
    require(require_int("t", t) >= 1, "t", "must be >= 1", t)
    f = initial_pdf(x0, params, z_min, z_max, n_points)
    for _ in range(t - 1):
        f = propagate(f)
    return f


def grid_stats(f: GridPdf, eps: float) -> GridStats:
    """Total mass and mean (first moment over mass) by the grid's weights,
    and the mass within ``|z| <= eps`` by the weights' own rule: the
    integral in u of the linear interpolant of ``values * dz/du`` from
    u(-eps) to u(eps), both ends clipped to the grid, so partial cells at
    the ends count. It therefore never exceeds the mass (up to rounding)
    and never falls as eps grows. The shortfall of mass below 1 is the
    truncated tail the grid has lost. ParamError unless eps >= 0."""
    require(eps >= 0, "eps", "must be >= 0", eps)
    grid = f.grid
    c2 = grid.kernel.c2
    mass = float(grid.w @ f.values)
    if mass <= 0.0:
        raise ValueError(f"t = {f.t}: pdf has zero mass")
    mean = float(grid.w @ (grid.z * f.values)) / mass
    u = grid.u
    u_eps = math.log1p(eps / c2)
    g = f.values * (c2 + np.abs(grid.z))
    lo, hi = max(-u_eps, u[0]), min(u_eps, u[-1])
    near = 0.0
    if lo < hi:
        un = np.concatenate(([lo], u[(lo < u) & (u < hi)], [hi]))
        near = float(np.trapezoid(np.interp(un, u, g), un))
    return GridStats(mass=mass, mean=mean, mass_near=near)

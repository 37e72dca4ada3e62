"""One-dimensional location density of a single speed-modulated walker.

In 1D with the darkest spot at the origin, a walker's next location is
normal around its current one with standard deviation ``c1 * (c2 + |x|)``.
The location pdf after t steps has no closed form for t >= 2, so it is
pushed forward numerically: starting from the one-step Gaussian, each
application of ``propagate`` convolves the current grid pdf with the
location-dependent kernel by trapezoidal quadrature. One step costs O(n^2)
kernel evaluations on an n-point grid but only O(n) memory: the kernel
matrix is never stored whole, only one cache-sized block of its rows at a
time.

The kernel width is ``c1 * c2`` at the darkest spot and grows without bound
away from it, so a uniform grid is either too coarse at the origin or too
narrow in the tails. The grid is therefore log-graded: its nodes are uniform
in ``u = sign(x) * log(1 + |x| / c2)``, so the spacing grows in proportion
to ``c2 + |x|`` as the kernel width does, and integrals are taken by the
trapezoid rule in u with the Jacobian ``dx/du = c2 + |x|``. The origin,
where the kernel width has its kink, is always a node when the span holds
it; the rule's only error there makes mass shrink, never grow.

Mass that diffuses past the grid edges is simply lost and shows up as a
total-mass deficit; it is reported by ``grid_stats`` and never renormalized
away, since hiding it would mask an undersized grid. ``mc_sample`` simulates
the same chain directly and serves as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import check_speed_law, require

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_SQRT_HALF = np.sqrt(0.5)

# Default log-graded grid for the reference scenario (x0 = 5, c1 = 1,
# c2 = 0.1): spacing 0.0003 at the origin and 0.016 at x = 5, and a span so
# wide that the t = 3 pdf keeps all but 1e-7 of its mass. On this symmetric
# span, 2n - 1 points nest the n-point grid for odd n.
DEFAULT_Z_MIN = -1000.0
DEFAULT_Z_MAX = 1000.0
DEFAULT_N_POINTS = 6001

# Bytes of kernel entries that propagate builds at once: a row block this
# size (21 rows at 6001 points) stays in a core's L2 cache through its
# elementwise passes and the product. On a 2-vCPU Xeon with 2 MiB of L2 per
# core, 2 MiB blocks measured about 8% slower per step.
_BLOCK_BYTES = 2 ** 20


class GridSpanError(ValueError):
    """The grid is too narrow or too coarse to hold the pdf (mass deficit
    above 1e-3)."""


@dataclass(frozen=True)
class KernelParams:
    """Constants of the 1D transition kernel N(x, (c1*(c2+|x|))^2)."""

    c1: float = 1.0
    c2: float = 0.1

    def __post_init__(self) -> None:
        check_speed_law(self.c1, self.c2)

    def sd(self, x):
        """Kernel standard deviation conditioned at x (kinked at x = 0)."""
        return self.c1 * (self.c2 + np.abs(x))

    def factors(self, mu):
        """Per-source factors ``(k, norm)`` of the kernel from mu, whose pdf
        at z is ``norm * exp(-(k * (z - mu))**2)``: ``k = sqrt(0.5) / sd``
        and ``norm = 1 / (sd * sqrt(2 pi))``, with sd conditioned at mu."""
        sd = self.sd(mu)
        return _SQRT_HALF / sd, 1.0 / (sd * _SQRT_2PI)


@dataclass
class GridPdf:
    """Pdf samples ``values`` at increasing nodes ``z`` at time step t;
    ``w`` holds the quadrature weights, so ``w @ values`` is the mass."""

    z: np.ndarray
    w: np.ndarray
    values: np.ndarray
    t: int

    def __post_init__(self) -> None:
        self.z = np.asarray(self.z, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.z.ndim != 1 or self.z.size < 3:
            raise ValueError(f"need at least 3 grid points, got {self.z.size}")
        if not np.all(np.isfinite(self.z)) or np.any(np.diff(self.z) <= 0):
            raise ValueError("grid nodes must be finite and strictly increasing")
        if self.w.shape != self.z.shape or self.values.shape != self.z.shape:
            raise ValueError("weights and values must have one entry per node")
        if not np.all(np.isfinite(self.w)) or np.any(self.w < 0):
            raise ValueError("quadrature weights must be finite and >= 0")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("pdf values must be finite and >= 0")
        mass = float(self.w @ self.values)
        if mass > 1.0 + 1e-9:
            raise ValueError(f"pdf mass {mass} exceeds 1 (unnormalized input?)")


class GridStats(NamedTuple):
    mass: float
    mean: float
    mass_near: float


def kernel_pdf(mu, z, params: KernelParams):
    """Transition density: normal pdf with mean mu and standard deviation
    ``c1 * (c2 + |mu|)``, evaluated at z. Broadcasts over mu and z."""
    mu = np.asarray(mu)
    k, norm = params.factors(mu)
    out = norm * np.exp(-np.square(k * (np.asarray(z) - mu)))
    if out.ndim == 0:
        return float(out)
    return out


def _graded_grid(z_min: float, z_max: float, n_points: int,
                 c2: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes uniform in u = sign(x) * log(1 + |x| / c2) on [z_min, z_max],
    and their trapezoid-in-u weights times the Jacobian c2 + |x|.

    A span across the origin is split there, each side uniform in u with
    the points shared in proportion to its length, so the origin is a node.
    """
    if n_points < 3:
        raise ValueError(f"need at least 3 grid points, got {n_points}")
    u_min, u_max = (float(np.sign(x) * np.log1p(abs(x) / c2)) for x in (z_min, z_max))
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
    return z, w * (c2 + np.abs(z))


def initial_pdf(x0: float, params: KernelParams,
                z_min: float = DEFAULT_Z_MIN, z_max: float = DEFAULT_Z_MAX,
                n_points: int = DEFAULT_N_POINTS) -> GridPdf:
    """Pdf after the first step: the kernel from x0 sampled on the
    log-graded grid of n_points nodes spanning [z_min, z_max].

    Raises GridSpanError when the grid holds less than 1 - 1e-3 of the
    mass. The message names the span that would be needed, or, when the span
    already holds x0 +/- 8 sd, the point count as the cause.
    """
    z, w = _graded_grid(z_min, z_max, n_points, params.c2)
    f = GridPdf(z, w, kernel_pdf(x0, z, params), t=1)
    mass = float(f.w @ f.values)
    if mass < 1.0 - 1e-3:
        sd = float(params.sd(x0))
        lo, hi = x0 - 8 * sd, x0 + 8 * sd
        held = (f"grid [{z_min}, {z_max}] of {n_points} points holds only "
                f"mass {mass:.6f} of the first-step pdf")
        if z_min <= lo and hi <= z_max:
            spacing = float(np.diff(z)[np.searchsorted(z, x0) - 1])
            raise GridSpanError(
                f"{held}; the span holds [{lo:.6g}, {hi:.6g}], but "
                f"{n_points} points are too few: the nodes near x0 are "
                f"{spacing:.3g} apart against a first-step sd of {sd:.3g}")
        raise GridSpanError(
            f"{held}; span at least [{lo:.6g}, {hi:.6g}] is required")
    return f


def propagate(f: GridPdf, params: KernelParams) -> GridPdf:
    """Push the pdf one step forward on the same grid.

    Output value i is the quadrature ``sum_j w_j f_j kernel(z_j -> z_i)``
    over the grid's weights. The kernel's normalisation is folded into the
    source vector once per call, ``wf_j = w_j f_j norm_j``, and its width
    into ``k_j`` (see ``KernelParams.factors``), so each kernel entry costs
    one subtract, multiply, square and ``exp(-.)``. Output rows go through
    one reused buffer of ``_BLOCK_BYTES`` in blocks fixed by the grid size,
    so for a given grid the result does not depend on how the work is
    batched. On a grid that resolves the kernel, mass can only shrink (tail
    truncation); the deficit is observable via grid_stats.
    """
    z = f.z
    n = z.size
    k, norm = params.factors(z)
    wf = f.w * f.values * norm
    rows = min(n, max(1, _BLOCK_BYTES // (n * z.itemsize)))
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
    return GridPdf(z, f.w, out, t=f.t + 1)


def pdf_at_time(x0: float, t: int, params: KernelParams,
                z_min: float = DEFAULT_Z_MIN, z_max: float = DEFAULT_Z_MAX,
                n_points: int = DEFAULT_N_POINTS) -> GridPdf:
    """Location pdf after t >= 1 steps from x0 (initial pdf plus t-1
    propagations)."""
    require(t >= 1, "t", "must be >= 1", t)
    f = initial_pdf(x0, params, z_min, z_max, n_points)
    for _ in range(t - 1):
        f = propagate(f, params)
    return f


def mc_sample(x0: float, t: int, n_paths: int, params: KernelParams,
              stream: np.random.Generator) -> np.ndarray:
    """Final positions of n_paths independent walkers after t steps of the
    exact chain; the grid-free cross-check for the propagated pdf."""
    require(n_paths >= 1, "n_paths", "must be >= 1", n_paths)
    require(t >= 0, "t", "must be >= 0", t)
    x = np.full(n_paths, float(x0))
    for _ in range(t):
        x = x + params.sd(x) * stream.standard_normal(n_paths)
    return x


def grid_stats(f: GridPdf, eps: float) -> GridStats:
    """Total mass and mean (first moment over mass) by the grid's weights,
    and the mass within ``|z| <= eps``: the integral of the linear
    interpolant of the pdf from -eps to eps, both ends clipped to the grid,
    so partial cells at the ends count. The shortfall of mass below 1 is the
    truncated tail the grid has lost."""
    z = f.z
    mass = float(f.w @ f.values)
    if mass <= 0.0:
        raise ValueError("pdf has zero mass")
    mean = float(f.w @ (z * f.values)) / mass
    lo, hi = max(-eps, z[0]), min(eps, z[-1])
    near = 0.0
    if lo < hi:
        zn = np.concatenate(([lo], z[(lo < z) & (z < hi)], [hi]))
        near = float(np.trapezoid(np.interp(zn, z, f.values), zn))
    return GridStats(mass=mass, mean=mean, mass_near=near)

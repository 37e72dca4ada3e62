"""Synchronous time-stepped swarm simulation with reproducible randomness.

Each step, all nodes read the same time-t snapshot, take four standard
normals each (two for the step length, two for the heading noise), and move
simultaneously. The normals of node i at step t are a pure function of
(master seed, i, t): they are the Philox4x64 block (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11) with key (master seed, 0) at
counter (i, t, 0, 0). A walk reads them a block of consecutive steps at a
time from one generator, which jumps from the end of step t's row to
counter (0, t + 1, 0, 0), so a block row equals ``step_normals`` of its
step bit for bit. Blocks hold at most 64 KiB of normals, so they span
many steps of a small swarm and one step of a large one. The factors
that depend on the draws alone (the step length factor, the heading noise
and, with the social factor off, the heading) are computed once per block;
only the position-dependent part of a step runs per step. A state is
therefore just (t, positions, seed): it owns no generator, advancing it
mutates nothing, and any copy resumes bit for bit, whatever the
scheduling. Initial placement uses a separate stream (``init_swarm``).

Every step goes through ``_step``, which moves the positions and reports
one that is not finite: ``move`` and ``advance_swarm`` take one step, and
``run`` and ``first_passage`` step a plain array (numpy's overflow warnings
suppressed once per walk). A ``SwarmState`` is built only for a record.
``first_passage`` takes the distances ``|p - rho|`` once per step; its
passage test reads them, and the next step's speed law
(``core.distance_speed``) overwrites them in place.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (BLOCK_BYTES, NeighborGraph, SwarmParams, build_neighborhood,
                   check_finite, distance_speed, env_speed, hammer, require,
                   require_int)

# Seeds and steps are Philox words (key and counter), unsigned 64-bit.
SEED_LIMIT = 2 ** 64

# Radius around the darkest spot within which a node counts as arrived.
DEFAULT_EPS = 0.15

# Most normals a walk draws at once: 64 KiB of 32 bytes per node-step is
# 2048 // N steps, 20 at N = 100, where a block saves the generator set-up
# and numpy calls of 19 steps; two at N = 683-1024, and one from N = 1025
# on, where more steps would only add memory.
_DRAW_BYTES = 2 ** 16


def check_seed(seed) -> int:
    """The seed as an int; ValueError unless it is in [0, 2**64)."""
    seed = require_int("seed", seed)
    require(0 <= seed < SEED_LIMIT, "seed", "must be in [0, 2**64)", seed)
    return seed


def check_run_args(n_steps: int = 0, snapshot_stride: int = 1,
                   eps: float = DEFAULT_EPS) -> None:
    """ParamError unless n_steps >= 0 and snapshot_stride >= 1 are integers
    and eps >= 0."""
    require(require_int("n_steps", n_steps) >= 0, "n_steps", "must be >= 0",
            n_steps)
    require(require_int("snapshot_stride", snapshot_stride) >= 1,
            "snapshot_stride", "must be >= 1", snapshot_stride)
    require(eps >= 0, "eps", "must be >= 0", eps)


@dataclass(frozen=True)
class Box:
    """Axis-aligned placement region; on each axis the max must exceed the
    min by a finite width."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        for axis, lo, hi in (("x", self.min_x, self.max_x),
                             ("y", self.min_y, self.max_y)):
            require(0 < hi - lo < np.inf, f"max_{axis}",
                    f"must exceed the minimum {lo} by a finite width", hi,
                    "region ")


@dataclass
class SwarmState:
    """One simulation frame: step index, node positions (complex), and the
    master seed that keys every draw.

    The draws of a step depend only on (seed, t), so a state is complete on
    its own: ``advance_swarm`` returns a new state and leaves this one as it
    was, and a copy resumes bit for bit.
    """

    t: int
    positions: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        self.seed = check_seed(self.seed)


@dataclass(frozen=True)
class Metrics:
    t: int
    mean_dist_to_rho: float
    frac_within_eps: float
    mean_pairwise_dist: float
    cluster_count: int


def init_swarm(params: SwarmParams, master_seed: int, region: Box) -> SwarmState:
    """Place ``n_nodes`` i.i.d. uniform over ``region``, drawn from a stream
    of the seed used only for the initial placement."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=check_seed(master_seed), spawn_key=(0,)))
    u = rng.uniform(size=(params.n_nodes, 2))
    x = region.min_x + u[:, 0] * (region.max_x - region.min_x)
    y = region.min_y + u[:, 1] * (region.max_y - region.min_y)
    return SwarmState(t=0, positions=x + 1j * y, seed=master_seed)


def step_normals(master_seed: int, t: int, n: int) -> np.ndarray:
    """The (n, 4) standard normals that nodes 0..n-1 draw at step t.

    Row i comes from the four 64-bit words of the Philox4x64 block with key
    (master_seed, 0) and counter (i, t, 0, 0), so it depends on neither n nor
    the order of evaluation; the step is the counter's second word. Box-Muller
    maps each pair of words (a, b) to
    ``sqrt(-2 log(1 - u_a)) * (cos, sin)(2 pi u_b)`` with the 53-bit uniforms
    ``u = (word >> 11) * 2**-53`` in [0, 1), so every value is finite. A walk
    reads the same rows a block of steps at a time (``_block_normals``).
    ParamError unless t is an integer in [0, 2**64) and n an integer >= 0.
    """
    t = require_int("t", t)
    require(0 <= t < SEED_LIMIT, "t", "must be in [0, 2**64)", t)
    n = require_int("n", n)
    require(n >= 0, "n", "must be >= 0", n)
    return _block_normals(master_seed, t, n, 1)[0]


def _block_normals(master_seed: int, t: int, n: int, k: int) -> np.ndarray:
    """The (k, n, 4) normals of steps t..t+k-1: row j is
    ``step_normals(master_seed, t + j, n)``, read from one generator."""
    # uint64 arrays: numpy converts a key or counter given as a list of
    # Python ints through float64, which rounds words above 2**53
    key = np.array([check_seed(master_seed), 0], dtype=np.uint64)
    counter = np.array([0, t, 0, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key, counter=counter)
    rows = []
    for _ in range(k):
        rows.append(bitgen.random_raw(4 * n))
        # the n blocks read took the counter to (n, t, 0, 0); wrapping the
        # first word carries into the second: (0, t + 1, 0, 0)
        bitgen.advance(2 ** 64 - n)
    # one step's words, the usual case at large n, need no copy; they are
    # dropped once their uniforms are made, which takes a fifth off the
    # peak memory of a step at large n
    raw = rows[0] if k == 1 else np.concatenate(rows)
    del rows
    raw >>= 11
    u = raw.reshape(k, n, 2, 2) * 2.0 ** -53
    del raw
    g = np.sqrt(-2.0 * np.log1p(-u[..., 0])) * np.exp(2j * np.pi * u[..., 1])
    return g.view(np.float64)


def _heading(arg: np.ndarray) -> np.ndarray:
    """``exp(1j * angle(arg))``, with the angle -pi folded onto pi."""
    v = np.arctan2(arg.imag, arg.real)  # np.angle without its wrapper
    v = np.where(v == -np.pi, np.pi, v)
    return np.exp(1j * v)


def _draw_factors(g: np.ndarray, social: bool):
    """The factors of a step that depend on its normals ``g[..., :4]``
    alone: the step length factor ``hypot(g0, g1)``, and the heading noise
    ``g2 + 1j * g3`` when the social factor is on, else the heading itself
    (the noise's unit vector)."""
    u_raw = np.hypot(g[..., 0], g[..., 1])
    z = g[..., 2] + 1j * g[..., 3]
    return u_raw, (z if social else _heading(z))


def _draws(master_seed: int, t: int, n: int, n_steps: int, social: bool):
    """The draw factors (see ``_draw_factors``) of n nodes at steps
    t..t+n_steps-1, one step at a time, computed a block of at most
    ``_DRAW_BYTES`` of normals at a time. It takes no state, which would
    keep the walk's first positions alive."""
    k_max = max(1, _DRAW_BYTES // (32 * n))
    end = t + n_steps
    for t0 in range(t, end, k_max):
        # the normals are dropped once their factors are made; a caller that
        # passes each step's factors on without keeping them holds no more
        # than one block at a time
        yield from zip(*_draw_factors(
            _block_normals(master_seed, t0, n, min(k_max, end - t0)), social))


def resolve_sigma_const(params: SwarmParams, positions) -> SwarmParams:
    """Fill in ``sigma_const`` when it is needed but unset: the
    environment-on speed averaged over the given placement, so both modes
    start comparably fast."""
    if params.env_enabled or params.sigma_const is not None:
        return params
    d = np.abs(np.asarray(positions, dtype=np.complex128) - params.rho)
    with np.errstate(over="ignore"):  # the metrics or first step report inf
        mean = d.mean()
    return replace(params, sigma_const=float(params.c1 * (params.c2 + mean)))


def move(positions: np.ndarray, params: SwarmParams, g: np.ndarray,
         graph: NeighborGraph | None = None) -> np.ndarray:
    """Positions after one synchronous step in which node i uses the normals
    ``g[i]``: the step length is ``sigma * hypot(g[i, 0], g[i, 1])`` and the
    heading is the angle of the social term plus the noise
    ``g[i, 2] + 1j * g[i, 3]``. Pure: reads the time-t positions only.

    The social term of node i sums ``hammer(p_j - p_i, s)`` over its
    neighbors j. ``graph`` is the neighbor graph of ``positions`` (built
    here when None). Each of its pairs (a, b) of sorted positions takes one
    hammer h of ``p[order[b]] - p[order[a]]``, adds h to a's sum and -h to
    b's; hammer is odd bit for bit, so -h is b's own term.

    Raises ValueError, naming the node, if a new position is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _step(positions, params, env_speed(positions, params),
                     _draw_factors(g, params.social_enabled), graph)


def _step(p: np.ndarray, params: SwarmParams, sigma, draw,
          graph: NeighborGraph | None = None) -> np.ndarray:
    """``move`` from p at speed ``sigma`` with the step's draw factors
    ``draw`` (see ``_draw_factors``): the one function that moves
    positions, for ``move``, ``advance_swarm``, ``run`` and
    ``first_passage``. The caller suppresses numpy's overflow and invalid
    warnings; a position that overflows raises ValueError here, naming the
    node, so a diverging walk stops at the step it diverges."""
    u_raw, heading = draw
    if params.social_enabled:
        n = p.size
        if graph is None:
            graph = build_neighborhood(p, params.r)
        a, b, order = graph.a, graph.b, graph.order
        ps = p[order]
        h = hammer(ps[b] - ps[a], params.s)
        # the sums run over sorted positions and go back to node order once
        acc_sorted = np.zeros(n, dtype=np.complex128)
        np.add.at(acc_sorted, a, h)
        np.subtract.at(acc_sorted, b, h)
        acc = np.empty_like(acc_sorted)
        acc[order] = acc_sorted
        deg = graph.degrees()
        heading = _heading(np.where(deg > 0,
                                    (params.w / np.maximum(deg, 1)) * acc
                                    + heading,
                                    heading))
    p = p + sigma * u_raw * heading
    check_finite(p)
    return p


def advance_swarm(state: SwarmState, params: SwarmParams,
                  graph: NeighborGraph | None = None) -> SwarmState:
    """One synchronous step: all nodes read the time-t snapshot, draw their
    step-t normals, and move together (``move``); returns the t+1 state.
    ``graph``, if given, is the neighbor graph of the time-t positions.

    Raises ValueError, naming the node, when a new position overflows to a
    non-finite value, so a diverging walk stops at the step it diverges."""
    p = state.positions
    p = move(p, params, step_normals(state.seed, state.t, p.size), graph)
    return SwarmState(t=state.t + 1, positions=p, seed=state.seed)


def compute_metrics(state: SwarmState, params: SwarmParams, eps: float,
                    graph: NeighborGraph | None = None) -> Metrics:
    """Convergence and cohesion summary of one frame.

    Clusters are the connected components of the sensing-radius graph:
    ``graph`` if given, which must be the neighbor graph of
    ``state.positions`` under ``params.r``, else one built here. The
    pairwise mean is over unordered pairs and is 0 for a single node: the
    sum of ``|p_i - p_j|`` over full rows, which counts each pair twice, over
    ``n (n - 1)``. Rows go in blocks of ``core.BLOCK_BYTES``, so memory is
    O(N). ValueError for positions that are not finite, named by the graph
    built first, and for distance sums that overflow; ParamError unless
    eps >= 0 and the frame has a node.
    """
    check_run_args(eps=eps)
    p = state.positions
    n = p.size
    require(n >= 1, "n_nodes", "must be >= 1", n)
    if graph is None:
        graph = build_neighborhood(p, params.r)
    rows = max(1, BLOCK_BYTES // (n * p.itemsize))
    with np.errstate(over="ignore"):
        d = np.abs(p - params.rho)
        mean_dist = float(d.mean())
        total = sum(float(np.abs(p[lo:lo + rows, None] - p).sum())
                    for lo in range(0, n, rows))
    if not np.isfinite([mean_dist, total]).all():
        raise ValueError(f"distances overflow: mean distance to rho "
                         f"{mean_dist}, sum of pairwise distances {total}")
    return Metrics(
        t=state.t,
        mean_dist_to_rho=mean_dist,
        frac_within_eps=float((d <= eps).mean()),
        mean_pairwise_dist=total / max(n * (n - 1), 1),
        cluster_count=graph.component_count(),
    )


def step_error(t: int, exc: ValueError) -> ValueError:
    """``exc`` with step t prefixed, e.g. a position that overflowed gives
    ``step 558: node 88: position (inf-infj) is not finite``."""
    return ValueError(f"step {t}: {exc}")


def run(params: SwarmParams, master_seed: int, region: Box, n_steps: int,
        snapshot_stride: int,
        eps: float = DEFAULT_EPS) -> list[tuple[SwarmState, Metrics]]:
    """Simulate ``n_steps`` steps, recording (state, metrics) at t = 0,
    every ``snapshot_stride`` steps, and the final step. Steps never modify
    a state, so each recorded one is a resumable snapshot; between records
    the walk holds its positions as a plain array.

    A recorded state's neighbor graph is built once, for its metrics, and
    handed on to the next step; any other state's is built by the step that
    reads it, if the social factor is on. So no graph is built twice.

    A ValueError from a step or its metrics names the step (see
    ``step_error``), the initial placement's metrics as step 0."""
    check_run_args(n_steps, snapshot_stride, eps)
    p = init_swarm(params, master_seed, region).positions
    params = resolve_sigma_const(params, p)
    draws = _draws(master_seed, 0, p.size, n_steps, params.social_enabled)
    records = []
    graph = None
    t = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(n_steps + 1):
                if t > 0:
                    p = _step(p, params, env_speed(p, params), next(draws),
                              graph)
                    graph = None
                if t % snapshot_stride == 0 or t == n_steps:
                    state = SwarmState(t=t, positions=p, seed=master_seed)
                    graph = build_neighborhood(p, params.r)
                    records.append((state, compute_metrics(state, params, eps,
                                                           graph)))
    except ValueError as exc:
        raise step_error(t, exc) from exc
    return records


def first_passage(params: SwarmParams, master_seed: int, region: Box,
                  eps: float, frac: float, max_steps: int) -> int | None:
    """First step at which the fraction of nodes within ``eps`` of the
    darkest spot reaches ``frac``; None if it never does within
    ``max_steps``. A ValueError from a step names the step, as in ``run``;
    a ParamError names the argument out of range.

    Each step takes the distances ``|p - rho|`` once: the passage test reads
    them, and then the next step's speed overwrites them in place."""
    check_run_args(eps=eps)
    require(0 < frac <= 1, "frac", "must be in (0, 1]", frac)
    require(require_int("max_steps", max_steps) >= 0, "max_steps",
            "must be >= 0", max_steps)
    p = init_swarm(params, master_seed, region).positions
    params = resolve_sigma_const(params, p)
    draws = _draws(master_seed, 0, p.size, max_steps, params.social_enabled)
    t = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.abs(p - params.rho)
            for t in range(1, max_steps + 1):
                p = _step(p, params, distance_speed(d, params, out=d),
                          next(draws))
                d = np.abs(p - params.rho)
                # count / n is the fraction that mean() of d <= eps gives,
                # bit for bit, without a reduction's set-up
                if np.count_nonzero(d <= eps) / d.size >= frac:
                    return t
    except ValueError as exc:
        raise step_error(t, exc) from exc
    return None

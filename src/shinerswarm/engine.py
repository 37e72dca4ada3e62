"""Synchronous time-stepped swarm simulation with reproducible randomness.

Each step, all nodes read the same time-t snapshot, draw two factors each
(the step length factor and the heading, or with the social factor on the
heading noise), and move simultaneously. The factors of node i at step t
are a pure function of (master seed, i, t), read from one Philox4x64 block
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) whose
key and counter ``step_draws`` gives. ``_draws`` is their one reader: a
walk reads them a block of consecutive steps at a time from one generator,
and ``step_draws`` is one step of it, so a block row equals ``step_draws``
of its step bit for bit. Blocks hold at most 64 KiB of Philox words, so they
span many steps of a small swarm and one step of a large one; only the
position-dependent part of a step runs per step. A state is therefore just
(t, positions, seed): it owns no generator, advancing it mutates nothing,
and any copy resumes bit for bit, whatever the scheduling. Initial
placement uses a separate stream (``init_swarm``).

Every step goes through ``_step``, which applies the speed law
(``core.speed_law``) or the constant ``sigma_const``, takes its social
heading from ``core`` and reports a position that is not finite, and every
walk of ``run`` and ``first_passage`` through ``_walk``: the one home of the
set-up, the errstate (entered once per walk, not per step at about 2 us
each, so it holds across yields), the records, whose metrics (``_metrics``)
read the walk's own frame, its distances to rho and its graph, which a
record hands on to the next step, and the step named in an error.
``advance_swarm``, the public state step, which names its step in an error
as a walk does, stays outside it: it resolves no ``sigma_const`` and
refuses one left unset.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .core import (NeighborGraph, SwarmParams, build_neighborhood,
                   check_finite, check_frame, require, require_int,
                   row_blocks, speed_law)

# Seeds and steps are Philox words (key and counter), unsigned 64-bit.
SEED_LIMIT = 2 ** 64

# Radius around the darkest spot within which a node counts as arrived.
DEFAULT_EPS = 0.15

# Most Philox words a walk draws at once: 64 KiB of 32 bytes per node-step
# is 2048 // N steps, 20 at N = 100, where a block saves the numpy calls
# that make the factors of 19 steps; two at N = 683-1024, and one from
# N = 1025 on, where more steps would only add memory.
_DRAW_BYTES = 2 ** 16


@cache
def _philox_seed() -> np.random.SeedSequence:
    """The seed of ``_draws``' generator, whose state each row overwrites:
    hashed once, at the first draw, since at import it would load
    numpy.random; only read, so threads may share it."""
    return np.random.SeedSequence(0)


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


@dataclass(frozen=True)
class SwarmState:
    """One simulation frame: step index, node positions (a frame, see
    ``core.check_frame``), and the master seed that keys every draw. The
    fields are checked once, so none can be reassigned.

    The draws of a step depend only on (seed, t), so a state is complete on
    its own: ``advance_swarm`` returns a new state and leaves this one as it
    was, and a copy resumes bit for bit.
    """

    t: int
    positions: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", check_frame(self.positions))
        object.__setattr__(self, "seed", check_seed(self.seed))


@dataclass(frozen=True)
class Metrics:
    """A record's summary of the frame at step t (``compute_metrics``)."""

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


def step_draws(master_seed: int, t: int, n: int, social: bool):
    """The draw factors ``(length, heading)`` of nodes 0..n-1 at step t, two
    (n,) arrays: node i's step is ``sigma * length[i]`` long and, with the
    social factor off, points along the unit vector ``heading[i]``; with it
    on, ``heading[i]`` is the noise added to the social term.

    Node i's factors come from the four 64-bit words w0..w3 of the
    Philox4x64-10 block with key (master_seed, 0) and counter
    (i + 1, t, 0, 0), so they depend on neither n nor the order of
    evaluation; the step is the counter's second word. With the 53-bit
    uniforms ``u = (w >> 11) * 2**-53`` in [0, 1), the length is the chi-2
    radius ``sqrt(-2 log1p(-u0))`` (Box and Muller 1958), the heading
    ``exp(2j pi u3)`` and the noise ``sqrt(-2 log1p(-u2)) * exp(2j pi u3)``,
    a standard complex normal; every value is finite. This is the first
    step of ``_draws``, which a walk reads a block of steps at a time.
    ParamError unless t is an integer in [0, 2**64) and n an integer >= 0.
    """
    t = require_int("t", t)
    require(0 <= t < SEED_LIMIT, "t", "must be in [0, 2**64)", t)
    n = require_int("n", n)
    require(n >= 0, "n", "must be >= 0", n)
    return next(_draws(master_seed, t, n, 1, social))


def _radius(w: np.ndarray) -> np.ndarray:
    """``sqrt(-2 log1p(-u))`` of the uniforms ``u = w * 2**-53`` of the
    shifted words w, in one new array; w * -2**-53 is -u bit for bit."""
    r = w * -2.0 ** -53
    np.log1p(r, out=r)
    r *= -2.0
    return np.sqrt(r, out=r)


def _draws(master_seed: int, t: int, n: int, n_steps: int, social: bool):
    """The draw factors (see ``step_draws``) of n nodes at steps
    t..t+n_steps-1, one step at a time: the one reader of the Philox words.
    Its one generator reads a block of k steps, at most ``_DRAW_BYTES`` of
    words, at a time, and sets its whole state for each step, so a row reads
    neither the generator's seed nor a word the last row left. It takes no
    state, which would keep the walk's first positions alive."""
    bitgen = np.random.Philox(_philox_seed())
    state = {"bit_generator": "Philox", "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    key = (check_seed(master_seed), 0)
    k_max = max(1, _DRAW_BYTES // (32 * n or 1))
    end = t + n_steps
    for t0 in range(t, end, k_max):
        k = min(k_max, end - t0)
        rows = []
        for step in range(t0, t0 + k):
            # numpy adds 1 to the counter before each Philox block, so node
            # i reads counter (i + 1, step, 0, 0); the buffer is empty, so
            # no word left from the last row is read first
            state["state"] = {"counter": (0, step, 0, 0), "key": key}
            bitgen.state = state
            rows.append(bitgen.random_raw(4 * n))
        # one step's words, the usual case at large n, need no copy
        w = rows[0] if k == 1 else np.concatenate(rows)
        del rows
        w >>= 11
        w = w.reshape(k, n, 4)
        length = _radius(w[..., 0])
        # exp(2j pi u3) as cos + i sin, in the heading's own memory: the
        # angle goes into the real part, sin reads it into the imaginary
        # part, and cos overwrites it. numpy's complex exp is a scalar loop;
        # cos and sin gave its bits at the AVX512, AVX2 and X86_V2 levels.
        # w * (2 pi 2**-53) is 2 pi u bit for bit: a power-of-two scale
        # commutes with rounding
        heading = np.empty((k, n), dtype=np.complex128)
        angle = heading.real
        np.multiply(w[..., 3], 2.0 * np.pi * 2.0 ** -53, out=angle)
        np.sin(angle, out=heading.imag)
        np.cos(angle, out=angle)
        if social:
            heading *= _radius(w[..., 2])
        # the words go before a step runs and the factors before the next
        # block is drawn, so a caller that passes each step's factors on
        # without keeping them holds no more than one block at a time
        del w, angle
        yield from zip(length, heading)
        del length, heading


def resolve_sigma_const(params: SwarmParams, positions) -> SwarmParams:
    """Fill in ``sigma_const`` when it is needed but unset: ``speed_law``
    at the placement's mean distance to rho, so both modes start comparably
    fast; ValueError, naming that distance, if the speed is not finite, and
    ParamError unless the positions are 1-D (``core.check_frame``), needed
    or not. The caller suppresses overflow warnings."""
    p = check_frame(positions)
    if params.env_enabled or params.sigma_const is not None:
        return params
    d = np.abs(p - params.rho)
    mean = float(d.mean())
    sigma = float(speed_law(params.c1, params.c2, mean))
    if not sigma < np.inf:
        raise ValueError(f"the speed at the placement's mean distance to "
                         f"rho, {mean}, is not finite")
    return replace(params, sigma_const=sigma)


def _step(p: np.ndarray, params: SwarmParams, d: np.ndarray, draw,
          graph: NeighborGraph | None = None) -> np.ndarray:
    """Positions after one synchronous step from p, reading time t only:
    the one function that moves positions. d = ``|p - rho|`` becomes the
    speed sigma in place: ``speed_law`` when the environmental factor is on,
    else the constant ``sigma_const``, which the caller has set. Each node
    steps as the step's factors ``draw = (length, heading)`` say
    (``step_draws``). The caller suppresses numpy's overflow and invalid
    warnings; a position that overflows raises ValueError here, naming the
    node, so a diverging walk stops at the step it diverges."""
    length, heading = draw
    if params.env_enabled:
        speed_law(params.c1, params.c2, d, out=d)
    else:
        d.fill(params.sigma_const)
    if params.social_enabled:
        if graph is None:
            graph = build_neighborhood(p, params.r)
        heading = graph.social_heading(params.s, params.w, heading)
    p = p + d * length * heading
    check_finite(p)
    return p


def advance_swarm(state: SwarmState, params: SwarmParams) -> SwarmState:
    """One synchronous step: all nodes read the time-t snapshot, draw their
    step-t draw factors, and move together (``_step``); returns the t+1
    state.

    Raises ValueError, naming the step and the node, when a new position
    overflows to a non-finite value, so a diverging walk stops at the step
    it diverges, e.g. ``step 42: node 0: position (-inf-infj) is not
    finite`` from t = 41; and, naming the step, when the environmental
    factor is off and ``sigma_const`` is unset, which a walk fills in
    (``resolve_sigma_const``) but a single step cannot."""
    p = state.positions
    draw = step_draws(state.seed, state.t, p.size, params.social_enabled)
    try:
        if not params.env_enabled and params.sigma_const is None:
            raise ValueError(
                "sigma_const must be set when the environmental factor is "
                "disabled; run sets it to engine.resolve_sigma_const(params, "
                "init_swarm(params, seed, region).positions)")
        with np.errstate(over="ignore", invalid="ignore"):
            p = _step(p, params, np.abs(p - params.rho), draw)
    except ValueError as exc:
        raise step_error(state.t + 1, exc) from exc
    return SwarmState(t=state.t + 1, positions=p, seed=state.seed)


def compute_metrics(state: SwarmState, params: SwarmParams,
                    eps: float) -> Metrics:
    """Convergence and cohesion summary of one frame.

    Clusters are the connected components of the frame's sensing-radius
    graph, built here. The pairwise mean is over unordered pairs and is 0
    for a single node: the sum of ``|p_i - p_j|`` over full rows, which
    counts each pair twice, over ``n (n - 1)``. Rows go in
    ``core.row_blocks``, one block at a time, so memory is O(N). ValueError
    for positions that are not finite, named by the graph built first, and
    for distance sums that overflow. ParamError unless eps >= 0 and the
    frame has a node.
    """
    check_run_args(eps=eps)
    p = state.positions
    require(p.size >= 1, "n_nodes", "must be >= 1", p.size)
    graph = build_neighborhood(p, params.r)
    with np.errstate(over="ignore"):
        return _metrics(state.t, p, np.abs(p - params.rho), graph, eps)


def _metrics(t: int, p: np.ndarray, d: np.ndarray, graph: NeighborGraph,
             eps: float) -> Metrics:
    """``compute_metrics`` of frame p at step t, from its distances
    d = ``|p - rho|`` and its own graph: the one home of a record's
    metrics. The caller checks eps and the node count, and suppresses
    numpy's overflow warnings."""
    n = p.size
    blocks = row_blocks(n, p.itemsize)
    mean_dist = float(d.mean())
    total = sum(float(np.abs(p[lo:lo + blocks.step, None] - p).sum())
                for lo in blocks)
    if not np.isfinite([mean_dist, total]).all():
        raise ValueError(f"distances overflow: mean distance to rho "
                         f"{mean_dist}, sum of pairwise distances {total}")
    # count / n is mean() of d <= eps bit for bit, without a reduction's set-up
    return Metrics(
        t=t,
        mean_dist_to_rho=mean_dist,
        frac_within_eps=float(np.count_nonzero(d <= eps) / d.size),
        mean_pairwise_dist=total / max(n * (n - 1), 1),
        cluster_count=graph.component_count(),
    )


def step_error(t: int, exc: ValueError) -> ValueError:
    """``exc`` with step t prefixed, e.g. a position that overflowed gives
    ``step 558: node 88: position (inf-infj) is not finite``."""
    return ValueError(f"step {t}: {exc}")


def _walk(params: SwarmParams, master_seed: int, region: Box, n_steps: int,
          stride: int = 0, eps: float = DEFAULT_EPS):
    """Place the swarm and yield ``(t, d, record)`` for t = 0..n_steps:
    d = ``|p - rho|`` after step t, which the next step turns into its
    speed in place, and record = (state, metrics) at t = 0, every ``stride``
    steps and the last step, else None (always, for stride = 0). A record's
    metrics read this d and the frame's graph, which is built once and
    handed on to the next step. Numpy's overflow and invalid warnings are
    off until the walk ends or is closed. A ValueError names its step
    (``step_error``), the set-up's 0."""
    p = init_swarm(params, master_seed, region).positions
    draws = _draws(master_seed, 0, p.size, n_steps, params.social_enabled)
    graph = None
    t = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            params = resolve_sigma_const(params, p)
            d = np.abs(p - params.rho)
            for t in range(n_steps + 1):
                if t > 0:
                    p = _step(p, params, d, next(draws), graph)
                    d = np.abs(p - params.rho)
                    graph = None
                record = None
                if stride and (t % stride == 0 or t == n_steps):
                    graph = build_neighborhood(p, params.r)
                    record = (SwarmState(t=t, positions=p, seed=master_seed),
                              _metrics(t, p, d, graph, eps))
                yield t, d, record
    except ValueError as exc:
        raise step_error(t, exc) from exc


def run(params: SwarmParams, master_seed: int, region: Box, n_steps: int,
        snapshot_stride: int,
        eps: float = DEFAULT_EPS) -> list[tuple[SwarmState, Metrics]]:
    """Simulate ``n_steps`` steps, recording (state, metrics) at t = 0,
    every ``snapshot_stride`` steps, and the final step. Steps never modify
    a state, so each recorded one is a resumable snapshot. A ValueError
    names the step (see ``_walk``)."""
    check_run_args(n_steps, snapshot_stride, eps)
    walk = _walk(params, master_seed, region, n_steps, snapshot_stride, eps)
    return [record for _, _, record in walk if record]


def first_passage(params: SwarmParams, master_seed: int, region: Box,
                  eps: float, frac: float, max_steps: int) -> int | None:
    """First step at which the fraction of nodes within ``eps`` of the
    darkest spot reaches ``frac``; None if it never does within
    ``max_steps``. A ValueError names the step, as in ``run``; a ParamError
    names the argument out of range."""
    check_run_args(eps=eps)
    require(0 < frac <= 1, "frac", "must be in (0, 1]", frac)
    require(require_int("max_steps", max_steps) >= 0, "max_steps",
            "must be >= 0", max_steps)
    with closing(_walk(params, master_seed, region, max_steps)) as walk:
        for t, d, _ in walk:
            # the fraction a record reads (``_metrics``)
            if t > 0 and np.count_nonzero(d <= eps) / d.size >= frac:
                return t
    return None

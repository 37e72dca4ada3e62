"""Synchronous time-stepped swarm simulation with reproducible randomness.

Each step, all nodes read the same time-t snapshot, take four standard
normals each (two for the step length, two for the heading noise), and move
simultaneously. The normals of node i at step t are a pure function of
(master seed, i, t): ``step_normals`` reads them from one counter-based
Philox stream (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11) keyed by the seed, where the block of node i at step t sits at
counter (i, t, 0, 0). A state is therefore just (t, positions, seed): it
owns no generator, advancing it mutates nothing, and any copy resumes bit
for bit, whatever the scheduling. Initial placement uses a separate stream
(``init_stream``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from .core import SwarmParams, build_neighborhood, env_speed, hammer, require

# Master seeds are the first Philox key word, an unsigned 64-bit integer.
SEED_LIMIT = 2 ** 64

# Radius around the darkest spot within which a node counts as arrived.
DEFAULT_EPS = 0.15


def check_seed(seed) -> int:
    """The seed as an int; ValueError unless it is in [0, 2**64)."""
    seed = operator.index(seed)
    require(0 <= seed < SEED_LIMIT, "seed", "must be in [0, 2**64)", seed)
    return seed


def check_run_args(n_steps: int = 0, snapshot_stride: int = 1,
                   eps: float = DEFAULT_EPS) -> None:
    """ParamError unless n_steps >= 0, snapshot_stride >= 1 and eps >= 0."""
    require(n_steps >= 0, "n_steps", "must be >= 0", n_steps)
    require(snapshot_stride >= 1, "snapshot_stride", "must be >= 1",
            snapshot_stride)
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


def init_stream(master_seed: int) -> np.random.Generator:
    """Stream used only for the initial placement."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=check_seed(master_seed), spawn_key=(0,)))


def init_swarm(params: SwarmParams, master_seed: int, region: Box) -> SwarmState:
    """Place ``n_nodes`` i.i.d. uniform over ``region``."""
    rng = init_stream(master_seed)
    u = rng.uniform(size=(params.n_nodes, 2))
    x = region.min_x + u[:, 0] * (region.max_x - region.min_x)
    y = region.min_y + u[:, 1] * (region.max_y - region.min_y)
    return SwarmState(t=0, positions=x + 1j * y, seed=master_seed)


def step_normals(master_seed: int, t: int, n: int) -> np.ndarray:
    """The (n, 4) standard normals that nodes 0..n-1 draw at step t.

    Row i comes from the four 64-bit words of the Philox4x64 block with key
    (master_seed, 0) and counter (i, t, 0, 0), so it depends on neither n nor
    the order of evaluation. Box-Muller maps each pair of words (a, b) to
    ``sqrt(-2 log(1 - u_a)) * (cos, sin)(2 pi u_b)`` with the 53-bit uniforms
    ``u = (word >> 11) * 2**-53`` in [0, 1), so every value is finite.
    """
    # uint64 arrays: numpy converts a key or counter given as a list of
    # Python ints through float64, which rounds words above 2**53
    key = np.array([check_seed(master_seed), 0], dtype=np.uint64)
    counter = np.array([0, t, 0, 0], dtype=np.uint64)
    raw = np.random.Philox(key=key, counter=counter).random_raw(4 * n)
    u = (raw >> 11).reshape(n, 2, 2) * 2.0 ** -53
    g = np.sqrt(-2.0 * np.log1p(-u[..., 0])) * np.exp(2j * np.pi * u[..., 1])
    return g.view(np.float64)


def default_sigma_const(positions, params: SwarmParams) -> float:
    """Constant speed for environment-off runs: the environment-on speed
    averaged over the given placement, so both modes start comparably fast."""
    d = np.abs(np.asarray(positions, dtype=np.complex128) - params.rho)
    return float(params.c1 * (params.c2 + d.mean()))


def resolve_sigma_const(params: SwarmParams, positions) -> SwarmParams:
    """Fill in ``sigma_const`` from the placement when it is needed but unset."""
    if params.env_enabled or params.sigma_const is not None:
        return params
    return replace(params, sigma_const=default_sigma_const(positions, params))


def move(positions: np.ndarray, params: SwarmParams,
         g: np.ndarray) -> np.ndarray:
    """Positions after one synchronous step in which node i uses the normals
    ``g[i]``: the step length is ``sigma * hypot(g[i, 0], g[i, 1])`` and the
    heading is the angle of the social term plus the noise
    ``g[i, 2] + 1j * g[i, 3]``. Pure: reads the time-t positions only."""
    p = positions
    n = p.size
    u_raw = np.hypot(g[:, 0], g[:, 1])
    z = g[:, 2] + 1j * g[:, 3]

    if params.social_enabled:
        graph = build_neighborhood(p, params.r)
        i_idx, j_idx = graph.directed_edges()
        hs = hammer(p[j_idx] - p[i_idx], params.s)
        acc = (np.bincount(i_idx, weights=hs.real, minlength=n)
               + 1j * np.bincount(i_idx, weights=hs.imag, minlength=n))
        deg = graph.degrees()
        arg = np.where(deg > 0,
                       (params.w / np.maximum(deg, 1)) * acc + z,
                       z)
    else:
        arg = z

    v = np.angle(arg)
    v = np.where(v == -np.pi, np.pi, v)
    return p + env_speed(p, params) * u_raw * np.exp(1j * v)


def advance_swarm(state: SwarmState, params: SwarmParams) -> SwarmState:
    """One synchronous step: all nodes read the time-t snapshot, draw their
    step-t normals, and move together; returns the t+1 state."""
    p = state.positions
    g = step_normals(state.seed, state.t, p.size)
    return SwarmState(t=state.t + 1, positions=move(p, params, g),
                      seed=state.seed)


def compute_metrics(state: SwarmState, params: SwarmParams, eps: float) -> Metrics:
    """Convergence and cohesion summary of one frame.

    Clusters are the connected components of the sensing-radius graph. The
    pairwise mean is over unordered pairs and is 0 for a single node. The
    graph, built first, rejects positions it cannot place.
    """
    p = state.positions
    graph = build_neighborhood(p, params.r)
    d = np.abs(p - params.rho)
    n = p.size
    if n >= 2:
        iu = np.triu_indices(n, k=1)
        pairwise = float(np.abs(p[iu[0]] - p[iu[1]]).mean())
    else:
        pairwise = 0.0
    return Metrics(
        t=state.t,
        mean_dist_to_rho=float(d.mean()),
        frac_within_eps=float((d <= eps).mean()),
        mean_pairwise_dist=pairwise,
        cluster_count=graph.component_count(),
    )


def _at_step(t: int, step_fn, *args):
    """``step_fn(*args)``, raising its ValueError again with step t prefixed,
    e.g. positions that diverged too far for the neighbor search give
    ``step 400: node 17: ...``."""
    try:
        return step_fn(*args)
    except ValueError as exc:
        raise ValueError(f"step {t}: {exc}") from exc


def run(params: SwarmParams, master_seed: int, region: Box, n_steps: int,
        snapshot_stride: int,
        eps: float = DEFAULT_EPS) -> list[tuple[SwarmState, Metrics]]:
    """Simulate ``n_steps`` steps, recording (state, metrics) at t = 0,
    every ``snapshot_stride`` steps, and the final step. Steps never modify
    a state, so each recorded one is a resumable snapshot.

    A ValueError from a step or its metrics names the step (see
    ``_at_step``), the initial placement's metrics as step 0."""
    check_run_args(n_steps, snapshot_stride, eps)
    state = init_swarm(params, master_seed, region)
    params = resolve_sigma_const(params, state.positions)
    records = [(state, _at_step(0, compute_metrics, state, params, eps))]
    for t in range(1, n_steps + 1):
        state = _at_step(t, advance_swarm, state, params)
        if t % snapshot_stride == 0 or t == n_steps:
            records.append((state, _at_step(t, compute_metrics, state, params,
                                            eps)))
    return records


def first_passage(params: SwarmParams, master_seed: int, region: Box,
                  eps: float, frac: float, max_steps: int) -> int | None:
    """First step at which the fraction of nodes within ``eps`` of the
    darkest spot reaches ``frac``; None if it never does within
    ``max_steps``. A ValueError from a step names the step, as in ``run``;
    a ParamError names the argument out of range."""
    check_run_args(eps=eps)
    require(0 < frac <= 1, "frac", "must be in (0, 1]", frac)
    require(max_steps >= 0, "max_steps", "must be >= 0", max_steps)
    state = init_swarm(params, master_seed, region)
    params = resolve_sigma_const(params, state.positions)
    for t in range(1, max_steps + 1):
        state = _at_step(t, advance_swarm, state, params)
        if (np.abs(state.positions - params.rho) <= eps).mean() >= frac:
            return t
    return None

"""The benchmark's four workloads: inputs made from the workload seed, one op,
and the checks an op's output must pass.

Every workload drives the program only through ``cli.main``, ``engine.run``,
``engine.first_passage``, ``density.pdf_at_time`` and ``density.grid_stats``,
looked up on the module at call time, so the span wrappers see the calls and
refactors below those entry points need no change here. No op passes a
``workers`` argument or reads ``SwarmState.streams``.

``check`` returns an error message or None. Determinism is checked within one
benchmark run (a repeated input must give the same output), never against a
stored hash, because a change of random number generator changes the bytes.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import statistics
import types

import numpy as np

from shinerswarm import cli, core, density, engine

REF_BOX = engine.Box(-0.5, -0.5, 0.5, 0.5)
REF_STEPS, REF_STRIDE = 70, 35
SWEEP = 20  # consecutive seeds per sweep, as in acceptance criteria 1 and 3


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def check_records(records, n_nodes: int, steps: list[int]) -> str | None:
    """Positions and metrics of ``engine.run`` records are finite, one
    position per node, and 1 <= cluster_count <= n_nodes."""
    if [state.t for state, _ in records] != steps:
        return f"recorded steps {[s.t for s, _ in records]} != {steps}"
    for state, m in records:
        pos = np.asarray(state.positions)
        if pos.shape != (n_nodes,) or not _finite(pos.real, pos.imag):
            return f"t={state.t}: positions not {n_nodes} finite points"
        if not _finite(m.mean_dist_to_rho, m.frac_within_eps, m.mean_pairwise_dist):
            return f"t={state.t}: non-finite metrics {m}"
        if not 1 <= m.cluster_count <= n_nodes:
            return f"t={state.t}: cluster_count {m.cluster_count} outside [1, {n_nodes}]"
        if not 0.0 <= m.frac_within_eps <= 1.0:
            return f"t={state.t}: frac_within_eps {m.frac_within_eps} outside [0, 1]"
    return None


def _corrupt_records(records):
    """The records with one NaN position, and with cluster_count 0."""
    state, m = records[-1]
    bad = np.array(state.positions, copy=True)
    bad[0] = complex(math.nan, 0.0)
    return [records[:-1] + [(dataclasses.replace(state, positions=bad), m)],
            records[:-1] + [(state, dataclasses.replace(m, cluster_count=0))]]


class Workload:
    """Interface of a workload; ``min_ops`` is the number of ops every run
    completes whatever its length."""

    name: str
    min_ops = 1

    def op(self, i: int):
        """Run the program on input ``i`` and return what ``check`` reads."""
        raise NotImplementedError

    def check(self, result) -> str | None:
        """Error message for a wrong output, or None."""
        raise NotImplementedError

    def corruptions(self, result) -> list:
        """Deliberately wrong copies of a good output, each of which
        ``check`` must reject."""
        raise NotImplementedError

    def warm_up(self):
        """An untimed op whose output also feeds the self-check."""
        return self.op(0)

    def node_steps(self, result) -> int:
        """Node-steps one op simulated; 0 where no swarm runs."""
        return 0

    def summary(self):
        """Checks over all ops of the run: (error or None, extra values)."""
        return None, {}


class RefSweep(Workload):
    """``shinerswarm simulate`` on the reference scenario, run in-process
    through ``cli.main``; an op is one seed of a 20-seed sweep."""

    name = "ref-sweep"

    def __init__(self, seed: int, scratch) -> None:
        self.seeds = [seed + k for k in range(SWEEP)]
        self.scratch = scratch
        self._runs = 0
        self._bytes: dict[int, bytes] = {}

    def op(self, i: int):
        return self._simulate(self.seeds[i % SWEEP])

    def _simulate(self, seed: int):
        out = self.scratch / f"sim{self._runs}"
        self._runs += 1
        try:
            code = cli.main(["simulate", "--seed", str(seed),
                             "--steps", str(REF_STEPS), "--stride", str(REF_STRIDE),
                             "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        return seed, code, out

    def node_steps(self, result) -> int:
        return 100 * REF_STEPS

    def check(self, result) -> str | None:
        seed, code, out = result
        if code != 0:
            return f"seed {seed}: exit code {code}"
        try:
            snap = (out / "snapshots.csv").read_bytes()
            met = (out / "metrics.csv").read_bytes()
        except OSError as exc:
            return f"seed {seed}: {exc}"
        err = self._check_csv(snap, met)
        if err:
            return f"seed {seed}: {err}"
        ref = self._bytes.setdefault(seed, snap + b"\0" + met)
        if ref != snap + b"\0" + met:
            return f"seed {seed}: re-run output differs from the first run"
        return None

    @staticmethod
    def _check_csv(snap: bytes, met: bytes) -> str | None:
        if not snap.startswith(b"step,node_id,x,y\n"):
            return "snapshots.csv header"
        if not met.startswith(b"step,mean_dist,frac_within_eps,"
                              b"mean_pairwise_dist,cluster_count\n"):
            return "metrics.csv header"
        try:
            s, m = _parse(snap), _parse(met)
        except ValueError as exc:
            return f"unparsable CSV: {exc}"
        steps = [0, REF_STRIDE, REF_STEPS]
        if not (_finite(s) and _finite(m)):
            return "non-finite value in CSV"
        if s.shape != (300, 4) or sorted(set(s[:, 0])) != steps:
            return f"snapshots.csv shape {s.shape}"
        if m.shape != (3, 5) or list(m[:, 0]) != steps:
            return f"metrics.csv shape {m.shape}"
        if not np.all((m[:, 4] >= 1) & (m[:, 4] <= 100)):
            return "cluster_count outside [1, 100]"
        return None

    def corruptions(self, result):
        seed, code, out = result
        bad = out.parent / f"{out.name}-nan"
        shutil.copytree(out, bad)
        text = (bad / "snapshots.csv").read_text().splitlines(keepends=True)
        fields = text[1].split(",")
        text[1] = ",".join(fields[:2] + ["nan", fields[3]])
        (bad / "snapshots.csv").write_text("".join(text))
        return [(seed, 4, out), (seed, 0, bad)]

    def summary(self):
        """Acceptance criterion 1 on its own sweep, seeds 0-19: median final
        mean_dist <= 0.10 and median final frac_within(0.15) >= 0.90. The
        gates are a property of that sweep, not of every 20-seed window: the
        window from seed 101 misses the first (0.1011) by sampling alone."""
        finals = []
        for seed in range(SWEEP):
            result = self._simulate(seed)
            err = self.check(result)
            if err:
                return f"criterion 1 sweep: {err}", {}
            finals.append(_parse((result[2] / "metrics.csv").read_bytes())[-1])
        med_dist = statistics.median(row[1] for row in finals)
        med_frac = statistics.median(row[2] for row in finals)
        extra = {"median_final_mean_dist": med_dist, "median_final_frac": med_frac}
        if not (med_dist <= 0.10 and med_frac >= 0.90):
            return f"criterion 1 gates missed: {extra}", extra
        return None, extra


def _parse(data: bytes) -> np.ndarray:
    lines = data.decode().splitlines()[1:]
    return np.array([line.split(",") for line in lines], dtype=float)


class Scale5k(Workload):
    """``engine.run`` at N = 5000 and the reference node density (the box
    half-width grows as sqrt(N)); an op is one seed."""

    name = "scale-5k"
    n_nodes, steps = 5000, 30

    def __init__(self, seed: int, scratch) -> None:
        half = 0.5 * math.sqrt(self.n_nodes / 100)
        self.box = engine.Box(-half, -half, half, half)
        self.params = core.SwarmParams(n_nodes=self.n_nodes)
        self.seed = seed

    def op(self, i: int):
        return self.steps, engine.run(self.params, self.seed + i, self.box,
                                      self.steps, self.steps)

    def warm_up(self):
        """One step at full size: fills lazy set-up without a full op."""
        return 1, engine.run(self.params, self.seed, self.box, 1, 1)

    def node_steps(self, result) -> int:
        return self.n_nodes * result[0]

    def check(self, result) -> str | None:
        steps, records = result
        return check_records(records, self.n_nodes, [0, steps])

    def corruptions(self, result):
        steps, records = result
        return [(steps, bad) for bad in _corrupt_records(records)]


class EnvPassage(Workload):
    """``engine.first_passage`` with the social factor off (criterion 3's
    environment-only arm); an op is one seed of a 20-seed sweep."""

    name = "env-passage"
    min_ops = SWEEP
    eps, frac, max_steps = 0.15, 0.9, 400

    def __init__(self, seed: int, scratch) -> None:
        self.seeds = [seed + k for k in range(SWEEP)]
        self.params = core.SwarmParams(social_enabled=False)
        self._first: dict[int, object] = {}

    def op(self, i: int):
        seed = self.seeds[i % SWEEP]
        return seed, engine.first_passage(self.params, seed, REF_BOX, self.eps,
                                          self.frac, self.max_steps)

    def node_steps(self, result) -> int:
        return 100 * (result[1] or self.max_steps)

    def check(self, result) -> str | None:
        seed, t = result
        if t is not None and not (isinstance(t, int) and 1 <= t <= self.max_steps):
            return f"seed {seed}: first passage {t!r} outside [1, {self.max_steps}]"
        if self._first.setdefault(seed, t) != t:
            return f"seed {seed}: re-run gave {t}, first run {self._first[seed]}"
        return None

    def corruptions(self, result):
        seed, t = result
        other = self.max_steps - 1 if t is None else None
        return [(seed, 0), (seed, self.max_steps + 1), (seed, other)]

    def summary(self):
        """``engine.run`` over the same steps for the first seed: finite
        records, and a final fraction below ``frac`` when first_passage found
        none."""
        seed = self.seeds[0]
        records = engine.run(self.params, seed, REF_BOX, self.max_steps,
                             self.max_steps, eps=self.eps)
        err = check_records(records, 100, [0, self.max_steps])
        if err is None and self._first.get(seed) is None \
                and records[-1][1].frac_within_eps >= self.frac:
            err = f"seed {seed}: run reaches frac {self.frac} but first_passage found none"
        return err, {"passages": sum(t is not None for t in self._first.values())}


class DensityChain(Workload):
    """The reference density chain (criterion 4): x0 = 5, c1 = 1, c2 = 0.1,
    t = 3 on the default grid, then ``grid_stats`` with eps = 1. The chain is
    deterministic quadrature with fixed reference inputs, so the seed does not
    alter them; an op is one chain."""

    name = "density-chain"
    x0, t, eps = 5.0, 3, 1.0

    def __init__(self, seed: int, scratch) -> None:
        self.params = density.KernelParams(1.0, 0.1)
        self._first: bytes | None = None
        self.stats_t3 = None

    def op(self, i: int):
        f = density.pdf_at_time(self.x0, self.t, self.params)
        return f, density.grid_stats(f, eps=self.eps)

    def check(self, result) -> str | None:
        f, stats = result
        values, z = np.asarray(f.values, dtype=float), np.asarray(f.z, dtype=float)
        if not _finite(values, z, stats.mass, stats.mean, stats.mass_near):
            return "non-finite pdf or stats"
        if np.any(values < 0):
            return "negative pdf value"
        if stats.mass > 1.0 + 1e-9:
            return f"mass {stats.mass} > 1"
        if abs(float(np.trapezoid(values, z)) - stats.mass) > 1e-4:
            return f"grid_stats mass {stats.mass} disagrees with the pdf"
        if self._first is None:
            self._first = values.tobytes()
        elif self._first != values.tobytes():
            return "re-run pdf differs from the first run"
        self.stats_t3 = stats
        return None

    def corruptions(self, result):
        f, stats = result
        values = np.asarray(f.values, dtype=float)
        nan = values.copy()
        nan[values.size // 2] = math.nan
        heavy = types.SimpleNamespace(mass=1.02 * stats.mass, mean=stats.mean,
                                      mass_near=stats.mass_near)
        return [(types.SimpleNamespace(values=nan, z=f.z), stats),
                (types.SimpleNamespace(values=1.02 * values, z=f.z), heavy)]

    def summary(self):
        """mass_near grows over t = 1, 2, 3 (mass piles up at the darkest
        spot)."""
        if self.stats_t3 is None:
            return "no chain passed", {}
        near = [density.grid_stats(density.pdf_at_time(self.x0, t, self.params),
                                   eps=self.eps).mass_near for t in (1, 2)]
        near.append(self.stats_t3.mass_near)
        extra = {"mass_t3": self.stats_t3.mass, "mass_near": near}
        if not near[0] < near[1] < near[2]:
            return f"mass_near not increasing over t = 1..3: {near}", extra
        return None, extra


WORKLOADS = {w.name: w for w in (RefSweep, Scale5k, EnvPassage, DensityChain)}

"""The byte set: the outputs a change leaves alone unless it names them.

    PYTHONPATH=src python tests/byte_set.py OUT

writes, under OUT, which must not exist yet:

- ``files/``: the 9-digit files of the commands, run through ``cli.main``
  with paths relative to OUT. ``simulate``, then ``metrics --eps 0.15`` of
  its snapshots, in every mode at N = 100, 300 and 2000 (set by a
  ``--config`` file), seed 3; ``density --x0 5 --t 3`` on the default grid,
  on 6001 points and on a grid near the float range; and ``first_passage``
  (eps 0.15, frac 0.5, 400 steps) for seeds 0-4 in every mode. Each command
  writes ``NAME.txt``: its command line, its exit code, its stdout and, if
  any, its stderr.
- ``full/``: SHA-256 hashes of full-precision values, which the 9-digit
  files can round away: each ``run`` record's ``positions.tobytes()`` and
  ``repr(Metrics)`` for the N = 100 and 300 walks, and the values and
  ``grid_stats`` of t = 1..4 density chains with ``core._cpus`` patched to
  1, 2, 3 and 5. A ValueError is hashed as its type and message.

Two byte sets of one host and numpy build compare with ``diff -r``. The
set imports only names that both a change and its parent hold, so one
copy of this script can run on the ``src/`` of each.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
from pathlib import Path

from shinerswarm import cli, core
from shinerswarm.config import MODES, parse_config
from shinerswarm.density import KernelParams, grid_stats, initial_pdf, propagate
from shinerswarm.engine import first_passage, run

# (N, steps, stride) of the simulate walks; full/ hashes the first two
WALKS = ((100, 30, 10), (300, 30, 10), (2000, 6, 3))
SEED = 3

DENSITY = {
    "default": [],
    "6001": ["--grid-points", "6001"],
    # the kernel's norm, its reach and some entries overflow to their limits
    "near-float-range": ["--c1", "100", "--grid-min", "-1e306",
                         "--grid-max", "1e306", "--grid-points", "6000"],
}

# (x0, kernel, z_min, z_max, n_points) of the propagate chains
CHAINS = {
    "reference": (5.0, KernelParams(c1=1.0, c2=0.1), -1000.0, 1000.0, 2001),
    # narrow enough that blocks lose sources at both ends and at the origin
    "c1-0.02": (5.0, KernelParams(c1=0.02, c2=0.1), -100.0, 100.0, 4001),
    "near-float-range": (5.0, KernelParams(c1=100.0, c2=0.1), -1e306, 1e306,
                         6000),
    # an sd and a node distance both overflow in the second step, which fails
    "c2-1e300": (5.0, KernelParams(c1=2.0, c2=1e300), -1e308, 1e308, 400),
}
CPUS = (1, 2, 3, 5)


def sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes)
                          else data.encode()).hexdigest()


def error(exc: Exception) -> str:
    return f"error {sha(f'{type(exc).__name__}: {exc}')}"


def write(path: str, lines: list[str]) -> None:
    Path(path).write_text("".join(f"{line}\n" for line in lines),
                          encoding="utf-8")


def command(name: str, argv: list[str]) -> None:
    """Run ``cli.main(argv)`` and write files/NAME.txt: the command, its
    exit code, its stdout and any stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    text = f"$ shinerswarm {shlex.join(argv)}\nexit {code}\n{out.getvalue()}"
    if err.getvalue():
        text += f"stderr:\n{err.getvalue()}"
    Path(f"files/{name}.txt").write_text(text, encoding="utf-8")


def config(n: int, **flags):
    return parse_config(f"n_nodes = {n}\n", **flags)


def full_walks() -> None:
    for n, steps, stride in WALKS[:2]:
        for mode in MODES:
            cfg = config(n, seed=SEED, steps=steps, stride=stride, mode=mode)
            try:
                lines = [f"t {state.t}: positions {sha(state.positions.tobytes())}"
                         f" metrics {sha(repr(metrics))}"
                         for state, metrics in run(
                             cfg.swarm_params(), cfg.seed, cfg.region(),
                             cfg.steps, cfg.stride, eps=cfg.eps)]
            except ValueError as exc:
                lines = [error(exc)]
            write(f"full/run-{mode}-n{n}.txt", lines)


def full_chains() -> None:
    cpus = core._cpus
    try:
        for name, (x0, kernel, z_min, z_max, n_points) in CHAINS.items():
            for count in CPUS:
                core._cpus = lambda: count
                lines = []
                try:
                    f = initial_pdf(x0, kernel, z_min, z_max, n_points)
                    for t in range(1, 5):
                        if t > 1:
                            f = propagate(f)
                        lines.append(f"t {t}: values {sha(f.values.tobytes())}"
                                     f" stats {sha(repr(grid_stats(f, 1.0)))}")
                except ValueError as exc:
                    lines.append(error(exc))
                write(f"full/propagate-{name}-cpus{count}.txt", lines)
    finally:
        core._cpus = cpus


def files() -> None:
    for n, steps, stride in WALKS:
        write(f"files/n{n}.cfg", [f"n_nodes = {n}"])
        for mode in MODES:
            name = f"{mode}-n{n}"
            command(f"simulate-{name}", [
                "simulate", "--config", f"files/n{n}.cfg", "--seed", str(SEED),
                "--steps", str(steps), "--stride", str(stride), "--mode", mode,
                "--out", f"files/simulate-{name}"])
            command(f"metrics-{name}", [
                "metrics", "--in", f"files/simulate-{name}/snapshots.csv",
                "--eps", "0.15"])
    for name, flags in DENSITY.items():
        command(f"density-{name}", ["density", "--x0", "5", "--t", "3", *flags,
                                    "--out", f"files/density-{name}.csv"])
    lines = []
    for mode in MODES:
        for seed in range(5):
            cfg = config(100, seed=seed, mode=mode)
            try:
                t = first_passage(cfg.swarm_params(), cfg.seed, cfg.region(),
                                  eps=0.15, frac=0.5, max_steps=400)
            except ValueError as exc:
                t = error(exc)
            lines.append(f"mode {mode} seed {seed}: {t}")
    write("files/first_passage.txt", lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True)
    os.chdir(out)
    os.mkdir("files")
    os.mkdir("full")
    full_walks()
    full_chains()
    files()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line front end: simulate, density, metrics, and render.

File outputs are deterministic byte for byte given the same inputs: floats
are printed with 9 significant digits and LF line endings.

Exit codes: 0 ok, 2 config error, 3 I/O error, 4 numeric/grid error or
out of memory, 5 bad render request.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from .config import MODES, ConfigError, config_key, parse_config
from .core import ParamError, SwarmParams, require
from .density import (
    DEFAULT_N_POINTS,
    DEFAULT_Z_MAX,
    DEFAULT_Z_MIN,
    KernelParams,
    grid_stats,
    initial_pdf,
    propagate,
)
from .engine import (Metrics, SwarmState, check_run_args, compute_metrics,
                     run, step_error)
from .svg import density_svg, snapshot_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_RENDER = 5

SNAPSHOT_HEADER = "step,node_id,x,y"
METRICS_HEADER = "step,mean_dist,frac_within_eps,mean_pairwise_dist,cluster_count"
DENSITY_HEADER = "t,z,pdf"
COLUMN_TYPES = {SNAPSHOT_HEADER: (int, int, float, float),
                DENSITY_HEADER: (int, float, float)}

# Up to Python 3.13, argparse takes "-1e-05" or "-inf" for an option, not a
# value. No option here starts with a digit, "inf" or "nan", so any token
# that does is read as a number.
_NEGATIVE_NUMBER = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _fmt(v: float) -> str:
    return format(float(v), ".9g")


def _metrics_row(m: Metrics) -> str:
    return (f"{m.t},{_fmt(m.mean_dist_to_rho)},{_fmt(m.frac_within_eps)},"
            f"{_fmt(m.mean_pairwise_dist)},{m.cluster_count}")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_text(path: str) -> str:
    """The text of an input file, decoded as strict UTF-8; OSError if it
    cannot be read, ConfigError naming it if it is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} "
                          f"at byte {exc.start}") from None


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def cmd_simulate(args: argparse.Namespace) -> int:
    text = "" if args.config is None else _read_text(args.config)
    cfg = parse_config(text, seed=args.seed, steps=args.steps,
                       stride=args.stride, mode=args.mode, out_dir=args.out)
    records = run(cfg.swarm_params(), cfg.seed, cfg.region(), cfg.steps,
                  cfg.stride, eps=cfg.eps)

    snap_lines = [SNAPSHOT_HEADER]
    metric_lines = [METRICS_HEADER]
    for state, metrics in records:
        for i, p in enumerate(state.positions):
            snap_lines.append(f"{state.t},{i},{_fmt(p.real)},{_fmt(p.imag)}")
        metric_lines.append(_metrics_row(metrics))
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_text(os.path.join(cfg.out_dir, "snapshots.csv"),
                "\n".join(snap_lines) + "\n")
    _write_text(os.path.join(cfg.out_dir, "metrics.csv"),
                "\n".join(metric_lines) + "\n")
    return EXIT_OK


def cmd_density(args: argparse.Namespace) -> int:
    require(args.t >= 1, "t", "must be >= 1", args.t)
    require(args.near_eps >= 0, "near_eps", "must be >= 0", args.near_eps)
    params = KernelParams(c1=args.c1, c2=args.c2)
    f = initial_pdf(args.x0, params, args.grid_min, args.grid_max,
                    args.grid_points)

    # stats are printed once the CSV is written: a failure leaves stdout empty
    lines, stats_lines = [DENSITY_HEADER], []
    for t in range(1, args.t + 1):
        if t > 1:
            f = propagate(f)
        for z, p in zip(f.z, f.values):
            lines.append(f"{t},{_fmt(z)},{_fmt(p)}")
        stats = grid_stats(f, args.near_eps)
        stats_lines.append(
            f"t={t} mass={_fmt(stats.mass)} mean={_fmt(stats.mean)} "
            f"mass_near({args.near_eps:g})={_fmt(stats.mass_near)} "
            f"deficit={_fmt(1.0 - stats.mass)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    print("\n".join(stats_lines))
    return EXIT_OK


def _load_csv(path: str, headers) -> tuple[str, dict[int, list[tuple]]]:
    """Header of a CSV file whose header is in ``headers``, and its typed
    rows by step (or t), each step's in file order. OSError if it cannot be
    read; ConfigError at its first malformed row, else at the first row
    that repeats a node within a step, or whose z falls within a t."""
    lines = [line for line in _read_text(path).splitlines() if line]
    if not lines:
        raise ConfigError(f"{path}: empty file")
    header, *rows = lines
    if header not in headers:
        raise ConfigError(f"{path}: expected header "
                          f"{' or '.join(map(repr, headers))}, got {header!r}")
    table = []
    for row in rows:
        try:
            table.append(tuple(kind(field) for kind, field in zip(
                COLUMN_TYPES[header], row.split(","), strict=True)))
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed row {row!r} under "
                              f"{header!r}: {exc}") from None
    steps, seen, last_z = {}, set(), {}
    for row, typed in zip(rows, table):
        step = typed[0]
        if header == SNAPSHOT_HEADER:
            if typed[:2] in seen:
                raise ConfigError(f"{path}: step {step}: node {typed[1]} "
                                  f"appears twice")
            seen.add(typed[:2])
        elif math.isfinite(z := typed[1]):  # _draw refuses it, if drawn
            if z < last_z.get(step, z):
                raise ConfigError(f"{path}: t {step}: row {row} has a z "
                                  f"below the row before it")
            last_z[step] = z
        steps.setdefault(step, []).append(typed)
    return header, steps


def cmd_metrics(args: argparse.Namespace) -> int:
    """Print each step's metrics, its positions taken in node-id order."""
    check_run_args(eps=args.eps)
    params = SwarmParams(r=args.r, rho=complex(args.rho_x, args.rho_y))
    _, steps = _load_csv(args.infile, (SNAPSHOT_HEADER,))

    # every row is computed before any is printed, so a step that fails
    # leaves stdout empty
    rows = [METRICS_HEADER]
    for step in sorted(steps):
        state = SwarmState(t=step, seed=0, positions=np.array(
            [complex(x, y) for _, _, x, y in sorted(steps[step])]))
        try:
            metrics = compute_metrics(state, params, args.eps)
        except ValueError as exc:
            raise step_error(step, exc) from exc
        rows.append(_metrics_row(metrics))
    print("\n".join(rows))
    return EXIT_OK


def _draw(header: str, steps: dict[int, list[tuple]],
          args: argparse.Namespace) -> str:
    """The SVG of the requested step(s) of a loaded CSV; ValueError if the
    file cannot meet the request, or at the first drawn row, by ascending
    step, that holds a value that is not finite or a pdf below 0."""
    present = sorted(steps)
    drawn = present if args.step is None else [args.step]
    if not present:
        raise ValueError(f"{args.infile}: no data rows")
    if drawn[0] not in steps:
        raise ValueError(f"--step {args.step} not in file (has {present})")
    if header == SNAPSHOT_HEADER and len(drawn) > 1:
        raise ValueError(f"file holds steps {present}; --step required")
    for step in drawn:
        for row in steps[step]:
            finite = math.isfinite(row[-2]) and math.isfinite(row[-1])
            if not finite or (header == DENSITY_HEADER and row[-1] < 0):
                fault = ("a pdf below 0" if finite
                         else "a value that is not finite")
                raise ValueError(f"step {step}: row {','.join(map(str, row))} "
                                 f"holds {fault}")
    if header == SNAPSHOT_HEADER:
        return snapshot_svg([(x, y) for _, _, x, y in steps[drawn[0]]],
                            rho=(args.rho_x, args.rho_y))
    return density_svg([(t, *np.array([row[1:] for row in steps[t]]).T)
                        for t in drawn])


def cmd_render(args: argparse.Namespace) -> int:
    # values too large to draw give view coordinates that are not finite,
    # which svg refuses; numpy's warnings on the way would only repeat that
    try:
        with np.errstate(all="ignore"):
            text = _draw(*_load_csv(args.infile, COLUMN_TYPES), args)
    except ValueError as exc:
        return _fail(EXIT_RENDER, str(exc))
    _write_text(args.out, text)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it and
    changes nothing in it, and building it costs about 1 ms a call."""
    parser = argparse.ArgumentParser(
        prog="shinerswarm",
        description="Swarm navigation simulator and 1D density toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the 2D swarm, write CSVs")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("density", help="propagate the 1D location pdf")
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--c1", type=float, default=KernelParams.c1)
    p.add_argument("--c2", type=float, default=KernelParams.c2)
    p.add_argument("--grid-min", type=float, default=DEFAULT_Z_MIN)
    p.add_argument("--grid-max", type=float, default=DEFAULT_Z_MAX)
    p.add_argument("--grid-points", type=int, default=DEFAULT_N_POINTS,
                   help="number of grid nodes, log-graded: dense at the "
                        "darkest spot, spaced in proportion to c2 + |x|")
    p.add_argument("--near-eps", type=float, default=1.0)
    p.add_argument("--out", required=True, help="density CSV path")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("metrics", help="recompute metrics from a snapshot CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--r", type=float, default=SwarmParams.r)
    p.add_argument("--rho-x", type=float, default=SwarmParams.rho.real)
    p.add_argument("--rho-y", type=float, default=SwarmParams.rho.imag)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("render", help="draw a snapshot or density CSV as SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--step", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--rho-x", type=float, default=SwarmParams.rho.real)
    p.add_argument("--rho-y", type=float, default=SwarmParams.rho.imag)
    p.set_defaults(func=cmd_render)

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code. Commands raise and this
    maps their errors: a flag's ParamError and a ConfigError to 2, an
    OSError to 3, any other ValueError and a MemoryError to 4. Only
    ``render`` maps its own code: 5 on a bad request."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParamError as exc:
        flag = "--" + config_key(exc.key).replace("_", "-")
        return _fail(EXIT_CONFIG, f"{flag}: {exc}")
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except ValueError as exc:
        return _fail(EXIT_NUMERIC, str(exc))
    except MemoryError as exc:
        return _fail(EXIT_NUMERIC, f"out of memory: {exc}")


if __name__ == "__main__":
    sys.exit(main())

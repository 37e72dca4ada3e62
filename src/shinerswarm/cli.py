"""Command-line front end: simulate, density, metrics, and render.

File outputs are deterministic byte for byte given the same inputs: floats
are printed with 9 significant digits and LF line endings.

Exit codes: 0 ok, 2 config error, 3 I/O error, 4 numeric/grid error,
5 bad render request.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import MODES, ConfigError, apply_overrides, config_key, parse_config
from .core import ParamError, SwarmParams, require
from .density import (
    DEFAULT_N_POINTS,
    DEFAULT_Z_MAX,
    DEFAULT_Z_MIN,
    GridSpanError,
    KernelParams,
    grid_stats,
    initial_pdf,
    propagate,
)
from .engine import Metrics, SwarmState, check_run_args, compute_metrics, run
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


def _fmt(v: float) -> str:
    return format(float(v), ".9g")


def _metrics_row(m: Metrics) -> str:
    return (f"{m.t},{_fmt(m.mean_dist_to_rho)},{_fmt(m.frac_within_eps)},"
            f"{_fmt(m.mean_pairwise_dist)},{m.cluster_count}")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def cmd_simulate(args: argparse.Namespace) -> int:
    require(args.workers >= 1, "workers", "must be >= 1", args.workers)
    text = ""
    if args.config is not None:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot read config: {exc}")
    try:
        cfg = parse_config(text)
        cfg = apply_overrides(cfg, seed=args.seed, steps=args.steps,
                              stride=args.stride, mode=args.mode,
                              out_dir=args.out)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))

    try:
        records = run(cfg.swarm_params(), cfg.seed, cfg.region(), cfg.steps,
                      cfg.stride, eps=cfg.eps)
    except ValueError as exc:
        return _fail(EXIT_NUMERIC, str(exc))

    snap_lines = [SNAPSHOT_HEADER]
    metric_lines = [METRICS_HEADER]
    for state, metrics in records:
        for i, p in enumerate(state.positions):
            snap_lines.append(f"{state.t},{i},{_fmt(p.real)},{_fmt(p.imag)}")
        metric_lines.append(_metrics_row(metrics))
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        _write_text(os.path.join(cfg.out_dir, "snapshots.csv"),
                    "\n".join(snap_lines) + "\n")
        _write_text(os.path.join(cfg.out_dir, "metrics.csv"),
                    "\n".join(metric_lines) + "\n")
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write output: {exc}")
    return EXIT_OK


def cmd_density(args: argparse.Namespace) -> int:
    require(args.t >= 1, "t", "must be >= 1", args.t)
    require(args.near_eps >= 0, "near_eps", "must be >= 0", args.near_eps)
    params = KernelParams(c1=args.c1, c2=args.c2)
    try:
        f = initial_pdf(args.x0, params, args.grid_min, args.grid_max,
                        args.grid_points)
    except GridSpanError as exc:
        return _fail(EXIT_NUMERIC, str(exc))
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))

    lines = [DENSITY_HEADER]
    for t in range(1, args.t + 1):
        if t > 1:
            f = propagate(f, params)
        for z, p in zip(f.z, f.values):
            lines.append(f"{t},{_fmt(z)},{_fmt(p)}")
        stats = grid_stats(f, args.near_eps)
        print(f"t={t} mass={_fmt(stats.mass)} mean={_fmt(stats.mean)} "
              f"mass_near({args.near_eps:g})={_fmt(stats.mass_near)} "
              f"deficit={_fmt(1.0 - stats.mass)}")
    try:
        _write_text(args.out, "\n".join(lines) + "\n")
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write output: {exc}")
    return EXIT_OK


def _parse_row(row: list[str], types: tuple) -> tuple:
    """One CSV row converted field by field; ValueError if the field count
    or a field is wrong."""
    if len(row) != len(types):
        raise ValueError(f"{','.join(row)!r} has {len(row)} fields, "
                         f"expected {len(types)}")
    return tuple(kind(field) for kind, field in zip(types, row))


def _load_csv(path: str, headers) -> tuple[str, list[tuple]]:
    """Header and typed rows of a CSV file whose header is in ``headers``;
    OSError if it cannot be read, ValueError if its content is wrong."""
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header, *rows = lines
    if header not in headers:
        raise ValueError(f"expected header {' or '.join(map(repr, headers))}"
                         f", got {header!r}")
    try:
        table = [_parse_row(row.split(","), COLUMN_TYPES[header])
                 for row in rows]
    except ValueError as exc:
        raise ValueError(f"malformed row: {exc}") from None
    return header, table


def cmd_metrics(args: argparse.Namespace) -> int:
    check_run_args(eps=args.eps)
    params = SwarmParams(r=args.r, rho=complex(args.rho_x, args.rho_y))
    try:
        _, table = _load_csv(args.infile, (SNAPSHOT_HEADER,))
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read input: {exc}")
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    by_step: dict[int, list[tuple[int, complex]]] = {}
    for step, node, x, y in table:
        by_step.setdefault(step, []).append((node, complex(x, y)))

    print(METRICS_HEADER)
    for step in sorted(by_step):
        nodes = sorted(by_step[step])
        positions = np.array([p for _, p in nodes], dtype=np.complex128)
        state = SwarmState(t=step, positions=positions, seed=0)
        try:
            m = compute_metrics(state, params, args.eps)
        except ValueError as exc:
            return _fail(EXIT_NUMERIC, f"step {step}: {exc}")
        print(_metrics_row(m))
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    try:
        header, table = _load_csv(args.infile, COLUMN_TYPES)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read input: {exc}")
    except ValueError as exc:
        return _fail(EXIT_RENDER, str(exc))
    present = sorted({row[0] for row in table})
    if not present:
        return _fail(EXIT_RENDER, f"{args.infile}: no data rows")

    if header == SNAPSHOT_HEADER:
        step = args.step
        if step is None:
            if len(present) > 1:
                return _fail(EXIT_RENDER,
                             f"file holds steps {present}; --step required")
            step = present[0]
        if step not in present:
            return _fail(EXIT_RENDER, f"step {step} not in file (has {present})")
        pts = [(x, y) for s, _, x, y in table if s == step]
        text = snapshot_svg(pts, rho=(args.rho_x, args.rho_y))
    else:
        if args.step is not None and args.step not in present:
            return _fail(EXIT_RENDER,
                         f"t={args.step} not in file (has {present})")
        curves = []
        for t in present if args.step is None else [args.step]:
            zs = np.array([z for u, z, _ in table if u == t])
            ps = np.array([p for u, _, p in table if u == t])
            curves.append((t, zs, ps))
        text = density_svg(curves)

    try:
        _write_text(args.out, text)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write output: {exc}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; must be >= 1 and has "
                        "no effect, since each step is one vectorised pass")
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

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code. Commands check their
    flags first; a ParamError from those checks exits 2 naming the flag."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParamError as exc:
        flag = "--" + config_key(exc.key).replace("_", "-")
        return _fail(EXIT_CONFIG, f"{flag}: {exc}")


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of shinerswarm: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from that
checkout's ``src/``. The workload seed makes the inputs. With ``--trace 0`` the
run measures the end-to-end metrics with tracing off; with ``--trace 1`` it
alternates untraced and traced runs of each op and reports per-layer self
times and counters (see ``spans.py``). Times are in reference-host seconds
(see ``probe.py``); the raw ones are printed in the report as ``*_wall_s``.
The metric names and units come from
``BENCHMARK.json``. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it are
a readable report. Spans of a traced run are written to
``.perfbench_out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7  # set-up is measured this many times; the median is reported
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Times ``import shinerswarm`` in a fresh interpreter and makes sure the
# package came from this checkout. numpy is loaded first: its import is the
# environment's cost, not the program's, and its thread-pool start varies by
# a third from one interpreter to the next.
IMPORT_TIMER = """\
import sys, time
import numpy
t0 = time.perf_counter()
import shinerswarm
dt = time.perf_counter() - t0
if not shinerswarm.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported {shinerswarm.__file__}, not from {sys.argv[1]}")
print(dt)
"""


def cap_blas_threads() -> None:
    """Limit BLAS and OpenMP pools to the CPUs this process may use; the
    libraries read these variables when numpy is first imported."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= n):
            os.environ[var] = str(n)


def import_seconds() -> float:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def attempt(op, i: int):
    """(result, None) or (None, traceback) of one op."""
    try:
        return op(i), None
    except Exception:
        return None, traceback.format_exc()


def count_failed(wl, outcomes, errors: list[str]) -> int:
    """Ops that raised or whose output fails the workload's check."""
    failed = 0
    for result, exc in outcomes:
        err = exc or wl.check(result)
        if err:
            failed += 1
            errors.append(err)
    return failed


def self_check(wl, errors: list[str]) -> None:
    """The warm-up output passes its check, and each deliberately corrupted
    copy of it counts as a failed op."""
    warm = attempt(lambda _: wl.warm_up(), 0)
    if count_failed(wl, [warm], errors):
        errors[-1] = f"warm-up: {errors[-1]}"
        return
    bad = [(b, None) for b in wl.corruptions(warm[0])]
    caught = count_failed(wl, bad, [])
    if caught != len(bad):
        errors.append(f"self-check: {len(bad) - caught} of {len(bad)} "
                      "corrupted outputs passed the checks")


def measure(wl, seconds: float, probe):
    """Closed loop, tracing off: ops back to back, each followed by a probe
    batch of a twentieth of its time, until ``seconds`` have passed and at
    least ``min_ops`` are done."""
    outcomes, durations, batches = [], [], [probe.batch()]
    start = time.perf_counter()
    while len(outcomes) < wl.min_ops or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        outcomes.append(attempt(wl.op, len(outcomes)))
        durations.append(time.perf_counter() - t0)
        batches.append(probe.batch(durations[-1] / 20))
    return outcomes, durations, batches


def measure_traced(wl, seconds: float, tracer, probe):
    """Each input runs untraced and traced, in alternating order; the
    difference of the two walls is the tracing overhead."""
    outcomes, overhead, batches = [], [], [probe.batch()]
    start = time.perf_counter()
    i = 0
    while i < wl.min_ops or time.perf_counter() - start < seconds:
        wall = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            if traced:
                outcomes.append(tracer.timed("bench.op", attempt, wl.op, i))
            else:
                outcomes.append(attempt(wl.op, i))
            wall[traced] = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        overhead.append(wall[True] - wall[False])
        batches.append(probe.batch())
        i += 1
    return outcomes, overhead, i, batches


def run_benchmark(args, scratch: Path) -> tuple[dict, list[str]]:
    from probe import REF_PROBE_S, HostProbe, to_ref
    from spans import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    probe = HostProbe()
    values: dict[str, float] = {}
    if not args.trace:
        samples, batches = [], [probe.batch()]
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            cls(args.seed, scratch)
            samples.append(time.perf_counter() - t0 + import_seconds())
            batches.append(probe.batch())
        values["setup_s"] = statistics.median(to_ref(samples, batches))
        values["setup_wall_s"] = statistics.median(samples)
    wl = cls(args.seed, scratch)
    errors: list[str] = []
    self_check(wl, errors)

    if args.trace:
        tracer = Tracer()
        outcomes, overhead, n_traced, batches = measure_traced(
            wl, args.seconds, tracer, probe)
        probe_s = statistics.median(sum(batches, []))
        layers = tracer.summary(n_traced)
        layers["trace.overhead_s"] = statistics.median(overhead)
        # Per-layer times in reference-host seconds, like the end-to-end ones.
        values.update({k: v * REF_PROBE_S / probe_s if k.endswith("_s") else v
                       for k, v in layers.items()})
        values["trace.probe_s"] = probe_s
        if tracer.absent:
            print(f"note: absent, reported as 0: {', '.join(tracer.absent)}",
                  file=sys.stderr)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        outcomes, durations, batches = measure(wl, args.seconds, probe)
        ref = to_ref(durations, batches)
        values["ops_per_s"] = len(ref) / sum(ref)
        values["op_p50_s"] = statistics.median(ref)
        values["ops_per_wall_s"] = len(durations) / sum(durations)
        values["op_p50_wall_s"] = statistics.median(durations)
        values["probe_s"] = statistics.median(sum(batches, []))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = count_failed(wl, outcomes, errors)
    node_steps = sum(wl.node_steps(r) for r, exc in outcomes if exc is None)
    if not args.trace and node_steps:
        values["node_steps_per_s"] = node_steps / sum(ref)
    try:
        err, extra = wl.summary()
    except Exception:
        err, extra = traceback.format_exc(), {}
    if err:
        errors.append(err)
    values.update(extra)
    return {"attempted": len(outcomes), "failed": failed, "values": values}, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ref-sweep", "scale-5k", "env-passage", "density-chain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shinerswarm" / "__init__.py").is_file():
        print(f"error: no shinerswarm package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import shinerswarm
    if Path(shinerswarm.__file__).resolve().parent != SRC / "shinerswarm":
        print(f"error: imported {shinerswarm.__file__}, not the checkout's",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        res, errors = run_benchmark(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    values = res["values"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"  ops {res['attempted']}  ops_failed {res['failed']}")
    for key in sorted(values):
        print(f"  {key:34s} {values[key]}")
    if args.trace:
        total = sum(v for k, v in values.items() if k.endswith(".self_s"))
        print(f"  self times sum to {total:.6g} s/op of {values['trace.wall_s']:.6g} "
              "s/op traced wall")
    for err in errors[:5]:
        print(f"check failed: {err.strip().splitlines()[-1]}", file=sys.stderr)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not errors,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

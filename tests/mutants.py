"""Planted faults and the tests that must catch them.

A mutant is a copy of ``src/`` with one planted fault (DeMillo, Lipton and
Sayward, "Hints on test data selection", 1978). Each row of ``MUTANTS`` is
``(file, old, new, tests, why)``: ``old`` must occur exactly once in
``src/<file>`` and is replaced by ``new``, and each test id in ``tests``
must fail on that copy. ``PLANT`` is the fault the byte set must show
(``tests/byte_set.py``), which no test is asked to catch.

    python tests/mutants.py              # every (row, test) pair; exit 1
                                         # unless each one is caught
    python tests/mutants.py --plant DIR  # DIR/src: src/ with PLANT

Each copy is made under a new temporary directory and removed after use.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple
    why: str


MUTANTS = [
    Mutant("shinerswarm/core.py",
           "(mag >= _MIN_NORMAL).all()", "not (mag < _MIN_NORMAL).any()",
           ("tests/test_core.py::test_hammer_equals_the_masked_oracle_byte_for_byte",),
           "the hammer routed by any() with <, which sends a NaN magnitude "
           "down the unmasked path"),
    Mutant("shinerswarm/core.py",
           "ok = (0 <= x) & (x < math.inf)", "ok = (0 <= x)",
           ("tests/test_core.py::test_hammer_rejects_nan_separation",),
           "a hammer that lets an infinite s through"),
    Mutant("shinerswarm/density.py",
           "_REACH_SDS = 40.0", "_REACH_SDS = 30.0",
           ("tests/test_density.py::test_propagate_equals_every_entry_oracle",),
           "a density reach of 30 sds, where exp is not yet 0"),
    Mutant("shinerswarm/density.py",
           "(z + reach < z[lo])", "(z + reach < z[hi - 1])",
           ("tests/test_density.py::test_propagate_equals_every_entry_oracle",),
           "a density plan whose dead runs are those of each block's last row "
           "alone, which kills sources that reach its first rows"),
    Mutant("shinerswarm/core.py",
           "np.subtract.at(acc, b, h)", "np.add.at(acc, b, h)",
           ("tests/test_graph_properties.py::test_pair_list_social_sum_matches_dense_oracle",),
           "a social sum that adds a pair's hammer to both of its nodes"),
    Mutant("shinerswarm/core.py",
           "arg[order] = (w", "arg[:] = (w",
           ("tests/test_graph_properties.py::test_social_heading_is_the_node_order_formula_byte_for_byte",),
           "a social heading that leaves the weighted sums in sorted order "
           "instead of scattering them to node order"),
    Mutant("shinerswarm/engine.py",
           "next(draws), graph)", "next(draws))",
           ("tests/test_engine.py::test_run_builds_each_state_graph_once",),
           "a walk that drops the graph a record hands to the next step, "
           "which then builds it again"),
    Mutant("shinerswarm/core.py",
           "np.triu_indices(n, 1)", "np.triu_indices(n, 0)",
           ("tests/test_graph_properties.py::test_pair_list_holds_each_neighbor_pair_once",),
           "an all-pairs list that lets each node pair with itself"),
    Mutant("shinerswarm/core.py",
           "start[:, 0] = np.arange(1, n + 1)", "start[:, 0] = np.arange(2, n + 2)",
           ("tests/test_graph_properties.py::test_csr_graph_equals_brute_force",),
           "a cell list whose first run skips the next node in sorted order"),
    Mutant("shinerswarm/core.py",
           "np.add(c2, d, out=out)", "np.add(c2 + c2, d, out=out)",
           ("tests/test_density.py::test_kernel_peak_at_origin",),
           "a speed law that doubles c2, which the 1D kernel must read too "
           "(the swarm tests fail on it as well)"),
    Mutant("shinerswarm/core.py",
           "np.where(mag == 0.0, 1.0, re)", "np.where(mag > 0.0, re, 1.0)",
           ("tests/test_engine.py::test_heading_is_the_arctan2_heading",),
           "a heading that points a NaN social term along +x as it does a "
           "zero one"),
    Mutant("shinerswarm/engine.py",
           "_radius(w[..., 0])", "_radius(w[..., 1])",
           ("tests/test_engine.py::test_block_draws_are_the_box_muller_factors",),
           "a length factor read from the Philox word 1 that no factor uses"),
    Mutant("shinerswarm/engine.py",
           '"counter": (0, step, 0, 0)', '"counter": (0, step + 1, 0, 0)',
           ("tests/test_engine.py::test_step_draws_rows_are_fresh_philox_blocks",),
           "a row read one counter past its step"),
    Mutant("shinerswarm/engine.py",
           "np.sin(angle, out=heading.imag)\n        np.cos(angle, out=angle)",
           "np.cos(angle, out=heading.imag)\n        np.sin(angle, out=angle)",
           ("tests/test_engine.py::test_block_draws_are_the_box_muller_factors",),
           "a heading with cos and sin swapped"),
    Mutant("shinerswarm/engine.py",
           "length = _radius(w[..., 0])", "length = 1.02 * _radius(w[..., 0])",
           ("tests/test_engine.py::test_env_only_walk_follows_the_radial_rice_chain",
            "tests/test_acceptance.py::test_criterion_6_sampler_moments"),
           "a step length 2% long, which the radial chain of the distances to "
           "rho and criterion 6's moments of the program's own draws must "
           "both catch"),
    Mutant("shinerswarm/core.py",
           "blocks[i::workers]", "blocks[i + 1::workers]",
           ("tests/test_density.py::test_propagate_equals_every_entry_oracle_at_each_worker_count",),
           "a worker share that skips blocks"),
    Mutant("shinerswarm/core.py",
           "target=contextvars.copy_context().run,", "target=lambda run, i: run(i),",
           ("tests/test_density.py::test_propagate_calls_the_errstate_function_alike_at_each_worker_count",
            "tests/test_density.py::test_propagate_on_two_workers_warns_of_no_overflow_in_any_thread"),
           "a worker thread started outside the caller's context, which "
           "leaves it numpy's default errstate (both the callback and the "
           "warning tests must catch it)"),
    Mutant("shinerswarm/core.py",
           "BLOCK_BYTES // (n * itemsize)", "BLOCK_BYTES // (2 * n * itemsize)",
           ("tests/test_core.py::test_row_blocks_geometry",),
           "a row block of half its bytes"),
    Mutant("shinerswarm/density.py",
           "*kernel.factors(z)", "*KernelParams().factors(z)",
           ("tests/test_density.py::test_propagate_matches_oracle_and_never_gains_mass",),
           "a density grid whose step factors come from the default kernel in "
           "place of the one it holds"),
    Mutant("shinerswarm/engine.py",
           "_metrics(t, p, d, graph, eps)", "_metrics(t, p, np.abs(p), graph, eps)",
           ("tests/test_engine.py::test_run_is_the_per_step_walk",),
           "a record whose metrics read the distances to the origin, not to "
           "rho"),
    Mutant("shinerswarm/cli.py",
           "for _, _, x, y in sorted(steps[step])", "for _, _, x, y in steps[step]",
           ("tests/test_cli.py::test_metrics_takes_each_step_positions_in_node_id_order",),
           "a metrics command that passes a step's positions in file order, "
           "not node-id order"),
    Mutant("shinerswarm/config.py",
           'require(self.mode in MODES, "mode",', 'require(True, "mode",',
           ("tests/test_config.py::test_run_config_refuses_an_out_of_range_field_when_built",),
           "a run config that skips its mode check"),
    Mutant("shinerswarm/core.py",
           "    if p.ndim != 1:", "    if False:",
           ("tests/test_core.py::test_a_frame_that_is_not_one_dimensional_is_refused_everywhere",),
           "a frame rule that takes any shape"),
    Mutant("shinerswarm/core.py",
           'require(getattr(on, "ndim", 0) == 0 and on in (True, False), key',
           "require(True, key",
           ("tests/test_core.py::test_swarm_params_refuse_a_switch_that_is_not_true_or_false",),
           "factor switches that take any value"),
    Mutant("shinerswarm/core.py",
           'require(getattr(on, "ndim", 0) == 0 and ', "require(",
           ("tests/test_core.py::test_swarm_params_refuse_a_switch_that_is_not_true_or_false",),
           "factor switches that take an array, whose == is elementwise"),
    Mutant("shinerswarm/core.py",
           "keep = root[a] != root[b]", "keep = root[a] < 0",
           ("tests/test_graph_properties.py::test_component_count_on_shuffled_long_path",),
           "a component count that keeps no pair after its first round, which "
           "stops the count before the long paths and the tree are one "
           "component"),
    Mutant("shinerswarm/__init__.py",
           "__all__ = [\n", '__all__ = [\n    "hammer",\n',
           ("tests/test_readme.py::test_the_top_level_is_the_names_readme_uses",),
           "a top level whose __all__ lists hammer, a name README does not use "
           "from there"),
    Mutant("shinerswarm/core.py",
           "arg[order] = (w /", "arg[order] = (0 * w /",
           ("tests/test_acceptance.py::test_criterion_3_two_factor_leads_the_environment_only_prediction",),
           "a social weight of 0, whose walk follows the environment-only "
           "prediction that the two-factor walk must lead"),
    Mutant("shinerswarm/engine.py",
           "if not params.env_enabled and params.sigma_const is None:",
           "if False:",
           ("tests/test_engine.py::test_advance_env_off_requires_sigma_const",),
           "an advance_swarm that drops its refusal of an unset sigma_const"),
]

# ``new`` keeps ``old`` whole, so a copy that holds PLANT takes it again and
# moves node 0 a second ulp: the byte step can plant it on any commit
PLANT = Mutant(
    "shinerswarm/engine.py",
    "p = _step(p, params, d, next(draws), graph)\n",
    "p = _step(p, params, d, next(draws), graph)\n"
    "                    if t == 1:\n"
    "                        p[0] = complex(np.nextafter(p[0].real, np.inf), "
    "p[0].imag)\n",
    (),
    "a walk whose first step moves node 0's real part one ulp up, which "
    "the 9-digit files can round away and the full/ hashes must show")


def plant(mutant: Mutant, src: Path, dest: Path) -> None:
    """Copy the package tree src to dest with mutant's edit; ValueError
    unless its ``old`` occurs exactly once in the file."""
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))
    path = dest / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.file}: {mutant.old!r} occurs {count} "
                         f"times, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def imported_from(src: Path) -> bool:
    """Whether ``import shinerswarm`` with PYTHONPATH=src loads src's copy."""
    check = ("import sys, shinerswarm; "
             "sys.exit(not shinerswarm.__file__.startswith(sys.argv[1]))")
    return subprocess.run([sys.executable, "-c", check, str(src)],
                          env={**os.environ, "PYTHONPATH": str(src)}).returncode == 0


def caught(mutant: Mutant, test: str, src: Path) -> bool:
    """Whether the test fails on the mutant copy src. Prints the verdict,
    ``caught``, ``survived`` or, when pytest ran no test that could fail,
    ``not run``, and pytest's output unless caught."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         test], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    # pytest exits 1 when a test failed, 0 when all passed, and 2 to 5 when it
    # was interrupted or found nothing to run
    verdict = {0: "survived", 1: "caught"}.get(
        result.returncode, f"not run (pytest exit {result.returncode})")
    if result.returncode != 1:
        print(result.stdout)
    print(f"{verdict}: {mutant.why} ({mutant.file}); {test}", flush=True)
    return result.returncode == 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--plant", metavar="DIR",
                        help="write DIR/src, a copy of src/ with PLANT, and exit")
    args = parser.parse_args(argv)
    if args.plant:
        plant(PLANT, ROOT / "src", Path(args.plant) / "src")
        return 0
    failed = 0
    for i, mutant in enumerate(MUTANTS):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            plant(mutant, ROOT / "src", src)
            if not imported_from(src):
                print(f"row {i}: the mutant copy is not the package imported")
                return 1
            for test in mutant.tests:
                failed += not caught(mutant, test, src)
    pairs = sum(len(mutant.tests) for mutant in MUTANTS)
    print(f"{pairs - failed} of {pairs} (row, test) pairs caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import io
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shinerswarm import cli
from shinerswarm.cli import main
from shinerswarm.config import MODES
from shinerswarm.density import DEFAULT_N_POINTS


def read(path):
    return path.read_text()


def lines(path):
    return read(path).splitlines()


@pytest.fixture()
def sim_out(tmp_path):
    """A short deterministic simulate run shared by several tests."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 6\nstride = 3\nseed = 4\nn_nodes = 30\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_expected_files(sim_out):
    snap = lines(sim_out / "snapshots.csv")
    mets = lines(sim_out / "metrics.csv")
    assert snap[0] == "step,node_id,x,y"
    assert mets[0] == "step,mean_dist,frac_within_eps,mean_pairwise_dist,cluster_count"
    steps = {int(row.split(",")[0]) for row in snap[1:]}
    assert steps == {0, 3, 6}
    assert len(snap) == 1 + 3 * 30
    assert len(mets) == 1 + 3
    assert read(sim_out / "snapshots.csv").endswith("\n")
    assert "\r" not in read(sim_out / "snapshots.csv")


def test_simulate_defaults_snapshot_at_35_and_70(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out)]) == 0
    steps = {int(r.split(",")[0]) for r in lines(out / "snapshots.csv")[1:]}
    assert steps == {0, 35, 70}


def test_simulate_reruns_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 5\nstride = 5\nn_nodes = 25\nseed = 11\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    assert read(a / "snapshots.csv") == read(b / "snapshots.csv")
    assert read(a / "metrics.csv") == read(b / "metrics.csv")


def test_a_second_main_call_writes_what_a_first_call_writes(tmp_path):
    # the parser is built once per process; a flag of the first call must
    # not reach the second, which writes what a fresh process writes
    assert cli.build_parser() is cli.build_parser()
    env_only, plain, fresh = (tmp_path / name for name in ("a", "b", "c"))
    assert main(["simulate", "--mode", "env", "--out", str(env_only)]) == 0
    assert main(["simulate", "--out", str(plain)]) == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    subprocess.run([sys.executable, "-m", "shinerswarm.cli", "simulate",
                    "--out", str(fresh)], check=True,
                   env={**os.environ, "PYTHONPATH": src})
    for name in ("snapshots.csv", "metrics.csv"):
        assert (plain / name).read_bytes() == (fresh / name).read_bytes()
        assert (plain / name).read_bytes() != (env_only / name).read_bytes()


def test_simulate_flag_overrides_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 4\nstride = 2\nn_nodes = 10\nseed = 1\nmode = env\n"
                   "out_dir = ignored\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--steps", "6",
                 "--seed", "2", "--stride", "3", "--mode", "both",
                 "--out", str(out)]) == 0
    assert out.exists() and not (tmp_path / "ignored").exists()
    steps = {int(r.split(",")[0]) for r in lines(out / "snapshots.csv")[1:]}
    assert steps == {0, 3, 6}
    # flag-seeded run differs from the file-seeded one
    out2 = tmp_path / "out2"
    assert main(["simulate", "--config", str(cfg), "--steps", "6",
                 "--stride", "3", "--mode", "both", "--out", str(out2)]) == 0
    assert read(out / "snapshots.csv") != read(out2 / "snapshots.csv")


def test_simulate_flag_replaces_an_out_of_range_file_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = -1\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--steps", "2",
                 "--out", str(out)]) == 0
    steps = {int(r.split(",")[0]) for r in lines(out / "snapshots.csv")[1:]}
    assert steps == {0, 2}


@pytest.mark.parametrize("text, flags, message", [
    ("steps = -1\n", [], "line 1: key 'steps' must be >= 0, got -1"),
    ("steps = abc\n", ["--steps", "5"],
     "line 1: cannot parse value 'abc' for key 'steps'"),
])
def test_simulate_file_value_a_flag_cannot_mend_exits_2(tmp_path, capsys, text,
                                                       flags, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), *flags,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["w", "s", "sigma_const"])
def test_simulate_infinite_model_value_exits_2(tmp_path, capsys, key):
    # an infinite w would turn every heading with a neighbor into a
    # diagonal; an infinite s, or sigma_const in a mode that reads it, would
    # stop the run at step 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = inf\nsteps = 20\nstride = 20\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: line 1: key '{key}' must be >= 0 and finite, got inf\n")
    assert not out.exists()


def test_simulate_overflowing_social_term_writes_finite_values(tmp_path):
    # r = inf makes every node a neighbor of every other, and w = 1e308 with
    # s = 10 makes most social terms overflow to infinity; their angle is
    # still finite, while a heading computed as arg / |arg| would be
    # inf / inf = nan
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = inf\nw = 1e308\ns = 10\nsteps = 20\nstride = 20\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("snapshots.csv", "metrics.csv"):
        assert not holds_nan_or_inf(read(out / name))
    assert lines(out / "metrics.csv")[-1].endswith(",1")


def test_simulate_social_mode(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--mode", "social", "--steps", "4",
                 "--stride", "4", "--out", str(out)]) == 0
    steps = {int(r.split(",")[0]) for r in lines(out / "snapshots.csv")[1:]}
    assert steps == {0, 4}


def test_simulate_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("c1 = -1\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    cfg.write_text("unknown_key = 3\n")
    assert main(["simulate", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_simulate_seed_outside_uint64_exits_2(tmp_path, capsys, seed):
    out = tmp_path / "out"
    assert main(["simulate", "--seed", seed, "--steps", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "key 'seed'" in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_nan_rho_exits_2(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("rho_x = nan\nsteps = 1\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 1: key 'rho_x'" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text, line", [
    ("region_max_x = inf\n", 1),
    ("region_min_x = -1e308\nregion_max_x = 1e308\n", 2),
])
def test_simulate_infinite_region_width_exits_2(tmp_path, capsys, text, line):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: key 'region_max_x' must exceed")
    assert not out.exists()


def test_simulate_has_no_workers_option(tmp_path, capsys):
    # each step is one vectorised pass, so there is no pool to size
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--workers", "2", "--steps", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_missing_config_exits_3(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 3


def test_simulate_config_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "random.cfg"
    cfg.write_bytes(bytes.fromhex("5f9a3c0e7bd1ff20a4886d13c2e9047bb5e1f30a"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: not UTF-8 text: ")
    assert not out.exists()


def test_simulate_unwritable_out_exits_3(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out"  # parent is a file
    assert main(["simulate", "--steps", "1", "--stride", "1",
                 "--out", str(out)]) == 3


# ---------------------------------------------------------------------------
# density


def test_density_writes_three_curves(tmp_path, capsys):
    out = tmp_path / "density.csv"
    assert main(["density", "--x0", "5", "--t", "3", "--out", str(out)]) == 0
    rows = lines(out)
    assert rows[0] == "t,z,pdf"
    assert len(rows) == 1 + 3 * DEFAULT_N_POINTS
    ts = {int(r.split(",")[0]) for r in rows[1:]}
    assert ts == {1, 2, 3}
    stats = capsys.readouterr().out.splitlines()
    assert len(stats) == 3
    assert stats[0].startswith("t=1 mass=")
    assert "mass_near(1)=" in stats[0]
    assert "deficit=" in stats[0]


def test_density_mass_near_never_exceeds_mass(tmp_path, capsys):
    # the whole axis holds at most the mass the weights give
    assert main(["density", "--x0", "5", "--t", "3", "--near-eps", "1e9",
                 "--out", str(tmp_path / "d.csv")]) == 0
    stats = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in stats] == ["t=1", "t=2", "t=3"]
    for line in stats:
        mass = float(re.search(r" mass=(\S+)", line).group(1))
        near = float(re.search(r"mass_near\(1e\+09\)=(\S+)", line).group(1))
        assert near <= mass


def test_density_first_step_peak_value(tmp_path, capsys):
    out = tmp_path / "density.csv"
    assert main(["density", "--x0", "5", "--t", "1", "--out", str(out)]) == 0
    best_z, best_p = None, -1.0
    for row in lines(out)[1:]:
        _, z, p = row.split(",")
        if float(p) > best_p:
            best_z, best_p = float(z), float(p)
    assert best_z == pytest.approx(5.0, abs=0.02)
    assert best_p == pytest.approx(0.0782239766, rel=1e-6)
    mass = float(re.search(r"mass=([0-9.e+-]+)", capsys.readouterr().out).group(1))
    assert 0.999 <= mass <= 1.0 + 1e-9


def test_density_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["density", "--x0", "2", "--t", "2", "--grid-min", "-40",
            "--grid-max", "40", "--grid-points", "2001"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read(a) == read(b)


def test_density_narrow_grid_exits_4(tmp_path):
    code = main(["density", "--x0", "5", "--t", "2", "--grid-min", "-2",
                 "--grid-max", "8", "--grid-points", "501",
                 "--out", str(tmp_path / "d.csv")])
    assert code == 4


def test_density_pdf_of_zero_mass_exits_4_naming_its_step(tmp_path, capsys):
    # a kernel sd of 100 (0.01 + |x|) sends most of the mass past the span
    # at every step: the mass left is 3.4e-10 at t = 10, and by t = 268
    # every value has underflowed to 0
    out = tmp_path / "d.csv"
    assert main(["density", "--x0", "0", "--t", "268", "--c1", "100",
                 "--c2", "0.01", "--grid-points", "301", "--grid-min", "-100",
                 "--grid-max", "100", "--out", str(out)]) == 4
    assert capsys.readouterr() == ("", "error: t = 268: pdf has zero mass\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, shape", [
    (["simulate", "--config", "huge.cfg"], "(10000000000000000, 2)"),
    (["density", "--x0", "5", "--t", "1", "--grid-points",
      "10000000000000000"], "(5000000000000001,)")])
def test_an_allocation_refused_exits_4(tmp_path, monkeypatch, capsys, argv,
                                       shape):
    # each size needs far more than a 2**47-byte address space, so the
    # allocation is refused at once and takes no memory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "huge.cfg").write_text("n_nodes = 10000000000000000\n")
    assert main([*argv, "--out", "o"]) == 4
    out, err = capsys.readouterr()
    assert err.startswith("error: out of memory: Unable to allocate ")
    assert f"array with shape {shape}" in err
    assert "Traceback" not in err and err.count("\n") == 1
    assert out == ""
    assert not (tmp_path / "o").exists()


def test_density_coarse_grid_blames_point_count(tmp_path, capsys):
    # the default span holds x0 +/- 8 sd; 7 nodes cannot resolve the pdf
    code = main(["density", "--x0", "5", "--t", "3", "--grid-points", "7",
                 "--out", str(tmp_path / "d.csv")])
    assert code == 4
    err = capsys.readouterr().err
    assert "7 points are too few" in err
    assert "span at least" not in err


@pytest.mark.parametrize("flag, value", [("--c1", "inf"), ("--c2", "inf"),
                                         ("--c1", "nan"), ("--t", "0")])
def test_density_flag_errors_exit_2_naming_the_flag(tmp_path, capsys, flag,
                                                    value):
    argv = ["density", "--x0", "5", "--t", "1", "--out",
            str(tmp_path / "d.csv"), flag, value]  # the last --t counts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: {flag[2:]} must be ")


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_density_near_eps_checked_before_propagating(tmp_path, capsys,
                                                     monkeypatch, value):
    def no_grid(*args):
        raise AssertionError("the pdf was computed before --near-eps was checked")

    monkeypatch.setattr(cli, "initial_pdf", no_grid)
    monkeypatch.setattr(cli, "propagate", no_grid)
    out = tmp_path / "d.csv"
    assert main(["density", "--x0", "5", "--t", "3", "--near-eps", value,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: --near-eps: near_eps must be >= 0, got {float(value)}")
    assert not out.exists()


@pytest.mark.parametrize("x0, c1, c2, span, points", [
    (-3.0, 0.2084948428880079, 0.4385806037013126, 100.0, 24),
    (-5.987865520260096, 0.22122924597651056, 0.2327820367860451,
     144.56578175873105, 78)])
def test_density_grid_too_coarse_for_the_kernel_exits_4(tmp_path, capsys, x0,
                                                        c1, c2, span, points):
    # on these grids the quadrature gains mass: 1.024 after one propagation
    # on the first, 1 + 8e-8 at the first step on the second
    code = main(["density", "--x0", str(x0), "--t", "2", "--c1", str(c1),
                 "--c2", str(c2), "--grid-min", str(-span),
                 "--grid-max", str(span), "--grid-points", str(points),
                 "--out", str(tmp_path / "d.csv")])
    assert code == 4
    assert capsys.readouterr().err.startswith(
        f"error: grid [{-span}, {span}]: {points} points are too few: ")


@settings(max_examples=200)
@given(x0=st.floats(-20.0, 20.0), c1=st.floats(0.05, 3.0),
       c2=st.floats(0.01, 2.0), span=st.floats(0.5, 500.0),
       points=st.integers(1, 1000))
def test_density_exits_with_a_documented_code_and_never_gains_mass(
        x0, c1, c2, span, points):
    argv = ["density", "--x0", repr(x0), "--t", "3", "--c1", repr(c1),
            "--c2", repr(c2), "--grid-min", repr(-span), "--grid-max",
            repr(span), "--grid-points", str(points), "--out", os.devnull]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 4)
    # every flag but --grid-points is in range, so only a grid of fewer
    # than 3 points is a config error; a grid that cannot hold the pdf is 4
    assert (code == 2) == (points < 3)
    if code == 0:
        masses = [float(m) for m in re.findall(r"mass=(\S+)", stdout.getvalue())]
        assert len(masses) == 3
        assert max(masses) <= 1.0 + 1e-9


def test_density_bad_params_exit_2(tmp_path):
    out = str(tmp_path / "d.csv")
    assert main(["density", "--x0", "5", "--t", "0", "--out", out]) == 2
    assert main(["density", "--x0", "5", "--t", "1", "--c1", "-1",
                 "--out", out]) == 2


@pytest.mark.parametrize("args, message", [
    (["--x0=nan", "--t", "2"], "--x0: x0 must be finite, got nan"),
    (["--x0", "5", "--t", "1", "--grid-points", "2"],
     "--grid-points: n_points must be >= 3, got 2"),
    (["--x0", "5", "--t", "1", "--grid-min=-inf"],
     "--grid-min: z_min must be finite, got -inf"),
    (["--x0", "5", "--t", "1", "--grid-min", "-inf"],
     "--grid-min: z_min must be finite, got -inf"),
    (["--x0", "5", "--t", "1", "--grid-max=inf", "--grid-points=3"],
     "--grid-max: z_max must be finite and greater than z_min = -1000.0, "
     "got inf"),
    (["--x0", "5", "--t", "1", "--grid-min", "4", "--grid-max", "3"],
     "--grid-max: z_max must be finite and greater than z_min = 4.0, got 3.0"),
    # ends past c2 times the largest double, where log1p(|z| / c2) overflows
    (["--x0", "5", "--t", "2", "--grid-min", "1e308", "--grid-max", "1.7e308"],
     "--grid-min: z_min must be within about +/-1.79769e+307, past which "
     "log1p(|z_min| / c2) or the node's weight overflows at c2 = 0.1, "
     "got 1e+308"),
    (["--x0", "5", "--t", "2", "--grid-min", "-1.7e308", "--grid-max", "1.7e308"],
     "--grid-min: z_min must be within about +/-1.79769e+307, past which "
     "log1p(|z_min| / c2) or the node's weight overflows at c2 = 0.1, "
     "got -1.7e+308"),
    (["--x0", "5", "--t", "2", "--grid-min", "-10", "--grid-max", "1e308"],
     "--grid-max: z_max must be within about +/-1.79769e+307, past which "
     "log1p(|z_max| / c2) or the node's weight overflows at c2 = 0.1, "
     "got 1e+308"),
])
def test_density_grid_and_start_errors_exit_2_naming_the_flag(
        tmp_path, capsys, args, message):
    out = tmp_path / "d.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["density", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--grid-min", "1", "--grid-max", "1.0000000000000002",
      "--grid-points", "3"],
     "grid [1.0, 1.0000000000000002]: 3 points are too many: the span does "
     "not hold 3 distinct graded nodes"),
    (["--c2", "1", "--grid-min", "-1e308", "--grid-max", "1e308",
      "--grid-points", "3"],
     "grid [-1e+308, 1e+308]: 3 points are too few: their quadrature "
     "weights overflow"),
    # u = log1p(|z| / c2) is subnormal, where a pdf's u-integrand overflows
    (["--x0", "0", "--c2", "1.7e308", "--grid-min", "-1", "--grid-max", "1",
      "--grid-points", "3"],
     "grid [-1.0, 1.0] at c2 = 1.7e+308: its nodes are at most 5.88e-309 "
     "apart in u = sign(x) log(1 + |x| / c2), closer than the smallest "
     "normal double"),
    (["--x0", "1e308"],
     "grid [-1000.0, 1000.0] of 2001 points holds only mass 0.000000 of the "
     "first-step pdf; no finite grid spans x0 +/- 8 sd, with sd = 1e+308"),
    (["--c1", "1e308"],
     "grid [-1000.0, 1000.0] of 2001 points holds only mass 0.000000 of the "
     "first-step pdf; no finite grid spans x0 +/- 8 sd, with sd = inf"),
    # an sd and a node distance both overflow in the second step, so one
    # kernel entry is 0 * inf
    (["--c1", "2", "--c2", "1e300", "--grid-min", "-1e308", "--grid-max",
      "1e308", "--grid-points", "240"],
     "t = 2: pdf values must be finite and >= 0"),
    # an sd of 1e-310 at x0: the kernel's norm overflows, and its k times a
    # distance of 0 is inf * 0
    (["--x0", "0", "--c2", "1e-310", "--grid-min", "-1e-300", "--grid-max",
      "1e-300", "--grid-points", "400"],
     "t = 1: pdf values must be finite and >= 0"),
])
def test_density_grid_that_cannot_hold_the_pdf_exits_4_with_one_error_line(
        tmp_path, capsys, args, message):
    out = tmp_path / "d.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["density", "--x0", "5", "--t", "2", *args,
                     "--out", str(out)]) == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_density_on_a_grid_near_the_float_range_warns_of_no_overflow(
        tmp_path, capsys):
    # the kernel's norm, its reach and some entries overflow to their
    # limits: a norm of 0, an infinite reach, exp(-inf) = 0
    out = tmp_path / "d.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["density", "--x0", "5", "--t", "2", "--c1", "100",
                     "--grid-min", "-1e306", "--grid-max", "1e306",
                     "--grid-points", "6000", "--out", str(out)]) == 0
    stdout, err = capsys.readouterr()
    assert err == ""
    assert "t=2 mass=0.999999227 " in stdout


@pytest.mark.parametrize("flag, value", [("--x0", "-1e-05"),
                                         ("--grid-min", "-1e3"),
                                         ("--grid-min", "-2.5E+2")])
def test_density_reads_a_negative_exponent_form_as_a_value(tmp_path, capsys,
                                                           flag, value):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    argv = ["density", "--x0", "5", "--t", "1", "--grid-points", "1001"]
    assert main(argv + [flag, value, "--out", str(spaced)]) == 0
    assert main(argv + [f"{flag}={value}", "--out", str(joined)]) == 0
    assert read(spaced) == read(joined)


def test_density_unwritable_out_exits_3_naming_the_path(tmp_path, capsys):
    out = tmp_path / "missing" / "d.csv"
    assert main(["density", "--x0", "5", "--t", "1", "--grid-points", "1001",
                 "--out", str(out)]) == 3
    # the step's stats line is printed only once the CSV is written
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error: ") and str(out) in err
    assert err.count("\n") == 1


def test_simulate_records_a_far_but_finite_run(tmp_path):
    # the env-only walk with c1 = 3 reaches |p| ~ 1e218 by step 400: every
    # position is finite, so the t = 400 record is written
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("mode = env\nc1 = 3\nsteps = 400\nstride = 400\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    mets = [row.split(",") for row in lines(out / "metrics.csv")[1:]]
    snaps = [row.split(",") for row in lines(out / "snapshots.csv")[1:]]
    assert [int(row[0]) for row in mets] == [0, 400]
    assert len(snaps) == 2 * 100
    assert np.isfinite([float(v) for row in mets + snaps for v in row]).all()
    assert float(mets[1][1]) > 1e200


def test_simulate_runs_with_a_tiny_sensing_radius(tmp_path):
    # r = 1e-10 puts the default box 5e9 cells of side r wide; the cells
    # widen to its extent times 2**-30 and the graph is still exact
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("r = 1e-10\nsteps = 20\nstride = 10\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    mets = lines(out / "metrics.csv")[1:]
    assert [int(row.split(",")[4]) for row in mets] == [100, 100, 100]


def test_simulate_env_only_overflow_exits_4_at_the_step_it_happens(tmp_path,
                                                                  capsys):
    # the same walk overflows to inf at step 558, between two records
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("mode = env\nc1 = 3\nsteps = 1000\nstride = 1000\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        "error: step 558: node 88: position (inf-infj) is not finite\n")
    assert not out.exists()


def test_simulate_far_placement_names_its_mean_distance(tmp_path, capsys):
    # sigma_const is unset in social mode, and the placement's mean distance
    # to rho overflows: the message names that distance, not a key
    cfg = tmp_path / "far.cfg"
    cfg.write_text("mode = social\nregion_min_x = 1e307\n"
                   "region_max_x = 1.7e308\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        "error: step 0: the speed at the placement's mean distance to rho, "
        "inf, is not finite\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# metrics


def test_metrics_recomputes_simulation_metrics(sim_out, capsys):
    assert main(["metrics", "--in", str(sim_out / "snapshots.csv"),
                 "--eps", "0.15"]) == 0
    got = capsys.readouterr().out.splitlines()
    want = lines(sim_out / "metrics.csv")
    assert got[0] == want[0]
    assert len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        gf, wf = g.split(","), w.split(",")
        assert gf[0] == wf[0] and gf[4] == wf[4]  # step, cluster_count
        for a, b in zip(gf[1:4], wf[1:4]):  # snapshot stores 9 significant digits
            assert float(a) == pytest.approx(float(b), rel=1e-6, abs=1e-8)


def test_metrics_missing_file_exits_3(tmp_path):
    assert main(["metrics", "--in", str(tmp_path / "none.csv"),
                 "--eps", "0.1"]) == 3


def test_metrics_wrong_header_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["metrics", "--in", str(bad), "--eps", "0.1"]) == 2


@pytest.fixture()
def one_row(tmp_path):
    csv = tmp_path / "one.csv"
    csv.write_text("step,node_id,x,y\n1,0,0.5,0\n")
    return csv


def test_metrics_negative_eps_exits_2(one_row, capsys):
    assert main(["metrics", "--in", str(one_row), "--eps", "-1"]) == 2
    assert "--eps" in capsys.readouterr().err


def test_metrics_negative_radius_exits_2(one_row, capsys):
    assert main(["metrics", "--in", str(one_row), "--eps", "0.1",
                 "--r", "-1"]) == 2
    assert "sensing radius r" in capsys.readouterr().err


def test_metrics_nan_radius_exits_2(one_row, capsys):
    assert main(["metrics", "--in", str(one_row), "--eps", "0.1",
                 "--r", "nan"]) == 2
    err = capsys.readouterr()
    assert "sensing radius r" in err.err and err.out == ""


@pytest.mark.parametrize("flag, value, message", [
    ("--rho-x", "nan", "rho.real must be finite, got nan"),
    ("--rho-y", "inf", "rho.imag must be finite, got inf"),
    ("--r", "-1", "sensing radius r must be >= 0, got -1.0"),
    ("--eps", "-1", "eps must be >= 0, got -1.0"),
])
def test_metrics_flag_errors_name_the_flag(one_row, capsys, flag, value,
                                           message):
    argv = ["metrics", "--in", str(one_row), "--eps", "0.1", flag, value]
    assert main(argv) == 2
    err = capsys.readouterr()
    assert err.err == f"error: {flag}: {message}\n" and err.out == ""


def test_metrics_repeated_node_id_exits_2_naming_step_and_node(tmp_path,
                                                                capsys):
    csv = tmp_path / "dup.csv"
    csv.write_text("step,node_id,x,y\n0,1,0.1,0.2\n0,1,0.3,0.4\n")
    assert main(["metrics", "--in", str(csv), "--eps", "0.1"]) == 2
    err = capsys.readouterr()
    assert err.err == f"error: {csv}: step 0: node 1 appears twice\n"
    assert err.out == ""


def test_render_repeated_node_id_exits_5_naming_step_and_node(tmp_path,
                                                              capsys):
    csv = tmp_path / "dup.csv"
    csv.write_text("step,node_id,x,y\n0,1,0.1,0.2\n0,1,0.3,0.4\n")
    out = tmp_path / "x.svg"
    assert main(["render", "--in", str(csv), "--out", str(out)]) == 5
    assert (capsys.readouterr().err
            == f"error: {csv}: step 0: node 1 appears twice\n")
    assert not out.exists()


def test_render_density_whose_z_falls_within_a_t_exits_5_naming_the_row(
        tmp_path, capsys):
    # the rows of t = 1 reversed drew an x axis from 1000 to 1001, where
    # the file in order gives -10.76 to 20.76
    csv = tmp_path / "d.csv"
    assert main(["density", "--x0", "5", "--t", "1", "--out", str(csv)]) == 0
    header, *rows = csv.read_text().splitlines()
    csv.write_text("\n".join([header, *rows[::-1]]) + "\n")
    capsys.readouterr()
    out = tmp_path / "d.svg"
    assert main(["render", "--in", str(csv), "--out", str(out)]) == 5
    assert (capsys.readouterr().err == f"error: {csv}: t 1: row {rows[-2]} "
            f"has a z below the row before it\n")
    assert not out.exists()


def test_render_density_reads_a_repeated_z_and_each_t_on_its_own(tmp_path):
    # nodes closer than 9 digits print the same z; z starts over at each t,
    # whose rows may be interleaved
    csv = tmp_path / "d.csv"
    csv.write_text("t,z,pdf\n1,0,0.5\n1,0,0.5\n2,-1,0\n1,1,0.2\n2,0,1\n")
    out = tmp_path / "d.svg"
    assert main(["render", "--in", str(csv), "--out", str(out)]) == 0
    assert read(out).count("<polyline") == 2


def test_render_density_pdf_below_0_exits_5_naming_the_row(tmp_path,
                                                          capsys):
    # a pdf of -50 at one node drew an x axis from -12.65 to 22.66, where
    # the file as written gives -10.76 to 20.76; a pdf of -0 draws as 0
    csv = tmp_path / "d.csv"
    assert main(["density", "--x0", "5", "--t", "1", "--out", str(csv)]) == 0
    header, *rows = csv.read_text().splitlines()
    capsys.readouterr()
    t, z, _ = rows[1000].split(",")
    svgs = {}
    for pdf in ("-50", "-0", "0"):
        rows[1000] = f"{t},{z},{pdf}"
        csv.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / f"{pdf}.svg"
        code = main(["render", "--in", str(csv), "--out", str(out)])
        svgs[pdf] = (code, capsys.readouterr().err,
                     read(out) if out.exists() else None)
    assert svgs["-50"] == (5, f"error: step 1: row 1,{float(z)},-50.0 holds "
                           f"a pdf below 0\n", None)
    assert svgs["-0"] == svgs["0"] and svgs["0"][:2] == (0, "")


def test_render_names_the_first_bad_row_of_the_lowest_bad_step(tmp_path,
                                                               capsys):
    # the drawn steps are checked in ascending order, whatever the row order
    csv = tmp_path / "d.csv"
    csv.write_text("t,z,pdf\n2,-1,0.1\n2,0,nan\n1,-1,0.1\n1,0,nan\n"
                   "1,1,nan\n")
    out = tmp_path / "d.svg"
    assert main(["render", "--in", str(csv), "--out", str(out)]) == 5
    assert capsys.readouterr().err == (
        "error: step 1: row 1,0.0,nan holds a value that is not finite\n")
    assert not out.exists()


REPEATED_NODE = "step,node_id,x,y\n0,1,0,0\n0,1,0,0\n"


@pytest.mark.parametrize("argv, code, body", [
    (["metrics", "--eps", "0.1"], 2, REPEATED_NODE),
    (["render", "--out", os.devnull], 5, REPEATED_NODE),
    (["render", "--out", os.devnull], 5, "t,z,pdf\n1,1,0.5\n1,0,0.5\n"),
])
def test_csv_malformed_row_is_reported_before_an_earlier_repeat(
        tmp_path, capsys, argv, code, body):
    # a repeated node, or a falling z, before a row that does not parse
    bad = tmp_path / "bad.csv"
    header = body.split("\n")[0]
    bad.write_text(body + "1,x,0\n")
    assert main([*argv, "--in", str(bad)]) == code
    assert capsys.readouterr().err.startswith(
        f"error: {bad}: malformed row '1,x,0' under {header!r}: ")


def test_node_id_repeated_across_steps_is_read_by_metrics_and_render(
        tmp_path, capsys):
    csv = tmp_path / "two.csv"
    csv.write_text("step,node_id,x,y\n0,1,0.1,0.2\n1,1,0.3,0.4\n")
    assert main(["metrics", "--in", str(csv), "--eps", "0.1"]) == 0
    assert main(["render", "--in", str(csv), "--step", "1",
                 "--out", str(tmp_path / "x.svg")]) == 0


READ_CSV = pytest.mark.parametrize("argv, code", [
    (["metrics", "--eps", "0.1"], 2), (["render", "--out", os.devnull], 5)])


@READ_CSV
def test_csv_wrong_header_error_starts_with_the_path(tmp_path, capsys, argv,
                                                     code):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main([*argv, "--in", str(bad)]) == code
    assert capsys.readouterr().err.startswith(
        f"error: {bad}: expected header 'step,node_id,x,y'")


@READ_CSV
def test_csv_malformed_row_error_starts_with_the_path(tmp_path, capsys, argv,
                                                      code):
    bad = tmp_path / "bad.csv"
    bad.write_text("step,node_id,x,y\n1,1,0,0\n1,0,abc,0\n")
    assert main([*argv, "--in", str(bad)]) == code
    assert capsys.readouterr().err.startswith(
        f"error: {bad}: malformed row '1,0,abc,0' under 'step,node_id,x,y': ")


def test_metrics_reads_a_negative_exponent_form_as_a_value(one_row, capsys):
    assert main(["metrics", "--in", str(one_row), "--eps", "0.1",
                 "--rho-x", "-5e-01"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "1,1,0,0,1"


def test_csv_not_utf8_exits_2_from_metrics_and_5_from_render_naming_it(
        tmp_path, capsys):
    body = b"step,node_id,x,y\n0,0,0.1,0.2\n0,1,\xff,0\n"
    csv = tmp_path / "snap.csv"
    csv.write_bytes(body)
    message = (f"error: {csv}: not UTF-8 text: invalid start byte "
               f"at byte {body.index(0xff)}\n")
    assert main(["metrics", "--in", str(csv), "--eps", "0.1"]) == 2
    assert capsys.readouterr() == ("", message)
    out = tmp_path / "x.svg"
    assert main(["render", "--in", str(csv), "--out", str(out)]) == 5
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_metrics_non_finite_position_exits_4(tmp_path, capsys):
    csv = tmp_path / "nan.csv"
    csv.write_text("step,node_id,x,y\n2,0,0.5,0\n2,1,nan,0\n")
    assert main(["metrics", "--in", str(csv), "--eps", "0.1"]) == 4
    assert "step 2: node 1" in capsys.readouterr().err


def test_metrics_of_a_swarm_with_a_far_outlier_exits_4(tmp_path, capsys):
    # too many neighbor candidates for the budget: a numeric error naming the
    # step and the node, not a MemoryError
    rng = np.random.default_rng(3)
    half = 0.5 * (100_000 / 100) ** 0.5
    xy = rng.uniform(-half, half, (100_000, 2)).tolist() + [[1e12, 0.0]]
    csv = tmp_path / "outlier.csv"
    csv.write_text("step,node_id,x,y\n" + "".join(
        f"0,{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(xy)))
    assert main(["metrics", "--in", str(csv), "--eps", "0.1"]) == 4
    out, err = capsys.readouterr()
    assert err.startswith("error: step 0: node 100000 at (1000000000000+0j) "
                          "stretches the swarm's extent")
    assert "exceed the budget of 67108864" in err
    assert "Traceback" not in err and err.count("\n") == 1
    assert out == ""


def test_metrics_failing_at_its_second_step_prints_no_row(tmp_path, capsys):
    # the first step's row is computed but not printed: a failed run leaves
    # stdout empty
    csv = tmp_path / "two_steps.csv"
    csv.write_text("step,node_id,x,y\n0,0,0.5,0\n0,1,1,0\n"
                   "1,0,0.5,0\n1,1,inf,0\n")
    assert main(["metrics", "--in", str(csv), "--eps", "0.1"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: step 1: node 1")


def test_metrics_takes_each_step_positions_in_node_id_order(sim_out,
                                                           monkeypatch):
    # at 9 digits the metrics seldom show the order in which the nodes were
    # summed, so the positions are read where they reach compute_metrics
    header, *rows = lines(sim_out / "snapshots.csv")
    by_step = {}
    for row in rows:
        by_step.setdefault(int(row.split(",")[0]), []).append(row)
    rng = np.random.default_rng(5)
    shuffled = [step_rows[i] for step_rows in by_step.values()
                for i in rng.permutation(len(step_rows))]
    assert shuffled != rows
    csv = sim_out / "shuffled.csv"
    csv.write_text("\n".join([header, *shuffled]) + "\n")
    reached, compute_metrics = [], cli.compute_metrics

    def spy(state, *args, **kwargs):
        reached.append((state.t, state.positions.copy()))
        return compute_metrics(state, *args, **kwargs)

    monkeypatch.setattr(cli, "compute_metrics", spy)
    argv = ["metrics", "--in", str(csv), "--eps", "0.15"]
    assert quiet_main(argv) == (0, "")
    assert [t for t, _ in reached] == list(by_step)
    for t, positions in reached:
        # simulate writes each step's nodes in node-id order
        assert positions.tolist() == [complex(*map(float, row.split(",")[2:]))
                                      for row in by_step[t]]


# ---------------------------------------------------------------------------
# render


def test_render_snapshot_svg(sim_out, tmp_path):
    out = tmp_path / "snap.svg"
    assert main(["render", "--in", str(sim_out / "snapshots.csv"),
                 "--step", "6", "--out", str(out)]) == 0
    text = read(out)
    assert text.count('class="node"') == 30
    assert text.count('class="rho"') == 1


def test_render_missing_step_exits_5(sim_out, tmp_path):
    assert main(["render", "--in", str(sim_out / "snapshots.csv"),
                 "--step", "99", "--out", str(tmp_path / "x.svg")]) == 5


def test_render_multi_step_requires_step_flag(sim_out, tmp_path):
    assert main(["render", "--in", str(sim_out / "snapshots.csv"),
                 "--out", str(tmp_path / "x.svg")]) == 5


def test_render_single_step_file_needs_no_flag(tmp_path):
    csv = tmp_path / "one.csv"
    csv.write_text("step,node_id,x,y\n3,0,0.1,0.2\n3,1,-0.1,0\n")
    out = tmp_path / "one.svg"
    assert main(["render", "--in", str(csv), "--out", str(out)]) == 0
    assert read(out).count('class="node"') == 2


def test_render_density_polyline(tmp_path, capsys):
    csv = tmp_path / "density.csv"
    assert main(["density", "--x0", "5", "--t", "2", "--grid-points", "1001",
                 "--out", str(csv)]) == 0
    capsys.readouterr()
    out = tmp_path / "density.svg"
    assert main(["render", "--in", str(csv), "--out", str(out)]) == 0
    text = read(out)
    polylines = re.findall(r'points="([^"]*)"', text)
    assert len(polylines) == 2
    assert all(len(p.split()) == 1001 for p in polylines)
    # filtering one curve
    assert main(["render", "--in", str(csv), "--step", "2",
                 "--out", str(out)]) == 0
    assert read(out).count("<polyline") == 1
    assert main(["render", "--in", str(csv), "--step", "9",
                 "--out", str(out)]) == 5


def test_render_density_of_zero_pdf_scales_its_axis_to_1(tmp_path):
    csv = tmp_path / "density.csv"
    csv.write_text("t,z,pdf\n2,-1,0\n2,0,0\n2,1,0\n")
    out = tmp_path / "density.svg"
    assert main(["render", "--in", str(csv), "--out", str(out)]) == 0
    labels = re.findall(r'<text [^>]*text-anchor="end">([^<]*)</text>',
                        read(out))
    assert labels[-1] == "1"  # the pdf axis's top label, after its 0


def test_render_unknown_header_exits_5(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    assert main(["render", "--in", str(bad), "--step", "0",
                 "--out", str(tmp_path / "x.svg")]) == 5


@pytest.mark.parametrize("row", ["1,0,abc,0", "1,0,0.5", "x,0,0.5,0"])
def test_render_malformed_row_exits_5(tmp_path, capsys, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"step,node_id,x,y\n1,1,0,0\n{row}\n")
    assert main(["render", "--in", str(bad), "--out", str(tmp_path / "x.svg")]) == 5
    assert "malformed row" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["step,node_id,x,y", "t,z,pdf"])
def test_render_header_without_rows_exits_5(tmp_path, header):
    bare = tmp_path / "bare.csv"
    bare.write_text(header + "\n")
    assert main(["render", "--in", str(bare), "--out", str(tmp_path / "x.svg")]) == 5


@pytest.mark.parametrize("body, step", [
    ("step,node_id,x,y\n4,0,0.1,0.2\n4,1,nan,0.2\n", 4),
    ("step,node_id,x,y\n4,0,0.1,-inf\n", 4),
    ("t,z,pdf\n1,0,0.5\n2,-1,0.1\n2,0,nan\n2,1,0.1\n", 2),
    ("t,z,pdf\n3,inf,0.5\n3,1,0.1\n", 3),
])
def test_render_non_finite_value_exits_5_naming_the_step(tmp_path, capsys,
                                                         body, step):
    csv = tmp_path / "in.csv"
    csv.write_text(body)
    out = tmp_path / "x.svg"
    assert main(["render", "--in", str(csv), "--out", str(out)]) == 5
    assert capsys.readouterr().err.startswith(f"error: step {step}: row ")
    assert not out.exists()


@pytest.mark.parametrize("body, flags", [
    ("step,node_id,x,y\n0,0,1e308,0\n", []),
    ("t,z,pdf\n1,-1e308,0.5\n1,1e308,0.5\n", []),
    ("step,node_id,x,y\n0,0,0.1,0\n", ["--rho-x", "nan"]),
])
def test_render_value_it_cannot_draw_exits_5(tmp_path, capsys, body, flags):
    csv = tmp_path / "in.csv"
    csv.write_text(body)
    out = tmp_path / "x.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["render", "--in", str(csv), "--out", str(out),
                     *flags]) == 5
    assert capsys.readouterr().err.startswith("error: cannot draw ")
    assert not out.exists()


def test_render_unwritable_out_exits_3_naming_the_path(tmp_path, capsys):
    csv = tmp_path / "one.csv"
    csv.write_text("step,node_id,x,y\n3,0,0.1,0.2\n")
    out = tmp_path / "missing" / "x.svg"
    assert main(["render", "--in", str(csv), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


def test_render_missing_input_exits_3(tmp_path):
    assert main(["render", "--in", str(tmp_path / "none.csv"), "--step", "0",
                 "--out", str(tmp_path / "x.svg")]) == 3


def test_nine_significant_digit_floats(sim_out):
    for row in lines(sim_out / "snapshots.csv")[1:3]:
        _, _, x, y = row.split(",")
        for v in (x, y):
            digits = re.sub(r"[-.e+]", "", v).lstrip("0")
            assert len(digits) <= 9


# ---------------------------------------------------------------------------
# no input escapes: every run ends in a documented exit code


def quiet_main(argv):
    """The exit code and the stderr text of main, with stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def is_utf8(data):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def holds_nan_or_inf(text):
    return re.search(r"nan|inf", text, re.IGNORECASE) is not None


INTS = st.sampled_from(["0", "1", "2"])
# ordinary values first, so that whole files are often valid, then the
# values a hand-made file can hold that no run produces
FLOATS = st.sampled_from(["0.25", "-0.1", "3e-5", "0.45", "0", "1e308",
                          "-1e308", "nan", "inf", "-inf"])
JUNK = st.one_of(st.text(max_size=12),
                st.sampled_from(["x", "", " 1", "1,2", "steps = 2", "k = 1"]))
CONFIG_VALUES = {"seed": INTS, "stride": INTS, "out_dir": st.just("x"),
                 "mode": st.sampled_from(["env", "social", "none", "x"])}
CONFIG_LINES = st.sampled_from([
    "c1", "c2", "r", "w", "s", "rho_x", "rho_y", "sigma_const", "eps",
    "region_min_x", "region_min_y", "region_max_x", "region_max_y",
    *CONFIG_VALUES]).flatmap(
        lambda key: CONFIG_VALUES.get(key, FLOATS).map(f"{key} = {{}}".format))


def simulate_bytes(body, flags):
    """The exit code of simulate on a config file holding body; a run that
    exits 0 must have written CSVs free of nan and inf, any other none."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "wb") as fh:
            fh.write(body)
        out = os.path.join(tmp, "out")
        code, _ = quiet_main(["simulate", "--config", cfg, *flags,
                              "--out", out])
        assert code in (0, 2, 3, 4, 5)
        assert (code == 0) == os.path.exists(out)
        if code == 0:
            for name in ("snapshots.csv", "metrics.csv"):
                with open(os.path.join(out, name)) as fh:
                    assert not holds_nan_or_inf(fh.read())
    return code


NON_UTF8_TAIL = st.one_of(st.just(b""), st.binary(max_size=8))


@settings(max_examples=300)
@given(lines=st.lists(CONFIG_LINES, max_size=4,
                     unique_by=lambda line: line.split(" = ")[0]),
       junk=st.lists(JUNK, max_size=1), tail=NON_UTF8_TAIL,
       flag=st.none() | st.tuples(st.sampled_from(["steps", "stride", "seed"]),
                                  INTS, st.sampled_from(["-1", "0", "2"])))
def test_no_config_escapes_simulate(lines, junk, tail, flag):
    # the fixed head keeps each run small: 4 nodes, at most 3 steps
    lines = ["n_nodes = 4", "steps = 3", *lines]
    flags = []
    if flag is not None:
        # the flag's key gets a file value of its own that parses and is
        # often out of range (one that does not parse is refused even under
        # a flag)
        key, value, file_value = flag
        lines = [line for line in lines if line.split(" = ")[0] != key]
        lines.append(f"{key} = {file_value}")
        flags = [f"--{key}", value]

    def body(lines):
        # the tail goes on a line of its own, so that deleting a line cannot
        # join it to another key's value
        return ("\n".join(lines + junk) + "\n").encode() + tail

    code = simulate_bytes(body(lines), flags)
    # the flag replaces its key's file value before the one check, so the
    # file runs as if that key's line were not there (unless junk sets the
    # key too, which makes a duplicate only while the line is there)
    if flag is not None and not any(key in line for line in junk):
        assert code == simulate_bytes(body(lines[:-1]), flags)


@st.composite
def csv_bodies(draw):
    """A header, then rows typed for it, then at most one junk row, then
    bytes that may not be UTF-8."""
    header = draw(st.sampled_from(list(cli.COLUMN_TYPES) + ["step,x", ""]))
    fields = [{int: INTS, float: FLOATS}[kind]
              for kind in cli.COLUMN_TYPES.get(header, (int, float))]
    rows = draw(st.lists(st.tuples(*fields).map(",".join), max_size=8))
    junk = draw(st.lists(JUNK, max_size=1))
    text = "\n".join([header, *rows, *junk]) + "\n"
    return text.encode() + draw(NON_UTF8_TAIL)


@settings(max_examples=400)
@given(body=csv_bodies(), step=st.sampled_from([None, "0", "1", "2"]))
def test_no_csv_escapes_metrics_or_render(body, step):
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "in.csv")
        with open(csv, "wb") as fh:
            fh.write(body)
        # a file that is not UTF-8 is refused by name, before its content
        not_utf8 = f"error: {csv}: not UTF-8 text: "
        code, err = quiet_main(["metrics", "--in", csv, "--eps", "0.15"])
        assert code in (0, 2, 3, 4, 5)
        assert is_utf8(body) or (code == 2 and err.startswith(not_utf8))
        svg = os.path.join(tmp, "out.svg")
        code, err = quiet_main(["render", "--in", csv, "--out", svg]
                               + ([] if step is None else ["--step", step]))
        assert code in (0, 2, 3, 4, 5)
        assert is_utf8(body) or (code == 5 and err.startswith(not_utf8))
        assert (code == 0) == os.path.exists(svg)
        if code == 0:
            with open(svg) as fh:
                assert not holds_nan_or_inf(fh.read())


@pytest.fixture(scope="module")
def written_files(tmp_path_factory):
    """The directory of a 30-node snapshots.csv of steps 0, 3 and 6 and a
    density.csv of t = 1, 2 and 3, as written."""
    tmp = tmp_path_factory.mktemp("steps")
    cfg = tmp / "run.cfg"
    cfg.write_text("steps = 6\nstride = 3\nseed = 4\nn_nodes = 30\n")
    assert quiet_main(["simulate", "--config", str(cfg), "--out",
                       str(tmp)]) == (0, "")
    assert quiet_main(["density", "--x0", "5", "--t", "3",
                       "--out", str(tmp / "density.csv")]) == (0, "")
    return tmp


@pytest.fixture(scope="module")
def step_files(written_files):
    """The files of ``written_files``: each file's header, its rows by step,
    and the outputs of ``file_outputs``."""
    tmp = written_files
    files = {}
    for name in ("snapshots.csv", "density.csv"):
        header, *rows = lines(tmp / name)
        by_step = {}
        for row in rows:
            by_step.setdefault(row.split(",")[0], []).append(row)
        assert len(by_step) == 3
        files[name] = header, by_step, file_outputs(tmp / name, by_step)
    return files


def file_outputs(csv, steps):
    """The exit code, stderr, stdout and SVG (None if none is written) of
    each command that reads the CSV: metrics of a snapshot or render of all
    the ts of a density, then render of each step."""
    first = (["metrics", "--eps", "0.15"] if csv.name == "snapshots.csv"
             else ["render"])
    argvs = [first, *(["render", "--step", step] for step in steps)]
    outputs = []
    for k, argv in enumerate(argvs):
        svg = csv.with_suffix(f".{k}.svg")
        if argv[0] == "render":
            argv = [*argv, "--out", str(svg)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--in", str(csv)])
        outputs.append((code, err.getvalue(), out.getvalue(),
                        read(svg) if svg.exists() else None))
    return outputs


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), run=st.integers(1, 40),
       name=st.sampled_from(["snapshots.csv", "density.csv"]))
def test_interleaved_steps_change_no_output(step_files, seed, run, name):
    # each step's rows are cut into runs of `run` rows, and the runs of all
    # the steps are dealt out in a random order that keeps each step's own
    # rows in file order
    header, by_step, want = step_files[name]
    runs = {step: [rows[i:i + run] for i in range(0, len(rows), run)]
            for step, rows in by_step.items()}
    owners = [step for step, step_runs in runs.items() for _ in step_runs]
    np.random.default_rng(seed).shuffle(owners)
    order = {step: iter(step_runs) for step, step_runs in runs.items()}
    rows = [row for step in owners for row in next(order[step])]
    with tempfile.TemporaryDirectory() as tmp:
        csv = pathlib.Path(tmp) / name
        csv.write_text("\n".join([header, *rows]) + "\n")
        got = file_outputs(csv, by_step)
    assert got == want
    assert all(code == 0 for code, *_ in want)


# ---------------------------------------------------------------------------
# the exit-code contract: README's commands with one or two extreme values

EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300,
                     -1e300, 1.7e308, -1.7e308, math.inf, -math.inf,
                     math.nan]),
    st.floats()).map(repr)


def int_values(*values):
    return st.sampled_from([str(v) for v in values])


# each command's base, README's command with its sizes bounded (steps <= 6,
# t <= 3), and the values each flag, or simulate's config key, may take in
# its place: no value allocates a large array (n_nodes <= 300, grid points
# <= 4001). A flag's value None drops the flag
CONTRACT = {
    "simulate": ({"--seed": "0", "--steps": "6", "--stride": "3",
                  "--mode": "both"},
                 {"--seed": int_values(-1, 0, 2 ** 64 - 1, 2 ** 64),
                  "--steps": int_values(-2 ** 64, -1, 0, 1, 6),
                  "--stride": int_values(-1, 0, 1, 2 ** 70),
                  "--mode": st.sampled_from(MODES),
                  "n_nodes": int_values(-1, 0, 1, 300),
                  "mode": st.sampled_from(["Both", ""]),
                  **{key: EXTREME_FLOATS for key in (
                      "c1", "c2", "r", "w", "s", "rho_x", "rho_y",
                      "sigma_const", "eps", "region_min_x", "region_min_y",
                      "region_max_x", "region_max_y")}}),
    "density": ({"--x0": "5", "--t": "3"},
                {"--t": int_values(-2 ** 64, -1, 0, 1, 3),
                 "--grid-points": int_values(-1, 0, 1, 2, 3, 4001),
                 **{flag: EXTREME_FLOATS for flag in (
                     "--x0", "--c1", "--c2", "--grid-min", "--grid-max",
                     "--near-eps")}}),
    "metrics": ({"--in": "snapshots.csv", "--eps": "0.15"},
                {flag: EXTREME_FLOATS
                 for flag in ("--eps", "--r", "--rho-x", "--rho-y")}),
    "render": ({"--in": "snapshots.csv", "--step": "6"},
               {"--in": st.just("density.csv"),
                "--step": st.none() | int_values(-1, 0, 3, 2 ** 70),
                "--rho-x": EXTREME_FLOATS, "--rho-y": EXTREME_FLOATS}),
}


@st.composite
def contract_args(draw, command):
    """README's ``command`` with one or two of its flags or config keys
    replaced, as (flags, config keys)."""
    base, values = CONTRACT[command]
    args = dict(base)
    for name in draw(st.lists(st.sampled_from(sorted(values)), min_size=1,
                              max_size=2, unique=True)):
        args[name] = draw(values[name], label=name)
    flags = {k: v for k, v in args.items() if k.startswith("--")}
    keys = {k: v for k, v in args.items() if not k.startswith("--")}
    return flags, keys


@pytest.mark.parametrize("command", sorted(CONTRACT))
@settings(max_examples=100)
@given(data=st.data())
def test_every_command_keeps_the_exit_code_contract(written_files, command,
                                                    data):
    # every exit code is one README documents, a non-zero one comes with one
    # stderr line that starts "error: ", and nothing escapes main, not even
    # a warning
    flags, keys = data.draw(contract_args(command), label="args")
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for flag, value in flags.items():
            if flag == "--in":
                value = str(written_files / value)
            if value is not None:
                argv += [flag, value]
        if command == "simulate":
            cfg = os.path.join(tmp, "run.cfg")
            with open(cfg, "w") as fh:
                fh.writelines(f"{k} = {v}\n" for k, v in keys.items())
            argv += ["--config", cfg]
        if command != "metrics":
            argv += ["--out", os.path.join(tmp, "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = quiet_main(argv)
    assert code in (0, 2, 3, 4, 5)
    lines = err.splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ")

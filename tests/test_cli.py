import re
import warnings

import numpy as np
import pytest

from shinerswarm import cli
from shinerswarm.cli import main


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


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_workers_below_1_exits_2(tmp_path, capsys, workers):
    out = tmp_path / "out"
    assert main(["simulate", "--workers", workers, "--steps", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --workers: workers must be >= 1, got {workers}\n"
    assert not out.exists()


def test_simulate_missing_config_exits_3(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 3


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
    assert len(rows) == 1 + 3 * 6001
    ts = {int(r.split(",")[0]) for r in rows[1:]}
    assert ts == {1, 2, 3}
    stats = capsys.readouterr().out.splitlines()
    assert len(stats) == 3
    assert stats[0].startswith("t=1 mass=")
    assert "mass_near(1)=" in stats[0]
    assert "deficit=" in stats[0]


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


def test_density_bad_params_exit_2(tmp_path):
    out = str(tmp_path / "d.csv")
    assert main(["density", "--x0", "5", "--t", "0", "--out", out]) == 2
    assert main(["density", "--x0", "5", "--t", "1", "--c1", "-1",
                 "--out", out]) == 2


def test_simulate_diverging_run_exits_4_naming_the_step(tmp_path, capsys):
    # the env-only walk with c1 = 3 reaches |p| ~ 1e218 by step 400, too far
    # out for exact cell indices, so the t = 400 metrics cannot be formed
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("mode = env\nc1 = 3\nsteps = 400\nstride = 400\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: step 400: node ")
    assert "Traceback" not in err
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


def test_metrics_non_finite_position_exits_4(tmp_path, capsys):
    csv = tmp_path / "nan.csv"
    csv.write_text("step,node_id,x,y\n2,0,0.5,0\n2,1,nan,0\n")
    assert main(["metrics", "--in", str(csv), "--eps", "0.1"]) == 4
    assert "step 2: node 1" in capsys.readouterr().err


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


def test_render_missing_input_exits_3(tmp_path):
    assert main(["render", "--in", str(tmp_path / "none.csv"), "--step", "0",
                 "--out", str(tmp_path / "x.svg")]) == 3


def test_nine_significant_digit_floats(sim_out):
    for row in lines(sim_out / "snapshots.csv")[1:3]:
        _, _, x, y = row.split(",")
        for v in (x, y):
            digits = re.sub(r"[-.e+]", "", v).lstrip("0")
            assert len(digits) <= 9

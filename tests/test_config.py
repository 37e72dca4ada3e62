import dataclasses

import pytest

from shinerswarm.config import ConfigError, RunConfig, parse_config


def test_empty_text_gives_full_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.c1 == 0.1 and cfg.c2 == 0.1 and cfg.r == 0.2
    assert cfg.w == 20.0 and cfg.s == 0.08 and cfg.n_nodes == 100
    assert (cfg.region_min_x, cfg.region_max_x) == (-0.5, 0.5)
    assert (cfg.rho_x, cfg.rho_y) == (0.0, 0.0)
    assert cfg.sigma_const is None


def test_reference_parameter_set():
    cfg = parse_config("c1 = 0.1\nc2 = 0.1\nr = 0.2\nw = 20\ns = 0.08\n")
    assert (cfg.c1, cfg.c2, cfg.r, cfg.w, cfg.s) == (0.1, 0.1, 0.2, 20.0, 0.08)


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nseed = 7  # trailing\n   \nmode = env\n")
    assert cfg.seed == 7
    assert cfg.mode == "env"


def test_unknown_key_names_key_and_line():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'c3'"):
        parse_config("c1 = 0.1\nc3 = 1\n")


def test_unparsable_value_names_key_and_line():
    with pytest.raises(ConfigError, match=r"line 1.*'steps'"):
        parse_config("steps = soon\n")


def test_negative_c1_cites_positivity():
    with pytest.raises(ConfigError, match=r"'c1' must be positive"):
        parse_config("c1 = -1\n")


def test_invariant_error_carries_line_number():
    with pytest.raises(ConfigError, match=r"line 3: key 'w'"):
        parse_config("c1 = 0.1\nc2 = 0.2\nw = -4\n")


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_outside_uint64_rejected(seed):
    with pytest.raises(ConfigError,
                       match=r"line 2: key 'seed' must be in \[0, 2\*\*64\)"):
        parse_config(f"steps = 3\nseed = {seed}\n")
    with pytest.raises(ConfigError, match="key 'seed'"):
        parse_config("", seed=int(seed))


def test_largest_seed_accepted():
    assert parse_config("seed = 18446744073709551615\n").seed == 2 ** 64 - 1


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key 'seed'"):
        parse_config("seed = 1\nseed = 2\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just words\n")


def test_bad_mode_rejected():
    with pytest.raises(ConfigError, match="mode"):
        parse_config("mode = sideways\n")


def test_degenerate_region_rejected():
    with pytest.raises(ConfigError, match="region"):
        parse_config("region_min_x = 1\nregion_max_x = -1\n")


@pytest.mark.parametrize("text, cited", [
    ("rho_x = nan\n", "line 1: key 'rho_x'"),
    ("seed = 2\nrho_y = inf\n", "line 2: key 'rho_y'"),
    ("r = nan\n", "line 1: key 'r'"),
    ("steps = 1\nw = nan\n", "line 2: key 'w'"),
    ("s = nan\n", "line 1: key 's'"),
    ("eps = nan\n", "line 1: key 'eps'"),
    ("sigma_const = nan\n", "line 1: key 'sigma_const'"),
    ("region_min_y = 0\nregion_max_y = 0\n", "line 2: key 'region_max_y'"),
])
def test_nan_and_out_of_range_model_keys_cite_key_and_line(text, cited):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value).startswith(cited)


def test_apply_overrides_rejects_nan_model_key():
    with pytest.raises(ConfigError, match=r"^key 'r' must be >= 0, got nan"):
        parse_config("", r=float("nan"))


def test_every_key_parses_to_the_config_it_spells():
    text = """
n_nodes = 12
steps = 5
stride = 2
c1 = 0.3
c2 = 0.4
r = 0.5
w = 1.5
s = 0.01
rho_x = 0.2
rho_y = -0.3
seed = 99
mode = social
sigma_const = 0.07
eps = 0.2
region_min_x = -1
region_min_y = -2
region_max_x = 1
region_max_y = 2
out_dir = results/run1
"""
    assert parse_config(text) == RunConfig(
        n_nodes=12, steps=5, stride=2, c1=0.3, c2=0.4, r=0.5, w=1.5, s=0.01,
        rho_x=0.2, rho_y=-0.3, seed=99, mode="social", sigma_const=0.07,
        eps=0.2, region_min_x=-1.0, region_min_y=-2.0, region_max_x=1.0,
        region_max_y=2.0, out_dir="results/run1")


def test_mode_maps_to_factor_switches():
    for mode, env_on, social_on in [("none", False, False),
                                    ("env", True, False),
                                    ("social", False, True),
                                    ("both", True, True)]:
        params = parse_config(f"mode = {mode}\n").swarm_params()
        assert params.env_enabled is env_on
        assert params.social_enabled is social_on


def test_swarm_params_carries_values():
    cfg = parse_config("n_nodes = 7\nrho_x = 0.1\nrho_y = -0.2\nr = 0.3\n")
    params = cfg.swarm_params()
    assert params.n_nodes == 7
    assert params.rho == 0.1 - 0.2j
    assert params.r == 0.3


def test_apply_overrides_precedence():
    text = "seed = 5\nsteps = 10\n"
    cfg = parse_config(text)
    out = parse_config(text, seed=8, mode="env")
    assert out.seed == 8          # flag beats file
    assert out.steps == 10        # file kept where no flag
    assert out.mode == "env"      # flag beats default
    assert out.stride == RunConfig().stride  # default kept
    assert parse_config(text, seed=None, mode=None) == cfg


def test_apply_overrides_validates():
    with pytest.raises(ConfigError, match="'steps'"):
        parse_config("", steps=-1)


def test_override_replaces_an_out_of_range_file_value():
    assert parse_config("steps = -1\nseed = 3\n", steps=5).steps == 5
    with pytest.raises(ConfigError, match=r"^line 2: key 'seed' must be in"):
        parse_config("steps = -1\nseed = -1\n", steps=5)


def test_override_drops_the_line_of_the_key_it_replaces():
    with pytest.raises(ConfigError, match=r"^key 'steps' must be >= 0, got -2$"):
        parse_config("seed = 1\nsteps = 4\n", steps=-2)


def test_override_cannot_mend_a_value_the_file_cannot_parse():
    with pytest.raises(ConfigError,
                       match=r"^line 1: cannot parse value 'abc' for key 'steps'"):
        parse_config("steps = abc\n", steps=5)


def test_unknown_override_rejected():
    with pytest.raises(ConfigError, match=r"unknown keys: \['stpes'\]"):
        parse_config("", stpes=5)


def test_run_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunConfig().seed = 3

import dataclasses
import math
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shinerswarm.config import MODES, ConfigError, RunConfig, parse_config
from shinerswarm.core import ParamError


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


@pytest.mark.parametrize("field, value", [
    ("mode", "Both"), ("steps", -1), ("stride", 0), ("eps", -1.0),
    ("seed", 2 ** 64), ("n_nodes", 0), ("region_max_x", -1.0), ("c1", 0.0),
    ("sigma_const", -1.0)])
def test_run_config_refuses_an_out_of_range_field_when_built(field, value):
    # RunConfig(mode="Both") was once made without a word, and its
    # swarm_params() turned both factors off: a pure random walk
    with pytest.raises(ParamError, match=f"^{field} must ") as info:
        RunConfig(**{field: value})
    assert info.value.key == field


def test_replace_checks_the_run_config_it_makes():
    rule = "must be one of none|env|social|both, got 'x'"
    with pytest.raises(ParamError, match=f"^mode {re.escape(rule)}$"):
        dataclasses.replace(RunConfig(), mode="x")


_NEGATIVE = st.floats(max_value=-5e-324)  # excludes -0.0, which is >= 0
_NAN = st.just(math.nan)
_INF = st.just(math.inf)
# an out-of-range value for each field with a rule (out_dir takes any string);
# a region minimum out of range is blamed on the maximum it meets
_OUT_OF_RANGE = {
    "n_nodes": st.integers(max_value=0),
    "steps": st.integers(max_value=-1),
    "stride": st.integers(max_value=0),
    "c1": st.floats(max_value=0.0) | _INF | _NAN,
    "c2": st.floats(max_value=0.0) | _INF | _NAN,
    "r": _NEGATIVE | _NAN,
    "w": _NEGATIVE | _INF | _NAN,
    "s": _NEGATIVE | _INF | _NAN,
    "rho_x": st.sampled_from([math.inf, -math.inf, math.nan]),
    "rho_y": st.sampled_from([math.inf, -math.inf, math.nan]),
    "seed": st.integers(max_value=-1) | st.integers(min_value=2 ** 64),
    "mode": st.text(string.ascii_letters + "_", min_size=1).filter(
        lambda mode: mode not in MODES),
    "sigma_const": _NEGATIVE | _INF | _NAN,
    "eps": _NEGATIVE | _NAN,
    "region_min_x": st.floats(min_value=0.5) | _NAN,
    "region_min_y": st.floats(min_value=0.5) | _NAN,
    "region_max_x": st.floats(max_value=-0.5) | _NAN,
    "region_max_y": st.floats(max_value=-0.5) | _NAN,
}


def test_every_field_but_out_dir_has_an_out_of_range_case():
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    assert sorted(_OUT_OF_RANGE) == sorted(set(fields) - {"out_dir"})


@settings(max_examples=300)
@given(case=st.one_of([st.tuples(st.just(key), values)
                       for key, values in _OUT_OF_RANGE.items()]))
def test_a_file_value_meets_the_check_of_a_value_made_in_code(case):
    key, value = case
    with pytest.raises(ParamError) as built:
        RunConfig(**{key: value})
    fault = built.value.key
    assert fault == key or fault == key.replace("_min_", "_max_")
    with pytest.raises(ConfigError) as parsed:
        parse_config(f"{key} = {value}")
    where = "line 1: " if fault == key else ""
    assert str(parsed.value) == f"{where}key '{fault}' {built.value.rule}"

"""Flat key=value run configuration.

One ``key = value`` per line, ``#`` starts a comment, unknown keys are
rejected. Defaults reproduce the reference swarm scenario: the model keys
take SwarmParams' defaults and nodes are placed on [-0.5, 0.5]^2.
Command-line flags override file values, which override defaults. A
``RunConfig`` checks itself when made, in code or by ``parse_config``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .core import ParamError, SwarmParams, require
from .engine import DEFAULT_EPS, Box, check_run_args, check_seed

MODES = ("none", "env", "social", "both")


class ConfigError(ValueError):
    """Invalid user input: a run configuration (the message names the key,
    and its line when the file set it) or an input file, such as one that is
    not UTF-8 or a CSV without the expected header."""


@dataclass(frozen=True)
class RunConfig:
    """One run's settings, checked when made: ParamError names the first
    field out of range, such as ``steps`` (the model's ``n_steps``)."""

    n_nodes: int = SwarmParams.n_nodes
    steps: int = 70
    stride: int = 35
    c1: float = SwarmParams.c1
    c2: float = SwarmParams.c2
    r: float = SwarmParams.r
    w: float = SwarmParams.w
    s: float = SwarmParams.s
    rho_x: float = SwarmParams.rho.real
    rho_y: float = SwarmParams.rho.imag
    seed: int = 0
    mode: str = "both"
    sigma_const: float | None = SwarmParams.sigma_const
    eps: float = DEFAULT_EPS
    region_min_x: float = -0.5
    region_min_y: float = -0.5
    region_max_x: float = 0.5
    region_max_y: float = 0.5
    out_dir: str = "out"

    def __post_init__(self) -> None:
        try:
            check_run_args(self.steps, self.stride, self.eps)
            require(self.mode in MODES, "mode",
                    f"must be one of {'|'.join(MODES)}", repr(self.mode))
            check_seed(self.seed)
            self.swarm_params()
            self.region()
        except ParamError as exc:
            raise ParamError(config_key(exc.key), exc.rule) from None

    def swarm_params(self) -> SwarmParams:
        return SwarmParams(
            n_nodes=self.n_nodes, c1=self.c1, c2=self.c2, r=self.r,
            w=self.w, s=self.s, rho=complex(self.rho_x, self.rho_y),
            env_enabled=self.mode in ("env", "both"),
            social_enabled=self.mode in ("social", "both"),
            sigma_const=self.sigma_const)

    def region(self) -> Box:
        return Box(self.region_min_x, self.region_min_y,
                   self.region_max_x, self.region_max_y)


# Each key's parser, from its RunConfig annotation (a string in this module).
_PARSERS = {f.name: {"int": int, "str": str}.get(f.type, float)
            for f in fields(RunConfig)}


# Model rules report the model's names; these keys are spelled differently
# in the config and, as flags, on the command line.
_CONFIG_KEYS = {"rho.real": "rho_x", "rho.imag": "rho_y",
                "max_x": "region_max_x", "max_y": "region_max_y",
                "n_steps": "steps", "snapshot_stride": "stride",
                "n_points": "grid_points", "z_min": "grid_min",
                "z_max": "grid_max"}


def config_key(key: str) -> str:
    """The config key for the model key that a ParamError names."""
    return _CONFIG_KEYS.get(key, key)


def parse_config(text: str, **overrides) -> RunConfig:
    """Parse key=value text into a RunConfig whose absent keys take the
    documented defaults. Non-None overrides (the command-line flags) replace
    file values that parse, in range or not, before RunConfig's one check."""
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', "
                              f"got {raw_line.strip()!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        if key in lines:
            raise ConfigError(f"line {line_no}: duplicate key '{key}' "
                              f"(first set on line {lines[key]})")
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError:
            raise ConfigError(f"line {line_no}: cannot parse value {raw!r} "
                              f"for key '{key}'") from None
        lines[key] = line_no
    changes = {k: v for k, v in overrides.items() if v is not None}
    unknown = changes.keys() - _PARSERS.keys()
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    for key in changes:
        lines.pop(key, None)
    try:
        return RunConfig(**{**values, **changes})
    except ParamError as exc:
        where = f"line {lines[exc.key]}: " if exc.key in lines else ""
        raise ConfigError(f"{where}key '{exc.key}' {exc.rule}") from None

"""Flat key=value run configuration.

One ``key = value`` per line, ``#`` starts a comment, unknown keys are
rejected. Defaults reproduce the reference swarm scenario: 100 nodes on
[-0.5, 0.5]^2, darkest spot at the origin, c1 = c2 = 0.1, r = 0.2, w = 20,
s = 0.08. Command-line flags override file values, which override defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .core import ParamError, SwarmParams, require
from .engine import Box, check_seed

MODES = ("none", "env", "social", "both")


class ConfigError(ValueError):
    """Invalid run configuration; the message names the key and line."""


@dataclass(frozen=True)
class RunConfig:
    n_nodes: int = 100
    steps: int = 70
    stride: int = 35
    c1: float = 0.1
    c2: float = 0.1
    r: float = 0.2
    w: float = 20.0
    s: float = 0.08
    rho_x: float = 0.0
    rho_y: float = 0.0
    seed: int = 0
    mode: str = "both"
    sigma_const: float | None = None
    eps: float = 0.15
    region_min_x: float = -0.5
    region_min_y: float = -0.5
    region_max_x: float = 0.5
    region_max_y: float = 0.5
    out_dir: str = "out"

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


_INT_KEYS = {"n_nodes", "steps", "stride", "seed"}
_FLOAT_KEYS = {"c1", "c2", "r", "w", "s", "rho_x", "rho_y", "sigma_const",
               "eps", "region_min_x", "region_min_y", "region_max_x",
               "region_max_y"}
_STR_KEYS = {"mode", "out_dir"}
KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS


def _parse_value(key: str, raw: str, line_no: int):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"line {line_no}: cannot parse value {raw!r} for key '{key}'") from None


# Model rules report the model's names; these keys are spelled differently
# in the config.
_CONFIG_KEYS = {"rho.real": "rho_x", "rho.imag": "rho_y",
                "max_x": "region_max_x", "max_y": "region_max_y"}


def validate(cfg: RunConfig, lines: dict[str, int] | None = None) -> RunConfig:
    """Raise ConfigError on any invariant violation, citing the source line
    of the offending key when known. Only the run keys are checked here; the
    model keys are checked by the types that own them (SwarmParams, Box and
    check_seed)."""
    try:
        require(cfg.steps >= 0, "steps", "must be >= 0", cfg.steps)
        require(cfg.stride >= 1, "stride", "must be >= 1", cfg.stride)
        require(cfg.eps >= 0, "eps", "must be >= 0", cfg.eps)
        require(cfg.mode in MODES, "mode", f"must be one of {'|'.join(MODES)}",
                repr(cfg.mode))
        check_seed(cfg.seed)
        cfg.swarm_params()
        cfg.region()
    except ParamError as exc:
        key = _CONFIG_KEYS.get(exc.key, exc.key)
        line = (lines or {}).get(key)
        where = f"line {line}: " if line is not None else ""
        raise ConfigError(f"{where}key '{key}' {exc.rule}") from None
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse key=value text into a validated RunConfig; absent keys take
    the documented defaults."""
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
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        if key in lines:
            raise ConfigError(f"line {line_no}: duplicate key '{key}' "
                              f"(first set on line {lines[key]})")
        values[key] = _parse_value(key, raw, line_no)
        lines[key] = line_no
    cfg = RunConfig(**values)
    return validate(cfg, lines)


def format_config(cfg: RunConfig) -> str:
    """Serialize to the config format; parse_config(format_config(c)) == c."""
    out = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        out.append(f"{f.name} = {value}")
    return "\n".join(out) + "\n"


def apply_overrides(cfg: RunConfig, **overrides) -> RunConfig:
    """Apply non-None overrides (e.g. from command-line flags) and
    revalidate."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    if not changes:
        return cfg
    unknown = set(changes) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    return validate(replace(cfg, **changes))

"""Flat key=value run configuration.

One ``key = value`` per line, ``#`` starts a comment, unknown keys are
rejected. Defaults reproduce the reference swarm scenario: 100 nodes on
[-0.5, 0.5]^2, darkest spot at the origin, c1 = c2 = 0.1, r = 0.2, w = 20,
s = 0.08. Command-line flags override file values, which override defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .core import SwarmParams
from .engine import SEED_LIMIT, Box

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


def _check(cond: bool, key: str, line_no: int | None, message: str) -> None:
    if cond:
        return
    where = f"line {line_no}: " if line_no is not None else ""
    raise ConfigError(f"{where}{message}")


def validate(cfg: RunConfig, lines: dict[str, int] | None = None) -> RunConfig:
    """Raise ConfigError on any invariant violation, citing the source line
    of the offending key when known."""
    ln = (lines or {}).get
    _check(cfg.n_nodes >= 1, "n_nodes", ln("n_nodes"),
           f"key 'n_nodes' must be >= 1, got {cfg.n_nodes}")
    _check(cfg.steps >= 0, "steps", ln("steps"),
           f"key 'steps' must be >= 0, got {cfg.steps}")
    _check(cfg.stride >= 1, "stride", ln("stride"),
           f"key 'stride' must be >= 1, got {cfg.stride}")
    _check(0 <= cfg.seed < SEED_LIMIT, "seed", ln("seed"),
           f"key 'seed' must be in [0, 2**64), got {cfg.seed}")
    _check(cfg.c1 > 0, "c1", ln("c1"),
           f"key 'c1' must be positive, got {cfg.c1}")
    _check(cfg.c2 > 0, "c2", ln("c2"),
           f"key 'c2' must be positive, got {cfg.c2}")
    _check(cfg.r >= 0, "r", ln("r"), f"key 'r' must be >= 0, got {cfg.r}")
    _check(cfg.w >= 0, "w", ln("w"), f"key 'w' must be >= 0, got {cfg.w}")
    _check(cfg.s >= 0, "s", ln("s"), f"key 's' must be >= 0, got {cfg.s}")
    _check(cfg.eps >= 0, "eps", ln("eps"),
           f"key 'eps' must be >= 0, got {cfg.eps}")
    _check(cfg.sigma_const is None or cfg.sigma_const >= 0,
           "sigma_const", ln("sigma_const"),
           f"key 'sigma_const' must be >= 0, got {cfg.sigma_const}")
    _check(cfg.mode in MODES, "mode", ln("mode"),
           f"key 'mode' must be one of {'|'.join(MODES)}, got {cfg.mode!r}")
    _check(cfg.region_min_x < cfg.region_max_x, "region_max_x",
           ln("region_max_x"),
           "region must satisfy region_min_x < region_max_x")
    _check(cfg.region_min_y < cfg.region_max_y, "region_max_y",
           ln("region_max_y"),
           "region must satisfy region_min_y < region_max_y")
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

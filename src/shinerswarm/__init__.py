"""Golden-shiner-style swarm navigation: 2D agent simulation plus the 1D
location-density propagator that cross-checks the model's behavior."""

from .config import ConfigError, RunConfig, parse_config
from .core import (
    NeighborGraph,
    SwarmParams,
    build_neighborhood,
    hammer,
)
from .density import (
    GridPdf,
    GridSpanError,
    KernelParams,
    grid_stats,
    initial_pdf,
    pdf_at_time,
    propagate,
)
from .engine import (
    Box,
    Metrics,
    SwarmState,
    advance_swarm,
    compute_metrics,
    first_passage,
    init_swarm,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "ConfigError",
    "GridPdf",
    "GridSpanError",
    "KernelParams",
    "Metrics",
    "NeighborGraph",
    "RunConfig",
    "SwarmParams",
    "SwarmState",
    "advance_swarm",
    "build_neighborhood",
    "compute_metrics",
    "first_passage",
    "grid_stats",
    "hammer",
    "init_swarm",
    "initial_pdf",
    "parse_config",
    "pdf_at_time",
    "propagate",
    "run",
]

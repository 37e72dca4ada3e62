"""Golden-shiner-style swarm navigation: 2D agent simulation plus the 1D
location-density propagator that cross-checks the model's behavior."""

from .config import RunConfig
from .core import SwarmParams
from .density import (
    KernelParams,
    grid_stats,
    initial_pdf,
    pdf_at_time,
    propagate,
)
from .engine import (
    Box,
    SwarmState,
    advance_swarm,
    first_passage,
    init_swarm,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "KernelParams",
    "RunConfig",
    "SwarmParams",
    "SwarmState",
    "advance_swarm",
    "first_passage",
    "grid_stats",
    "init_swarm",
    "initial_pdf",
    "pdf_at_time",
    "propagate",
    "run",
]

import importlib
import pkgutil
import time

import numpy as np
import pytest
from hypothesis import settings

import shinerswarm
from shinerswarm.density import GridPdf, KernelParams, initial_pdf, propagate

# Every property test runs under this profile, and its own @settings sets
# only max_examples. Derandomised draws are a function of the test and of
# the constant pool: Hypothesis mines literals from every local module
# loaded when a test first draws, skipping files under tests/. So every
# module of the package is loaded here, before any test runs, and a test
# draws the same examples whichever tests a run selects. An example that
# matters is still pinned as a case.
for _module in pkgutil.iter_modules(shinerswarm.__path__):
    importlib.import_module(f"shinerswarm.{_module.name}")
settings.register_profile("derandomized", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("derandomized")

# Reference 1D scenario: walker starting at 5 with c1 = 1, c2 = 0.1.
REF_KERNEL = KernelParams(c1=1.0, c2=0.1)
REF_X0 = 5.0

_REF_TIMING: dict[str, float] = {}


@pytest.fixture(scope="session")
def ref_chain() -> dict[int, GridPdf]:
    """Grid pdfs for t = 1, 2, 3 of the reference scenario on the default
    grid; computed once per session."""
    t0 = time.perf_counter()
    f = initial_pdf(REF_X0, REF_KERNEL)
    chain = {1: f}
    for t in (2, 3):
        f = propagate(f)
        chain[t] = f
    _REF_TIMING["seconds"] = time.perf_counter() - t0
    return chain


@pytest.fixture(scope="session")
def ref_chain_seconds(ref_chain) -> float:
    """Wall-clock cost of building the reference chain."""
    return _REF_TIMING["seconds"]


class FakeStream:
    """Replays preset values in place of standard-normal draws."""

    def __init__(self, values):
        self._vals = [float(v) for v in values]

    def standard_normal(self, size=None):
        if size is None:
            return self._vals.pop(0)
        n = int(np.prod(size))
        out = np.array([self._vals.pop(0) for _ in range(n)])
        return out.reshape(size)


def trapezoid_weights(z: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights for samples at the increasing nodes z, from the
    node spacing alone (independent of the weights the program uses)."""
    dz = np.diff(z)
    w = np.zeros(z.size)
    w[:-1] += dz / 2
    w[1:] += dz / 2
    return w


def grid_bin_masses(f: GridPdf, edges: np.ndarray) -> np.ndarray:
    """Probability mass of a grid pdf in each bin, via the piecewise-linear
    cumulative integral interpolated at the bin edges."""
    z = f.z
    cdf = np.concatenate(
        [[0.0], np.cumsum((f.values[1:] + f.values[:-1]) * 0.5 * np.diff(z))])
    return np.diff(np.interp(edges, z, cdf))


def tv_distance_to_samples(f: GridPdf, samples: np.ndarray,
                           edges: np.ndarray) -> float:
    """Total variation distance between a grid pdf and an empirical sample,
    over the given bins plus a catch-all outside bin."""
    p = grid_bin_masses(f, edges)
    counts, _ = np.histogram(samples, bins=edges)
    q = counts / samples.size
    total_mass = float(np.trapezoid(f.values, f.z))
    p_out = total_mass - p.sum()
    q_out = 1.0 - q.sum()
    return 0.5 * (np.abs(p - q).sum() + abs(p_out - q_out))

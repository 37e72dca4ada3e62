"""Host-speed probe: times are reported in seconds on a reference host.

On a shared machine the host's speed drifts by up to 1.8x over minutes (the
same op measured 0.062 s and 0.111 s in runs a few minutes apart on a 2-vCPU
virtual machine), and a run of any length sees whatever phase it lands in.
The probe is a fixed piece of work timed right around each measurement; since
both slow down together, a time divided by the probe's time moves far less
(ten-seed spread 0.41 raw against 0.05 normalised on that machine). Times
are then multiplied by ``REF_PROBE_S`` so they read as seconds on a host where
one probe sample takes that long; the raw seconds are printed beside them.

The probe mixes the two kinds of work the program does, many small calls into
numpy (like the per-node draws) and a long vectorised array pass (like the
metrics and the density kernel). It does not use the program, so a change to
the program cannot change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds one probe sample takes on the reference host. Fixed: changing it
# rescales every reported time.
REF_PROBE_S = 0.004


class HostProbe:
    """The probe kernel with its fixed inputs."""

    def __init__(self) -> None:
        self._gens = [np.random.default_rng(i) for i in range(100)]
        self._draws = np.empty((100, 4))
        self._x = np.linspace(-3.0, 3.0, 200_000)

    def sample(self) -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            for i, g in enumerate(self._gens):
                self._draws[i] = g.standard_normal(4)
            np.hypot(self._draws[:, 0], self._draws[:, 1])
        np.exp(-0.5 * self._x * self._x).sum()
        return time.perf_counter() - t0

    def batch(self, budget: float = 0.0) -> list[float]:
        """Probe samples taking about ``budget`` seconds, at least three."""
        out = [self.sample() for _ in range(3)]
        while sum(out) < budget:
            out.append(self.sample())
        return out


def to_ref(durations, batches) -> list[float]:
    """Reference-host seconds of each duration, scaled by the median probe
    sample of the batches taken just before and just after it."""
    return [d * REF_PROBE_S / statistics.median(batches[k] + batches[k + 1])
            for k, d in enumerate(durations)]

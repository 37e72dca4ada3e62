"""Span recorder that times shinerswarm's layer functions from outside.

The program is not instrumented. Instead, each public layer function is
replaced, for the duration of one traced op, by a wrapper that records a span
(name, start, end, parent). The modules call each other through names bound
at import (``engine`` calls ``build_neighborhood`` as
``shinerswarm.engine.build_neighborhood``, ``cli`` calls ``run`` as
``shinerswarm.cli.run``), so every module attribute that holds the original
function is patched, not only the one in the defining module.

A layer function that no longer exists, for instance after a refactor moves
it, is reported as absent rather than raising; its metrics then read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, defining module, attribute path in that module).
LAYER_FUNCS = (
    ("cli.main", "shinerswarm.cli", "main"),
    ("engine.run", "shinerswarm.engine", "run"),
    ("engine.first_passage", "shinerswarm.engine", "first_passage"),
    ("engine.init_swarm", "shinerswarm.engine", "init_swarm"),
    ("engine.advance_swarm", "shinerswarm.engine", "advance_swarm"),
    ("engine.compute_metrics", "shinerswarm.engine", "compute_metrics"),
    ("core.build_neighborhood", "shinerswarm.core", "build_neighborhood"),
    ("core.hammer", "shinerswarm.core", "hammer"),
    ("core.component_count", "shinerswarm.core", "NeighborGraph.component_count"),
    ("density.pdf_at_time", "shinerswarm.density", "pdf_at_time"),
    ("density.initial_pdf", "shinerswarm.density", "initial_pdf"),
    ("density.propagate", "shinerswarm.density", "propagate"),
    ("density.grid_stats", "shinerswarm.density", "grid_stats"),
)

# Span that holds the work of computing counters from a layer's return value;
# it keeps that cost out of the caller's self time.
COUNTER_SPAN = "trace.counters"


def _degrees(graph):
    """Node degrees of a neighbor graph, from whichever accessor it offers:
    ``degrees()`` on the adjacency-list graph, ``indptr`` on a CSR one."""
    if hasattr(graph, "degrees"):
        return np.asarray(graph.degrees())
    if hasattr(graph, "indptr"):
        return np.diff(np.asarray(graph.indptr))
    return None


class Tracer:
    """Records spans in memory while installed; ``summary`` folds them into
    per-op self times and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.absent: list[str] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._patches: list[tuple[object, str, object, object]] = []
        counters = {
            "core.build_neighborhood": self._count_graph,
            "density.propagate": self._count_grid,
            "density.initial_pdf": self._count_grid,
            "density.grid_stats": self._count_mass,
        }
        for name, modname, path in LAYER_FUNCS:
            owner = sys.modules.get(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, fn, counters.get(name))
            if outer:  # a method: the class attribute is the only binding
                self._patches.append((owner, attr, fn, wrapped))
                continue
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("shinerswarm"):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, key, fn, wrapped))

    def install(self) -> None:
        for obj, key, _, wrapped in self._patches:
            setattr(obj, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, original, _ in self._patches:
            setattr(obj, key, original)

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(idx)

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.timed(name, fn, *args, **kwargs)
            if counter is not None:
                self.timed(COUNTER_SPAN, counter, out)
            return out
        return traced

    def _count_graph(self, graph) -> None:
        deg = _degrees(graph)
        if deg is None:
            if "core.edges" not in self.absent:
                self.absent.append("core.edges")
            return
        self.counts["core.edges"].append(float(deg.sum()) / 2)
        self.counts["core.max_degree"].append(float(deg.max(initial=0)))

    def _count_grid(self, f) -> None:
        self.counts["density.grid_points"].append(float(np.size(f.values)))

    def _count_mass(self, stats) -> None:
        self.counts["density.mass_deficit"].append(1.0 - float(stats.mass))

    def summary(self, n_ops: int) -> dict[str, float]:
        """Per-op self time and call count of every span name, plus the
        counters. Self time is a span's duration minus its direct children's,
        so the self times of all names sum to the traced wall time."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        out = {}
        for name, _, _ in LAYER_FUNCS:
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / n_ops
            out[f"{name}.calls"] = calls.get(name, 0) / n_ops
        for name in ("bench.op", COUNTER_SPAN):
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / n_ops
        out["trace.wall_s"] = sum(end - start for _, start, end, parent
                                  in self.spans if parent < 0) / n_ops
        out["core.edges"] = float(np.mean(self.counts["core.edges"] or [0.0]))
        out["core.max_degree"] = max(self.counts["core.max_degree"] or [0.0])
        out["density.grid_points"] = max(self.counts["density.grid_points"] or [0.0])
        out["density.mass_deficit"] = float(
            np.mean(self.counts["density.mass_deficit"] or [0.0]))
        out["trace.absent"] = float(len(self.absent))
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)

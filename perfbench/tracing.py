"""Spans and work counts at the boundaries of the layerfem layers.

The benchmark records spans only in its own code: ``instrument`` replaces,
for the duration of a traced pass, every reference a ``layerfem`` module
holds to a layer's entry point with a wrapper that opens a span around the
call.  Calls the library makes internally (``run_study`` calling
``femcore.solve``, ``build_bundle`` calling ``lagrange_interp``) are thus
attributed to the layer they enter.  Spans are kept in memory; a layer's
self time is its spans' duration minus the time their child spans cover.

Which end-to-end metric each layer metric should move, on which workload:

* ``femcore.solve.*`` (+ ``dofs``, ``failed``) -> ``wall_s`` and
  ``op_p90_ms`` on ``solve-fine`` and ``study``; no change on ``interp``.
* ``norms.*`` (+ ``evals``, ``evals_per_elem``) -> ``wall_s`` on ``interp``
  and ``study``; no change on ``solve-fine``.
* ``femcore.assemble.*`` (+ ``dofs``) -> ``wall_s`` on ``solve-fine``.
* ``problem.*`` and ``mesh.*`` -> ``op_p50_ms`` on ``study``.
* ``interpolants.*`` -> ``wall_s`` on ``interp``.
* ``study.aggregate.*`` and ``study.emit.*`` -> ``wall_s`` on ``study``
  (guards; their share is near 0).
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

# Layer name -> the (module, function) entry points whose calls it covers.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "problem": (("layerfem.problem", "get_problem"),),
    "mesh": (("layerfem.mesh", "generate"),),
    "femcore.assemble": (("layerfem.femcore", "assemble"),),
    "femcore.solve": (("layerfem.femcore", "solve"),),
    "norms": (("layerfem.norms", "error_norms"),),
    "interpolants": (
        ("layerfem.interpolants", "lagrange_interp"),
        ("layerfem.interpolants", "build_bundle"),
    ),
    "study.aggregate": (("layerfem.study", "aggregate"),),
    "study.emit": (("layerfem.study", "emit"),),
}
_UNITS = {
    "calls": "count",
    "time_s": "s",
    "share": "fraction",
    "dofs": "count",
    "failed": "count",
    "evals": "count",
    "evals_per_elem": "evals/elem",
    "wall_s": "s",
    "overhead_s": "s",
}
COUNTS = (
    "femcore.assemble.dofs",
    "femcore.solve.dofs",
    "femcore.solve.failed",
    "norms.evals",
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: str | None


class Tracer:
    """In-memory spans and work counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)


def _plain(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(layer):
            return fn(*args, **kwargs)

    return traced


def _assemble(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(bvp, mesh, degree, *args, **kwargs):
        with tracer.span(layer):
            system = fn(bvp, mesh, degree, *args, **kwargs)
        # Interior unknowns: k*N + 1 global nodes minus the two Dirichlet ends.
        tracer.counts["femcore.assemble.dofs"] += degree * mesh.N - 1
        return system

    return traced


def _solve(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(layer):
            try:
                x = fn(*args, **kwargs)
            except Exception:
                tracer.counts["femcore.solve.failed"] += 1
                raise
        tracer.counts["femcore.solve.dofs"] += np.size(x)
        return x

    return traced


def _norms(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(fem, exact_u, *args, **kwargs):
        def counted_u(x):
            tracer.counts["norms.evals"] += np.size(x)
            return exact_u(x)

        tracer.counts["norms.elems"] += fem.mesh.N
        with tracer.span(layer):
            return fn(fem, counted_u, *args, **kwargs)

    return traced


_WRAPPERS = {"femcore.assemble": _assemble, "femcore.solve": _solve, "norms": _norms}


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Route every layerfem reference to a layer entry point through a span.

    Returns a function that restores the original references.
    """
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "layerfem" or name.startswith("layerfem."))
    ]
    patched: list[tuple[object, str, Callable]] = []
    for layer, entries in LAYERS.items():
        wrap = _WRAPPERS.get(layer, _plain)
        for module_name, attr in entries:
            original = getattr(sys.modules[module_name], attr)
            wrapper = wrap(tracer, layer, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def restore() -> None:
        for mod, name, original in reversed(patched):
            setattr(mod, name, original)

    return restore


def self_times(spans: list[Span]) -> tuple[dict[str, float], Counter]:
    """Self time and call count per span name."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    self_time: dict[str, float] = {}
    calls: Counter = Counter()
    for span, child in zip(spans, covered):
        self_time[span.name] = self_time.get(span.name, 0.0) + (span.end - span.start) - child
        calls[span.name] += 1
    return self_time, calls


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose wall time was ``wall_s``."""
    self_time, calls = self_times(tracer.spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        time_s = self_time.get(layer, 0.0)
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.time_s"] = time_s
        out[f"{layer}.share"] = time_s / wall_s
    for name in COUNTS:
        out[name] = tracer.counts[name]
    elems = tracer.counts["norms.elems"]
    out["norms.evals_per_elem"] = tracer.counts["norms.evals"] / elems if elems else 0.0
    return out


def unit_of(metric: str) -> str:
    return _UNITS[metric.rsplit(".", 1)[1]]


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over traced passes (counts repeat exactly)."""
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def self_time_table(spans: list[Span], wall_s: float) -> str:
    """Text table of calls, self time and share per span name."""
    self_time, calls = self_times(spans)
    lines = [f"{'layer':<18} {'calls':>7} {'self_s':>9} {'share':>7}"]
    for name in sorted(self_time, key=self_time.get, reverse=True):
        lines.append(
            f"{name:<18} {calls[name]:>7d} {self_time[name]:>9.4f} {self_time[name] / wall_s:>7.1%}"
        )
    return "\n".join(lines)

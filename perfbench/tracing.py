"""Spans around tsteer's layer boundaries, and the per-layer metrics built from them.

The traced run swaps each function below for a wrapper at the module
attribute the pipeline calls it through, and restores the originals on exit.
Nothing inside tsteer is edited, so the spans sit at public-function
boundaries only.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from workloads import TOL, channels, measures, np, sdp

# (module, attribute the pipeline calls through, span name)
WRAPPED = (
    (measures, "tsw_trace", "measures.tsw_trace"),
    (measures, "nc_trace", "measures.nc_trace"),
    (channels, "evolve_grid", "channels.evolve_grid"),
    (channels, "rk4_evolve", "channels.rk4_evolve"),
    (measures, "validate", "steering.validate"),
    (measures, "build_sw_sdp", "sdp.build_sw_sdp"),
    (measures, "solve", "sdp.solve"),
    (measures, "concurrence", "measures.concurrence"),
    (sdp, "dual_certificate", "sdp.dual_certificate"),
)

# Spans a workload must record; zero spans means a layer went missing
# (renamed, inlined or bypassed) and the layer metrics would silently read 0.
EXPECTED_IN_PASS = {
    "exchange_tsw": {"measures.tsw_trace", "channels.evolve_grid", "channels.rk4_evolve",
                     "steering.validate", "sdp.build_sw_sdp", "sdp.solve"},
    "lorentz_tsw": {"measures.tsw_trace", "channels.evolve_grid",
                    "steering.validate", "sdp.build_sw_sdp", "sdp.solve"},
    "nc_compare": {"measures.nc_trace", "channels.rk4_evolve", "measures.concurrence"},
}
EXPECTED_IN_CHECK = {
    "exchange_tsw": {"sdp.dual_certificate"},
    "lorentz_tsw": {"sdp.dual_certificate"},
    "nc_compare": set(),
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = math.nan
    result: object = field(default=None, repr=False)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Spans kept in memory in start order; a stack gives each its parent."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        s = Span(len(self.spans), self._open[-1] if self._open else None, name,
                 time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def subtree(self, root):
        """The root span and all its descendants."""
        keep = {root.id}
        for s in self.spans[root.id + 1:]:
            if s.parent in keep:
                keep.add(s.id)
        return [s for s in self.spans if s.id in keep]


def self_times(spans):
    """Span duration minus the time its direct children cover, keyed by span id."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.duration
    return out


@contextmanager
def patched(tracer):
    """Wrap every WRAPPED function for the duration of the block."""
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED]

    def wrap(fn, name):
        def wrapper(*args, **kwargs):
            with tracer.span(name) as s:
                s.result = fn(*args, **kwargs)
                return s.result
        return wrapper

    try:
        for (mod, attr, fn), (_, _, name) in zip(originals, WRAPPED):
            setattr(mod, attr, wrap(fn, name))
        yield tracer
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)


def layer_metrics(workload, tracer, pass_root, check_root, results, untraced_wall):
    """Per-layer metrics of one traced pass and its traced output check.

    results are the pass's CurveResults; untraced_wall is the median wall
    time of the untraced passes, so the difference is the tracing overhead.
    Raises RuntimeError when an expected layer recorded no span.
    """
    spans = tracer.subtree(pass_root)
    check_spans = tracer.subtree(check_root)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    missing = sorted(EXPECTED_IN_PASS[workload] - {s.name for s in spans}
                     | EXPECTED_IN_CHECK[workload] - {s.name for s in check_spans})
    if missing:
        raise RuntimeError(f"{workload}: no spans recorded for {', '.join(missing)}")

    selfs = self_times(spans)
    wall = pass_root.duration
    if abs(sum(selfs.values()) - wall) > 1e-6:
        raise RuntimeError("span self times do not add up to the traced pass")

    def total(name):
        return sum((s.duration for s in by_name.get(name, [])), 0.0)

    def self_total(name):
        return sum((selfs[s.id] for s in by_name.get(name, [])), 0.0)

    solves = by_name.get("sdp.solve", [])
    solve_ms = [1e3 * s.duration for s in solves]
    steps = [s.result.iterations for s in solves]
    finals = [sol for r in results if r.series.solutions for sol in r.series.solutions]
    max_multiplier = max((float(np.abs(sol.dual_vars).max()) for sol in finals), default=1.0)
    return {
        "channels.evolve_grid_s": (total("channels.evolve_grid"), "s"),
        "channels.rk4_evolve_s": (total("channels.rk4_evolve"), "s"),
        "channels.rk4_evolve_calls": (len(by_name.get("channels.rk4_evolve", [])), "count"),
        "sdp.solve_s": (total("sdp.solve"), "s"),
        "sdp.solve_calls": (len(solves), "count"),
        "sdp.retry_calls": (len(solves) - len(finals), "count"),
        "sdp.newton_steps": (sum(steps), "count"),
        "sdp.max_steps_per_solve": (max(steps, default=0), "count"),
        "sdp.ms_per_newton_step": (sum(solve_ms) / sum(steps) if steps else 0.0, "ms"),
        "sdp.solve_ms_p50": (statistics.median(solve_ms) if solves else 0.0, "ms"),
        "sdp.solve_ms_max": (max(solve_ms, default=0.0), "ms"),
        "sdp.gap_over_tol": (sum(1 for sol in finals
                                 if sol.status is sdp.SolveStatus.OPTIMAL and sol.gap > TOL),
                             "count"),
        "sdp.log10_max_multiplier": (math.log10(max_multiplier) if finals else 0.0, "log10"),
        "sdp.build_s": (total("sdp.build_sw_sdp"), "s"),
        "sdp.certificate_s": (sum((s.duration for s in check_spans
                                   if s.name == "sdp.dual_certificate"), 0.0), "s"),
        "steering.validate_s": (total("steering.validate"), "s"),
        "measures.tsw_trace_self_s": (self_total("measures.tsw_trace"), "s"),
        "measures.concurrence_s": (total("measures.concurrence"), "s"),
        "measures.concurrence_calls": (len(by_name.get("measures.concurrence", [])), "count"),
        "measures.nc_trace_self_s": (self_total("measures.nc_trace"), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
    }

"""The benchmark's workloads: the paper's three pipelines through tsteer's public API.

Importing this module pins every BLAS/OpenMP pool to one thread and loads
``tsteer`` from the ``src`` directory of the checkout that holds this file.
The pin must precede the first numpy import: with two OpenBLAS threads the
64x64 Liouvillian products of ``nc_compare`` burn about twice the CPU for
the same wall time, and the spare core is shared with other work.

A workload is a list of curves (channel, time horizon, grid size). The
default seed runs the paper's parameters exactly; any other seed scales each
model rate by an independent factor in [1 - JITTER, 1 + JITTER].
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before the BLAS thread pin")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _load_tsteer():
    if not (SRC / "tsteer" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tsteer sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tsteer

    if Path(tsteer.__file__).resolve().parent != SRC / "tsteer":
        sys.exit(f"perfbench: imported tsteer from {tsteer.__file__}, not {SRC}")
    return tsteer


tsteer = _load_tsteer()

import numpy as np  # noqa: E402  (after the pin)
from tsteer import channels, measures, sdp, steering  # noqa: E402
from tsteer.errors import CertificateInvalid  # noqa: E402

DEFAULT_SEED = 0
JITTER = 0.01
TOL = 1e-8                  # solver tolerance tsw_trace runs at
CERTIFIED_GAP = 10 * TOL    # widest gap the solver accepts as OPTIMAL
REFERENCE_TOL = 1e-5        # above the 4.9e-6 warm/cold disagreement on lorentz_tsw
RANGE_TOL = 1e-7            # TSW/concurrence may leave [0, 1] by at most a certified gap
RHO0 = np.eye(2, dtype=complex) / 2
SETTINGS = "XYZ"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Curve:
    model: str          # class name in tsteer.channels
    params: tuple       # positional rates of the model
    t_max: float
    n_points: int

    def channel(self):
        return getattr(channels, self.model)(*self.params)

    def times(self):
        return np.linspace(0.0, self.t_max, self.n_points)


# Paper parameters. "tsw" workloads run tsw_trace + n_tsw, "nc" ones nc_trace.
WORKLOADS = {
    "exchange_tsw": ("tsw", [Curve("Exchange", (1.0, 0.0), 2 * np.pi, 81)]),
    "lorentz_tsw": ("tsw", [Curve("LorentzianAD", (2.0, 1.0), 10.0, 81)]),
    "nc_compare": ("nc", [
        Curve("RabiDecay", (1.0, 1 / 6), 8.0, 33),
        Curve("Exchange", (1.0, 0.0), 2 * np.pi, 81),
        Curve("LorentzianAD", (2.0, 1.0), 10.0, 81),
    ]),
}


def make_curves(workload, seed, n_points=None):
    """The workload's curves for a seed; n_points shortens every grid."""
    kind, curves = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    out = []
    for c in curves:
        params = c.params
        if seed != DEFAULT_SEED:
            scale = 1.0 + JITTER * rng.uniform(-1.0, 1.0, size=len(params))
            params = tuple(float(p * s) for p, s in zip(params, scale))
        out.append(Curve(c.model, params, c.t_max, n_points or c.n_points))
    return kind, out


@dataclass
class CurveResult:
    series: object          # tsteer TraceSeries
    n_tsw: float = None     # N_TSW for tsw curves


def run_pass(kind, curves):
    """One pass of the pipeline. Calls go through module attributes so that
    the traced run's wrappers see them."""
    results = []
    for c in curves:
        if kind == "tsw":
            ms = steering.pauli_measurement_set(SETTINGS)
            series = measures.tsw_trace(c.channel(), ms, RHO0, c.t_max, c.n_points, tol=TOL)
            results.append(CurveResult(series, measures.n_tsw(series).value))
        else:
            results.append(CurveResult(measures.nc_trace(c.channel(), c.t_max, c.n_points)))
    return results


# --- output check -------------------------------------------------------------


def rebuild_problems(curve):
    """Steerable-weight SDPs of a curve, rebuilt from the public building blocks."""
    ms = steering.pauli_measurement_set(SETTINGS)
    stacks = channels.evolve_grid(curve.channel(), steering.premeasure(RHO0, ms).stacked(),
                                  curve.times())
    table = steering.strategy_table(ms.n_meas)
    problems = []
    for t, stack in zip(curve.times(), stacks):
        members = {(x, a): stack[2 * i + k]
                   for i, x in enumerate(ms.labels)
                   for k, a in enumerate(steering.OUTCOMES)}
        problems.append(sdp.build_sw_sdp(steering.Assemblage(ms.labels, members, float(t)), table))
    return problems


def positive_slope_sum(values, threshold=measures.DEFAULT_SLOPE_THRESHOLD):
    """N_TSW recomputed from the values: positive increments above the threshold."""
    d = np.diff(np.asarray(values, dtype=float))
    return float(d[d > threshold].sum())


def check_tsw_point(value, sol, problem):
    """Reason the point is rejected, or None when its certificate holds."""
    if sol.status is not sdp.SolveStatus.OPTIMAL:
        return f"status {sol.status.value}"
    try:
        report = sdp.dual_certificate(sol, problem)
    except CertificateInvalid as exc:
        return f"certificate: {exc}"
    if report.gap > CERTIFIED_GAP:
        return f"gap {report.gap:.3e} above {CERTIFIED_GAP:.0e}"
    # TSW = 1 - mu* lies in [1 - dual, 1 - primal]; the reported value must too
    lo, hi = 1.0 - report.dual_value, 1.0 - sol.mu_star
    if not min(lo, hi) - 1e-12 <= value <= max(lo, hi) + 1e-12:
        return f"value {value!r} outside its certified bracket [{lo!r}, {hi!r}]"
    return None


def check_curve(kind, result, problems=None, reference=None):
    """Check one curve's output. Returns (failed points {index: reason}, curve-level reasons).

    problems (tsw only) are the SDPs rebuilt by rebuild_problems; reference
    holds the values (and N_TSW) recorded for the default seed, or is None.
    """
    values = [float(v) for v in result.series.values]
    curve_reasons = []
    if reference is not None and len(values) != len(reference["values"]):
        curve_reasons.append(f"{len(values)} points, reference has {len(reference['values'])}")
        reference = None
    failed = {}
    for i, v in enumerate(values):
        if not -RANGE_TOL <= v <= 1.0 + RANGE_TOL:
            failed[i] = f"value {v!r} outside [0, 1]"
        elif reference is not None and abs(v - reference["values"][i]) > REFERENCE_TOL:
            failed[i] = f"value {v!r} differs from reference {reference['values'][i]!r}"
        elif kind == "tsw":
            reason = check_tsw_point(v, result.series.solutions[i], problems[i])
            if reason:
                failed[i] = reason
    if kind == "nc" and abs(values[0] - 1.0) > 1e-9:
        # the ancilla pair starts maximally entangled, whatever the channel
        curve_reasons.append(f"concurrence at t=0 is {values[0]!r}, not 1")
    if kind == "tsw":
        n = result.n_tsw
        if not n >= 0.0:
            curve_reasons.append(f"N_TSW {n!r} < 0")
        if abs(n - positive_slope_sum(values)) > 1e-12:
            curve_reasons.append(f"N_TSW {n!r} disagrees with the values")
        if reference is not None and abs(n - reference["n_tsw"]) > REFERENCE_TOL:
            curve_reasons.append(f"N_TSW {n!r} differs from reference {reference['n_tsw']!r}")
    return failed, curve_reasons


def curve_spec(curve):
    return {"model": curve.model, "params": list(curve.params),
            "t_max": curve.t_max, "n_points": curve.n_points}


def load_reference(workload, seed, curves):
    """Per-curve values recorded on the default seed; None on other seeds."""
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE_FILE) as fh:
        recorded = json.load(fh)[workload]
    for curve, ref in zip(curves, recorded, strict=True):
        if {k: ref[k] for k in curve_spec(curve)} != curve_spec(curve):
            raise ValueError(f"{REFERENCE_FILE.name} was recorded for {ref}, not {curve}")
    return recorded

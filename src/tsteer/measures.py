"""Steering measures over time: TSW traces and the memory they witness.

The temporal steerable weight of an assemblage is TSW = 1 - mu*, the
complement of the largest unsteerable fraction found by the SDP. Under any
completely positive trace-preserving map the TSW cannot grow, and under
divisible (Markovian) dynamics it is therefore monotone in time; any
positive slope certifies memory. The non-Markovianity number integrates
exactly that positive slope over a sampled trace:

    N = sum_i max(TSW(t_{i+1}) - TSW(t_i), 0),

counting only increments above a noise threshold. The companion convention
adds |dTSW/dt| and the boundary term instead, which is exactly twice the
positive-slope value on the same filtered increments.

For comparison, the concurrence between the evolving qubit and an isolated
ancilla (prepared maximally entangled) provides the entanglement-based
witness on the same grids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import channels, hermat
from .errors import InvalidState, ValidationError
from .steering import (
    Assemblage,
    MeasurementSet,
    _from_stack,
    strategy_table,
    validate,
)
from .sdp import SdpSolution, SolveStatus, build_sw_sdp, solve

DEFAULT_SLOPE_THRESHOLD = 1e-6


@dataclass
class TswResult:
    value: float
    solution: SdpSolution = field(repr=False)
    time_tag: float = 0.0


@dataclass
class TraceSeries:
    """A sampled scalar measure over a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)
    solutions: list = field(default=None, repr=False)


@dataclass
class NmResult:
    value: float
    convention: str
    slope_threshold: float
    series: TraceSeries = field(repr=False)


@functools.lru_cache(maxsize=32)
def _uniform_grid(t_max: float, n_steps: float) -> np.ndarray:
    """Read-only uniform grid of n_steps points on [0, t_max].

    Callers pass both arguments as floats; t_max must be finite and positive
    and n_steps integral and at least 2. Traces on equal grids share the
    grid, so a caller that keeps many traces holds one copy of each grid
    rather than one per trace.
    """
    if not (math.isfinite(t_max) and t_max > 0):
        raise InvalidState(f"t_max must be finite and positive, got {t_max}")
    if not (n_steps.is_integer() and n_steps >= 2):
        raise InvalidState(f"need an integral number of at least 2 grid points, got {n_steps}")
    times = np.linspace(0.0, t_max, int(n_steps))
    times.flags.writeable = False
    return times


def tsw(asm: Assemblage, tol: float = 1e-8, warm=None) -> TswResult:
    """Temporal steerable weight 1 - mu* of an assemblage.

    Members must be PSD and Hermitian with unit total trace. A
    setting-dependent reduced state (the signature of premeasuring anything
    but I/2) is tolerated; the weight stays well defined because the
    hidden-state side of the decomposition is non-signaling by construction.
    """
    hard = [v for v in validate(asm, 1e-8) if v.kind != "non-signaling"]
    if hard:
        raise ValidationError(hard)
    table = strategy_table(asm.n_meas)
    sol = solve(build_sw_sdp(asm, table), tol=tol, warm=warm)
    return TswResult(1.0 - sol.mu_star, sol, asm.time_tag)


def tsw_trace(ch, ms: MeasurementSet, rho0, t_max: float, n_steps: int,
              tol: float = 1e-8) -> TraceSeries:
    """TSW of the premeasured-and-evolved assemblage on a uniform grid.

    Solves run in grid order, each seeded with the previous optimum; the
    trace is continuous in time so the warm start lands close. A point whose
    solve does not end OPTIMAL keeps its value 1 - mu* but its grid index is
    listed in metadata["non_optimal"].
    """
    from .steering import premeasure

    times = _uniform_grid(float(t_max), float(n_steps))
    asm0 = premeasure(rho0, ms)
    stacks = channels.evolve_grid(ch, asm0.stacked(), times)
    table = strategy_table(ms.n_meas)

    values = np.empty(times.size)
    solutions = []
    non_optimal = []
    warm = None
    for i, t in enumerate(times):
        asm_t = _from_stack(ms.labels, stacks[i], time_tag=float(t))
        hard = [v for v in validate(asm_t, 1e-8) if v.kind != "non-signaling"]
        if hard:
            raise ValidationError(hard)
        problem = build_sw_sdp(asm_t, table)
        sol = solve(problem, tol=tol, warm=warm)
        if sol.status is not SolveStatus.OPTIMAL and warm is not None:
            # a stale seed can mislead the interior-point iteration when the
            # optimal face changes between grid points; retry from scratch
            sol = solve(problem, tol=tol)
        if sol.status is SolveStatus.OPTIMAL:
            warm = sol.warm
        else:
            warm = None
            non_optimal.append(i)
        values[i] = 1.0 - sol.mu_star
        solutions.append(sol)
    meta = {
        "measure": "tsw",
        "channel": ch,
        "labels": ms.labels,
        "rho0": np.asarray(rho0, dtype=complex),
        "tol": tol,
        "non_optimal": non_optimal,
    }
    return TraceSeries(times, values, meta, solutions)


def _filtered_increments(values, slope_threshold):
    """Grid increments with sub-threshold positive steps zeroed as solver noise."""
    d = np.diff(np.asarray(values, dtype=float))
    d = np.where((d > 0.0) & (d <= slope_threshold), 0.0, d)
    return d


def n_tsw(series: TraceSeries,
          slope_threshold: float = DEFAULT_SLOPE_THRESHOLD) -> NmResult:
    """Integral of the positive slope of the trace (first-order increments)."""
    d = _filtered_increments(series.values, slope_threshold)
    value = float(d[d > 0.0].sum())
    return NmResult(value, "positive-slope", slope_threshold, series)


def n_abs(series: TraceSeries,
          slope_threshold: float = DEFAULT_SLOPE_THRESHOLD) -> NmResult:
    """|slope| integral plus boundary term; exactly twice the positive-slope value.

    Both terms are evaluated on the same noise-filtered increments, which is
    what makes the factor-of-two identity hold to rounding.
    """
    d = _filtered_increments(series.values, slope_threshold)
    value = float(np.abs(d).sum() + d.sum())
    return NmResult(value, "abs-plus-boundary", slope_threshold, series)


_SY_SY = hermat.kron(hermat.SIGMA_Y, hermat.SIGMA_Y)


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidState(f"expected a 4x4 density matrix, got {rho.shape}")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise InvalidState(f"trace {np.trace(rho).real} != 1")
    if float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]) < -1e-8:
        raise InvalidState("state is not positive semidefinite")
    rho_tilde = _SY_SY @ rho.conj() @ _SY_SY
    evals = np.linalg.eigvals(rho @ rho_tilde)
    lams = np.sqrt(np.clip(np.sort(evals.real)[::-1], 0.0, None))
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def nc_trace(ch, t_max: float, n_steps: int) -> TraceSeries:
    """Concurrence between an isolated ancilla and the evolving qubit.

    The pair starts maximally entangled, (|00> + |11>)/sqrt(2) with the
    ancilla first, and the channel acts on the system half only. That state
    at time t is Choi(T(t))/2, so every channel reads its trace off its
    transfer matrices on the grid.
    """
    times = _uniform_grid(float(t_max), float(n_steps))
    chois = channels.choi_from_transfer(channels.transfer_grid(ch, times))
    values = np.array([concurrence(0.5 * c) for c in chois])
    meta = {"measure": "concurrence", "channel": ch}
    return TraceSeries(times, values, meta, None)

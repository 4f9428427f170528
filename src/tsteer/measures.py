"""Steering measures over time: TSW traces and the memory they witness.

The temporal steerable weight of an assemblage is TSW = 1 - mu*, the
complement of the largest unsteerable fraction found by the SDP. Under any
completely positive trace-preserving map the TSW cannot grow, and under
divisible (Markovian) dynamics it is therefore monotone in time; any
positive slope certifies memory. The non-Markovianity number integrates
exactly that positive slope over a sampled trace:

    N = sum_i max(TSW(t_{i+1}) - TSW(t_i), 0),

counting only increments above a noise threshold.

For comparison, the concurrence between the evolving qubit and an isolated
ancilla (prepared maximally entangled) provides the entanglement-based
witness on the same grids.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import channels, hermat
from .errors import InvalidInput, ValidationError
from .steering import (
    Assemblage,
    MeasurementSet,
    _from_stack,
    premeasure,
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
    slope_threshold: float
    series: TraceSeries = field(repr=False)


@functools.lru_cache(maxsize=32)
def _uniform_grid(t_max: float, n_steps: int) -> np.ndarray:
    """Read-only uniform grid of n_steps points on [0, t_max].

    Raises InvalidInput unless t_max is a finite positive real and n_steps
    an integral real of at least 2. Traces on equal grids share the grid, so
    a caller that keeps many traces holds one copy of each grid rather than
    one per trace.
    """
    if not (isinstance(t_max, numbers.Real) and math.isfinite(t_max) and t_max > 0):
        raise InvalidInput(f"t_max must be finite and positive, got {t_max!r}")
    if not (isinstance(n_steps, numbers.Real) and float(n_steps).is_integer() and n_steps >= 2):
        raise InvalidInput(f"need an integral number of at least 2 grid points, got {n_steps!r}")
    times = np.linspace(0.0, t_max, int(n_steps))
    times.flags.writeable = False
    return times


def tsw(asm: Assemblage, tol: float = 1e-8) -> TswResult:
    """Temporal steerable weight 1 - mu* of an assemblage.

    Raises ValidationError, listing the violations, unless `validate` at
    1e-8 finds every member finite, Hermitian and PSD and every setting of
    unit total trace; that check flags every block `solve` rejects. A
    setting-dependent reduced state (the signature of premeasuring anything
    but I/2) is tolerated; the weight stays well defined because the
    hidden-state side of the decomposition is non-signaling by construction.
    One cold `solve`; when it ends OPTIMAL the value is certified to within
    its gap, 1 - dual_value <= TSW <= 1 - mu_star. A non-OPTIMAL exit
    certifies only its primal side, so only TSW <= 1 - mu_star.
    """
    hard = [v for v in validate(asm, 1e-8) if v.kind != "non-signaling"]
    if hard:
        raise ValidationError(hard)
    table = strategy_table(asm.n_meas)
    sol = solve(build_sw_sdp(asm, table), tol=tol)
    return TswResult(1.0 - sol.mu_star, sol, asm.time_tag)


def tsw_trace(ch, ms: MeasurementSet, rho0, t_max: float, n_steps: int,
              tol: float = 1e-8) -> TraceSeries:
    """TSW of the premeasured-and-evolved assemblage on a uniform grid.

    Every grid point is one `tsw`, so one cold `solve`. A point whose solve
    does not end OPTIMAL keeps its value 1 - mu_star, which is then only a
    certified upper bound on the TSW, and its grid index is listed in
    metadata["non_optimal"].
    """
    times = _uniform_grid(t_max, n_steps)
    stacks = channels.evolve_grid(ch, premeasure(rho0, ms).stacked(), times)
    values = np.empty(times.size)
    solutions = []
    non_optimal = []
    for i, t in enumerate(times):
        sol = tsw(_from_stack(ms.labels, stacks[i], time_tag=float(t)), tol).solution
        if sol.status is not SolveStatus.OPTIMAL:
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


def n_tsw(series: TraceSeries,
          slope_threshold: float = DEFAULT_SLOPE_THRESHOLD) -> NmResult:
    """Integral of the positive slope of the trace (first-order increments).

    Positive increments at or below slope_threshold are zeroed as solver
    noise. The |slope| integral plus the boundary term, sum |d| + sum d over
    the same filtered increments d, is exactly twice this value. A
    non-finite value is a broken point, not a flat one, so it raises
    InvalidInput; so does a threshold that is not a real, is NaN (it would
    switch the filter off) or is negative.
    """
    if not (isinstance(slope_threshold, numbers.Real) and math.isfinite(slope_threshold)
            and slope_threshold >= 0):
        raise InvalidInput(f"slope_threshold must be finite and >= 0, got {slope_threshold!r}")
    values = np.asarray(series.values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InvalidInput(f"trace has non-finite values at grid indices {bad.tolist()}")
    d = np.diff(values)
    d = np.where((d > 0.0) & (d <= slope_threshold), 0.0, d)
    value = float(d[d > 0.0].sum())
    return NmResult(value, slope_threshold, series)


_SY_SY = hermat.kron(hermat.SIGMA_Y, hermat.SIGMA_Y)


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    With rho = M M^dag from one eigendecomposition, the Wootters lambdas
    (square roots of the eigenvalues of rho (sy x sy) conj(rho) (sy x sy))
    are the singular values of the symmetric tau = M^T (sy x sy) M, and
    C = max(0, l1 - l2 - l3 - l4) in decreasing order (W. K. Wootters,
    Phys. Rev. Lett. 80, 2245 (1998)). The least eigenvalue of that same
    decomposition is the positivity check.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidInput(f"expected a 4x4 density matrix, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise InvalidInput("density matrix has non-finite entries")
    if float(np.abs(rho - rho.conj().T).max()) > 1e-8:
        raise InvalidInput("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise InvalidInput(f"trace {np.trace(rho).real} != 1")
    evals, vecs = np.linalg.eigh(rho)
    if float(evals[0]) < -1e-8:
        raise InvalidInput("state is not positive semidefinite")
    m = vecs * np.sqrt(np.maximum(evals, 0.0))
    lams = np.linalg.svd(m.T @ _SY_SY @ m, compute_uv=False)
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def nc_trace(ch, t_max: float, n_steps: int) -> TraceSeries:
    """Concurrence between an isolated ancilla and the evolving qubit.

    The pair starts maximally entangled, (|00> + |11>)/sqrt(2) with the
    ancilla first, and the channel acts on the system half only. That state
    at time t is Choi(T(t))/2, so every channel reads its trace off its
    transfer matrices on the grid.
    """
    times = _uniform_grid(t_max, n_steps)
    chois = channels.choi_from_transfer(channels.transfer_grid(ch, times))
    values = np.array([concurrence(0.5 * c) for c in chois])
    meta = {"measure": "concurrence", "channel": ch}
    return TraceSeries(times, values, meta, None)

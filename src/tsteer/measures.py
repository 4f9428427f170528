"""Steering measures over time: TSW traces and the memory they witness.

The temporal steerable weight of an assemblage is TSW = 1 - mu*, the
complement of the largest unsteerable fraction found by the SDP. Under any
positive trace-preserving map, completely positive or not, the TSW cannot
grow, so it is monotone in time under P-divisible dynamics, CP-divisible
(Markovian) dynamics among them; any positive slope certifies memory. The
non-Markovianity number integrates exactly that positive slope over a
sampled trace:

    N = sum_i max(TSW(t_{i+1}) - TSW(t_i), 0),

counting only increments above a noise threshold.

For comparison, the concurrence between the evolving qubit and an isolated
ancilla (prepared maximally entangled) provides the entanglement-based
witness on the same grids. Its input checks run on the entries as Python
complexes. It is in closed form on X states, such as the Choi states of the
phase-covariant Exchange and LorentzianAD, and one eigh + svd on any other
state, with sy x sy applied as a signed column reversal.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import channels
from .errors import TARGET_TOL, InvalidInput, ValidationError, count, real
from .steering import (
    Assemblage,
    MeasurementSet,
    _from_stack,
    premeasure,
    strategy_table,
    validate,
)
from .sdp import DEFAULT_TOL, SdpSolution, SolveStatus, build_sw_sdp, solve

DEFAULT_SLOPE_THRESHOLD = 1e-6


@dataclass
class TswResult:
    value: float
    solution: SdpSolution = field(repr=False)


@dataclass
class TraceSeries:
    """A sampled scalar measure over a strictly increasing time grid. Raises InvalidInput
    unless times and values are 1-D of one length, and so is solutions when given, unless
    the times are finite reals and strictly increasing, and unless the values are reals."""

    times: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)
    solutions: list = field(default=None, repr=False)

    def __post_init__(self):
        t_shape, v_shape = np.shape(self.times), np.shape(self.values)
        if len(t_shape) != 1 or v_shape != t_shape:
            raise InvalidInput(f"times of shape {t_shape} and values of shape {v_shape} "
                               "are not 1-D of one length")
        times = np.asarray(self.times)
        if (times.dtype.kind not in "iuf" or not np.isfinite(times).all()
                or (times[1:] <= times[:-1]).any()):
            raise InvalidInput("times are not finite reals in strictly increasing order")
        if np.asarray(self.values).dtype.kind not in "iuf":
            raise InvalidInput(f"values of dtype {np.asarray(self.values).dtype} are not reals")
        if self.solutions is not None and len(self.solutions) != t_shape[0]:
            raise InvalidInput(f"{len(self.solutions)} solutions for {t_shape[0]} times")


@dataclass
class NmResult:
    value: float


def _uniform_grid(t_max, n_steps) -> np.ndarray:
    """Read-only grid of n_steps >= 2 points on [0, t_max > 0], checked before the cache,
    which would hash an unhashable argument first."""
    return _grid(real("t_max", t_max, above=True), count("n_steps", n_steps, 2))


@functools.lru_cache(maxsize=32)
def _grid(t_max: float, n_steps: int) -> np.ndarray:
    """Traces on equal grids share one cached grid, so a caller that keeps many traces
    holds one copy of each grid rather than one per trace."""
    times = np.linspace(0.0, t_max, n_steps)
    times.flags.writeable = False
    return times


def tsw(asm: Assemblage, tol: float = DEFAULT_TOL) -> TswResult:
    """Temporal steerable weight 1 - mu* of an assemblage.

    Raises ValidationError, listing the violations, unless `validate` accepts
    the assemblage; `solve` checks its blocks at the same band. The weight is
    defined for signaling assemblages too, since the hidden-state side of
    the decomposition has one reduced state for every setting by construction.
    One cold `solve`; when it ends OPTIMAL the value is certified to within
    its gap, 1 - dual_value <= TSW <= 1 - mu_star. A non-OPTIMAL exit
    certifies only its primal side, so only TSW <= 1 - mu_star.
    """
    validate(asm)
    sol = solve(build_sw_sdp(asm, strategy_table(asm.n_meas)), tol=tol)
    return TswResult(1.0 - sol.mu_star, sol)


def propagate_assemblage(ch, t, asm: Assemblage) -> Assemblage:
    """Evolve every member of an assemblage independently to a single time t.

    The output goes through `validate`, as the input of `tsw` does.
    """
    t = real("t", t)
    new = _from_stack(asm.labels, channels.evolve_grid(ch, asm.stacked(), [t])[0], time_tag=t)
    validate(new)
    return new


def tsw_trace(ch, ms: MeasurementSet, rho0, t_max: float, n_steps: int,
              tol: float = DEFAULT_TOL) -> TraceSeries:
    """TSW of the premeasured-and-evolved assemblage on a uniform grid.

    Every grid point is one `tsw`, so one cold `solve`. A point whose solve
    does not end OPTIMAL keeps its value 1 - mu_star, which is then only a
    certified upper bound on the TSW, and its grid index is listed in
    metadata["non_optimal"]. ValidationError from `tsw` names the channel and t.
    """
    times = _uniform_grid(t_max, n_steps)
    stacks = channels.evolve_grid(ch, premeasure(rho0, ms).stacked(), times)
    values = np.empty(times.size)
    solutions = []
    non_optimal = []
    for i, t in enumerate(times.tolist()):
        try:
            sol = tsw(_from_stack(ms.labels, stacks[i], time_tag=t), tol).solution
        except ValidationError as exc:
            exc.args = (f"{ch!r} at t = {t}: {exc}",)
            raise
        if sol.status is not SolveStatus.OPTIMAL:
            non_optimal.append(i)
        values[i] = 1.0 - sol.mu_star
        solutions.append(sol)
    meta = {
        "measure": "tsw",
        "channel": ch,
        "labels": ms.labels,
        "rho0": np.array(rho0, dtype=complex),
        "tol": tol,
        "non_optimal": non_optimal,
    }
    return TraceSeries(times, values, meta, solutions)


def n_tsw(series: TraceSeries) -> NmResult:
    """Integral of the positive slope of the trace (first-order increments).

    Positive increments at or below DEFAULT_SLOPE_THRESHOLD are zeroed as
    solver noise. The |slope| integral plus the boundary term, sum |d| + sum d
    over the same filtered increments d, is exactly twice this value. A
    non-finite value is a broken point, not a flat one, so it raises
    InvalidInput.
    """
    values = np.asarray(series.values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InvalidInput(f"trace has non-finite values at grid indices {bad.tolist()}")
    d = np.diff(values)
    d = np.where((d > 0.0) & (d <= DEFAULT_SLOPE_THRESHOLD), 0.0, d)
    return NmResult(float(d[d > 0.0].sum()))


_SY_SY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])  # sy x sy is the anti-identity with these signs
# row-major flat index pairs (ij, ji): off the diagonal and anti-diagonal, and every i <= j
_ANTI_X = ((1, 4), (2, 8), (7, 13), (11, 14))
_UPPER = tuple((4 * i + j, 4 * j + i) for i in range(4) for j in range(i, 4))


def _x_block(a, b, c):
    """Least eigenvalue of the Hermitian block [[a, c*], [c, b]], and |c| and sqrt(ab) of
    its projection onto PSD (negative eigenvalue set to 0)."""
    mid, rad = 0.5 * (a + b), math.hypot(0.5 * (a - b), abs(c))
    if mid >= rad:
        return mid - rad, abs(c), math.sqrt(max(0.0, a * b))
    # rank 1 or 0 after projection, so |c| = sqrt(ab); mid < rad, so rad > 0
    off = (mid + rad) * abs(c) / (2.0 * rad) if mid + rad > 0.0 else 0.0
    return mid - rad, off, off


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    The checks allow RK4 drift, TARGET_TOL, and C is that of rho projected
    onto PSD (negative eigenvalues set to 0). They read the 16 entries as
    Python complexes: each finite, |rho_ij - conj rho_ji| for i <= j, and the
    trace summed as np.trace does, (rho_00 + rho_11) + (rho_22 + rho_33).
    Both paths read the lower triangle. The path is chosen from the input:

    - X state, the eight entries off the diagonal and anti-diagonal exactly
      0: rho is the blocks {0, 3} and {1, 2}, and their closed-form least
      eigenvalues are its own. With each block projected,
      C = 2 max(0, |rho_03| - sqrt(rho_11 rho_22), |rho_12| - sqrt(rho_00 rho_33))
      (T. Yu and J. H. Eberly, Quantum Inf. Comput. 7, 459 (2007)).
    - Any other state: with rho = M M^dag from one eigendecomposition, the
      Wootters lambdas (square roots of the eigenvalues of
      rho (sy x sy) conj(rho) (sy x sy)) are the singular values of the
      symmetric tau = M^T (sy x sy) M, and C = max(0, l1 - l2 - l3 - l4) in
      decreasing order (W. K. Wootters, Phys. Rev. Lett. 80, 2245 (1998)).
      M^T (sy x sy) is exactly M^T with its columns reversed and signed.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidInput(f"expected a 4x4 density matrix, got {rho.shape}")
    flat = rho.ravel().tolist()
    if not all(map(cmath.isfinite, flat)):
        raise InvalidInput("density matrix has non-finite entries")
    if max([abs(flat[ij] - flat[ji].conjugate()) for ij, ji in _UPPER]) > TARGET_TOL:
        raise InvalidInput("density matrix is not Hermitian")
    trace = (flat[0].real + flat[5].real) + (flat[10].real + flat[15].real)
    if abs(trace - 1.0) > TARGET_TOL:
        raise InvalidInput(f"trace {trace} != 1")
    if not any(flat[ij] or flat[ji] for ij, ji in _ANTI_X):
        least_03, off_03, root_03 = _x_block(flat[0].real, flat[15].real, flat[12])
        least_12, off_12, root_12 = _x_block(flat[5].real, flat[10].real, flat[9])
        if min(least_03, least_12) < -TARGET_TOL:
            raise InvalidInput("state is not positive semidefinite")
        return 2.0 * max(0.0, off_03 - root_12, off_12 - root_03)
    evals, vecs = np.linalg.eigh(rho)
    if float(evals[0]) < -TARGET_TOL:
        raise InvalidInput("state is not positive semidefinite")
    m = vecs * np.sqrt(np.maximum(evals, 0.0))
    lams = np.linalg.svd((m.T[:, ::-1] * _SY_SY_SIGNS) @ m, compute_uv=False)
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def nc_trace(ch, t_max: float, n_steps: int) -> TraceSeries:
    """Concurrence between an isolated ancilla and the evolving qubit.

    The pair starts maximally entangled, (|00> + |11>)/sqrt(2) with the
    ancilla first, and the channel acts on the system half only. That state
    at time t is Choi(T(t))/2, so every channel reads its trace off its
    transfer matrices on the grid. InvalidInput from `concurrence` names the channel and t.
    """
    times = _uniform_grid(t_max, n_steps)
    chois = 0.5 * channels.choi_from_transfer(channels.transfer_grid(ch, times))
    values = np.empty(times.size)
    for i, t in enumerate(times.tolist()):
        try:
            values[i] = concurrence(chois[i])
        except InvalidInput as exc:
            raise InvalidInput(f"{ch!r} at t = {t}: {exc}") from exc
    meta = {"measure": "concurrence", "channel": ch}
    return TraceSeries(times, values, meta, None)

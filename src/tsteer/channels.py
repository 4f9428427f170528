"""Concrete qubit channels: the time evolutions whose steering traces we study.

Three physical models plus random Kraus channels for property tests:

* RabiDecay: coherent drive H = g1 (sigma_+ + sigma_-) with a Markovian
  dissipator at rate gamma1 on sigma_-; a time-homogeneous semigroup.
* Exchange: the qubit swaps excitation with a second (environment) qubit
  through H = J (sigma_+ sigma_- + sigma_- sigma_+), the environment starting
  excited; the system picks up an intrinsic decay gamma2. Tracing out the
  partner yields a strongly non-Markovian reduced evolution.
* LorentzianAD: amplitude damping driven by a Lorentzian reservoir. The
  exact solution is the G(t) map

      rho_ee -> |G|^2 rho_ee,   rho_eg -> G rho_eg,
      rho_gg -> rho_gg + (1 - |G|^2) rho_ee,

  with G(t) = exp(-w t/2) [cosh(bt/2) + (w/b) sinh(bt/2)],
  b = sqrt(w^2 - 2 g w), w the spectral width and g the coupling. It is
  evaluated as (e+ + e-)/2 (1 + q), with e+- = exp((+-b - w) t/2) and
  q = (w t/2) tanh(bt/2)/(bt/2), so no exponential exceeds 1. The
  time-local rate gamma(t) = -(2/G) d|G|/dt = 2 g q / (1 + q) goes negative
  past the zeros of G, which is the memory effect the steering measures
  pick up.

Every channel is represented by one object, its 4x4 transfer matrix T(t) on
row-major vectorized states, vec(rho(t)) = T(t) vec(rho), from its `_transfer`:

* RabiDecay: the propagator of its Liouvillian.
* Exchange: R P(t) E, where E embeds rho -> rho (x) |e><e| and R traces
  the partner out; P(t) propagates the 16x4 embedding block.
* LorentzianAD: the closed-form G(t) map.
* KrausChannel: sum_k K (x) conj(K), the same at every time.

Evolving a grid, the Choi matrix and the ancilla states of the concurrence
trace are all products with T or reshuffles of it.
`_MasterEquation` is the one home of the RK4 models, RabiDecay and Exchange:
each gives its H and jumps on the carrier space, the sum of its rates, which
bounds the RK4 step, and its carrier maps (E and R above, the identity for
RabiDecay). Its propagators are the classical RK4 solution with a fixed step:
one step matrix sum_{k<=4} (hL)^k / k! raised to the number of steps. Its
`_transfer` builds one propagator per distinct grid spacing t_i - t_{i-1}
(t_{-1} = 0) in each call and advances the carrier by one product per grid
point, which gives bit for bit the matrices of stepping each interval alone.
The G(t) map is applied exactly, never by integrating gamma(t), which is
singular at zeros of G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors, hermat
from .errors import InvalidInput

# Base RK4 step in units of 1/(model rate); halving it moves outputs by
# well under 1e-9 for every model in the suite.
RK4_BASE_STEP = 5e-4


_ENV_EXCITED = np.outer(hermat.KET_E, hermat.KET_E.conj())
# Row-major basis |i><j| of one qubit, in vec order.
_UNITS = np.eye(4, dtype=complex).reshape(4, 2, 2)
# vec(rho) -> vec(rho (x) |e><e|), and vec(M) -> vec(tr_partner M).
_EMBED = np.stack([hermat.kron(u, _ENV_EXCITED).reshape(16) for u in _UNITS], axis=1)
_TRACE_PARTNER = np.stack([hermat.kron(u, hermat.IDENTITY).reshape(16) for u in _UNITS])


class _MasterEquation:
    """Base of the master-equation models, each giving `_generator()`: H and the (operator,
    rate) jumps on its carrier space, and the rate sum that bounds the RK4 step at RK4_BASE_STEP
    / max(1, rate); and `_CARRIER`, vec(rho) -> carrier at t = 0, and `_READ`, back to vec(rho)."""

    _CARRIER = _READ = np.eye(4, dtype=complex)

    def _transfer(self, times):
        h, jumps, rate = self._generator()
        lmat, step = liouvillian(h, jumps), RK4_BASE_STEP / max(1.0, rate)
        carrier, propagators, t_prev = self._CARRIER, {}, 0.0
        out = np.empty((times.size, 4, 4), dtype=complex)
        for i, t in enumerate(times):
            dt = t - t_prev
            if dt not in propagators:
                propagators[dt] = rk4_evolve(lmat, dt, step)
            carrier = propagators[dt] @ carrier
            t_prev = t
            out[i] = self._READ @ carrier
        return out


@dataclass(frozen=True)
class RabiDecay(_MasterEquation):
    g1: float
    gamma1: float = 0.0

    def __post_init__(self):
        errors.real("g1", self.g1)
        errors.real("gamma1", self.gamma1)

    def _generator(self):
        h = self.g1 * (hermat.SIGMA_PLUS + hermat.SIGMA_MINUS)
        return h, [(hermat.SIGMA_MINUS, self.gamma1)], self.g1 + self.gamma1


@dataclass(frozen=True)
class Exchange(_MasterEquation):
    j: float
    gamma2: float = 0.0
    _CARRIER, _READ = _EMBED, _TRACE_PARTNER

    def __post_init__(self):
        errors.real("j", self.j)
        errors.real("gamma2", self.gamma2)

    def _generator(self):
        h = self.j * (hermat.kron(hermat.SIGMA_PLUS, hermat.SIGMA_MINUS)
                      + hermat.kron(hermat.SIGMA_MINUS, hermat.SIGMA_PLUS))
        jumps = [(hermat.kron(hermat.SIGMA_MINUS, hermat.IDENTITY), self.gamma2)]
        return h, jumps, self.j + self.gamma2


@dataclass(frozen=True)
class LorentzianAD:
    g: float
    omega_w: float = 1.0

    def __post_init__(self):
        _lorentzian_b(self.g, self.omega_w)  # the parameter check

    def _transfer(self, times):
        gval = _g_at(self.g, self.omega_w, 0.5 * times)
        out = np.zeros((times.size, 4, 4), dtype=complex)
        out[:, 0, 0] = gval * gval
        out[:, 1, 1] = out[:, 2, 2] = gval
        out[:, 3, 0] = 1.0 - gval * gval
        out[:, 3, 3] = 1.0
        return out


class KrausChannel:
    """A single-shot CPT map given by its Kraus operators (time-independent), kept as
    read-only copies so that the checks below hold for the map's whole life."""

    def __init__(self, operators):
        ops = tuple(np.array(k, dtype=complex) for k in operators)
        if not ops:
            raise InvalidInput("need at least one Kraus operator")
        if any(k.shape != (2, 2) or not np.isfinite(k).all() for k in ops):
            raise InvalidInput("Kraus operators must be finite 2x2 matrices")
        total = sum(k.conj().T @ k for k in ops)
        if np.abs(total - hermat.IDENTITY).max() > errors._band(total):
            raise InvalidInput("Kraus operators do not satisfy sum K^dag K = I")
        for k in ops:
            k.flags.writeable = False
        self.operators = ops

    def __repr__(self):
        return f"KrausChannel(n={len(self.operators)})"

    def _transfer(self, times):
        tmat = sum(np.kron(k, k.conj()) for k in self.operators)
        return np.repeat(tmat[None], times.size, axis=0)


# --- generators and integrators ---------------------------------------------


def liouvillian(h, jumps):
    """Vectorized (row-major) generator of d rho/dt = -i[H,rho] + dissipators.

    jumps is a list of (operator, rate) pairs, each contributing
    rate * (K rho K^dag - {K^dag K, rho}/2).
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    idm = np.eye(d, dtype=complex)
    lmat = -1j * (np.kron(h, idm) - np.kron(idm, h.T))
    for op, rate in jumps:
        op = np.asarray(op, dtype=complex)
        kk = op.conj().T @ op
        lmat += rate * (
            np.kron(op, op.conj())
            - 0.5 * (np.kron(kk, idm) + np.kron(idm, kk.T))
        )
    return lmat


def rk4_evolve(lmat, t, h_target):
    """Propagator of dv/dt = L v over time t by fixed-step RK4.

    n = ceil(t / h_target) classical RK4 steps of size h = t / n, at least
    one. For a linear generator one step is the matrix sum_{k<=4} (hL)^k / k!,
    so the propagator is that matrix to the n-th power; at t = 0 it is
    exactly the identity.
    """
    n = max(1, math.ceil(t / h_target))
    hl = (t / n) * lmat
    idm = np.eye(lmat.shape[0], dtype=complex)
    step = idm + hl @ (idm + hl @ (idm + hl @ (idm + hl / 4.0) / 3.0) / 2.0)
    return np.linalg.matrix_power(step, n)


# --- Lorentzian memory amplitude and random Kraus maps -----------------------


def _tanhc(z):
    """tanh(z)/z per element, by its series near the origin so the b -> 0 limit is smooth."""
    small = np.abs(z) < 1e-4
    z2 = z * z
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 - z2 / 3.0 + 2.0 * z2 * z2 / 15.0, np.tanh(safe) / safe)


def _lorentzian_b(g, omega_w):
    """The coupling g >= 0 and spectral width omega_w > 0, checked and as floats, and
    b = sqrt(w^2 - 2 g w)."""
    g, omega_w = errors.real("g", g), errors.real("omega_w", omega_w, above=True)
    return g, omega_w, complex(np.sqrt(complex(omega_w * omega_w - 2.0 * g * omega_w)))


def _q_at(b, omega_w, half):
    """q = (w t/2) tanh(bt/2)/(bt/2) at the times t = 2 half; real whether b is
    real or imaginary, so the imaginary part dropped here is 0."""
    return (omega_w * half * _tanhc(b * half)).real


def _float_if_0d(val):
    return float(val) if val.ndim == 0 else val


def lorentzian_G(g, omega_w, t):
    """Memory amplitude G(t) of the Lorentzian-reservoir damping channel.

    t is a time (a float is returned) or an array of times. b is complex
    throughout, so the underdamped regime (2 g > omega_w, b imaginary)
    needs no case split; the result is real either way.
    """
    return _float_if_0d(_g_at(g, omega_w, 0.5 * errors.times("t", t)))


def _g_at(g, omega_w, half):
    """G = (e+ + e-)/2 + (w t/2)(e+ - e-)/(bt) = (e+ + e-)/2 (1 + q) at the checked times
    t = 2 half, e+- = exp((+-b - w) t/2); neither exceeds 1, since Re b <= w."""
    _, omega_w, b = _lorentzian_b(g, omega_w)
    e_mean = 0.5 * (np.exp((b - omega_w) * half) + np.exp((-b - omega_w) * half)).real
    return e_mean * (1.0 + _q_at(b, omega_w, half))


def lorentzian_gamma(g, omega_w, t):
    """Time-local decay rate gamma(t) = -2 d log|G|/dt = -2 G'/G.

    This is the rate for which rho_ee(t) = |G|^2 rho_ee(0) solves
    d rho_ee/dt = -gamma(t) rho_ee at all times; it turns negative exactly
    while |G| grows (information backflow), e.g. just past a zero of G.
    gamma = 2 g q / (1 + q), q = (w t/2) tanh(bt/2)/(bt/2): the factor
    exp(-w t/2) cosh(bt/2) of G = exp(-w t/2) cosh(bt/2) (1 + q) cancels, so
    gamma stays finite where G underflows. It is undefined at the zeros of G,
    those of 1 + q. t is a time (a float is returned) or an array of times;
    InvalidInput is raised if any |1 + q| < 1e-12.
    """
    half = 0.5 * errors.times("t", t)
    g, omega_w, b = _lorentzian_b(g, omega_w)
    q = _q_at(b, omega_w, half)
    singular = np.abs(1.0 + q) < 1e-12
    if singular.any():
        raise InvalidInput(f"gamma(t) is singular at a zero of G, at t = {2.0 * half[singular][0]}")
    return _float_if_0d(2.0 * g * q / (1.0 + q))


def random_kraus_channel(seed, n_kraus):
    """Random CPT map of n_kraus >= 1 operators from a Haar-like isometry, fixed by a seed >= 0."""
    n_kraus = errors.count("n_kraus", n_kraus, 1)
    rng = np.random.default_rng(errors.count("seed", seed, 0))
    raw = rng.normal(size=(2 * n_kraus, 2)) + 1j * rng.normal(size=(2 * n_kraus, 2))
    q, r = np.linalg.qr(raw)
    # Fix the phase convention so the map is a deterministic function of seed.
    q = q * np.sign(np.diag(r))[None, :]
    return KrausChannel(tuple(q[2 * i: 2 * i + 2, :] for i in range(n_kraus)))


# --- transfer matrices -------------------------------------------------------


def transfer_grid(ch, times):
    """Transfer matrices T(t), shape (len(times), 4, 4), on a non-decreasing grid.

    vec(rho(t)) = T(t) vec(rho) with row-major vec; each model computes them
    in its `_transfer`. The grid is a time or a 1-D array of times. Raises
    InvalidInput for a grid of more dimensions, for a channel that is none
    of the four models, and, naming the channel and the first such t, for a
    T(t) that is not finite (a rate or a time past what the model's
    arithmetic can hold).
    """
    times = np.atleast_1d(errors.times("times", times))
    if times.ndim > 1 or np.any(np.diff(times) < 0):
        raise InvalidInput("time grid must be one time or a non-decreasing 1-D array")
    if not hasattr(ch, "_transfer"):
        raise InvalidInput(f"unknown channel {ch!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = ch._transfer(times)
    finite = np.isfinite(out).all(axis=(1, 2))
    if not finite.all():
        raise InvalidInput(f"{ch!r} has a non-finite transfer matrix at t = {times[~finite][0]}")
    return out


def choi_from_transfer(tmat):
    """Choi matrices sum_ij |i><j| (x) Lambda(|i><j|) of transfer matrices (..., 4, 4)."""
    tmat = np.asarray(tmat)
    lead = tmat.shape[:-2]
    blocks = tmat.reshape(*lead, 2, 2, 2, 2)
    return np.einsum("...abij->...iajb", blocks).reshape(*lead, 4, 4)


def evolve_grid(ch, mats, times):
    """Evolve a stack of 2x2 matrices across a non-decreasing time grid.

    Returns an array of shape (len(times), len(mats), 2, 2): every member
    times the transfer matrix T(t) of every grid point.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3 or mats.shape[1:] != (2, 2):
        raise InvalidInput(f"expected a (k, 2, 2) stack, got shape {mats.shape}")
    tmat = transfer_grid(ch, times)
    vecs = mats.reshape(mats.shape[0], 4)
    out = np.einsum("tij,kj->tki", tmat, vecs)
    return out.reshape(tmat.shape[0], mats.shape[0], 2, 2)

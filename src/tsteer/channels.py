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

Every channel is represented by one object, its 4x4 transfer matrix T(t)
acting on row-major vectorized states, vec(rho(t)) = T(t) vec(rho):

* RabiDecay: the propagator of its Liouvillian.
* Exchange: R P(t) E, where E embeds rho -> rho (x) |e><e| and R traces
  the partner out; P(t) propagates the 16x4 embedding block.
* LorentzianAD: the closed-form G(t) map.
* KrausChannel: sum_k K (x) conj(K), the same at every time.

Applying a channel, evolving a grid, the Choi matrix and the ancilla states
of the concurrence trace are all products with T or reshuffles of it.
Master-equation propagators are the classical RK4 solution with a fixed
step: one step matrix sum_{k<=4} (hL)^k / k! raised to the number of steps.
`transfer_grid` builds one propagator per distinct grid spacing and advances
the carrier by one product per grid point, which gives bit for bit the
matrices of stepping every interval on its own.
The G(t) map is applied exactly, never by integrating gamma(t), which is
singular at zeros of G.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import hermat
from .errors import InvalidInput, ValidationError
from .steering import Assemblage, _from_stack, validate

# Base RK4 step in units of 1/(model rate); halving it moves outputs by
# well under 1e-9 for every model in the suite.
RK4_BASE_STEP = 5e-4


@dataclass(frozen=True)
class RabiDecay:
    g1: float
    gamma1: float = 0.0

    def __post_init__(self):
        _check_rates(g1=self.g1, gamma1=self.gamma1)


@dataclass(frozen=True)
class Exchange:
    j: float
    gamma2: float = 0.0

    def __post_init__(self):
        _check_rates(j=self.j, gamma2=self.gamma2)


@dataclass(frozen=True)
class LorentzianAD:
    g: float
    omega_w: float = 1.0

    def __post_init__(self):
        _lorentzian_b(self.g, self.omega_w)  # the parameter check


class KrausChannel:
    """A single-shot CPT map given by its Kraus operators (time-independent)."""

    def __init__(self, operators):
        ops = tuple(np.asarray(k, dtype=complex) for k in operators)
        if not ops:
            raise InvalidInput("need at least one Kraus operator")
        if any(k.shape != (2, 2) or not np.isfinite(k).all() for k in ops):
            raise InvalidInput("Kraus operators must be finite 2x2 matrices")
        total = sum(k.conj().T @ k for k in ops)
        if np.abs(total - hermat.IDENTITY).max() > 1e-10:
            raise InvalidInput("Kraus operators do not satisfy sum K^dag K = I")
        self.operators = ops

    def __repr__(self):
        return f"KrausChannel(n={len(self.operators)})"


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


def _generator(ch):
    """Hamiltonian and jump list realizing the model on its carrier space."""
    if isinstance(ch, RabiDecay):
        h = ch.g1 * (hermat.SIGMA_PLUS + hermat.SIGMA_MINUS)
        return h, [(hermat.SIGMA_MINUS, ch.gamma1)]
    if isinstance(ch, Exchange):
        h = ch.j * (
            hermat.kron(hermat.SIGMA_PLUS, hermat.SIGMA_MINUS)
            + hermat.kron(hermat.SIGMA_MINUS, hermat.SIGMA_PLUS)
        )
        return h, [(hermat.kron(hermat.SIGMA_MINUS, hermat.IDENTITY), ch.gamma2)]
    raise InvalidInput(f"no master-equation generator for {type(ch).__name__}")


def _rate_scale(ch):
    if isinstance(ch, RabiDecay):
        return ch.g1 + ch.gamma1
    if isinstance(ch, Exchange):
        return ch.j + ch.gamma2
    return 1.0


def rk4_evolve(lmat, vecs, t, h_target):
    """Integrate dv/dt = L v for time t with fixed-step RK4.

    n = ceil(t / h_target) classical RK4 steps of size h = t / n. For a
    linear generator one step is the matrix sum_{k<=4} (hL)^k / k!, so the
    n steps are that matrix to the n-th power.
    """
    if t == 0.0:
        return vecs.copy()
    n = max(1, math.ceil(t / h_target))
    hl = (t / n) * lmat
    idm = np.eye(lmat.shape[0], dtype=complex)
    step = idm + hl @ (idm + hl @ (idm + hl @ (idm + hl / 4.0) / 3.0) / 2.0)
    return np.linalg.matrix_power(step, n) @ vecs


def _check_rates(**rates):
    """Raise InvalidInput, naming each offender, unless every rate is a finite non-negative real."""
    bad = [f"{name}={r}" for name, r in rates.items()
           if not (isinstance(r, numbers.Real) and 0 <= r < math.inf)]
    if bad:
        raise InvalidInput(f"rates must be finite and non-negative, got {', '.join(bad)}")


def _check_time(t):
    """t as a float array; raises InvalidInput, with the first offender, unless every time is
    finite and non-negative."""
    t = np.asarray(t, dtype=float)
    bad = ~(np.isfinite(t) & (t >= 0))
    if bad.any():
        raise InvalidInput(f"evolution time must be finite and non-negative, got {t[bad][0]}")
    return t


def _check_scalar_time(t):
    """Raise InvalidInput unless t is a single time; its value is checked by `_check_time`."""
    if np.ndim(t) != 0:
        raise InvalidInput(f"evolution time must be a scalar, got {t!r}")


# --- Lorentzian memory amplitude and random Kraus maps -----------------------


def _tanhc(z):
    """tanh(z)/z per element, by its series near the origin so the b -> 0 limit is smooth."""
    small = np.abs(z) < 1e-4
    z2 = z * z
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 - z2 / 3.0 + 2.0 * z2 * z2 / 15.0, np.tanh(safe) / safe)


def _lorentzian_b(g, omega_w):
    """b = sqrt(w^2 - 2 g w) of a coupling g and a spectral width omega_w; raises
    InvalidInput unless both are finite and non-negative and omega_w is positive."""
    _check_rates(g=g, omega_w=omega_w)
    if omega_w == 0:
        raise InvalidInput("spectral width omega_w must be positive, got 0")
    return complex(np.sqrt(complex(omega_w * omega_w - 2.0 * g * omega_w)))


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
    return _float_if_0d(_g_at(g, omega_w, 0.5 * _check_time(t)))


def _g_at(g, omega_w, half):
    """G = (e+ + e-)/2 + (w t/2)(e+ - e-)/(bt) = (e+ + e-)/2 (1 + q) at the checked times
    t = 2 half, e+- = exp((+-b - w) t/2); neither exceeds 1, since Re b <= w."""
    b = _lorentzian_b(g, omega_w)
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
    half = 0.5 * _check_time(t)
    q = _q_at(_lorentzian_b(g, omega_w), omega_w, half)
    singular = np.abs(1.0 + q) < 1e-12
    if singular.any():
        raise InvalidInput(f"gamma(t) is singular at a zero of G, at t = {2.0 * half[singular][0]}")
    return _float_if_0d(2.0 * g * q / (1.0 + q))


def random_kraus_channel(seed, n_kraus):
    """Seeded random CPT channel built from a Haar-like isometry."""
    if not (isinstance(n_kraus, numbers.Integral) and n_kraus >= 1):
        raise InvalidInput(f"need an integer n_kraus >= 1, got {n_kraus!r}")
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(2 * n_kraus, 2)) + 1j * rng.normal(size=(2 * n_kraus, 2))
    q, r = np.linalg.qr(raw)
    # Fix the phase convention so the map is a deterministic function of seed.
    q = q * np.sign(np.diag(r))[None, :]
    return KrausChannel(tuple(q[2 * i: 2 * i + 2, :] for i in range(n_kraus)))


# --- transfer matrices -------------------------------------------------------

_ENV_EXCITED = np.outer(hermat.KET_E, hermat.KET_E.conj())
# Row-major basis |i><j| of one qubit, in vec order.
_UNITS = np.eye(4, dtype=complex).reshape(4, 2, 2)
# vec(rho) -> vec(rho (x) |e><e|), and vec(M) -> vec(tr_partner M).
_EMBED = np.stack([hermat.kron(u, _ENV_EXCITED).reshape(16) for u in _UNITS], axis=1)
_TRACE_PARTNER = np.stack([hermat.kron(u, hermat.IDENTITY).reshape(16) for u in _UNITS])


def transfer_grid(ch, times):
    """Transfer matrices T(t), shape (len(times), 4, 4), on a non-decreasing grid.

    vec(rho(t)) = T(t) vec(rho) with row-major vec. Master-equation models
    step the propagator incrementally between grid points: one `rk4_evolve`
    of the identity per distinct spacing t_i - t_{i-1} (t_{-1} = 0), kept for
    this call only, then one product per grid point. A product with the
    identity is exact, so every T(t) is bit-identical to calling `rk4_evolve`
    on the carrier interval by interval.
    """
    times = _check_time(times).reshape(-1)
    if np.any(np.diff(times) < 0):
        raise InvalidInput("time grid must be non-decreasing")
    if isinstance(ch, LorentzianAD):
        gval = _g_at(ch.g, ch.omega_w, 0.5 * times)
        out = np.zeros((times.size, 4, 4), dtype=complex)
        out[:, 0, 0] = gval * gval
        out[:, 1, 1] = out[:, 2, 2] = gval
        out[:, 3, 0] = 1.0 - gval * gval
        out[:, 3, 3] = 1.0
        return out
    if isinstance(ch, KrausChannel):
        tmat = sum(np.kron(k, k.conj()) for k in ch.operators)
        return np.repeat(tmat[None], times.size, axis=0)
    if isinstance(ch, RabiDecay):
        carrier = read = np.eye(4, dtype=complex)
    elif isinstance(ch, Exchange):
        carrier, read = _EMBED, _TRACE_PARTNER
    else:
        raise InvalidInput(f"unknown channel {ch!r}")
    lmat = liouvillian(*_generator(ch))
    h_target = RK4_BASE_STEP / max(1.0, _rate_scale(ch))
    identity = np.eye(lmat.shape[0], dtype=complex)
    propagators = {}
    out = np.empty((times.size, 4, 4), dtype=complex)
    t_prev = 0.0
    for i, t in enumerate(times):
        dt = t - t_prev
        if dt not in propagators:
            propagators[dt] = rk4_evolve(lmat, identity, dt, h_target)
        carrier = propagators[dt] @ carrier
        t_prev = t
        out[i] = read @ carrier
    return out


def choi_from_transfer(tmat):
    """Choi matrices sum_ij |i><j| (x) Lambda(|i><j|) of transfer matrices (..., 4, 4)."""
    tmat = np.asarray(tmat)
    lead = tmat.shape[:-2]
    blocks = tmat.reshape(*lead, 2, 2, 2, 2)
    return np.einsum("...abij->...iajb", blocks).reshape(*lead, 4, 4)


# --- applications ------------------------------------------------------------


def apply_channel(ch, t, rho):
    """rho(0) -> rho(t) for any channel variant and a single time t."""
    _check_scalar_time(t)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise InvalidInput(f"expected a 2x2 state, got shape {rho.shape}")
    return (transfer_grid(ch, [t])[0] @ rho.reshape(4)).reshape(2, 2)


def propagate_assemblage(ch, t, asm: Assemblage) -> Assemblage:
    """Evolve every member of an assemblage independently to a single time t.

    Positivity, Hermiticity, and total trace of the output are enforced at
    1e-8. Setting-dependent reduced states are tolerated: premeasuring any
    state other than I/2 dephases differently in different bases, so only
    maximally-mixed inputs produce non-signaling families in the first place.
    """
    _check_scalar_time(t)
    out = evolve_grid(ch, asm.stacked(), [t])[0]
    new = _from_stack(asm.labels, out, time_tag=t)
    hard = [v for v in validate(new, 1e-8) if v.kind != "non-signaling"]
    if hard:
        raise ValidationError(hard)
    return new


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

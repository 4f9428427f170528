import re

import numpy as np
import pytest

from conftest import eig_propagate, random_density
from tsteer import channels
from tsteer.channels import (
    Exchange,
    KrausChannel,
    LorentzianAD,
    RabiDecay,
    liouvillian,
    lorentzian_G,
    lorentzian_gamma,
    random_kraus_channel,
    rk4_evolve,
)
from tsteer.errors import InvalidInput
from tsteer.hermat import IDENTITY, KET_E, KET_G, SIGMA_X, kron
from tsteer.measures import propagate_assemblage
from tsteer.steering import pauli_measurement_set, premeasure, validate

EE = np.outer(KET_E, KET_E.conj())
GG = np.outer(KET_G, KET_G.conj())
XYZ = pauli_measurement_set("XYZ")


def apply_at(ch, t, rho):
    """rho(0) -> rho(t): the transfer matrix of the one-point grid [t] times vec(rho)."""
    return (channels.transfer_grid(ch, [t])[0] @ np.reshape(rho, 4)).reshape(2, 2)


def _lmat_and_step(ch):
    """The Liouvillian of a master-equation model and its RK4 step bound."""
    h, jumps, rate = ch._generator()
    return liouvillian(h, jumps), channels.RK4_BASE_STEP / max(1.0, rate)


def _np_kron_liouvillian(h, jumps):
    """The generator of `liouvillian`, built with np.kron."""
    idm = np.eye(h.shape[0], dtype=complex)
    lmat = -1j * (np.kron(h, idm) - np.kron(idm, h.T))
    for op, rate in jumps:
        kk = op.conj().T @ op
        lmat += rate * (np.kron(op, op.conj()) - 0.5 * (np.kron(kk, idm) + np.kron(idm, kk.T)))
    return lmat


@pytest.mark.parametrize("ch", [RabiDecay(1.0, 1 / 6), Exchange(1.0, 0.3)])
def test_liouvillian_is_the_np_kron_build_byte_for_byte(ch):
    h, jumps, _ = ch._generator()
    assert liouvillian(h, jumps).tobytes() == _np_kron_liouvillian(h, jumps).tobytes()


# --- Rabi + decay -------------------------------------------------------------


def test_rabi_full_flop():
    # exp(-i g sx t) at t = pi/(2 g) maps the ground level to the excited one
    out = apply_at(RabiDecay(1.0, 0.0), np.pi / 2, GG)
    assert np.linalg.norm(out - EE) < 1e-9


def test_rabi_time_zero():
    rng = np.random.default_rng(0)
    rho = random_density(rng)
    assert np.allclose(apply_at(RabiDecay(1.0, 0.3), 0.0, rho), rho)


def test_rabi_fixed_point():
    lmat, _ = _lmat_and_step(RabiDecay(1.0, 1.0))
    out = apply_at(RabiDecay(1.0, 1.0), 40.0, IDENTITY / 2)
    residual = np.linalg.norm(lmat @ out.reshape(4))
    assert residual < 1e-8
    # independent oracle: the null space of the Liouvillian
    w, v = np.linalg.eig(lmat)
    idx = int(np.argmin(np.abs(w)))
    assert abs(w[idx]) < 1e-12
    rho_inf = v[:, idx].reshape(2, 2)
    rho_inf = 0.5 * (rho_inf + rho_inf.conj().T)
    rho_inf = rho_inf / np.trace(rho_inf).real
    assert np.linalg.norm(out - rho_inf) < 1e-8


def test_rabi_negative_time():
    with pytest.raises(InvalidInput, match="t must be a finite real >= 0, got -0.1"):
        propagate_assemblage(RabiDecay(1.0, 0.0), -0.1, premeasure(IDENTITY / 2, XYZ))
    with pytest.raises(InvalidInput, match="gamma1 must be a finite real >= 0, got -0.5"):
        RabiDecay(1.0, -0.5)


@pytest.mark.parametrize("cls", [RabiDecay, Exchange])
def test_master_equation_models_reject_non_finite_rates(cls):
    for rates in ((np.nan, 0.0), (1.0, np.nan), (np.inf, 0.0), (1.0, np.inf)):
        bad = next(r for r in rates if not np.isfinite(r))
        with pytest.raises(InvalidInput, match=rf"^\w+ must be a finite real >= 0, got {bad}$"):
            cls(*rates)
    # a rate that is not a real number is rejected the same way, not by
    # numpy's or Python's own comparison errors; numpy scalars are reals
    for rates, bad in (((1j, 0.0), r"1j"), ((1.0, None), "None"),
                       ((np.array([1.0, 2.0]), 0.0), r"array\(\[1\., 2\.\]\)")):
        with pytest.raises(InvalidInput, match=rf"^\w+ must be a finite real >= 0, got {bad}$"):
            cls(*rates)
    assert cls(np.float64(1.0), np.int64(0)) == cls(1.0, 0.0)


# --- Exchange ------------------------------------------------------------------


def test_exchange_full_swap():
    rng = np.random.default_rng(1)
    for _ in range(5):
        rho = random_density(rng)
        out = apply_at(Exchange(1.0, 0.0), np.pi / 2, rho)
        assert np.linalg.norm(out - EE * np.trace(rho)) < 1e-9


def test_exchange_pi_phase():
    plus = (KET_E + KET_G) / np.sqrt(2)
    rho = np.outer(plus, plus.conj())
    out = apply_at(Exchange(1.0, 0.0), np.pi, rho)
    assert np.linalg.norm(out - (IDENTITY - SIGMA_X) / 2) < 1e-9


def test_exchange_periodic():
    rng = np.random.default_rng(2)
    rho = random_density(rng)
    out = apply_at(Exchange(1.0, 0.0), 2 * np.pi, rho)
    assert np.linalg.norm(out - rho) < 1e-8


def test_exchange_time_zero():
    rng = np.random.default_rng(3)
    rho = random_density(rng)
    assert np.allclose(apply_at(Exchange(1.0, 0.1), 0.0, rho), rho, atol=1e-12)


# --- Lorentzian reservoir -------------------------------------------------------


def test_G_at_zero():
    for g, w in ((0.1, 1.0), (0.5, 1.0), (2.0, 1.0), (1.0, 2.5)):
        assert lorentzian_G(g, w, 0.0) == pytest.approx(1.0)


def test_G_critical_coupling_limit():
    # at g = omega_w / 2 the closed form reduces to exp(-w t/2)(1 + w t/2)
    for t in np.linspace(0.0, 12.0, 40):
        expect = np.exp(-0.5 * t) * (1 + 0.5 * t)
        assert lorentzian_G(0.5, 1.0, t) == pytest.approx(expect, abs=1e-12)


def scalar_G(g, w, t):
    """G(t) at one time in scalar complex arithmetic, the per-time reference:
    (e+ + e-)/2 (1 + q) with e+- = exp((+-b - w) t/2) and q = (w t/2) tanh(bt/2)/(bt/2)."""
    b = complex(np.sqrt(complex(w * w - 2.0 * g * w)))
    half = 0.5 * t
    z = b * half
    tanhc = 1.0 - z * z / 3.0 + 2.0 * (z * z) ** 2 / 15.0 if abs(z) < 1e-4 else np.tanh(z) / z
    q = complex(w * half * tanhc).real
    return 0.5 * complex(np.exp((b - w) * half) + np.exp((-b - w) * half)).real * (1.0 + q)


def test_G_of_an_array_is_the_pointwise_G():
    # (0.5, 1) has b = 0 and takes the series branch; 1e-9 does for any b
    times = np.sort(np.concatenate(([1e-9, 3e-5], np.linspace(0.0, 10.0, 81))))
    for g, w in ((2.0, 1.0), (2.017722244222895, 1.0002265510562873), (0.3, 1.0), (0.5, 1.0)):
        gval = [scalar_G(g, w, t) for t in times]
        assert np.array_equal(lorentzian_G(g, w, times), gval)
        assert [lorentzian_G(g, w, t) for t in times] == gval
        tmat = channels.transfer_grid(LorentzianAD(g, w), times)
        assert np.array_equal(tmat[:, 1, 1], gval)
        assert np.array_equal(tmat[:, 0, 0], np.square(gval))
    with pytest.raises(InvalidInput, match=r"t must be finite reals >= 0, got \[1\.0, -1\.0\]"):
        lorentzian_G(2.0, 1.0, [1.0, -1.0])
    with pytest.raises(InvalidInput, match=r"t must be finite reals >= 0, got \[1\.0, nan\]"):
        lorentzian_G(2.0, 1.0, [1.0, np.nan])


def test_G_long_horizon_is_the_two_exponential_sum():
    # the overdamped G is a sum of two decaying exponentials; the form
    # exp(-wt/2) cosh(bt/2) reads 0.0 at t = 1500 and overflows past t ~ 2250
    g, w = 0.3, 1.0
    b = np.sqrt(w * w - 2.0 * g * w)
    times = np.array([200.0, 1500.0, 3000.0])
    expect = ((1 + w / b) / 2 * np.exp(-(w - b) * times / 2)
              + (1 - w / b) / 2 * np.exp(-(w + b) * times / 2))
    assert np.all(expect > 0)
    assert np.allclose(lorentzian_G(g, w, times), expect, rtol=1e-13, atol=0.0)


def test_gamma_long_horizon_tends_to_w_minus_b():
    # gamma = 2 g q / (1 + q) needs no G, so it stays finite where G underflows;
    # a test on |G| < 1e-12 would call t = 200 a zero of G, which this G has not
    g, w = 0.3, 1.0
    limit = w - np.sqrt(w * w - 2.0 * g * w)
    assert np.allclose(lorentzian_gamma(g, w, [200.0, 3000.0, 1e6]), limit, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("g, w", [(0.3, 1.0), (0.5, 1.0), (2.0, 1.0), (5.0, 0.5)])
def test_lorentzian_functions_are_finite_at_long_times(g, w):
    # pytest turns the RuntimeWarning of an overflow into an error
    times = [0.0, 3e3, 1e6]
    assert np.all(np.isfinite(lorentzian_G(g, w, times)))
    assert np.all(np.isfinite(channels.transfer_grid(LorentzianAD(g, w), times)))
    assert np.isfinite(lorentzian_gamma(g, w, 1e6))


@pytest.mark.parametrize("fn, name", [(lorentzian_G, "G(t)"), (lorentzian_gamma, "gamma(t)")])
@pytest.mark.parametrize("t, at", [(1.0, "1.0"), ([0.5, 1.0], "0.5")])
def test_lorentzian_overflow_names_the_parameters_and_time(fn, name, t, at):
    # w * w overflows, and both returned NaN with a RuntimeWarning from _tanhc
    message = rf"^{re.escape(name)} overflows at t = {at}, g = 1\.0, omega_w = 1e\+300$"
    with pytest.raises(InvalidInput, match=message):
        fn(1.0, 1e300, t)


def test_G_first_zero_strong_coupling():
    # g=2, w=1: b = i sqrt(3); the first zero solves tan(sqrt(3) t / 2) = -sqrt(3)
    t0 = 4 * np.pi / (3 * np.sqrt(3))
    assert abs(lorentzian_G(2.0, 1.0, t0)) < 1e-12
    assert lorentzian_G(2.0, 1.0, t0 - 0.1) > 0
    assert lorentzian_G(2.0, 1.0, t0 + 0.1) < 0


def test_gamma_zero_at_origin():
    for g in (0.2, 0.5, 2.0):
        assert lorentzian_gamma(g, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_gamma_nonnegative_weak_coupling():
    for g in (0.1, 0.3, 0.49):
        for t in np.linspace(0.0, 30.0, 100):
            assert lorentzian_gamma(g, 1.0, t) >= -1e-12


def test_gamma_negative_after_zero():
    t0 = 4 * np.pi / (3 * np.sqrt(3))
    assert lorentzian_gamma(2.0, 1.0, t0 + 0.05) < 0


def test_gamma_singular_at_zero_of_G():
    t0 = 4 * np.pi / (3 * np.sqrt(3))
    with pytest.raises(InvalidInput, match="singular at a zero of G"):
        lorentzian_gamma(2.0, 1.0, t0)


def test_gamma_of_an_array_is_the_pointwise_gamma():
    # an array of times died with numpy's "truth value of an array" ValueError
    times = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    pointwise = [lorentzian_gamma(2.0, 1.0, t) for t in times]
    assert all(type(v) is float for v in pointwise)
    assert np.allclose(lorentzian_gamma(2.0, 1.0, times), pointwise, rtol=1e-12, atol=1e-15)
    t0 = 4 * np.pi / (3 * np.sqrt(3))
    with pytest.raises(InvalidInput, match="singular at a zero of G"):
        lorentzian_gamma(2.0, 1.0, np.array([1.0, t0, 5.0]))


def test_gamma_finite_difference_consistency():
    # gamma(t) vs -(2/G) (|G(t+h)| - |G(t-h)|)/(2h) at h = 1e-5: O(h^2) agreement
    h = 1e-5
    for g in (0.3, 0.8, 2.0):
        for t in (0.2, 1.0, 2.0):
            gval = lorentzian_G(g, 1.0, t)
            fd = -(2.0 / gval) * (
                abs(lorentzian_G(g, 1.0, t + h)) - abs(lorentzian_G(g, 1.0, t - h))
            ) / (2 * h)
            assert lorentzian_gamma(g, 1.0, t) == pytest.approx(fd, abs=1e-6)


def test_lorentzian_map_cases():
    rng = np.random.default_rng(4)
    rho = random_density(rng)
    assert np.allclose(apply_at(LorentzianAD(2.0, 1.0), 0.0, rho), rho)
    t0 = 4 * np.pi / (3 * np.sqrt(3))
    out = apply_at(LorentzianAD(2.0, 1.0), t0, rho)
    assert np.linalg.norm(out - GG * np.trace(rho)) < 1e-10
    gval = lorentzian_G(0.3, 1.0, 2.0)
    plus = (KET_E + KET_G) / np.sqrt(2)
    out = apply_at(LorentzianAD(0.3, 1.0), 2.0, np.outer(plus, plus.conj()))
    assert out[0, 1] == pytest.approx(gval * 0.5)


def test_master_equation_reproduces_G_squared():
    """Integrating d p/dt = -gamma(t) p must recover |G|^2 up to the first zero."""
    for g, t_end in ((0.3, 10.0), (2.0, 0.95 * 4 * np.pi / (3 * np.sqrt(3)))):
        n = 4000
        h = t_end / n
        p = 1.0
        t = 0.0
        for _ in range(n):
            k1 = -lorentzian_gamma(g, 1.0, t) * p
            k2 = -lorentzian_gamma(g, 1.0, t + h / 2) * (p + h * k1 / 2)
            k3 = -lorentzian_gamma(g, 1.0, t + h / 2) * (p + h * k2 / 2)
            k4 = -lorentzian_gamma(g, 1.0, t + h) * (p + h * k3)
            p += (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        assert p == pytest.approx(lorentzian_G(g, 1.0, t_end) ** 2, abs=1e-6)


def test_lorentzian_bad_parameters():
    with pytest.raises(InvalidInput, match="omega_w must be a finite real > 0, got 0.0"):
        lorentzian_G(0.5, 0.0, 1.0)
    with pytest.raises(InvalidInput, match="g must be a finite real >= 0, got -0.1"):
        lorentzian_G(-0.1, 1.0, 1.0)
    with pytest.raises(InvalidInput, match="omega_w must be a finite real > 0, got -1.0"):
        LorentzianAD(0.5, -1.0)
    with pytest.raises(InvalidInput, match="omega_w must be a finite real > 0, got 0.0"):
        LorentzianAD(0.5, 0.0)
    for g, omega_w in ((np.nan, 1.0), (np.inf, 1.0), (0.5, np.nan), (0.5, np.inf)):
        name, bad = ("g", g) if g != 0.5 else ("omega_w", omega_w)
        with pytest.raises(InvalidInput, match=f"^{name} must be a finite real .*, got {bad}$"):
            LorentzianAD(g, omega_w)
    with pytest.raises(InvalidInput, match=r"g must be a finite real >= 0, got 2j"):
        LorentzianAD(2j, 1.0)
    with pytest.raises(InvalidInput, match="omega_w must be a finite real > 0, got None"):
        lorentzian_G(0.5, None, 1.0)
    assert LorentzianAD(np.float64(2.0), np.int64(1)) == LorentzianAD(2.0, 1.0)


@pytest.mark.parametrize("fn", [lorentzian_G, lorentzian_gamma])
@pytest.mark.parametrize("args", [
    (np.nan, 1.0, 1.0), (1.0, np.nan, 1.0), (1.0, 1.0, np.nan),
    (np.inf, 1.0, 1.0), (2.0, 1.0, np.inf),
])
def test_lorentzian_functions_reject_non_finite_input(fn, args):
    name = ("g", "omega_w", "t")[next(i for i, a in enumerate(args) if not np.isfinite(a))]
    with pytest.raises(InvalidInput, match=f"^{name} must be (a )?finite real"):
        fn(*args)


# --- random Kraus channels -------------------------------------------------------


def test_random_kraus_completeness_and_determinism():
    for seed in range(20):
        ch = random_kraus_channel(seed, 1 + seed % 4)
        total = sum(k.conj().T @ k for k in ch.operators)
        assert np.abs(total - np.eye(2)).max() < 1e-10
        again = random_kraus_channel(seed, 1 + seed % 4)
        for a, b in zip(ch.operators, again.operators):
            assert np.array_equal(a, b)


def test_random_kraus_single_is_unitary():
    ch = random_kraus_channel(42, 1)
    (u,) = ch.operators
    assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-10


@pytest.mark.parametrize("n_kraus", [0, 2.5, 2.0, float("nan"), None])
def test_random_kraus_rejects_a_count_that_is_not_a_positive_integer(n_kraus):
    with pytest.raises(InvalidInput, match="n_kraus must be an integer >= 1, got "):
        random_kraus_channel(0, n_kraus)


def test_random_kraus_accepts_numpy_integer_counts():
    assert len(random_kraus_channel(0, np.int64(3)).operators) == 3
    assert repr(random_kraus_channel(0, 2)) == "KrausChannel(n=2)"


def test_kraus_rejects_incomplete():
    with pytest.raises(InvalidInput, match="sum K\\^dag K = I"):
        KrausChannel([np.diag([0.5, 0.5])])
    with pytest.raises(InvalidInput, match="^need at least one Kraus operator$"):
        KrausChannel(())


def test_kraus_channel_keeps_read_only_copies_of_its_operators():
    # the caller's array was the operator, so K[0][0, 0] = 5 after the
    # completeness check made transfer_grid(ch, [1.0])[0][0, 0] read 25
    ops = [np.eye(2, dtype=complex)]
    ch = KrausChannel(ops)
    ops[0][0, 0] = 5.0
    assert np.array_equal(channels.transfer_grid(ch, [1.0])[0], np.eye(4))
    with pytest.raises(ValueError, match="read-only"):
        ch.operators[0][0, 0] = 5.0


@pytest.mark.parametrize("operators", [
    [np.full((2, 2), np.nan)],
    [np.array([[1.0, 0.0], [0.0, np.inf]])],
    [np.eye(3)],
    [np.eye(2)[:, :1]],
    [np.eye(2), np.zeros((3, 3))],
])
def test_kraus_rejects_non_finite_and_non_qubit_operators(operators):
    with pytest.raises(InvalidInput, match="finite 2x2 matrices"):
        KrausChannel(operators)


@pytest.mark.parametrize("times", [[1.0, 2.0], np.array([1.0]), [[0.5]]])
def test_single_time_applications_reject_a_time_that_is_not_a_scalar(times):
    with pytest.raises(InvalidInput, match="t must be a finite real >= 0, got "):
        propagate_assemblage(RabiDecay(1.0, 0.5), times, premeasure(IDENTITY / 2, XYZ))


# --- propagation over assemblages -------------------------------------------------


def test_propagate_identity_channel():
    asm = premeasure(IDENTITY / 2, XYZ)
    out = propagate_assemblage(KrausChannel([np.eye(2)]), 3.0, asm)
    for key, m in asm.members.items():
        assert np.allclose(out.members[key], m)
    assert out.time_tag == 3.0


def test_propagate_full_depolarization():
    paulis = [np.eye(2), SIGMA_X, channels.hermat.SIGMA_Y, channels.hermat.SIGMA_Z]
    ch = KrausChannel([p / 2 for p in paulis])
    asm = premeasure(IDENTITY / 2, XYZ)
    out = propagate_assemblage(ch, 1.0, asm)
    for key, m in out.members.items():
        p = np.trace(asm.members[key]).real
        assert np.allclose(m, p * IDENTITY / 2, atol=1e-12)


def test_propagate_unitary_preserves_spectra():
    asm = premeasure(IDENTITY / 2, XYZ)
    out = propagate_assemblage(RabiDecay(1.0, 0.0), 0.7, asm)
    for key, m in asm.members.items():
        w0 = np.linalg.eigvalsh(m)
        w1 = np.linalg.eigvalsh(out.members[key])
        assert np.allclose(w0, w1, atol=1e-9)
    validate(out)


# --- propagator invariants ----------------------------------------------------------


CHANNEL_GRID = [
    (RabiDecay(1.0, 0.0), (0.0, 0.4, 2.0)),
    (RabiDecay(1.0, 1.0 / 6.0), (0.3, 5.0)),
    (RabiDecay(1.0, 1.0), (0.5, 3.0)),
    (Exchange(1.0, 0.0), (0.7, np.pi / 2)),
    (Exchange(1.0, 0.1), (0.4, 4.0)),
    (LorentzianAD(0.3, 1.0), (0.5, 6.0)),
    (LorentzianAD(2.0, 1.0), (1.0, 2.4, 5.0)),
    (random_kraus_channel(5, 2), (1.0,)),
]


def test_trace_preservation_and_linearity():
    rng = np.random.default_rng(6)
    for ch, times in CHANNEL_GRID:
        for t in times:
            a = random_density(rng)
            b = random_density(rng)
            out = apply_at(ch, t, a)
            assert abs(np.trace(out).real - 1.0) < 1e-8
            mix = apply_at(ch, t, 0.3 * a + 0.7 * b)
            sep = 0.3 * apply_at(ch, t, a) + 0.7 * apply_at(ch, t, b)
            assert np.linalg.norm(mix - sep) < 1e-8


def test_complete_positivity_choi():
    for ch, times in CHANNEL_GRID:
        for t in times:
            cm = channels.choi_from_transfer(channels.transfer_grid(ch, [t])[0])
            assert np.linalg.norm(cm - cm.conj().T) < 1e-9
            assert np.linalg.eigvalsh(0.5 * (cm + cm.conj().T))[0] >= -1e-8


def test_rabi_divisibility():
    # time-homogeneous semigroup: apply(t + tau) = apply(tau) o apply(t)
    rng = np.random.default_rng(7)
    for gamma1 in (0.0, 1.0 / 6.0, 1.0):
        ch = RabiDecay(1.0, gamma1)
        rho = random_density(rng)
        for t, tau in ((0.3, 0.8), (1.0, 2.0)):
            once = apply_at(ch, t + tau, rho)
            twice = apply_at(ch, tau, apply_at(ch, t, rho))
            assert np.linalg.norm(once - twice) < 1e-8


def test_rk4_matches_eigendecomposition_propagator():
    rng = np.random.default_rng(8)
    for ch in (RabiDecay(1.0, 0.5), Exchange(1.0, 0.1)):
        lmat, step = _lmat_and_step(ch)
        dim = int(np.sqrt(lmat.shape[0]))
        rho = random_density(rng, dim)
        for t in (0.5, 2.0, 6.0):
            v0 = rho.reshape(dim * dim, 1)
            a = rk4_evolve(lmat, t, step) @ v0
            b = eig_propagate(lmat, t, v0)
            assert np.abs(a - b).max() < 1e-8


def test_rk4_step_halving():
    # the model's own step bound, RK4_BASE_STEP / 2 at the rate 1 + 1
    lmat, h = _lmat_and_step(RabiDecay(1.0, 1.0))
    rng = np.random.default_rng(9)
    v0 = random_density(rng).reshape(4, 1)
    a = rk4_evolve(lmat, 10.0, h) @ v0
    b = rk4_evolve(lmat, 10.0, h / 2) @ v0
    assert np.abs(a - b).max() < 1e-9


@pytest.mark.parametrize("ch", [RabiDecay(1.0, 0.5), Exchange(1.0, 0.1)])
def test_rk4_propagator_at_time_zero_is_exactly_the_identity(ch):
    # one RK4 step of size 0 is I to the bit, signs of zeros included
    lmat, h_target = _lmat_and_step(ch)
    prop = rk4_evolve(lmat, 0.0, h_target)
    assert prop.tobytes() == np.eye(lmat.shape[0], dtype=complex).tobytes()


def test_evolve_grid_matches_pointwise_apply():
    rng = np.random.default_rng(10)
    mats = np.array([random_density(rng) for _ in range(3)])
    times = np.linspace(0.0, 3.0, 7)
    for ch in (RabiDecay(1.0, 0.2), Exchange(1.0, 0.05), LorentzianAD(2.0, 1.0)):
        grid = channels.evolve_grid(ch, mats, times)
        for i, t in enumerate(times):
            for k in range(3):
                direct = apply_at(ch, t, mats[k])
                assert np.abs(grid[i, k] - direct).max() < 1e-9


def test_evolve_grid_rejects_stacks_that_are_not_2x2_blocks():
    # a (k, 3, 3) stack died in a raw numpy reshape
    for mats in (np.zeros((2, 3, 3)), np.eye(2), np.zeros((2, 4))):
        with pytest.raises(InvalidInput, match="\\(k, 2, 2\\) stack"):
            channels.evolve_grid(LorentzianAD(2.0, 1.0), mats, [0.0, 1.0])


@pytest.mark.parametrize("rho", [np.eye(3) / 3, np.full(4, 0.25), np.array(1.0)])
def test_evolve_grid_rejects_states_that_are_not_2x2(rho):
    # a one-state stack at one time: the single-state case of evolve_grid
    with pytest.raises(InvalidInput, match="\\(k, 2, 2\\) stack"):
        channels.evolve_grid(RabiDecay(1.0, 0.5), [rho], [1.0])


def _sequential_rk4(lmat, v, t, h_target):
    n = max(1, int(np.ceil(t / h_target)))
    h = t / n
    for _ in range(n):
        k1 = lmat @ v
        k2 = lmat @ (v + 0.5 * h * k1)
        k3 = lmat @ (v + 0.5 * h * k2)
        k4 = lmat @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


def test_rk4_step_matrix_power_matches_sequential_loop():
    rng = np.random.default_rng(11)
    for ch, t in ((RabiDecay(1.0, 1.0), 10.0), (Exchange(1.0, 0.1), 6.0)):
        lmat, h_target = _lmat_and_step(ch)
        dim = int(np.sqrt(lmat.shape[0]))
        v0 = random_density(rng, dim).reshape(dim * dim, 1)
        a = rk4_evolve(lmat, t, h_target) @ v0
        b = _sequential_rk4(lmat, v0, t, h_target)
        assert np.abs(a - b).max() < 1e-12


def test_transfer_matrices_trace_preserving_and_cp():
    trace_row = np.eye(2, dtype=complex).reshape(4)
    # each grid, an empty grid and the grid's first time as a 0-d time
    inputs = [(ch, grid) for ch, times in CHANNEL_GRID for grid in (times, (), np.array(times[0]))]
    for ch, times in inputs:
        tmats = channels.transfer_grid(ch, times)
        assert tmats.shape == (np.size(times), 4, 4)
        for tmat in tmats:
            # tr(rho(t)) = vec(I) . T vec(rho) must equal vec(I) . vec(rho)
            assert np.abs(trace_row @ tmat - trace_row).max() < 1e-10
            cm = channels.choi_from_transfer(tmat)
            assert np.linalg.norm(cm - cm.conj().T) < 1e-9
            assert np.linalg.eigvalsh(0.5 * (cm + cm.conj().T))[0] >= -1e-8


def test_transfer_grid_rejects_bad_grids():
    with pytest.raises(InvalidInput, match=r"times must be finite reals >= 0, got \[-0\.1, 1\.0\]"):
        channels.transfer_grid(RabiDecay(1.0), [-0.1, 1.0])
    with pytest.raises(InvalidInput, match="non-decreasing"):
        channels.transfer_grid(RabiDecay(1.0), [1.0, 0.5])
    # a 2-D grid was flattened into 4 matrices
    for grid in ([[0, 1], [2, 3]], [[0.5]], np.zeros((2, 0))):
        with pytest.raises(InvalidInput, match="^time grid must be one time or a non-decreasing 1-D"):
            channels.transfer_grid(RabiDecay(1.0), grid)
        with pytest.raises(InvalidInput, match="^time grid must be one time or a non-decreasing 1-D"):
            channels.evolve_grid(RabiDecay(1.0), [IDENTITY / 2], grid)
    with pytest.raises(InvalidInput, match="unknown channel"):
        channels.transfer_grid(object(), [1.0])
    for ch in (RabiDecay(1.0, 0.5), LorentzianAD(2.0), Exchange(1.0)):
        for times in ([0.0, np.nan], [np.nan], [0.0, np.inf]):
            with pytest.raises(InvalidInput,
                               match=rf"times must be finite reals >= 0, got \[.*{times[-1]}\]"):
                channels.transfer_grid(ch, times)


def _interval_transfer_grid(ch, times):
    """Reference for transfer_grid: one rk4_evolve per grid interval, applied to the carrier."""
    lmat, h_target = _lmat_and_step(ch)
    carrier = ch._CARRIER
    out = []
    t_prev = 0.0
    for t in times:
        carrier = rk4_evolve(lmat, t - t_prev, h_target) @ carrier
        t_prev = t
        out.append(ch._READ @ carrier)
    return np.array(out)


PROPAGATOR_GRIDS = [
    np.linspace(0.0, 8.0, 33),
    np.linspace(0.0, 2 * np.pi, 81),
    np.sort(np.random.default_rng(12).uniform(0.0, 5.0, 25)),
    np.array([0.4, 0.4, 1.0, 1.6, 1.6, 3.0]),
]


@pytest.mark.parametrize("ch", [RabiDecay(1.0, 1.0 / 6.0), Exchange(1.0, 0.0), Exchange(1.0, 0.3)])
@pytest.mark.parametrize("times", PROPAGATOR_GRIDS)
def test_transfer_grid_is_bit_identical_to_stepping_each_interval(ch, times):
    assert np.array_equal(channels.transfer_grid(ch, times), _interval_transfer_grid(ch, times))


@pytest.mark.parametrize("ch", [RabiDecay(1.0, 1.0 / 6.0), Exchange(1.0, 0.3)])
@pytest.mark.parametrize("times, n_spacings", [
    (np.linspace(0.0, 8.0, 33), 2),
    (np.linspace(0.0, 2 * np.pi, 81), 4),
    (PROPAGATOR_GRIDS[3], 5),
])
def test_transfer_grid_runs_one_propagator_per_distinct_spacing(ch, times, n_spacings, monkeypatch):
    calls = []
    real = channels.rk4_evolve

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(channels, "rk4_evolve", counting)
    channels.transfer_grid(ch, times)
    spacings = set(np.diff(np.concatenate(([0.0], times))))
    assert len(calls) == len(spacings) == n_spacings
    assert set(calls) == spacings

import numpy as np
import pytest

from conftest import random_assemblage, random_density
from tsteer.channels import (
    Exchange,
    KrausChannel,
    LorentzianAD,
    RabiDecay,
    propagate_assemblage,
    random_kraus_channel,
)
from tsteer import channels, hermat, measures
from tsteer.errors import InvalidState, ValidationError
from tsteer.hermat import IDENTITY
from tsteer.measures import (
    concurrence,
    n_abs,
    n_tsw,
    nc_trace,
    tsw,
    tsw_trace,
    TraceSeries,
)
from tsteer.sdp import SolveStatus
from tsteer.steering import (
    Assemblage,
    depolarized_assemblage,
    pauli_measurement_set,
    premeasure,
)

XYZ = pauli_measurement_set("XYZ")
MIXED = IDENTITY / 2


def series(values):
    v = np.asarray(values, dtype=float)
    return TraceSeries(np.arange(v.size, dtype=float), v)


# --- single-shot TSW -----------------------------------------------------------


def test_tsw_identity_assemblage_is_maximal():
    r = tsw(premeasure(MIXED, XYZ))
    assert r.value == pytest.approx(1.0, abs=1e-6)
    assert r.value + r.solution.mu_star == pytest.approx(1.0, abs=1e-12)


def test_tsw_below_visibility_threshold_vanishes():
    for v in (0.0, 0.3, 1 / np.sqrt(3)):
        r = tsw(depolarized_assemblage(v, XYZ))
        assert abs(r.value) <= 1e-6


def test_tsw_setting_independent_members_vanish(rng):
    rho = random_density(rng)
    members = {(x, a): rho / 2 for x in "XYZ" for a in (1, -1)}
    asm = Assemblage(("X", "Y", "Z"), members, 0.0)
    assert tsw(asm).value == pytest.approx(0.0, abs=1e-7)


def test_tsw_unitary_invariance(rng):
    asm = random_assemblage(rng)
    base = tsw(asm).value
    for k in range(10):
        (u,) = random_kraus_channel(k, 1).operators
        rotated = Assemblage(
            asm.labels,
            {key: u @ m @ u.conj().T for key, m in asm.members.items()},
            0.0,
        )
        assert abs(tsw(rotated).value - base) <= 1e-6


def test_tsw_monotone_under_channels(rng):
    for k in range(15):
        asm = random_assemblage(rng)
        before = tsw(asm).value
        ch = random_kraus_channel(1000 + k, 1 + k % 4)
        after = tsw(propagate_assemblage(ch, 1.0, asm)).value
        assert after <= before + 1e-6


# --- traces ----------------------------------------------------------------------


def test_trace_unitary_rabi_is_constant_one():
    ts = tsw_trace(RabiDecay(1.0, 0.0), XYZ, MIXED, 10.0, 41)
    assert np.all(np.abs(ts.values - 1.0) <= 1e-6)
    assert all(s.status is SolveStatus.OPTIMAL for s in ts.solutions)


def test_trace_decaying_rabi_is_monotone():
    ts = tsw_trace(RabiDecay(1.0, 1.0), XYZ, MIXED, 10.0, 41)
    assert np.all(np.diff(ts.values) <= 1e-6)


def test_trace_exchange_dip_and_revival():
    ts = tsw_trace(Exchange(1.0, 0.0), XYZ, MIXED, np.pi, 41)
    mid = 20  # t = pi/2
    assert ts.times[mid] == pytest.approx(np.pi / 2)
    assert ts.values[mid] < 1e-4
    assert ts.values[-1] > 1 - 1e-3


def test_trace_grid_is_uniform_with_endpoints():
    ts = tsw_trace(RabiDecay(1.0, 0.5), XYZ, MIXED, 5.0, 11)
    assert ts.times[0] == 0.0
    assert ts.times[-1] == 5.0
    assert np.allclose(np.diff(ts.times), 0.5)


def test_trace_divisibility_of_semigroup():
    # TSW at t + tau never exceeds TSW at t for the Markovian model
    ts = tsw_trace(RabiDecay(1.0, 1.0 / 6.0), XYZ, MIXED, 8.0, 33)
    for i in range(len(ts.values)):
        for jj in range(i, len(ts.values)):
            assert ts.values[jj] <= ts.values[i] + 1e-6


# --- non-Markovianity measures ------------------------------------------------------


def test_n_tsw_zero_for_monotone_and_constant():
    assert n_tsw(series([1.0, 0.8, 0.5, 0.2])).value == 0.0
    assert n_tsw(series([0.4] * 10)).value == 0.0


def test_n_tsw_counts_revival():
    ts = series([1.0, 0.2, 0.9, 0.1, 0.6])
    assert n_tsw(ts).value == pytest.approx(0.7 + 0.5)


def test_n_tsw_threshold_filters_noise():
    ts = series([0.5, 0.5 + 5e-7, 0.5, 0.5 + 5e-7, 0.5])
    assert n_tsw(ts, slope_threshold=1e-6).value == 0.0
    assert n_tsw(ts, slope_threshold=1e-8).value == pytest.approx(1e-6, rel=1e-6)


def test_n_abs_telescoping_and_factor_two(rng):
    assert n_abs(series([1.0, 0.7, 0.3, 0.0])).value == pytest.approx(0.0, abs=1e-12)
    for _ in range(25):
        vals = rng.uniform(0, 1, size=30)
        s = series(vals)
        assert n_abs(s).value == pytest.approx(2 * n_tsw(s).value, abs=1e-9)
        assert n_tsw(s).value >= 0.0
    # noisy series keep the identity exactly because both use filtered steps
    vals = 0.5 + rng.uniform(-1, 1, size=50) * 4e-7
    s = series(vals)
    assert n_abs(s).value == pytest.approx(2 * n_tsw(s).value, abs=1e-12)


def test_n_tsw_exchange_revival_large():
    ts = tsw_trace(Exchange(1.0, 0.0), XYZ, MIXED, 2 * np.pi, 81)
    assert n_tsw(ts).value >= 0.9


def test_n_tsw_zero_for_lindblad_traces():
    for gamma1 in (0.0, 1.0 / 6.0, 1.0):
        ts = tsw_trace(RabiDecay(1.0, gamma1), XYZ, MIXED, 6.0, 25)
        assert n_tsw(ts).value == 0.0


# --- concurrence ---------------------------------------------------------------------


def test_concurrence_bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    assert concurrence(np.outer(phi, phi.conj())) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_separable():
    assert concurrence(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_werner_threshold():
    # p |Phi+><Phi+| + (1-p) I/4 has concurrence max(0, (3p-1)/2); p=1/3 sits
    # exactly at the separability edge
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    bell = np.outer(phi, phi.conj())
    rho = bell / 3 + (2 / 3) * np.eye(4) / 4
    assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)
    rho2 = 0.8 * bell + 0.2 * np.eye(4) / 4
    assert concurrence(rho2) == pytest.approx((3 * 0.8 - 1) / 2, abs=1e-12)


def test_concurrence_rejects_bad_input():
    from tsteer.errors import InvalidState

    with pytest.raises(InvalidState):
        concurrence(np.eye(2) / 2)
    with pytest.raises(InvalidState):
        concurrence(np.eye(4))


# --- ancilla traces -------------------------------------------------------------------


def test_nc_identity_channel_constant_one():
    ts = nc_trace(KrausChannel([np.eye(2)]), 5.0, 9)
    assert np.all(np.abs(ts.values - 1.0) < 1e-12)


def test_nc_rabi_decay_monotone_and_markovian():
    ts = nc_trace(RabiDecay(1.0, 0.5), 8.0, 33)
    assert np.all(np.diff(ts.values) <= 1e-9)
    assert n_abs(ts, 1e-4).value == pytest.approx(0.0, abs=1e-4)


def test_nc_exchange_collapse_and_revival():
    ts = nc_trace(Exchange(1.0, 0.0), np.pi, 41)
    mid = 20
    assert ts.values[mid] < 1e-3
    assert ts.values[-1] > 1 - 1e-6
    assert n_abs(ts).value > 0


def test_nc_and_tsw_concord_for_exchange():
    grid = 41
    tsw_ts = tsw_trace(Exchange(1.0, 0.0), XYZ, MIXED, np.pi, grid)
    nc_ts = nc_trace(Exchange(1.0, 0.0), np.pi, grid)
    mid = 20
    assert tsw_ts.values[mid] < 1e-3 and nc_ts.values[mid] < 1e-3
    assert tsw_ts.values[-1] > 0.9 and nc_ts.values[-1] > 0.9


def test_nc_lorentzian_collapses_at_zero_of_G():
    t0 = 4 * np.pi / (3 * np.sqrt(3))
    ts = nc_trace(LorentzianAD(2.0, 1.0), 2 * t0, 9)
    assert ts.values[0] == pytest.approx(1.0, abs=1e-12)
    assert min(ts.values) < 0.05


def _ancilla_concurrence(ch, times):
    """Concurrence of (I (x) Lambda_t)(Phi+) evolved on the ancilla-extended space."""
    h, jumps = channels._generator(ch)
    h_ext = hermat.kron(IDENTITY, h)
    jumps_ext = [(hermat.kron(IDENTITY, op), rate) for op, rate in jumps]
    lmat = channels.liouvillian(h_ext, jumps_ext)
    phi = np.zeros((4, 4), dtype=complex)
    phi[np.ix_([0, 3], [0, 3])] = 0.5
    if isinstance(ch, Exchange):
        state = hermat.kron(phi, np.diag([1.0, 0.0]))  # partner starts excited
    else:
        state = phi
    dim = state.shape[0]
    out = []
    for t in times:
        m = channels.eig_propagate(lmat, t, state.reshape(dim * dim, 1)).reshape(dim, dim)
        if dim == 8:
            m = np.einsum("ijklmk->ijlm", m.reshape(2, 2, 2, 2, 2, 2)).reshape(4, 4)
        out.append(concurrence(0.5 * (m + m.conj().T)))
    return np.array(out)


def test_nc_trace_matches_ancilla_extended_evolution():
    for ch, t_max in ((RabiDecay(1.0, 1.0 / 6.0), 4.0), (Exchange(1.0, 0.3), 3.0)):
        ts = nc_trace(ch, t_max, 9)
        assert np.abs(ts.values - _ancilla_concurrence(ch, ts.times)).max() < 1e-6


def test_tsw_trace_flags_non_optimal_points(monkeypatch):
    real_solve = measures.solve
    bad_time = 1.0

    def solve_with_one_failure(problem, **kwargs):
        sol = real_solve(problem, **kwargs)
        if problem.time_tag == bad_time:
            sol.status = SolveStatus.MAX_ITER
        return sol

    monkeypatch.setattr(measures, "solve", solve_with_one_failure)
    ts = tsw_trace(RabiDecay(1.0, 0.5), XYZ, MIXED, 2.0, 5)
    assert ts.metadata["non_optimal"] == [2]
    assert ts.solutions[2].status is SolveStatus.MAX_ITER
    assert np.all(np.isfinite(ts.values))


def test_tsw_trace_all_optimal_has_empty_flag_list():
    ts = tsw_trace(RabiDecay(1.0, 0.5), XYZ, MIXED, 2.0, 5)
    assert ts.metadata["non_optimal"] == []


def test_traces_on_equal_grids_share_one_read_only_times_array():
    a = nc_trace(RabiDecay(1.0, 0.5), 2.0, 5)
    b = nc_trace(Exchange(1.0, 0.0), 2.0, 5)
    assert a.times is b.times
    assert not a.times.flags.writeable
    assert np.array_equal(a.times, np.linspace(0.0, 2.0, 5))


@pytest.mark.parametrize("t_max, n_steps", [
    (np.nan, 5), (np.inf, 5), (0.0, 5), (-1.0, 5),
    (2.0, 1), (2.0, 2.5), (2.0, np.nan), (2.0, np.inf),
])
def test_traces_reject_bad_grid_arguments(t_max, n_steps):
    with pytest.raises(InvalidState):
        nc_trace(RabiDecay(1.0), t_max, n_steps)
    with pytest.raises(InvalidState):
        tsw_trace(RabiDecay(1.0), XYZ, MIXED, t_max, n_steps)


def test_traces_accept_integral_float_grid_size():
    assert nc_trace(RabiDecay(1.0), 2.0, 5.0).times.size == 5


def test_tsw_rejects_non_finite_members():
    asm = premeasure(MIXED, XYZ)
    asm.members[("X", 1)] = np.array([[np.inf, 0.0], [0.0, 0.25]], dtype=complex)
    with pytest.raises(ValidationError) as err:
        tsw(asm)
    assert [v.kind for v in err.value.violations] == ["non-finite"]
    with pytest.raises(ValidationError):
        propagate_assemblage(RabiDecay(1.0, 0.5), 0.5, asm)

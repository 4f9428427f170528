import numpy as np
import pytest

from conftest import depolarized_assemblage, eig_propagate, random_assemblage, random_density
from tsteer.channels import (
    Exchange,
    KrausChannel,
    LorentzianAD,
    RabiDecay,
    lorentzian_G,
    propagate_assemblage,
    random_kraus_channel,
)
from tsteer import channels, hermat, measures, sdp
from tsteer.errors import InvalidInput, ValidationError
from tsteer.hermat import IDENTITY
from tsteer.measures import (
    concurrence,
    n_tsw,
    nc_trace,
    tsw,
    tsw_trace,
    TraceSeries,
)
from tsteer.sdp import SolveStatus
from tsteer.steering import (
    Assemblage,
    pauli_measurement_set,
    premeasure,
    validate,
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


# Next to a constant-map time every member is nearly proportional to one pure
# state and the optimum sits on a degenerate face; the weight tends to 0.25
# there, and is 0 only at the constant-map time itself.
LORENTZ_FIRST_ZERO = 4 * np.pi / (3 * np.sqrt(3))


@pytest.mark.parametrize("ch, t", [
    (Exchange(1.0, 0.0), np.pi / 2 + 1e-4),
    (Exchange(1.0, 0.0), np.pi / 2 - 1e-4),
    (LorentzianAD(2.0, 1.0), LORENTZ_FIRST_ZERO + 1e-3),
    (LorentzianAD(2.0, 1.0), LORENTZ_FIRST_ZERO - 1e-3),
], ids=["exchange-after", "exchange-before", "lorentz-after", "lorentz-before"])
def test_tsw_next_to_constant_map_is_a_quarter(ch, t):
    r = tsw(propagate_assemblage(ch, t, premeasure(MIXED, XYZ)))
    assert r.solution.status is SolveStatus.OPTIMAL
    assert r.value == pytest.approx(0.25, abs=1e-6)


def test_tsw_deep_lorentzian_decay_not_below_its_limit():
    # amplitude damping keeps the weight at or above its G -> 0 limit 0.25
    ch = LorentzianAD(2.017722244222895, 1.0002265510562873)
    r = tsw(propagate_assemblage(ch, 9.5, premeasure(MIXED, XYZ)))
    assert r.solution.status is SolveStatus.OPTIMAL
    assert r.value >= 0.25 - r.solution.gap


def test_tsw_at_the_exact_swap_point_vanishes():
    r = tsw(propagate_assemblage(Exchange(1.0, 0.0), np.pi / 2, premeasure(MIXED, XYZ)))
    assert r.solution.status is SolveStatus.OPTIMAL
    assert abs(r.value) < 1e-4


@pytest.mark.parametrize("ch, t_max, newton_steps", [
    (Exchange(1.0, 0.0), 2 * np.pi, 756),
    (LorentzianAD(2.0, 1.0), 10.0, 782),
], ids=["exchange", "lorentz"])
def test_paper_traces_one_certified_solve_per_point(ch, t_max, newton_steps, monkeypatch):
    real_solve = measures.solve
    real_primal, real_dual = sdp._Reduced.primal, sdp._Reduced.dual
    calls = []
    primal_map_backs, map_backs = [], []

    def counting_solve(targets, **kwargs):
        calls.append(targets)
        return real_solve(targets, **kwargs)

    def counting_primal(reduced, x):
        primal_map_backs.append(1)
        return real_primal(reduced, x)

    def counting_dual(reduced, y):
        map_backs.append(1)
        return real_dual(reduced, y)

    monkeypatch.setattr(measures, "solve", counting_solve)
    monkeypatch.setattr(sdp._Reduced, "primal", counting_primal)
    monkeypatch.setattr(sdp._Reduced, "dual", counting_dual)
    ts = tsw_trace(ch, XYZ, MIXED, t_max, 81, tol=1e-8)
    # one solve per grid point, in grid order, of exactly the evolved stack
    assert np.array_equal(calls, channels.evolve_grid(ch, premeasure(MIXED, XYZ).stacked(),
                                                      ts.times))
    # the certified map back runs only where it can stop the run, not once
    # per iterate (Newton steps + one final iterate per solve)
    iterates = sum(sol.iterations for sol in ts.solutions) + len(ts.solutions)
    assert len(map_backs) <= iterates / 2
    # the work is machine independent: the Newton steps, and primal map backs
    # close to the floor of one at each cold start and one that certifies
    assert abs(iterates - len(ts.solutions) - newton_steps) <= 0.02 * newton_steps
    assert len(primal_map_backs) <= 200
    assert ts.metadata["non_optimal"] == []
    for sol in ts.solutions:
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.gap <= 1e-8


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
    # a NaN threshold would switch the filter off, a negative one is meaningless
    for bad in (np.nan, np.inf, -1e-6):
        with pytest.raises(InvalidInput, match=f"slope_threshold must be finite and >= 0, got {bad}"):
            n_tsw(series([0.0, 0.5, 1.0]), slope_threshold=bad)
    for bad in ("x", None):
        with pytest.raises(InvalidInput, match="slope_threshold must be finite and >= 0"):
            n_tsw(series([0.0, 0.5, 1.0]), slope_threshold=bad)
    assert n_tsw(ts, slope_threshold=np.float64(1e-6)).value == 0.0


def test_n_tsw_is_half_the_abs_slope_plus_boundary(rng):
    # twice n_tsw is the |slope| integral plus the boundary term, sum |d| + sum d
    # over the filtered increments d, and sum d telescopes to the end-to-end change
    assert n_tsw(series([1.0, 0.7, 0.3, 0.0])).value == pytest.approx(0.0, abs=1e-12)
    for _ in range(25):
        vals = rng.uniform(0, 1, size=30)
        s = series(vals)
        abs_plus_boundary = np.abs(np.diff(vals)).sum() + (vals[-1] - vals[0])
        assert 2 * n_tsw(s).value == pytest.approx(abs_plus_boundary, abs=1e-9)
        assert n_tsw(s).value >= 0.0
    # every rise of this noisy series is below the threshold, so all are
    # filtered, and the abs-plus-boundary sum of the filtered steps is 0 too
    vals = 0.5 + rng.uniform(-1, 1, size=50) * 4e-7
    assert n_tsw(series(vals)).value == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_n_tsw_rejects_non_finite_values(bad):
    # a broken point must not read as a flat (Markovian) stretch
    s = series([0.0, bad, 1.0])
    with pytest.raises(InvalidInput, match=r"non-finite values at grid indices \[1\]"):
        n_tsw(s)


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


def test_concurrence_of_pure_states_is_the_wootters_overlap(rng):
    # C(psi) = |psi^T (sy x sy) psi| (Wootters 1998)
    for _ in range(100):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        exact = abs(psi @ hermat.kron(hermat.SIGMA_Y, hermat.SIGMA_Y) @ psi)
        assert abs(concurrence(np.outer(psi, psi.conj())) - exact) < 1e-13


def test_concurrence_rejects_bad_input():
    with pytest.raises(InvalidInput, match="expected a 4x4 density matrix"):
        concurrence(np.eye(2) / 2)
    with pytest.raises(InvalidInput, match="trace 4.0 != 1"):
        concurrence(np.eye(4))
    # not Hermitian, though its Hermitian part is a valid state
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 0.2
    with pytest.raises(InvalidInput, match="not Hermitian"):
        concurrence(rho)
    rho[0, 1] = 1e-10  # roundoff-sized asymmetry is still accepted
    assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_rejects_non_finite_input():
    for bad in (np.full((4, 4), np.nan), np.diag([np.inf, 0.0, 0.0, 0.0])):
        with pytest.raises(InvalidInput, match="non-finite entries"):
            concurrence(bad)


# --- ancilla traces -------------------------------------------------------------------


def test_nc_identity_channel_constant_one():
    ts = nc_trace(KrausChannel([np.eye(2)]), 5.0, 9)
    assert np.all(np.abs(ts.values - 1.0) < 1e-12)


def test_nc_rabi_decay_monotone_and_markovian():
    ts = nc_trace(RabiDecay(1.0, 0.5), 8.0, 33)
    assert np.all(np.diff(ts.values) <= 1e-9)
    assert n_tsw(ts, 1e-4).value == pytest.approx(0.0, abs=5e-5)


def test_nc_exchange_collapse_and_revival():
    ts = nc_trace(Exchange(1.0, 0.0), np.pi, 41)
    mid = 20
    assert ts.values[mid] < 1e-3
    assert ts.values[-1] > 1 - 1e-6
    assert n_tsw(ts).value > 0


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


@pytest.mark.parametrize("g, omega_w", [(2.0, 1.0), (0.3, 1.0), (5.0, 0.5)])
def test_nc_lorentzian_is_abs_G(g, omega_w):
    # the Choi state of the G(t) map has concurrence |G(t)|
    ts = nc_trace(LorentzianAD(g, omega_w), 10.0, 81)
    assert np.abs(ts.values - np.abs(lorentzian_G(g, omega_w, ts.times))).max() < 1e-13


def test_long_horizon_lorentzian_traces():
    # past t ~ 2250 G once overflowed to NaN, so nc_trace raised "non-finite
    # entries" and tsw_trace a "non-finite" ValidationError
    ch = LorentzianAD(0.3, 1.0)
    ts = nc_trace(ch, 3000.0, 61)
    assert np.abs(ts.values - np.abs(lorentzian_G(0.3, 1.0, ts.times))).max() < 1e-13
    assert tsw_trace(ch, XYZ, MIXED, 3000.0, 31).metadata["non_optimal"] == []


def test_nc_exchange_is_abs_cos():
    # what is left beyond roundoff is the RK4 error of the Exchange propagator
    ts = nc_trace(Exchange(1.0, 0.0), 2 * np.pi, 81)
    assert np.abs(ts.values - np.abs(np.cos(ts.times))).max() < 5e-9


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
        m = eig_propagate(lmat, t, state.reshape(dim * dim, 1)).reshape(dim, dim)
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
    bad = channels.evolve_grid(RabiDecay(1.0, 0.5), premeasure(MIXED, XYZ).stacked(),
                               np.linspace(0.0, 2.0, 5))[2]  # the stack at t = 1

    def solve_with_one_failure(targets, **kwargs):
        sol = real_solve(targets, **kwargs)
        if np.array_equal(targets, bad):
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
    (None, 5), (2.0, "5"), (2.0, None),
])
def test_traces_reject_bad_grid_arguments(t_max, n_steps):
    match = "t_max must be finite and positive" if n_steps == 5 else "at least 2 grid points"
    with pytest.raises(InvalidInput, match=match):
        nc_trace(RabiDecay(1.0), t_max, n_steps)
    with pytest.raises(InvalidInput, match=match):
        tsw_trace(RabiDecay(1.0), XYZ, MIXED, t_max, n_steps)


def test_traces_accept_integral_float_grid_size():
    assert nc_trace(RabiDecay(1.0), 2.0, 5.0).times.size == 5
    assert nc_trace(RabiDecay(1.0), np.float64(2.0), np.int64(5)).times.size == 5


def test_tsw_rejects_non_finite_members():
    asm = premeasure(MIXED, XYZ)
    asm.members[("X", 1)] = np.array([[np.inf, 0.0], [0.0, 0.25]], dtype=complex)
    with pytest.raises(ValidationError) as err:
        tsw(asm)
    assert [v.kind for v in err.value.violations] == ["non-finite"]
    with pytest.raises(ValidationError, match=r"non-finite at \(X,\+1\)"):
        propagate_assemblage(RabiDecay(1.0, 0.5), 0.5, asm)


def test_tsw_rejects_every_assemblage_solve_rejects():
    # validate at 1e-8 let this member's 7.1e-9 anti-Hermitian part through,
    # while solve's relative 1e-10 rule rejected it, so tsw raised the
    # solver's error instead of a ValidationError
    asm = premeasure(MIXED, XYZ)
    asm.members[("X", 1)] = asm.members[("X", 1)].copy()
    asm.members[("X", 1)][0, 1] += 5e-9
    found = validate(asm, 1e-8)
    assert [(v.kind, v.where) for v in found] == [("not-hermitian", "(X,+1)")]
    assert found[0].magnitude == pytest.approx(5e-9 * np.sqrt(2))
    with pytest.raises(ValidationError, match=r"not-hermitian at \(X,\+1\)"):
        tsw(asm)
    with pytest.raises(ValidationError, match=r"not-hermitian at \(X,\+1\)"):
        propagate_assemblage(KrausChannel([IDENTITY]), 0.5, asm)
    with pytest.raises(ValidationError, match="not-hermitian at target block 0"):
        sdp.solve(asm.stacked())

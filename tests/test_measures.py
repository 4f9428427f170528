import re

import numpy as np
import pytest

from conftest import depolarized_assemblage, eig_propagate, random_assemblage, random_density
from tsteer.channels import (
    Exchange,
    KrausChannel,
    LorentzianAD,
    RabiDecay,
    lorentzian_G,
    random_kraus_channel,
)
from tsteer import channels, hermat, measures, sdp
from tsteer.errors import TARGET_TOL, InvalidInput, ValidationError
from tsteer.hermat import IDENTITY
from tsteer.measures import (
    concurrence,
    n_tsw,
    nc_trace,
    propagate_assemblage,
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
    primal_map_backs, map_backs, drops = [], [], []

    def counting_solve(targets, **kwargs):
        calls.append(targets)
        return real_solve(targets, **kwargs)

    def counting_primal(reduced, x):
        primal_map_backs.append(1)
        return real_primal(reduced, x)

    def counting_dual(reduced, y):
        map_backs.append(1)
        f, value = real_dual(reduced, y)
        drops.append(-float(reduced.b_vec @ y) - value)
        return f, value

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
    assert len(primal_map_backs) <= iterates / 2
    assert len(map_backs) <= iterates / 2
    # the work is machine independent: the Newton steps, and dual map backs
    # not far above the floor of one at each cold start and one that certifies
    assert abs(iterates - len(ts.solutions) - newton_steps) <= 0.02 * newton_steps
    assert len(map_backs) <= 220
    # the premise of the dual-side skip: the dual map back lands below -b.y
    # by roundoff only
    assert max(drops) <= 1e-12
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
    # rises at or below DEFAULT_SLOPE_THRESHOLD = 1e-6 are zeroed, larger ones counted
    assert measures.DEFAULT_SLOPE_THRESHOLD == 1e-6
    assert n_tsw(series([0.5, 0.5 + 5e-7, 0.5, 0.5 + 5e-7, 0.5])).value == 0.0
    assert n_tsw(series([0.0, 1e-6, 0.0])).value == 0.0
    assert n_tsw(series([0.5, 0.5 + 2e-6, 0.5])).value == pytest.approx(2e-6, rel=1e-9)
    # the threshold is not an argument
    with pytest.raises(TypeError):
        n_tsw(series([0.0, 0.5, 1.0]), 1e-8)


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


def test_trace_series_rejects_mismatched_arrays():
    # n_tsw once read 1.0 off 3 times and 2 values, and off times [0, 2, 1]
    not_increasing = "^times are not finite reals in strictly increasing order"
    for times, values, message in (
            (np.arange(3.0), np.zeros(2),
             r"^times of shape \(3,\) and values of shape \(2,\) are not 1-D of one"),
            (np.zeros((2, 2)), np.zeros((2, 2)),
             r"^times of shape \(2, 2\) and values of shape \(2, 2\) are not 1-D of one"),
            (1.0, 1.0, r"^times of shape \(\) and values of shape \(\) are not 1-D of one"),
            ([0, 2, 1], [0.0, 1.0, 0.5], not_increasing),
            ([0.0, 1.0, 1.0], np.zeros(3), not_increasing),
            ([0.0, np.nan, 2.0], np.zeros(3), not_increasing),
            ([np.nan], [0.0], not_increasing),
            ([0.0, np.inf], np.zeros(2), not_increasing),
            (np.array([0, 2, 1], dtype=np.uint8), np.zeros(3), not_increasing),
            (["0", "1"], np.zeros(2), not_increasing),
            # n_tsw read 1.0 off values [0, 1j, 1], dropping the imaginary part
            (np.arange(3.0), np.array([0, 1j, 1]), r"^values of dtype complex128 are not reals$"),
            (np.arange(2.0), ["0", "1"], r"^values of dtype .U1 are not reals$"),
            (np.arange(2.0), [None, 1.0], r"^values of dtype object are not reals$"),
            (np.arange(2.0), [True, False], r"^values of dtype bool are not reals$")):
        with pytest.raises(InvalidInput, match=message):
            TraceSeries(times, values)
    with pytest.raises(InvalidInput, match="2 solutions for 3 times"):
        TraceSeries(np.arange(3.0), np.zeros(3), {}, [None, None])
    assert TraceSeries(np.arange(3.0), np.zeros(3), {}, [None] * 3).solutions == [None] * 3


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
    # a state that is not X, with least eigenvalue -2e-8, past the drift band
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    rho = q @ np.diag([-2e-8, 0.3, 0.3, 0.4 + 2e-8]) @ q.conj().T
    with pytest.raises(InvalidInput, match="^state is not positive semidefinite$"):
        concurrence(rho)


_SY_SY = hermat.kron(hermat.SIGMA_Y, hermat.SIGMA_Y)


def _wootters_eigh_svd(rho):
    """Wootters concurrence through eigh + svd, with no X-state path."""
    evals, vecs = np.linalg.eigh(rho)
    m = vecs * np.sqrt(np.maximum(evals, 0.0))
    lams = np.linalg.svd(m.T @ _SY_SY @ m, compute_uv=False)
    return max(0.0, lams[0] - lams[1] - lams[2] - lams[3])


def _x_state(block_03, block_12):
    rho = np.zeros((4, 4), dtype=complex)
    rho[np.ix_([0, 3], [0, 3])] = block_03
    rho[np.ix_([1, 2], [1, 2])] = block_12
    return rho


def test_concurrence_of_x_states_is_the_wootters_concurrence(rng):
    # full-rank blocks and exactly rank-1 or zero ones, in every pairing but 0 + 0
    def block(rank):
        g = rng.normal(size=(2, rank)) + 1j * rng.normal(size=(2, rank))
        return g @ g.conj().T
    ranks = [(r03, r12) for r03 in range(3) for r12 in range(3) if r03 + r12]
    for k in range(240):
        r03, r12 = ranks[k % len(ranks)]
        rho = _x_state(block(r03), rng.uniform(0.01, 3.0) * block(r12))
        rho /= np.trace(rho).real
        assert abs(concurrence(rho) - _wootters_eigh_svd(rho)) < 1e-13


def test_concurrence_of_x_states_checks_positivity_at_the_drift_band():
    # block {0, 3} has eigenvalues 0.6 and -neg; block {1, 2} is 0.2 I, up to the trace
    plus, minus = np.ones((2, 2)) / 2, np.array([[1.0, -1.0], [-1.0, 1.0]]) / 2
    for neg, accepted in ((1e-7, False), (1e-9, True)):
        rho = _x_state(0.6 * plus - neg * minus, (0.2 + neg / 2) * np.eye(2))
        if accepted:
            assert concurrence(rho) == pytest.approx(0.2 - neg, abs=1e-15)
        else:
            with pytest.raises(InvalidInput, match="^state is not positive semidefinite$"):
                concurrence(rho)


def test_concurrence_rejects_non_finite_input():
    for bad in (np.full((4, 4), np.nan), np.diag([np.inf, 0.0, 0.0, 0.0])):
        with pytest.raises(InvalidInput, match="non-finite entries"):
            concurrence(bad)


# an X state and a state that is not X, both full rank
CHECK_STATES = {
    "x-state": _x_state([[0.3, 0.1 - 0.05j], [0.1 + 0.05j, 0.2]], [[0.25, 0.1j], [-0.1j, 0.25]]),
    "not-x": random_density(np.random.default_rng(11), 4),
}


# (entry, added value, the message it raises or None): the finite, Hermiticity and trace
# checks at the drift band TARGET_TOL = 1e-8, each just past it and just inside it
@pytest.mark.parametrize("entry, delta, message", [
    ((1, 2), complex(0.0, np.nan), "^density matrix has non-finite entries$"),
    ((0, 0), np.inf, "^density matrix has non-finite entries$"),
    ((2, 1), 1.01e-8, "^density matrix is not Hermitian$"),
    ((2, 1), 0.99e-8, None),
    ((1, 1), 0.51e-8j, "^density matrix is not Hermitian$"),
    ((1, 1), 0.49e-8j, None),
    ((3, 3), 1.01e-8, "trace"),
    ((3, 3), 0.99e-8, None),
])
@pytest.mark.parametrize("kind", sorted(CHECK_STATES))
def test_concurrence_checks_at_the_drift_band(kind, entry, delta, message):
    # a lower-triangle defect is seen although both paths read only the lower triangle,
    # and an imaginary diagonal part d is a defect of 2 d
    rho = CHECK_STATES[kind].copy()
    rho[entry] += delta
    if message == "trace":
        message = rf"^trace {re.escape(str(np.trace(rho).real))} != 1$"
    if message is None:
        assert concurrence(rho) == pytest.approx(concurrence(CHECK_STATES[kind]), abs=1e-7)
    else:
        with pytest.raises(InvalidInput, match=message):
            concurrence(rho)


def test_concurrence_reports_the_trace_that_np_trace_gives(rng):
    # np.trace sums the diagonal as (0 + 1) + (2 + 3); summed in order, ((0 + 1) + 2) + 3,
    # or as 0 + ((1 + 2) + 3), a quarter to a third of these traces would move by one ulp
    for _ in range(200):
        rho = random_density(rng, 4) * (1.0 + rng.uniform(1e-6, 1e-3))
        trace = re.escape(str(np.trace(rho).real))
        with pytest.raises(InvalidInput, match=rf"^trace {trace} != 1$"):
            concurrence(rho)


@pytest.mark.parametrize("kind", sorted(CHECK_STATES))
def test_concurrence_of_an_array_like_is_that_of_its_complex_copy(kind):
    rho = CHECK_STATES[kind]
    view = rho.T  # the transpose of a state is its conjugate, a state too
    assert not view.flags.c_contiguous
    assert concurrence(view) == concurrence(np.ascontiguousarray(view))
    assert concurrence(rho.tolist()) == concurrence(rho)
    pure = np.diag([0, 1, 0, 0])
    assert concurrence(pure) == concurrence(pure.astype(complex)) == 0.0


def test_concurrence_is_the_eigh_svd_oracle_bit_for_bit(rng):
    # sy x sy is a signed anti-identity, so the column reversal and the oracle's matmul
    # with _SY_SY are the same product; the 32 states past t = 0 of the nc_compare
    # RabiDecay curve and 200 random full-rank states are none of them X states
    chois = channels.choi_from_transfer(
        channels.transfer_grid(RabiDecay(1.0, 1 / 6), np.linspace(0.0, 8.0, 33)))
    states = [0.5 * c for c in chois[1:]] + [random_density(rng, 4) for _ in range(200)]
    for rho in states:
        assert np.count_nonzero(rho[[0, 0, 1, 2], [1, 2, 3, 3]])
        assert concurrence(rho) == _wootters_eigh_svd(rho)


# --- ancilla traces -------------------------------------------------------------------


def test_nc_identity_channel_constant_one():
    ts = nc_trace(KrausChannel([np.eye(2)]), 5.0, 9)
    assert np.all(np.abs(ts.values - 1.0) < 1e-12)


def test_nc_rabi_decay_monotone_and_markovian():
    ts = nc_trace(RabiDecay(1.0, 0.5), 8.0, 33)
    assert np.all(np.diff(ts.values) <= 1e-9)
    assert n_tsw(ts).value == 0.0


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
    # what is left is the RK4 error of the Exchange propagator, at most 7e-13; the
    # eigh + svd path once added 9e-10, the square root of a 1e-19 eigenvalue
    ts = nc_trace(Exchange(1.0, 0.0), 2 * np.pi, 81)
    assert np.abs(ts.values - np.abs(np.cos(ts.times))).max() < 1e-12


@pytest.mark.parametrize("n_steps", [9, 33, 81, 161])
def test_nc_exchange_takes_the_x_state_path(n_steps, monkeypatch):
    # Exchange is phase-covariant, so its Choi states are X states. RK4 leaves block
    # diagonals down to -2.2e-16 on these grids (-5.6e-17 at t = pi/2 on 9 points,
    # -1.4e-17 at 3 pi/2 on 33), which the closed form projects or clamps away
    # rather than taking their square roots
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called on an X state")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    ts = nc_trace(Exchange(1.0, 0.0), 2 * np.pi, n_steps)
    assert np.abs(ts.values - np.abs(np.cos(ts.times))).max() < 1e-12


def _ancilla_concurrence(ch, times):
    """Concurrence of (I (x) Lambda_t)(Phi+) evolved on the ancilla-extended space."""
    h, jumps, _ = ch._generator()
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


@pytest.mark.parametrize("ch, t_max, at", [
    (RabiDecay(1e155), 1.0, "1.0"),
    (LorentzianAD(1.0, 1e300), 1.0, "0.0"),
    (RabiDecay(1.0), 1e300, "1e+300"),
])
def test_model_overflow_names_the_channel_and_time(ch, t_max, at, monkeypatch):
    # each returned NaN matrices with a RuntimeWarning, and nc_trace and tsw_trace
    # then blamed the state ("non-finite entries", "non-finite at (X,+1)")
    def no_solve(*args, **kwargs):
        raise AssertionError("solve called after a non-finite transfer matrix")

    monkeypatch.setattr(measures, "solve", no_solve)
    message = rf"^{re.escape(repr(ch))} has a non-finite transfer matrix at t = {re.escape(at)}$"
    with pytest.raises(InvalidInput, match=message):
        channels.transfer_grid(ch, [0.0, t_max])
    with pytest.raises(InvalidInput, match=message):
        nc_trace(ch, t_max, 2)
    with pytest.raises(InvalidInput, match=message):
        tsw_trace(ch, XYZ, MIXED, t_max, 2)


def test_nc_trace_names_the_channel_and_time_of_a_rejected_state():
    # at these rates the RK4 propagator moves the trace of the t = 0.5 state by 4.2e-8;
    # the state is the channel's, not the caller's, so the message says which and when
    ch = RabiDecay(1e6, 1e6)
    message = rf"^{re.escape(repr(ch))} at t = 0\.5: trace [0-9.]+ != 1$"
    with pytest.raises(InvalidInput, match=message):
        nc_trace(ch, 1.0, 3)


def test_tsw_trace_names_the_channel_and_time_of_a_rejected_assemblage():
    # the same drift fails validate in tsw, which once blamed a setting alone; it stays
    # a ValidationError with its violations, under the prefix nc_trace gives
    ch = RabiDecay(1e6, 1e6)
    prefix = rf"^{re.escape(repr(ch))} at t = 0\.5: "
    with pytest.raises(ValidationError, match=prefix + r"total-trace at \(x=X\): 4\.2") as err:
        tsw_trace(ch, XYZ, MIXED, 1.0, 3)
    assert [(v.kind, v.where) for v in err.value.violations] == [
        ("total-trace", f"(x={x})") for x in XYZ.labels]
    with pytest.raises(InvalidInput, match=prefix + "trace"):
        nc_trace(ch, 1.0, 3)
    # a bad tol is the caller's error, and keeps its own message
    with pytest.raises(InvalidInput, match="^tol must be a finite real > 0"):
        tsw_trace(ch, XYZ, MIXED, 1.0, 3, tol=0.0)


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
    match = "t_max must be a finite real > 0" if n_steps == 5 else "n_steps must be an integer >= 2"
    with pytest.raises(InvalidInput, match=match):
        nc_trace(RabiDecay(1.0), t_max, n_steps)
    with pytest.raises(InvalidInput, match=match):
        tsw_trace(RabiDecay(1.0), XYZ, MIXED, t_max, n_steps)


def test_traces_take_an_integer_grid_size():
    # a float count fails, as in np.linspace; numpy scalars are reals and integers
    with pytest.raises(InvalidInput, match="n_steps must be an integer >= 2, got 5.0"):
        nc_trace(RabiDecay(1.0), 2.0, 5.0)
    assert nc_trace(RabiDecay(1.0), np.float64(2.0), np.int64(5)).times.size == 5


def test_tsw_rejects_non_finite_members():
    asm = premeasure(MIXED, XYZ)
    asm.members[("X", 1)] = np.array([[np.inf, 0.0], [0.0, 0.25]], dtype=complex)
    with pytest.raises(ValidationError) as err:
        tsw(asm)
    assert [v.kind for v in err.value.violations] == ["non-finite"]
    with pytest.raises(ValidationError, match=r"non-finite at \(X,\+1\)"):
        propagate_assemblage(RabiDecay(1.0, 0.5), 0.5, asm)


# one broken member of premeasure(I/2, XYZ) per kind of violation
DEFECTS = {"non-finite": (("Y", -1), np.full((2, 2), np.nan)),
           "not-hermitian": (("X", 1), np.array([[0.5, 1e-3], [0.0, 0.0]])),
           "not-psd": (("Z", 1), np.diag([0.5 + 2 * TARGET_TOL, -2 * TARGET_TOL])),
           "total-trace": (("Z", -1), np.zeros((2, 2)))}


@pytest.mark.parametrize("kind", sorted(DEFECTS))
def test_validate_tsw_and_propagate_assemblage_raise_the_same_violations(kind):
    asm = premeasure(MIXED, XYZ)
    key, member = DEFECTS[kind]
    asm.members[key] = member.astype(complex)
    calls = (lambda: validate(asm), lambda: tsw(asm),
             lambda: propagate_assemblage(KrausChannel([IDENTITY]), 0.5, asm))
    found = []
    for call in calls:
        with pytest.raises(ValidationError) as err:
            call()
        found.append(err.value.violations)
    assert [v.kind for v in found[0]] == [kind]
    assert found[1] == found[0] and found[2] == found[0]


def test_validate_tsw_and_propagate_assemblage_accept_signaling_assemblages(seed=21):
    # premeasuring any state but I/2 gives setting-dependent outcome sums
    rng = np.random.default_rng(seed)
    for _ in range(5):
        asm = premeasure(random_density(rng), XYZ)
        sums = asm.stacked()[0::2] + asm.stacked()[1::2]
        assert np.linalg.norm(sums - sums[0], axis=(1, 2)).max() > 1e-3
        validate(asm)
        assert tsw(asm).solution.status is SolveStatus.OPTIMAL
        propagate_assemblage(RabiDecay(1.0, 0.5), 0.5, asm)


def test_tsw_trace_stores_a_copy_of_the_initial_state():
    # metadata["rho0"] was the caller's complex array itself, so mutating
    # that array afterwards rewrote the metadata
    rho0 = MIXED.astype(complex)
    ts = tsw_trace(RabiDecay(1.0, 0.5), XYZ, rho0, 1.0, 3)
    rho0[0, 0] = 1.0
    assert ts.metadata["rho0"] is not rho0
    assert np.array_equal(ts.metadata["rho0"], MIXED)


def test_tsw_rejects_every_assemblage_solve_rejects():
    # validate at 1e-8 let this member's 7.1e-9 anti-Hermitian part through,
    # while solve's relative 1e-10 rule rejected it, so tsw raised the
    # solver's error instead of a ValidationError
    asm = premeasure(MIXED, XYZ)
    asm.members[("X", 1)] = asm.members[("X", 1)].copy()
    asm.members[("X", 1)][0, 1] += 5e-9
    with pytest.raises(ValidationError) as err:
        validate(asm)
    found = err.value.violations
    assert [(v.kind, v.where) for v in found] == [("not-hermitian", "(X,+1)")]
    assert found[0].magnitude == pytest.approx(5e-9 * np.sqrt(2))
    with pytest.raises(ValidationError, match=r"not-hermitian at \(X,\+1\)"):
        tsw(asm)
    with pytest.raises(ValidationError, match=r"not-hermitian at \(X,\+1\)"):
        propagate_assemblage(KrausChannel([IDENTITY]), 0.5, asm)
    with pytest.raises(ValidationError, match="not-hermitian at target block 0"):
        sdp.solve(asm.stacked())

    # the PSD half of the band: (Z,+1) becomes diag(1/2 + eps, -eps), of the
    # same trace, just past the roundoff rule 1e-12 max(1, M) and just inside
    # it; every entry is below 1 here, so the band is 1e-12
    for eps, past in ((1.01e-12, True), (0.99e-12, False)):
        asm = premeasure(MIXED, XYZ)
        asm.members[("Z", 1)] = np.diag([0.5 + eps, -eps]).astype(complex)
        calls = (lambda: tsw(asm), lambda: propagate_assemblage(KrausChannel([IDENTITY]), 0.5, asm),
                 lambda: sdp.solve(asm.stacked()))
        for call, where in zip(calls, (r"\(Z,\+1\)", r"\(Z,\+1\)", "target block 4")):
            if past:
                with pytest.raises(ValidationError, match=f"not-psd at {where}"):
                    call()
            else:
                call()

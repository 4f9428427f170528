import dataclasses

import numpy as np
import pytest

from conftest import depolarized_assemblage, primal_ascent_bound, random_assemblage, random_density
from tsteer import sdp
from tsteer.channels import Exchange, LorentzianAD, evolve_grid, propagate_assemblage
from tsteer.errors import CertificateInvalid, InvalidInput, ValidationError
from tsteer.hermat import IDENTITY, KET_E, SIGMA_X, SIGMA_Y, SIGMA_Z, det2, herm, min_eig
from tsteer.sdp import (
    SolveStatus,
    build_sw_sdp,
    dual_certificate,
    primal_certificate,
    solve,
)
from tsteer.measures import tsw
from tsteer.steering import (
    Assemblage,
    pauli_measurement_set,
    premeasure,
    strategy_table,
)

XYZ = pauli_measurement_set("XYZ")
SQRT3 = np.sqrt(3.0)


def depol_problem(v, labels="XYZ"):
    ms = pauli_measurement_set(labels)
    asm = depolarized_assemblage(v, ms)
    return build_sw_sdp(asm, strategy_table(ms.n_meas))


def exact_depol_tsw(v):
    """Analytic steerable weight of the white-noise family with three bases.

    For v >= 1/sqrt(3) the symmetric hidden-state ansatz
    sigma_lam = (p/16)(I + u_lam . sigma) with Bloch corners u_lam/sqrt(3)
    is feasible with p = sqrt(3)(1-v)/(sqrt(3)-1), and the symmetric dual
    F_{a|x} = alpha I + beta u_{a|x} . sigma with 3 alpha - sqrt(3)|beta| = 1,
    alpha = |beta| = 1/(3 - sqrt(3)) reaches the same value, so
    mu* = sqrt(3)(1-v)/(sqrt(3)-1) exactly; below the threshold mu* = 1.
    """
    return max(0.0, (SQRT3 * v - 1.0) / (SQRT3 - 1.0))


# --- problem assembly ----------------------------------------------------------


def test_build_counts_three_settings():
    # the SDP's input is the assemblage's stack, and its solution has one
    # block per strategy and one multiplier per constraint
    p = depol_problem(0.5)
    assert np.array_equal(p, depolarized_assemblage(0.5, XYZ).stacked())
    assert p.shape == (6, 2, 2)
    sol = solve(p)
    assert sol.sigma_tilde.shape == (8, 2, 2)
    assert sol.dual_vars.shape == (6, 2, 2)


def test_build_counts_two_settings():
    p = depol_problem(0.5, labels="XZ")
    assert p.shape == (4, 2, 2)
    sol = solve(p)
    assert sol.sigma_tilde.shape == (4, 2, 2)
    assert sol.dual_vars.shape == (4, 2, 2)


def test_build_constraint_pattern_matches_strategy_table(monkeypatch):
    # solve and both certificates read D as the cached strategy_table(n) of
    # the stack's length, a read-only 0/1 matrix
    p = depol_problem(0.3)
    tables = []

    def spy(n):
        tables.append((n, strategy_table(n)))
        return tables[-1][1]

    monkeypatch.setattr(sdp, "strategy_table", spy)
    sol = solve(p)
    assert primal_certificate(sol, p) == sol.mu_star
    dual_certificate(sol, p)
    assert [n for n, _ in tables] == [3, 3, 3]
    assert all(d is strategy_table(3) for _, d in tables)
    assert not strategy_table(3).flags.writeable
    assert set(np.unique(strategy_table(3))) == {0.0, 1.0}


def test_build_dimension_mismatch():
    asm = depolarized_assemblage(0.5, XYZ)
    with pytest.raises(InvalidInput, match="table shape"):
        build_sw_sdp(asm, strategy_table(2))


def test_problem_stores_only_its_targets():
    # the stack of targets is the whole problem: the setting count, the
    # strategy count and D follow from its length, and D is the one shared,
    # read-only table of that count
    for labels in ("Z", "XZ", "XYZ"):
        n = len(labels)
        q = depol_problem(0.5, labels)
        assert sdp._strategies(q) is strategy_table(n)
        sol = solve(q)
        assert sol.sigma_tilde.shape == (2 ** n, 2, 2)
        assert sol.dual_vars.shape == (2 * n, 2, 2)
    six = np.broadcast_to(IDENTITY / 24, (12, 2, 2))
    assert sdp._strategies(six) is strategy_table(6)
    assert strategy_table(6).shape == (12, 64)


def test_single_setting_never_steerable(rng):
    ms = pauli_measurement_set("Z")
    for _ in range(5):
        asm = premeasure(random_density(rng), ms)
        sol = solve(build_sw_sdp(asm, strategy_table(1)))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.mu_star == pytest.approx(1.0, abs=1e-7)


# --- known optima ---------------------------------------------------------------


def test_white_noise_fully_unsteerable():
    sol = solve(depol_problem(0.0))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.mu_star == pytest.approx(1.0, abs=1e-6)


def test_threshold_visibility_unsteerable():
    sol = solve(depol_problem(1.0 / SQRT3))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.mu_star == pytest.approx(1.0, abs=1e-6)


def test_identity_channel_maximally_steerable():
    asm = premeasure(IDENTITY / 2, XYZ)
    sol = solve(build_sw_sdp(asm, strategy_table(3)))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.mu_star == pytest.approx(0.0, abs=1e-7)


def test_depolarized_family_matches_analytic():
    for v in (0.2, 0.5, 0.6, 0.7, 0.85, 1.0):
        sol = solve(depol_problem(v))
        assert sol.status is SolveStatus.OPTIMAL
        assert 1.0 - sol.mu_star == pytest.approx(exact_depol_tsw(v), abs=2e-7)


# --- solution invariants ---------------------------------------------------------


def assert_solution_clean(sol, problem, tol=1e-8):
    assert sol.status is SolveStatus.OPTIMAL
    assert -1e-8 <= sol.mu_star <= 1.0 + 1e-8
    assert sol.gap <= 1e-7
    from tsteer.hermat import min_eig as _min_eig

    assert float(_min_eig(sol.sigma_tilde).min()) >= -1e-8
    d_mat = strategy_table(len(problem) // 2)
    slack = problem - np.tensordot(d_mat, sol.sigma_tilde, axes=(1, 0))
    assert float(_min_eig(slack).min()) >= -1e-8


def test_solution_invariants_random(rng):
    for _ in range(20):
        asm = random_assemblage(rng)
        p = build_sw_sdp(asm, strategy_table(3))
        sol = solve(p)
        assert_solution_clean(sol, p)


@pytest.mark.parametrize("kwargs", [
    {"tol": 0.0}, {"tol": -1e-8}, {"tol": float("nan")}, {"tol": float("inf")},
    {"max_iter": -1}, {"max_iter": 2.5}, {"max_iter": None},
    {"tol": "1e-8"}, {"tol": None},
])
def test_solve_rejects_bad_arguments(kwargs):
    name = next(iter(kwargs))
    with pytest.raises(InvalidInput, match="tolerance" if name == "tol" else "max_iter"):
        solve(depol_problem(0.5), **kwargs)


@pytest.mark.parametrize("d_meas, n_targets, dim", [
    (2, 6, 2),  # 6 targets read with the 3-setting table, not the 2-setting one
    (3, 4, 2),  # 4 targets read with the 2-setting table, not the 3-setting one
    (3, 6, 3),  # 3x3 targets
])
def test_solve_rejects_shape_inconsistent_problems(d_meas, n_targets, dim):
    # the strategy table and setting count follow from the targets, so no
    # input pairs them with another count, and targets that are not 2 n
    # 2x2 blocks (1 <= n <= 6) are rejected by solve and both certificates
    sol = solve(depol_problem(0.5))
    targets = np.broadcast_to(np.eye(dim) / dim, (n_targets, dim, dim)).astype(complex)
    bad_shapes = [targets[:, :1], targets[:-1], np.concatenate([targets] * 7)]
    if dim == 2:
        assert sdp._strategies(targets) is strategy_table(n_targets // 2)
        assert sdp._strategies(targets) is not strategy_table(d_meas)
        assert solve(targets).status is SolveStatus.OPTIMAL
    else:
        bad_shapes.append(targets)
    for bad in bad_shapes:
        with pytest.raises(InvalidInput, match="need 2 n 2x2 targets"):
            solve(bad)
        for certificate in (dual_certificate, primal_certificate):
            with pytest.raises(InvalidInput, match="need 2 n 2x2 targets"):
                certificate(sol, bad)


def test_certificates_check_the_problem_they_certify():
    # an optimal solve certified against the targets of another setting
    # count; targets that are not 2 n 2x2 blocks are no problem at all
    good = build_sw_sdp(premeasure(IDENTITY / 2, XYZ), strategy_table(3))
    sol = solve(good)
    assert sol.status is SolveStatus.OPTIMAL
    for targets in (good[:4], np.concatenate((good, good[:2]))):
        for certificate in (dual_certificate, primal_certificate):
            with pytest.raises(CertificateInvalid):
                certificate(sol, targets)
    for shape in ((7, 2, 2), (6, 3, 3), (14, 2, 2)):
        for certificate in (dual_certificate, primal_certificate):
            with pytest.raises(InvalidInput, match="need 2 n 2x2 targets"):
                certificate(sol, np.zeros(shape, dtype=complex))
    assert primal_certificate(sol, good) == sol.mu_star
    assert dual_certificate(sol, good).gap == sol.gap


def test_solve_with_zero_iterations_reports_the_cold_start():
    p = build_sw_sdp(premeasure(IDENTITY / 2, XYZ), strategy_table(3))
    sol = solve(p, max_iter=0)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.iterations == 0


def test_infeasible_flag_for_malformed_targets():
    # a clearly negative target block is malformed data, not a solvable problem
    p = depol_problem(0.5)
    p[0] = np.diag([0.5, -0.2]).astype(complex)
    with pytest.raises(ValidationError, match="not-psd at target block 0"):
        solve(p)
    assert not hasattr(SolveStatus, "INFEASIBLE")
    p[0] = np.diag([0.5, -1e-9]).astype(complex)  # roundoff-sized: no raise
    assert np.isfinite(solve(p).mu_star)


def test_solve_rejects_non_hermitian_targets():
    # min_eig reads only the upper triangle, so this block was solved as if
    # Hermitian and ran all 300 steps to MAX_ITER with mu_star 0
    targets = premeasure(IDENTITY / 2, XYZ).stacked()
    targets[0][1, 0] += 0.05
    with pytest.raises(ValidationError, match="not-hermitian at target block 0"):
        solve(targets)
    targets[0][1, 0] -= 0.05 - 1e-12  # roundoff-sized: no raise
    assert solve(targets).status is SolveStatus.OPTIMAL


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_rejects_non_finite_targets(bad):
    # the block check that names the defect is the only pass over the targets
    targets = premeasure(IDENTITY / 2, XYZ).stacked()
    targets[2][0, 1] = bad
    with pytest.raises(InvalidInput, match="non-finite at target block 2") as err:
        solve(targets)
    assert [(v.kind, v.where) for v in err.value.violations] == [("non-finite", "target block 2")]


def test_solve_reads_real_targets_as_complex():
    # a float stack made the lift and the multipliers float arrays, and numpy's
    # ComplexWarning on filling them was the only sign that values were cast
    xz = pauli_measurement_set("XZ")
    members = {("X", 1): np.array([[1.0, 1.0], [1.0, 1.0]]) / 4,
               ("X", -1): np.array([[1.0, -1.0], [-1.0, 1.0]]) / 4,
               ("Z", 1): np.diag([0.5, 0.0]), ("Z", -1): np.diag([0.0, 0.5])}
    r = tsw(Assemblage(xz.labels, members))
    assert r.solution.status is SolveStatus.OPTIMAL
    assert r.value == 1.0
    for stack in (premeasure(IDENTITY / 2, xz).stacked(), depol_problem(0.7, "XZ")):
        assert stack.dtype == complex and not stack.imag.any()
        real, cplx = solve(stack.real, tol=np.float64(1e-8)), solve(stack)
        for f in dataclasses.fields(cplx):
            assert np.array_equal(getattr(real, f.name), getattr(cplx, f.name)), f.name


# --- certificates ----------------------------------------------------------------


def test_certificate_accepts_optimal_solves(rng):
    for v in (0.0, 0.4, 0.8, 1.0):
        p = depol_problem(v)
        sol = solve(p)
        report = dual_certificate(sol, p)
        assert report.multiplier_min_eig >= -1e-7
        assert report.coverage_min_eig >= -1e-7
        assert report.gap <= 1e-7


def test_certificate_rejects_zero_multipliers():
    # dual value 0 requires covering the identity, which zero multipliers cannot
    p = depol_problem(0.0)
    sol = solve(p)
    fake = type(sol)(
        mu_star=sol.mu_star,
        sigma_tilde=sol.sigma_tilde,
        dual_vars=np.zeros_like(sol.dual_vars),
        dual_value=0.0,
        iterations=sol.iterations,
        status=sol.status,
    )
    with pytest.raises(CertificateInvalid):
        dual_certificate(fake, p)


def test_certificate_requires_optimal_status():
    p = depol_problem(0.3)
    sol = solve(p)
    sol.status = SolveStatus.MAX_ITER
    with pytest.raises(CertificateInvalid):
        dual_certificate(sol, p)


def test_certificates_reject_non_finite_values():
    # NaN fails every comparison, so each check would pass it silently
    p = depol_problem(0.8)
    sol = solve(p)
    nan = float("nan")
    for certificate, fields in ((dual_certificate, ("dual_vars", "dual_value", "mu_star")),
                                (primal_certificate, ("sigma_tilde", "mu_star"))):
        for name in fields:
            bad = dataclasses.replace(sol, **{name: np.full_like(getattr(sol, name), nan)})
            with pytest.raises(CertificateInvalid):
                certificate(bad, p)
    for tol in (nan, float("inf"), 0.0, -1e-7, "1e-7", None):
        with pytest.raises(CertificateInvalid, match="tolerance"):
            dual_certificate(sol, p, tol=tol)
    assert dual_certificate(sol, p, tol=np.float64(1e-7)).gap == sol.gap
    # the untouched solution still passes both
    assert primal_certificate(sol, p) == sol.mu_star
    assert dual_certificate(sol, p).gap == sol.gap


def test_primal_certificate_accepts_optimal_solves(rng):
    problems = [depol_problem(v) for v in (0.0, 0.2, 0.5, 0.6, 0.7, 0.85, 1.0)]
    problems += [build_sw_sdp(random_assemblage(rng), strategy_table(3)) for _ in range(20)]
    for p in problems:
        sol = solve(p)
        assert sol.status is SolveStatus.OPTIMAL
        assert primal_certificate(sol, p) == sol.mu_star
        # the two certificates bracket mu*
        assert sol.mu_star <= dual_certificate(sol, p).dual_value


def test_primal_certificate_rejects_infeasible_points():
    p = depol_problem(0.8)
    sol = solve(p)
    scaled = type(sol)(mu_star=1.01 * sol.mu_star, sigma_tilde=1.01 * sol.sigma_tilde,
                       dual_vars=sol.dual_vars)
    with pytest.raises(CertificateInvalid):
        primal_certificate(scaled, p)
    negative = sol.sigma_tilde.copy()
    negative[0] -= (min_eig(negative[0]) + 1e-3) * IDENTITY  # min eigenvalue -1e-3
    bad = type(sol)(mu_star=float(np.einsum("nii->", negative).real), sigma_tilde=negative,
                    dual_vars=sol.dual_vars)
    with pytest.raises(CertificateInvalid):
        primal_certificate(bad, p)
    with pytest.raises(CertificateInvalid):
        primal_certificate(type(sol)(mu_star=sol.mu_star + 1e-6, sigma_tilde=sol.sigma_tilde,
                                     dual_vars=sol.dual_vars), p)


def test_constant_map_is_solved_in_closed_form():
    # every member a multiple of one pure state, with setting marginals
    # 0.5, 0.4 and 0.45 (signaling) and a zero member: mu* is the smallest
    psi = np.array([0.6, 0.8j])
    weights = np.array([0.3, 0.2, 0.1, 0.3, 0.0, 0.45])
    p = weights[:, None, None] * np.outer(psi, psi.conj())
    sol = solve(p)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.mu_star == pytest.approx(0.4, abs=1e-12)
    assert primal_certificate(sol, p) == sol.mu_star
    assert dual_certificate(sol, p).dual_value == pytest.approx(0.4, abs=1e-12)


def whitening(r):
    """S = R^{-1/2} and S^-1 = R^{1/2} as the solve computes them for a mean reduced state R."""
    red = sdp._Reduced(np.stack([r / 2, r / 2]), strategy_table(1), r)
    return red.smat, red.sinv


def test_whitening_is_accurate_up_to_the_condition_number(rng):
    for _ in range(1000):
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        top = 10.0 ** rng.uniform(-3.0, 3.0)
        r = herm(u @ np.diag([top, top * 10.0 ** -rng.uniform(0.0, 12.0)]) @ u.conj().T)
        low, high = np.linalg.eigvalsh(r)
        smat, sinv = whitening(r)
        bound = 1e-14 * high / low
        assert np.linalg.norm(smat @ r @ smat - IDENTITY, 2) <= bound
        assert np.linalg.norm(smat @ sinv - IDENTITY, 2) <= bound


def test_whitening_keeps_diagonal_entries_to_an_ulp(rng):
    # every paper model started from I/2 has a diagonal R, and next to a
    # constant map its small population carries the steerable weight
    for ratio in 10.0 ** np.linspace(-12.0, 12.0, 241):
        a = 10.0 ** rng.uniform(-3.0, 3.0)
        diag = np.array([a, a * ratio])
        smat, sinv = whitening(np.diag(diag).astype(complex))
        assert np.all(np.abs(np.diagonal(smat) * np.sqrt(diag) - 1.0) <= 1e-15)
        assert np.all(np.abs(np.diagonal(sinv) / np.sqrt(diag) - 1.0) <= 1e-15)
        assert smat[0, 1] == smat[1, 0] == sinv[0, 1] == sinv[1, 0] == 0.0


def test_unsteerable_instance_has_unit_dual_value():
    p = depol_problem(0.0)
    sol = solve(p)
    assert sol.dual_value == pytest.approx(1.0, abs=1e-6)


def test_maximally_steerable_instance_has_zero_dual_value():
    asm = premeasure(IDENTITY / 2, XYZ)
    p = build_sw_sdp(asm, strategy_table(3))
    sol = solve(p)
    assert sol.dual_value == pytest.approx(0.0, abs=1e-7)


# --- Lorentz-cone kernels ---------------------------------------------------------

LORENTZ = np.diag([1.0, -1.0, -1.0, -1.0])
RATIOS = (1.0, 0.3, 1e-3, 1e-6, 1e-9, 1e-12)  # small over large spectral value


def cone_points(rng, n, ratios=RATIOS):
    """n random interior points of the Lorentz cone per spectral ratio, with
    their determinants u.J u = hi lo computed without cancellation."""
    d = rng.normal(size=(n * len(ratios), 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    hi = np.exp(rng.uniform(-3.0, 3.0, size=(n * len(ratios), 1)))
    lo = hi * np.repeat(ratios, n)[:, None]
    return np.concatenate(((hi + lo) / 2, (hi - lo) / 2 * d), axis=1), hi * lo


def apply(m, u):
    return np.einsum("nab,nb->na", m, u)


def test_svec_is_an_isometry_onto_the_lorentz_cone(rng):
    g = rng.normal(size=(2, 60, 2, 2)) + 1j * rng.normal(size=(2, 60, 2, 2))
    h, k = herm(g[0]), herm(g[1])
    u, v = sdp._svec(h), sdp._svec(k)
    assert np.allclose(np.einsum("nij,nji->n", h, k).real, np.sum(u * v, axis=1),
                       rtol=0, atol=1e-12)
    assert np.allclose(sdp._unsvec(u), h, rtol=0, atol=1e-14)
    # the Jordan product (hk + kh) / 2 has coordinates (u o v) / sqrt 2
    assert np.allclose(sdp._svec(0.5 * (h @ k + k @ h)), sdp._jordan(u, v) / np.sqrt(2.0),
                       rtol=0, atol=1e-12)
    assert np.allclose(det2(h), 0.5 * sdp._jdot(u, u), rtol=0, atol=1e-12)
    assert np.array_equal(min_eig(h) >= 0.0, u[:, 0] >= np.linalg.norm(u[:, 1:], axis=1))
    for i, pauli in enumerate((IDENTITY, SIGMA_Z, SIGMA_X, -SIGMA_Y)):
        assert np.allclose(sdp._unsvec(np.eye(4)[i]), pauli / np.sqrt(2.0), rtol=0, atol=1e-15)
    assert np.allclose(sdp._HALF_TRACE, [np.sqrt(0.5), 0.0, 0.0, 0.0], rtol=0, atol=1e-16)


def test_nt_scaling_maps_z_to_x_in_closed_form(rng):
    # W = beta (2 v v^T - J), W^-1 = (2 J v v^T J - J) / beta: W^2 z = x,
    # W z = W^-1 x = lam, W W^-1 = I, each to roundoff of its largest term
    x, det_x = cone_points(rng, 20)
    z, det_z = cone_points(rng, 20)
    perm = rng.permutation(len(z))
    z, det_z = z[perm], det_z[perm]
    beta, v, lam, lam_det = sdp._nt_scaling(np.stack((x, z)))
    outer = 2.0 * v[:, :, None] * v[:, None, :]
    w = beta[:, :, None] * (outer - LORENTZ)
    w_inv = (LORENTZ @ outer @ LORENTZ - LORENTZ) / beta[:, :, None]
    norm = np.linalg.norm
    size = norm(w, axis=(1, 2)) * norm(w_inv, axis=(1, 2))
    assert np.all(norm(w @ w_inv - np.eye(4), axis=(1, 2)) <= 1e-13 * size)
    assert np.all(norm(apply(w, apply(w, z)) - x, axis=1)
                  <= 1e-13 * norm(w, axis=(1, 2)) ** 2 * norm(z, axis=1))
    assert np.all(norm(apply(w, z) - lam, axis=1) <= 1e-13 * norm(w, axis=(1, 2)) * norm(z, axis=1))
    assert np.all(norm(apply(w_inv, x) - lam, axis=1)
                  <= 1e-13 * norm(w_inv, axis=(1, 2)) * norm(x, axis=1))
    # lam is inside the cone, with the determinant sqrt(x.J x z.J z)
    assert np.all(lam[:, 0] > 0.0)
    # u.J u is known to relative precision eps u0^2 / u.J u only
    slack = 1e-14 * (x[:, :1] ** 2 / det_x + z[:, :1] ** 2 / det_z)
    assert np.all(np.abs(lam_det ** 2 / (det_x * det_z) - 1.0) <= slack)


def test_nt_scaling_floors_the_small_spectral_value(rng):
    # blocks outside the cone by more than roundoff are raised to a small
    # spectral value of 1e-16 times the large one, and the scaling stays finite
    u, _ = cone_points(rng, 10, (-1e-10, 0.0))
    hi = u[:, :1] + np.linalg.norm(u[:, 1:], axis=1, keepdims=True)
    det = sdp._nt_scaling(np.stack((u, u)))[3]  # sqrt(x.J x z.J z) with x = z
    assert np.allclose(det[:10], 1e-16 * hi[:10] ** 2, rtol=1e-6, atol=0)
    assert np.all(det >= 0.99e-16 * hi ** 2)
    for z in (u[::-1], cone_points(rng, 20, (0.5,))[0]):
        beta, v, lam, lam_det = sdp._nt_scaling(np.stack((u, z)))
        assert all(np.all(np.isfinite(a)) for a in (beta, v, lam, lam_det))
        assert np.all(lam[:, 0] > 0.0) and np.all(lam_det > 0.0)


def test_arw_solve_inverts_the_jordan_product(rng):
    lam, det = cone_points(rng, 30, RATIOS[:4])
    r = rng.normal(size=lam.shape)
    d = sdp._arw_solve(lam, det, r)
    assert np.allclose(sdp._jordan(lam, d), r, rtol=0, atol=1e-8)
    # and lam^-1 = J lam / det solves lam o d = e
    e = np.tile([1.0, 0.0, 0.0, 0.0], (len(lam), 1))
    assert np.allclose(sdp._arw_solve(lam, det, e) * det, lam @ LORENTZ, rtol=1e-9, atol=0)


def test_max_steps_stop_where_the_block_leaves_the_cone(rng):
    x, _ = cone_points(rng, 10, RATIOS[:5])
    z, _ = cone_points(rng, 10, RATIOS[:5])
    hit_p = hit_d = 0
    for _ in range(40):
        dx = rng.normal(size=x.shape) * x[:, :1] * rng.uniform(0.1, 3.0)
        dz = rng.normal(size=z.shape) * z[:, :1] * rng.uniform(0.1, 3.0)
        pair, step = np.stack((x, z)), np.stack((dx, dz))
        alphas = sdp._max_steps(pair, step, sdp._jdot(pair, pair))
        for alpha, u, du in zip(alphas, (x, z), (dx, dz)):
            size = u[:, 0] + np.abs(du[:, 0])

            def low(t):
                return (min_eig(sdp._unsvec(u + t * du)) / size).min()

            assert low(0.999 * alpha) > 0.0
            if alpha < 1.0:
                # min_eig of the first block to leave crosses 0 at alpha
                assert abs(low(alpha)) <= 1e-12 and low(1.001 * alpha) < 0.0
                hit_p += u is x
                hit_d += u is z
            else:
                assert low(1.0) >= -1e-15
    assert hit_p > 10 and hit_d > 10


# --- the certified map back -----------------------------------------------------------


def paper_point(ch, t):
    return build_sw_sdp(propagate_assemblage(ch, t, premeasure(IDENTITY / 2, XYZ)),
                        strategy_table(3))


def reduced_problems(rng):
    """Reduced problems with dense, rank-one and zero members."""
    problems = [build_sw_sdp(random_assemblage(rng, labels), strategy_table(len(labels)))
                for labels in ("XYZ", "XZ") for _ in range(4)]
    problems += [paper_point(ch, t) for ch, t in ((Exchange(1.0, 0.0), 1.2),
                                                   (Exchange(1.0, 0.0), 2.0),
                                                   (LorentzianAD(2.0, 1.0), 1.3),
                                                   (LorentzianAD(2.0, 1.0), 6.0))]
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    pure = [KET_E, plus] + [v / np.linalg.norm(v) for v in rng.normal(size=(4, 2, 2)) @ [1, 1j]]
    problems += [build_sw_sdp(premeasure(np.outer(v, v.conj()), XYZ), strategy_table(3))
                 for v in pure]
    return [sdp._Reduced(p, strategy_table(len(p) // 2), herm(p.sum(axis=0) / (len(p) // 2)))
            for p in problems]


def test_map_back_gap_is_at_least_the_reduced_gap(rng):
    # the solver skips the map back while c.x - b.y > tol, or while the shrink
    # bound leaves -b.y - primal(x) above tol; that is sound only if dual(y)
    # never falls below -b.y and the certified gap never below c.x - b.y
    reduced = reduced_problems(rng)
    for kind in ("dense", "rank1"):
        assert any(getattr(r, kind).any() for r in reduced)
    assert any((~(r.dense | r.rank1)).any() for r in reduced)  # a zero member
    for r in reduced:
        n_blocks, n_rows = r.c_vec.shape[0], r.b_vec.size
        for _ in range(5):
            g = rng.normal(size=(n_blocks, 2, 2)) + 1j * rng.normal(size=(n_blocks, 2, 2))
            x = herm(g @ g.conj().swapaxes(-1, -2))
            y = rng.normal(size=n_rows)
            cx, by = float(r.c_vec.ravel() @ sdp._svec(x).ravel()), float(r.b_vec @ y)
            dual, primal = r.dual(y)[1], r.primal(sdp._svec(x))[1]
            assert dual >= -by - 1e-9 * (1.0 + abs(by))
            assert dual - primal >= cx - by - 1e-9 * (1.0 + abs(cx) + abs(by))


def assert_certified_exit(sol, p):
    assert sol.status is SolveStatus.MAX_ITER
    assert primal_certificate(sol, p) == sol.mu_star
    f = sol.dual_vars
    assert float(min_eig(f).min()) >= -1e-12
    d_mat = strategy_table(len(p) // 2)
    assert float(min_eig(np.tensordot(d_mat.T, f, axes=(1, 0)) - IDENTITY).min()) >= -1e-9
    assert sol.dual_value == pytest.approx(
        float(np.einsum("mij,mij->", p.conj(), f).real), abs=1e-12)
    assert sol.gap == sol.dual_value - sol.mu_star > 1e-8


def test_early_exits_return_the_certified_bounds_of_their_iterate(monkeypatch):
    p = paper_point(LorentzianAD(2.0, 1.0), 5.0)
    early = [solve(p, max_iter=k) for k in (1, 2, 3)]
    for k, sol in enumerate(early, 1):
        assert sol.iterations == k
        assert_certified_exit(sol, p)
    # each exit maps back its own iterate, not an earlier one
    assert len({sol.mu_star for sol in early}) == len({sol.dual_value for sol in early}) == 3

    # a breakdown at step 3 stops at the iterate max_iter=3 stops at; each
    # Newton step makes two LU solves of the augmented system, so the 7th is
    # step 3's first
    real_solve, lu_solves = np.linalg.solve, []

    def failing_solve(a, b):
        lu_solves.append(1)
        if len(lu_solves) == 7:
            raise np.linalg.LinAlgError("injected")
        return real_solve(a, b)

    monkeypatch.setattr(sdp.np.linalg, "solve", failing_solve)
    broken = solve(p)
    assert_certified_exit(broken, p)
    assert broken.iterations == 3
    assert broken.mu_star == early[-1].mu_star and broken.dual_value == early[-1].dual_value
    assert np.array_equal(broken.sigma_tilde, early[-1].sigma_tilde)
    assert np.array_equal(broken.dual_vars, early[-1].dual_vars)


def rotated_problems():
    """Rank-deficient paper points conjugated by one fixed random unitary.

    TSW is unitarily invariant, but the kernels of the rank-one members are
    no longer basis vectors, so the lift K (I - P_m) meets roundoff in
    sigma_m; at t = 3 and 4 of LorentzianAD(2, 1) that once certified a dual
    value below mu_star by 3e-9.
    """
    u = np.linalg.qr(np.random.default_rng(0).normal(size=(2, 2, 2)) @ [1, 1j])[0]
    for ch in (LorentzianAD(2.0, 1.0), Exchange(1.0, 0.0)):
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            p = paper_point(ch, t)
            yield u @ p @ u.conj().T


def test_optimal_solves_never_certify_an_inverted_bracket():
    # weak duality puts mu* between mu_star and dual_value, so an OPTIMAL
    # solve may have dual_value below mu_star by roundoff only
    optimal = [(sol, p) for p in rotated_problems()
               if (sol := solve(p)).status is SolveStatus.OPTIMAL]
    assert len(optimal) >= 5
    for sol, p in optimal:
        assert sol.dual_value - sol.mu_star >= -1e-12 * max(1.0, abs(sol.dual_value))
        assert sol.gap == sol.dual_value - sol.mu_star <= 1e-8
    for sol, p in optimal:
        assert primal_certificate(sol, p) == sol.mu_star
        assert dual_certificate(sol, p).gap == sol.gap
        inverted = dataclasses.replace(sol, mu_star=sol.dual_value + 5e-9)
        assert inverted.gap == pytest.approx(-5e-9, rel=1e-6)
        with pytest.raises(CertificateInvalid, match="below mu_star"):
            dual_certificate(inverted, p)


def test_non_optimal_exits_certify_their_primal_side():
    # the fourth unitary of default_rng(2024) on Exchange(1, 0) at t = 2 pi 31/40
    # once ended MAX_ITER with mu_star 0.74 and dual_value -1.5e-4, from
    # multipliers of size 4e16; the points around it exit either way
    rng = np.random.default_rng(2024)
    u = [np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
         for _ in range(4)][-1]
    base = premeasure(IDENTITY / 2, XYZ).stacked()
    for ch, t_max, points in ((Exchange(1.0, 0.0), 2 * np.pi, (29, 30, 31, 33, 34)),
                              (LorentzianAD(2.0, 1.0), 10.0, (13, 30, 31))):
        stacks = evolve_grid(ch, base, np.linspace(0.0, t_max, 41))
        for i in points:
            p = u @ stacks[i] @ u.conj().T
            sol = solve(p)
            assert primal_certificate(sol, p) == sol.mu_star
            if sol.status is SolveStatus.OPTIMAL:
                assert dual_certificate(sol, p).gap == sol.gap


def test_skipped_map_backs_would_not_certify(monkeypatch):
    # wherever the solver skips the map back, by the reduced gap c.x - b.y or
    # by the shrink bound, the full map back of that iterate does not certify;
    # where the shrink bound skips it, -b.y - primal > tol, so the certified
    # gap, at least -b.y - primal since dual(y) >= -b.y, is above tol too
    real = sdp._Reduced.cannot_certify
    certified, by_bound = [], []

    def checked(reduced, x, y, tol):
        skip = real(reduced, x, y, tol)
        if skip:
            primal, dual = reduced.primal(x)[1], reduced.dual(y)[1]
            certified.append(sdp._certifies(primal, dual, tol))
            by = float(reduced.b_vec @ y)
            if float(np.vdot(reduced.c_vec, x)) - by <= tol:
                by_bound.append(-by - primal > tol)
        return skip

    monkeypatch.setattr(sdp._Reduced, "cannot_certify", checked)
    base = premeasure(IDENTITY / 2, XYZ).stacked()
    for ch, t_max in ((Exchange(1.0, 0.0), 2 * np.pi), (LorentzianAD(2.0, 1.0), 10.0)):
        for stack in evolve_grid(ch, base, np.linspace(0.0, t_max, 81)):
            solve(stack)
    for p in rotated_problems():
        solve(p)
    assert not any(certified)
    assert all(by_bound)
    # the shrink bound saves about 265 map backs on the two paper traces
    assert len(by_bound) >= 200


# --- oracle bracketing ------------------------------------------------------------


def test_bracketing_oracle_random(rng):
    for k in range(10):
        asm = random_assemblage(rng)
        p = build_sw_sdp(asm, strategy_table(3))
        sol = solve(p)
        assert sol.status is SolveStatus.OPTIMAL
        lower = primal_ascent_bound(p, n_restarts=50, n_steps=20, seed=k)
        assert lower - 1e-5 <= sol.mu_star <= sol.dual_value + 1e-7


def test_ascent_bound_is_tight_on_easy_instances():
    p = depol_problem(0.0)
    lower = primal_ascent_bound(p, n_restarts=20, n_steps=25, seed=1)
    assert lower == pytest.approx(1.0, abs=1e-2)


# --- structural properties ----------------------------------------------------------


def test_scale_covariance(rng):
    asm = random_assemblage(rng)
    p = build_sw_sdp(asm, strategy_table(3))
    base = solve(p)
    for c in (0.25, 0.5, 0.9):
        scaled = c * p
        sol = solve(scaled)
        assert sol.mu_star == pytest.approx(c * base.mu_star, abs=1e-7)
        # normalized weight is scale free
        assert 1 - sol.mu_star / c == pytest.approx(1 - base.mu_star, abs=1e-7)


def test_mixing_concavity(rng):
    uns = depolarized_assemblage(0.0, XYZ)
    for _ in range(5):
        asm = random_assemblage(rng)
        base = solve(build_sw_sdp(asm, strategy_table(3))).mu_star
        for s in (0.25, 0.5, 0.75):
            mixed = (1 - s) * asm.stacked() + s * uns.stacked()
            mu = solve(mixed).mu_star
            assert mu >= (1 - s) * base + s - 1e-6

import numpy as np
import pytest

from conftest import random_assemblage
from tsteer.errors import CertificateInvalid, DimensionMismatch
from tsteer.hermat import IDENTITY
from tsteer.sdp import (
    SolveStatus,
    build_sw_sdp,
    dual_certificate,
    primal_ascent_bound,
    solve,
)
from tsteer.steering import (
    depolarized_assemblage,
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
    p = depol_problem(0.5)
    assert p.n_lambda == 8
    assert p.n_constraints == 6
    assert p.d_matrix.shape == (6, 8)
    assert p.targets.shape == (6, 2, 2)


def test_build_counts_two_settings():
    p = depol_problem(0.5, labels="XZ")
    assert p.n_lambda == 4
    assert p.n_constraints == 4


def test_build_constraint_pattern_matches_strategy_table():
    p = depol_problem(0.3)
    d = strategy_table(3).d_matrix()
    assert np.array_equal(p.d_matrix, d)
    assert set(np.unique(p.d_matrix)) == {0.0, 1.0}


def test_build_dimension_mismatch():
    asm = depolarized_assemblage(0.5, XYZ)
    with pytest.raises(DimensionMismatch):
        build_sw_sdp(asm, strategy_table(2))


def test_single_setting_never_steerable(rng):
    ms = pauli_measurement_set("Z")
    from conftest import random_density

    for _ in range(5):
        asm = premeasure(np.eye(2, dtype=complex) / 2, ms)
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
    slack = problem.targets - np.tensordot(problem.d_matrix, sol.sigma_tilde, axes=(1, 0))
    assert float(_min_eig(slack).min()) >= -1e-8


def test_solution_invariants_random(rng):
    for _ in range(20):
        asm = random_assemblage(rng)
        p = build_sw_sdp(asm, strategy_table(3))
        sol = solve(p)
        assert_solution_clean(sol, p)


def test_gap_history_envelope_non_increasing(rng):
    for v in (0.0, 0.6, 0.9):
        sol = solve(depol_problem(v))
        hist = sol.gap_history[-100:]
        assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))


def test_infeasible_flag_for_malformed_targets():
    p = depol_problem(0.5)
    p.targets = p.targets.copy()
    p.targets[0] = np.diag([0.5, -0.2]).astype(complex)
    sol = solve(p)
    assert sol.status is SolveStatus.INFEASIBLE


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
        gap=sol.gap,
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


def test_unsteerable_instance_has_unit_dual_value():
    p = depol_problem(0.0)
    sol = solve(p)
    assert sol.dual_value == pytest.approx(1.0, abs=1e-6)


def test_maximally_steerable_instance_has_zero_dual_value():
    asm = premeasure(IDENTITY / 2, XYZ)
    p = build_sw_sdp(asm, strategy_table(3))
    sol = solve(p)
    assert sol.dual_value == pytest.approx(0.0, abs=1e-7)


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
        scaled = build_sw_sdp(asm, strategy_table(3))
        scaled.targets = c * scaled.targets
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
            mixed = build_sw_sdp(asm, strategy_table(3))
            mixed.targets = (1 - s) * asm.stacked() + s * uns.stacked()
            mu = solve(mixed).mu_star
            assert mu >= (1 - s) * base + s - 1e-6


def test_warm_start_agrees_with_cold(rng):
    prev = None
    for v in np.linspace(0.9, 0.7, 9):
        p = depol_problem(v)
        cold = solve(p)
        warm = solve(p, warm=prev)
        prev = warm.warm
        assert warm.status is SolveStatus.OPTIMAL
        assert warm.mu_star == pytest.approx(cold.mu_star, abs=1e-7)

"""The steerable-weight semidefinite program and its solver.

Given an assemblage {sigma_{a|x}} and the deterministic-strategy table
D_lam(a|x), the unsteerable weight mu* is

    maximize    sum_lam Tr sigma_tilde_lam
    subject to  sigma_{a|x} - sum_lam D_lam(a|x) sigma_tilde_lam  >= 0
                sigma_tilde_lam >= 0,

all blocks Hermitian 2x2, and the temporal steerable weight is 1 - mu*.
The dual asks for one PSD multiplier F_{a|x} per constraint with
sum_{a,x} D_lam(a|x) F_{a|x} >= I for every lam, minimizing
sum <sigma_{a|x}, F_{a|x}>; any dual-feasible point upper-bounds mu*, which
is what the returned certificates are built from.

The solver is a primal-dual interior-point method with Nesterov-Todd
scaling and a Mehrotra-style predictor-corrector, specialized to stacks of
2x2 Hermitian blocks; the per-block kernels (Hermitian part, smallest
eigenvalue, PSD projection, determinant, matrix power) come from `hermat`.
The dual Schur system has 4 * (2 n_meas) real unknowns, so each Newton
step is a dense solve of trivial size; typical problems converge in 10 to
30 steps. Slack blocks are introduced so the cone
constraints read A x = b over a product of PSD(2) cones:

    x = (sigma_tilde_1..L, S_1..M),  A x |_m = sum_lam D[m,lam] sigma_tilde_lam + S_m = sigma_m.

The dual multiplier reported back is polished into an exactly cone-feasible
point (shift by the worst negative eigenvalue, then rescale), so the
published duality gap is a certificate, not a heuristic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CertificateInvalid,
    DimensionMismatch,
    NumericalBreakdown,
)
from .hermat import IDENTITY, det2, herm, mat_pow, min_eig, psd_project
from .steering import Assemblage, StrategyTable

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 300

# Orthonormal Hermitian basis used to express congruences as real 4x4 blocks.
_EBASIS = np.zeros((4, 2, 2), dtype=complex)
_EBASIS[0, 0, 0] = 1.0
_EBASIS[1, 1, 1] = 1.0
_EBASIS[2] = np.array([[0, 1], [1, 0]]) / np.sqrt(2)
_EBASIS[3] = np.array([[0, 1j], [-1j, 0]]) / np.sqrt(2)


def _svec(h):
    out = np.empty(h.shape[:-2] + (4,))
    out[..., 0] = h[..., 0, 0].real
    out[..., 1] = h[..., 1, 1].real
    out[..., 2] = np.sqrt(2.0) * h[..., 0, 1].real
    out[..., 3] = np.sqrt(2.0) * h[..., 0, 1].imag
    return out


def _unsvec(v):
    h = np.empty(v.shape[:-1] + (2, 2), dtype=complex)
    h[..., 0, 0] = v[..., 0]
    h[..., 1, 1] = v[..., 1]
    h[..., 0, 1] = (v[..., 2] + 1j * v[..., 3]) / np.sqrt(2.0)
    h[..., 1, 0] = (v[..., 2] - 1j * v[..., 3]) / np.sqrt(2.0)
    return h


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"
    INFEASIBLE = "infeasible"


@dataclass
class SdpProblem:
    """Steerable-weight SDP data: strategy matrix plus target blocks."""

    n_meas: int
    d_matrix: np.ndarray = field(repr=False)  # (2 n_meas, 2^n_meas) of 0/1
    targets: np.ndarray = field(repr=False)   # (2 n_meas, 2, 2) sigma_{a|x}
    labels: tuple = ()
    time_tag: float = 0.0

    @property
    def n_constraints(self) -> int:
        return 2 * self.n_meas

    @property
    def n_lambda(self) -> int:
        return 2 ** self.n_meas


@dataclass
class SdpSolution:
    mu_star: float
    sigma_tilde: np.ndarray = field(repr=False)  # (n_lambda, 2, 2), PSD
    dual_vars: np.ndarray = field(repr=False)    # (n_constraints, 2, 2), polished
    dual_value: float = 0.0
    gap: float = 0.0
    iterations: int = 0
    status: SolveStatus = SolveStatus.MAX_ITER
    primal_residual: float = 0.0
    dual_residual: float = 0.0
    gap_history: list = field(default_factory=list, repr=False)
    warm: tuple = field(default=None, repr=False, compare=False)


def build_sw_sdp(asm: Assemblage, table: StrategyTable) -> SdpProblem:
    """Assemble the SDP for a validated assemblage and matching strategy table."""
    if table.n_meas != asm.n_meas:
        raise DimensionMismatch(
            f"table has {table.n_meas} settings, assemblage has {asm.n_meas}"
        )
    return SdpProblem(
        n_meas=asm.n_meas,
        d_matrix=table.d_matrix(),
        targets=asm.stacked(),
        labels=asm.labels,
        time_tag=asm.time_tag,
    )


def _polished_dual(d_mat, targets, y, cmat=None):
    """Exactly cone-feasible dual point from the multiplier estimate -y.

    Coverage means sum_m D[m,lam] F_m >= cmat (identity unless the problem
    has been rebalanced). Both repairs are additive: a global shift restores
    F >= 0, and since every strategy activates exactly n_meas constraints, a
    uniform shift c*I on all multipliers lifts the coverage by n_meas * c.
    Returns (F, dual_value, infeasibility_before_polish); dual_value is a
    rigorous upper bound on the weighted primal optimum.
    """
    cm = IDENTITY if cmat is None else cmat
    n_meas = d_mat.shape[0] // 2
    f = -y
    eta = max(0.0, -float(min_eig(f).min()))
    fp = f + eta * IDENTITY
    zeta = float(min_eig(np.tensordot(d_mat.T, fp, axes=(1, 0)) - cm).min())
    if zeta < 0.0:
        fp = fp + (-zeta / n_meas) * IDENTITY
    value = float(np.einsum("mij,mij->", targets.conj(), fp).real)
    return fp, value, max(eta, max(0.0, -zeta))


def _balancing(targets):
    """Congruence that whitens the average reduced state of the targets.

    Deep-decay assemblages span many orders of magnitude between their
    matrix elements, which starves the interior-point iteration of steps.
    The change of variables sigma -> S sigma S with S = R^{-1/2} keeps the
    optimum value identical while making the targets O(1). The objective
    weight becomes (S S)^{-1}, the floored reduced state itself. The
    eigenvalue floor (seven decades below the top) caps the condition of S
    so the mapped-back certificates remain verifiable in double precision.
    Returns None when the targets are already balanced.
    """
    red = herm((2.0 / targets.shape[0]) * targets.sum(axis=0))
    w, v = np.linalg.eigh(red)
    w = np.maximum(w, 0.0)
    wmax = float(max(w.max(), 1e-300))
    if w.min() > 0.2 * wmax:
        return None
    wf = np.maximum(w, wmax * 1e-7)
    smat = herm((v * np.sqrt(wmax / wf)) @ v.conj().T)
    sinv = herm((v * np.sqrt(wf / wmax)) @ v.conj().T)
    cmat = herm((v * (wf / wmax)) @ v.conj().T)
    return smat, sinv, cmat


def solve(problem: SdpProblem, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER, warm=None) -> SdpSolution:
    """Solve the steerable-weight SDP to a certified duality gap.

    Stops once the equality residual, the dual infeasibility, and the
    certified gap all fall below tol. Assemblages whose members carry exact
    zero eigenvalues make the optimal faces degenerate; when the iteration
    stalls on such instances the best iterate is still declared optimal if
    its certified gap is within 10*tol (1e-7 at the default tolerance, the
    level the downstream certificates require) with feasibility residuals
    met. Otherwise the best iterate is returned with status MAX_ITER;
    max_iter counts Newton steps, of which healthy runs need a few tens.
    A warm tuple from a previous solution (its .warm field) seeds the
    iteration after re-centering.

    Strongly anisotropic targets (deep amplitude decay) are retried in
    rebalanced coordinates when the plain run fails to certify; the better
    of the two runs is returned.
    """
    sol = _solve_core(problem, tol, max_iter, warm, balanced=False)
    if sol.status is not SolveStatus.OPTIMAL:
        retry = _solve_core(problem, tol, max_iter, warm, balanced=True)
        if retry is not None:
            better = retry.status is SolveStatus.OPTIMAL or (
                sol.status is not SolveStatus.OPTIMAL and retry.gap < sol.gap
            )
            if better:
                return retry
    return sol


def _solve_core(problem, tol, max_iter, warm, balanced):
    if tol <= 0:
        raise NumericalBreakdown(f"tolerance must be positive, got {tol}")
    d_mat = problem.d_matrix
    targets = problem.targets
    m_cons, n_lam = d_mat.shape

    if not np.all(np.isfinite(targets)):
        raise NumericalBreakdown("assemblage targets contain non-finite entries")
    if float(min_eig(targets).min()) < -1e-8:
        # sigma_tilde = 0 is feasible for any PSD target; a clearly negative
        # target block means the problem data is malformed.
        return SdpSolution(
            mu_star=0.0,
            sigma_tilde=np.zeros((n_lam, 2, 2), dtype=complex),
            dual_vars=np.zeros((m_cons, 2, 2), dtype=complex),
            status=SolveStatus.INFEASIBLE,
        )

    balance = _balancing(targets) if balanced else None
    if balance is None:
        if balanced:
            return None  # already balanced; nothing new to try
        smat = sinv = None
        b_t = targets
        cmat = IDENTITY
    else:
        smat, sinv, cmat = balance
        b_t = np.einsum("ij,mjk,kl->mil", smat, targets, smat)

    def a_op(x, s):
        return np.tensordot(d_mat, x, axes=(1, 0)) + s

    def at_op(y):
        return np.tensordot(d_mat.T, y, axes=(1, 0))

    c_x = -np.broadcast_to(cmat, (n_lam, 2, 2))

    def into(m):
        return m if smat is None else np.einsum("ij,mjk,kl->mil", smat, m, smat)

    def outof(m):
        return m if sinv is None else np.einsum("ij,mjk,kl->mil", sinv, m, sinv)

    if warm is not None:
        xw, sw, yw, zxw, zsw = warm  # original coordinates
        # re-center enough that the barrier parameter stays commensurate
        # with the fresh residuals, otherwise the corrector overshoots
        delta = 5e-2
        x = into(xw) + delta * IDENTITY
        s = into(sw) + delta * IDENTITY
        zx = outof(zxw) + delta * IDENTITY
        zs = outof(zsw) + delta * IDENTITY
        y = outof(yw)
    else:
        x = np.broadcast_to(0.5 * IDENTITY, (n_lam, 2, 2)).copy()
        s = np.broadcast_to(0.5 * IDENTITY, (m_cons, 2, 2)).copy()
        zx = np.broadcast_to(IDENTITY, (n_lam, 2, 2)).copy()
        zs = np.broadcast_to(IDENTITY, (m_cons, 2, 2)).copy()
        y = np.zeros((m_cons, 2, 2), dtype=complex)

    n_blocks = n_lam + m_cons
    b_norm = 1.0 + float(np.abs(b_t).max())
    best = None
    best_score = math.inf
    gap_floor = math.inf
    history = []
    stall = 0
    status = SolveStatus.MAX_ITER
    it = 0

    def measure(xc, sc, yc):
        rp = b_t - a_op(xc, sc)
        pinf = float(np.abs(rp).max()) / b_norm
        fp, dual, raw_dinf = _polished_dual(d_mat, b_t, yc, cmat)
        primal = float(np.einsum("ij,nij->", cmat.conj(), xc).real)
        gap = abs(dual - primal) if math.isfinite(dual) else math.inf
        return rp, pinf, fp, dual, primal, gap

    def max_step(blocks, dblocks):
        # largest alpha in (0, 1] with blocks + alpha*dblocks psd. For 2x2
        # that means trace and determinant stay non-negative: one linear and
        # one quadratic condition per block, solved in closed form (no
        # inverses, so nearly singular blocks cannot overflow).
        tr_x = blocks[..., 0, 0].real + blocks[..., 1, 1].real
        tr_d = dblocks[..., 0, 0].real + dblocks[..., 1, 1].real
        det_x = det2(blocks)
        det_d = det2(dblocks)
        cross = (blocks[..., 0, 0].real * dblocks[..., 1, 1].real
                 + blocks[..., 1, 1].real * dblocks[..., 0, 0].real
                 - 2.0 * (blocks[..., 0, 1] * dblocks[..., 1, 0]).real)
        alpha = np.ones_like(tr_x)
        neg = tr_d < 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lin = np.where(neg, tr_x / np.maximum(-tr_d, 1e-300), np.inf)
        alpha = np.minimum(alpha, lin)
        # f(a) = det_x + a*cross + a^2*det_d >= 0, f(0) = det_x >= 0
        disc = cross * cross - 4.0 * det_d * det_x
        has_root = disc >= 0
        sq = np.sqrt(np.where(has_root, disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            quad_a = np.where(
                (np.abs(det_d) > 1e-300) & has_root,
                (-cross - sq) / (2.0 * det_d),
                np.inf,
            )
            quad_b = np.where(
                (np.abs(det_d) > 1e-300) & has_root,
                (-cross + sq) / (2.0 * det_d),
                np.inf,
            )
            lin_only = np.where(
                (np.abs(det_d) <= 1e-300) & (cross < 0),
                det_x / np.maximum(-cross, 1e-300),
                np.inf,
            )
        candidates = np.stack([
            np.where(quad_a > 1e-14, quad_a, np.inf),
            np.where(quad_b > 1e-14, quad_b, np.inf),
            lin_only,
        ])
        alpha = np.minimum(alpha, candidates.min(axis=0))
        return float(max(min(alpha.min(), 1.0), 0.0))

    for it in range(1, max_iter + 1):
        rp, pinf, fp, dual, primal, gap = measure(x, s, y)
        rd_x = c_x - at_op(y) - zx
        rd_s = -y - zs
        # degenerate constraints drive an unbounded dual ray, so judge the
        # dual residual relative to the multiplier size
        y_scale = 1.0 + float(np.abs(y).max())
        dinf_raw = max(float(np.abs(rd_x).max()), float(np.abs(rd_s).max())) / y_scale
        score = max(4.0 * pinf, dinf_raw, min(gap, 1e9))
        if score < best_score:
            best_score = score
            best = (x.copy(), s.copy(), y.copy(), zx.copy(), zs.copy(),
                    pinf, dinf_raw, it)
        gap_floor = min(gap_floor, gap)
        history.append(gap_floor)
        if pinf <= 0.25 * tol and dinf_raw <= tol and gap <= tol:
            status = SolveStatus.OPTIMAL
            break

        mu = (float(np.einsum("nij,nij->", x.conj(), zx).real)
              + float(np.einsum("nij,nij->", s.conj(), zs).real)) / (2.0 * n_blocks)
        if not math.isfinite(mu) or mu <= 0 or not math.isfinite(score):
            break

        try:
            w_x = _nt_scaling(x, zx)
            w_s = _nt_scaling(s, zs)
            g_x = _congruence_matrix(w_x)
            g_s = _congruence_matrix(w_s)
            schur = np.einsum("ml,nl,lkj->mknj", d_mat, d_mat, g_x).reshape(
                4 * m_cons, 4 * m_cons
            )
            for m in range(m_cons):
                schur[4 * m: 4 * m + 4, 4 * m: 4 * m + 4] += g_s[m]
            solve_schur = _factorized(schur)

            def direction(rc_x, rc_s):
                t_x = w_x @ rd_x @ w_x - rc_x
                t_s = w_s @ rd_s @ w_s - rc_s
                rhs = _svec(rp + a_op(t_x, t_s)).reshape(-1)
                dy = _unsvec(solve_schur(rhs).reshape(m_cons, 4))
                dzx = rd_x - at_op(dy)
                dzs = rd_s - dy
                dx = herm(rc_x - w_x @ dzx @ w_x)
                ds = herm(rc_s - w_s @ dzs @ w_s)
                return dx, ds, dy, herm(dzx), herm(dzs)

            dx, ds, dy, dzx, dzs = direction(-x, -s)
            a_p = min(max_step(x, dx), max_step(s, ds))
            a_d = min(max_step(zx, dzx), max_step(zs, dzs))
            mu_aff = (
                float(np.einsum("nij,nij->", (x + a_p * dx).conj(), zx + a_d * dzx).real)
                + float(np.einsum("nij,nij->", (s + a_p * ds).conj(), zs + a_d * dzs).real)
            ) / (2.0 * n_blocks)
            sigma = min(0.8, max((max(mu_aff, 0.0) / mu) ** 3, 1e-10))
            if max(pinf, dinf_raw) > 10.0 * mu:
                # infeasibility dominates; keep enough centering to absorb it
                sigma = max(sigma, 0.2)
            dx, ds, dy, dzx, dzs = direction(
                sigma * mu * mat_pow(zx, -1.0) - x - _second_order(w_x, x, dx, dzx),
                sigma * mu * mat_pow(zs, -1.0) - s - _second_order(w_s, s, ds, dzs),
            )
        except np.linalg.LinAlgError:
            break

        tau = 0.95 if mu > 1e-5 else (0.99 if mu > 1e-8 else 0.9999)
        a_p = min(1.0, tau * min(max_step(x, dx), max_step(s, ds)))
        a_d = min(1.0, tau * min(max_step(zx, dzx), max_step(zs, dzs)))
        if min(a_p, a_d) < 1e-6:
            stall += 1
            if stall >= 12:
                break
        else:
            stall = 0
        x = x + a_p * dx
        s = s + a_p * ds
        y = y + a_d * dy
        zx = zx + a_d * dzx
        zs = zs + a_d * dzs

    if best is None:
        raise NumericalBreakdown("interior-point iteration produced no usable iterate")

    # map the best iterate back to original coordinates and certify there
    xb, sb, yb, zxb, zsb, _, dinf_b, _ = best
    x_o = outof(xb)
    s_o = outof(sb)
    y_o = into(yb)
    fp_o, dual_o, _ = _polished_dual(d_mat, targets, y_o)
    primal_o = float(np.einsum("nii->", x_o).real)
    gap_o = abs(dual_o - primal_o) if math.isfinite(dual_o) else math.inf
    rp_o = targets - a_op(x_o, s_o)
    pinf_o = float(np.abs(rp_o).max()) / (1.0 + float(np.abs(targets).max()))
    if pinf_o <= tol and dinf_b <= tol and gap_o <= 10.0 * tol:
        status = SolveStatus.OPTIMAL
    else:
        status = SolveStatus.MAX_ITER
    return SdpSolution(
        mu_star=primal_o,
        sigma_tilde=x_o,
        dual_vars=fp_o,
        dual_value=dual_o,
        gap=gap_o,
        iterations=it,
        status=status,
        primal_residual=pinf_o,
        dual_residual=dinf_b,
        gap_history=history[-200:],
        warm=(x_o, s_o, y_o, into(zxb), into(zsb)),
    )


def _nt_scaling(x, z):
    """Nesterov-Todd scaling point W with W z W = x, per block."""
    xs = mat_pow(x, 0.5)
    mid = herm(xs @ z @ xs)
    return herm(xs @ mat_pow(mid, -0.5) @ xs)


def _second_order(w, x, dx_aff, dz_aff):
    """Mehrotra cross term mapped back from the NT-scaled space.

    In scaled variables the linearized complementarity picks up
    H(dX^ dZ^) from the affine step; inverting the Lyapunov operator of
    the scaled point V = W^{-1/2} X W^{-1/2} and unscaling yields the
    correction subtracted from the combined right-hand side. Blocks are
    2x2, so the Lyapunov solve is a direct eigenbasis division.
    """
    p = mat_pow(w, -0.5)
    pi = mat_pow(w, 0.5)
    cross = herm((p @ dx_aff @ p) @ (pi @ dz_aff @ pi))
    v = herm(p @ x @ p)
    ev, q = np.linalg.eigh(v)
    ev = np.maximum(ev, 1e-16 * np.maximum(np.abs(ev).max(axis=-1, keepdims=True), 1e-200))
    mt = q.conj().swapaxes(-1, -2) @ cross @ q
    denom = ev[..., :, None] + ev[..., None, :]
    u = q @ (2.0 * mt / denom) @ q.conj().swapaxes(-1, -2)
    return herm(pi @ u @ pi)


def _congruence_matrix(w):
    """Real 4x4 representation of u -> W u W on the Hermitian basis."""
    g = np.einsum("kab,nbc,lcd,nda->nkl", _EBASIS, w, _EBASIS, w).real
    return 0.5 * (g + g.swapaxes(1, 2))


def _factorized(mat):
    """Cholesky solve with escalating regularization and refinement."""
    scale = float(np.abs(np.diag(mat)).max())
    eye = np.eye(len(mat))
    for reg in (0.0, 1e-14, 1e-11, 1e-8):
        try:
            low = np.linalg.cholesky(mat + (reg * scale) * eye)
        except np.linalg.LinAlgError:
            continue

        def solver(rhs, low=low):
            sol = np.linalg.solve(low.T, np.linalg.solve(low, rhs))
            for _ in range(2):
                sol = sol + np.linalg.solve(low.T, np.linalg.solve(low, rhs - mat @ sol))
            return sol

        return solver
    raise np.linalg.LinAlgError("Schur complement not factorizable")


@dataclass
class CertificateReport:
    dual_value: float
    gap: float
    multiplier_min_eig: float
    coverage_min_eig: float  # min eig of sum_m D F - I over strategies


def dual_certificate(sol: SdpSolution, problem: SdpProblem,
                     tol: float = 1e-7) -> CertificateReport:
    """Verify the dual multipliers independently of the solve path.

    Checks that every multiplier block is PSD, that the strategy coverage
    sum_{a,x} D_lam(a|x) F_{a|x} dominates the identity for every lam, and
    that the recorded gap equals dual minus primal objective. Raises
    CertificateInvalid when any check fails beyond tol.
    """
    if sol.status is not SolveStatus.OPTIMAL:
        raise CertificateInvalid(f"solution status is {sol.status.value}, not optimal")
    f = sol.dual_vars
    if f.shape != (problem.n_constraints, 2, 2):
        raise CertificateInvalid("multiplier count does not match constraints")
    m_eig = float(min_eig(f).min())
    cover = np.tensordot(problem.d_matrix.T, f, axes=(1, 0)) - IDENTITY
    c_eig = float(min_eig(cover).min())
    dual = float(np.einsum("mij,mij->", problem.targets.conj(), f).real)
    if m_eig < -tol:
        raise CertificateInvalid(f"multiplier min eigenvalue {m_eig:.3e} < -{tol:.1e}")
    if c_eig < -tol:
        raise CertificateInvalid(f"strategy coverage min eigenvalue {c_eig:.3e} < -{tol:.1e}")
    if abs(dual - sol.dual_value) > 1e-9 * max(1.0, abs(dual)):
        raise CertificateInvalid("recorded dual value does not match the multipliers")
    if abs(abs(dual - sol.mu_star) - sol.gap) > 1e-9:
        raise CertificateInvalid("recorded gap is not dual minus primal")
    return CertificateReport(dual, sol.gap, m_eig, c_eig)


def primal_ascent_bound(problem: SdpProblem, n_restarts: int = 200,
                        n_steps: int = 30, seed: int = 0) -> float:
    """Independent lower bound on mu* from random-restart projected ascent.

    Plain projected-gradient ascent: the objective gradient is the identity
    on every block, and the projection onto the feasible intersection
    { x >= 0 blockwise, sum_lam D x_lam <= sigma_m } runs Dykstra's
    alternating projections. Both elementary projections are closed form:
    blockwise PSD clipping, and for a single constraint the violation
    positive-part spread equally over its active blocks. Every restart ends
    with a strictly feasible point, so the best total trace is a valid lower
    bound on mu* no matter how tight it is. All restarts advance in one
    vectorized batch.
    """
    d_mat = problem.d_matrix
    targets = problem.targets
    m_cons, n_lam = d_mat.shape
    rng = np.random.default_rng(seed)
    active = [np.flatnonzero(d_mat[m]) for m in range(m_cons)]

    def worst_violation(xb):
        slack = targets[None] - np.einsum("ml,rlij->rmij", d_mat, xb)
        return np.minimum(min_eig(slack).min(axis=1), min_eig(xb).min(axis=1))

    def dykstra(xb, sweeps):
        corr = np.zeros((m_cons + 1,) + xb.shape, dtype=complex)
        for _ in range(sweeps):
            y = psd_project(xb + corr[0])
            corr[0] = xb + corr[0] - y
            xb = y
            for m in range(m_cons):
                z = xb + corr[m + 1]
                idx = active[m]
                excess = z[:, idx].sum(axis=1) - targets[m]
                fix = psd_project(excess) / len(idx)
                y = z.copy()
                y[:, idx] -= fix[:, None]
                corr[m + 1] = z - y
                xb = y
        return xb

    def pocs_cleanup(xb, max_sweeps=3000):
        # plain cyclic projections converge to a feasible point; unlike a
        # global shrink they also repair violations along directions where
        # the targets are singular
        for sweep in range(1, max_sweeps + 1):
            xb = psd_project(xb)
            for m in range(m_cons):
                idx = active[m]
                fix = psd_project(xb[:, idx].sum(axis=1) - targets[m]) / len(idx)
                xb[:, idx] -= fix[:, None]
            if sweep % 100 == 0 and worst_violation(xb).min() >= -1e-14:
                break
        return xb

    raw = rng.normal(size=(n_restarts, n_lam, 2, 2)) + 1j * rng.normal(
        size=(n_restarts, n_lam, 2, 2)
    )
    x = dykstra(herm(raw @ raw.conj().swapaxes(-1, -2)) / (6.0 * n_lam), 40)
    rates = np.exp(rng.uniform(np.log(0.05), np.log(0.8), size=n_restarts))
    grad = np.broadcast_to(IDENTITY, (n_restarts, n_lam, 2, 2))

    for step in range(n_steps):
        eta = rates / (1.0 + step / 4.0)
        x = dykstra(x + eta[:, None, None, None] * grad, 15)
    x = pocs_cleanup(x)

    # residual violations are repaired by the smallest global shrink that
    # certifies each restart; anything unrepairable contributes the trivial
    # bound zero, so the result is always a valid lower bound
    best = np.zeros(n_restarts)
    done = np.zeros(n_restarts, dtype=bool)
    for shrink in (0.0, 1e-9, 1e-7, 1e-5, 3e-4, 3e-3, 3e-2, 3e-1):
        xs = psd_project((1.0 - shrink) * x)
        newly = (worst_violation(xs) >= -1e-13) & ~done
        if newly.any():
            best[newly] = np.einsum("rnii->r", xs).real[newly]
            done |= newly
        if bool(done.all()):
            break
    return float(best.max())

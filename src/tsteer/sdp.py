"""The steerable-weight semidefinite program and its solver.

Given an assemblage {sigma_{a|x}} and the deterministic-strategy table
D_lam(a|x), the unsteerable weight mu* is

    maximize    sum_lam Tr sigma_tilde_lam
    subject to  sigma_{a|x} - sum_lam D_lam(a|x) sigma_tilde_lam  >= 0
                sigma_tilde_lam >= 0,

all blocks Hermitian 2x2, and the temporal steerable weight is 1 - mu*.
The dual asks for one PSD multiplier F_{a|x} per constraint with
sum_{a,x} D_lam(a|x) F_{a|x} >= I for every lam, minimizing
sum <sigma_{a|x}, F_{a|x}>; any dual-feasible point upper-bounds mu*.

`solve` is one cold path:

1. Whitening: sigma -> S sigma S with S = R^{-1/2}, R the mean reduced
   state (1/n_meas) sum sigma_{a|x}; the objective weight becomes R. S and
   S^-1 = R^{1/2} are closed form: with s = sqrt det R and t = sqrt(tr R +
   2 s), R^{1/2} = (R + s I) / t and R^{-1/2} = (adj R + s I) / (s t). A
   rank-one R means every member is a multiple of one pure state (a
   constant map), solved in closed form with its range P = R / tr R.
2. Facial reduction of the whitened members. A zero member sets every
   strategy touching it to 0. A rank-one member (det <= eps tr^2) confines
   every strategy touching it, and its slack, to multiples of its range
   P_m, and keeps a single constraint row; a strategy touching two
   different ranges is 0. Without this the primal has no interior, and
   next to a constant map the iteration returned TSW 0 instead of 0.25.
3. One primal-dual interior-point run over A x = b, x = (sigma_tilde_1..L,
   slack_1..M), on Lorentz-cone coordinates (`_svec`: a 2x2 Hermitian block
   is PSD iff u0 >= |u[1:]|), where Nesterov-Todd scaling and the Mehrotra
   corrector are rank-one closed forms. Guards floor each block's small
   spectral value at 1e-16 times its large one, and gamma^2 at 1. Each
   direction is one LU solve of the augmented system [[-I, (AW)^T], [AW, 0]],
   as its Schur complement squares the condition; a singular one ends the run.
4. A certified map back: sigma_tilde is shrunk until it and every slack
   are exactly PSD, and the multipliers are lifted along the kernel of
   each rank-deficient member, F_m += K (I - P_m), with P_m taken from
   sigma_m so the lift costs nothing when sigma_m is exactly rank one,
   then shifted to be exactly cone-feasible. The map back only lowers the
   primal value and raises the dual one, so its gap is at least the reduced
   gap c.x - b.y; it runs only at iterates where that is within tol, and at
   the iterate the run stops at. The run stops once the signed gap dual -
   primal is in [-1e-12 max(1, |dual|), tol]: weak duality forbids dual <
   primal, and 1e-12 is the primal certificate's own roundoff.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CertificateInvalid,
    DimensionMismatch,
    NotPsd,
    NumericalBreakdown,
)
from .hermat import IDENTITY, anti_herm_norm, det2, herm, min_eig, psd_project
from .steering import Assemblage, _first_defect, strategy_table

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 300
_RANK_EPS = 1e-14  # a 2x2 PSD block with det <= _RANK_EPS * tr^2 has rank one
_ROUNDOFF = 1e-12  # relative roundoff of the certified values, as in primal_certificate
_STEP = 0.95       # fraction of the step to the cone boundary taken per iteration
_SQRT_HALF = math.sqrt(0.5)
_J = np.array([1.0, -1.0, -1.0, -1.0])  # the Lorentz form u.J u = u0^2 - |u[1:]|^2
_E = np.array([1.0, 0.0, 0.0, 0.0])     # the Jordan identity, the coordinates of I / sqrt 2


def _svec(h):
    """Orthonormal coordinates of h = (u0 I + u1 sz + u2 sx - u3 sy) / sqrt 2: <h, g> = u.v,
    det h = u.J u / 2, h >= 0 iff u0 >= |u[1:]|, and (hg + gh) / 2 maps to (u o v) / sqrt 2."""
    a, d, b = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 0, 1]
    return _SQRT_HALF * np.stack((a + d, a - d, 2.0 * b.real, 2.0 * b.imag), axis=-1)


def _unsvec(u):
    h = np.empty(u.shape[:-1] + (2, 2), dtype=complex)
    h[..., 0, 0] = _SQRT_HALF * (u[..., 0] + u[..., 1])
    h[..., 1, 1] = _SQRT_HALF * (u[..., 0] - u[..., 1])
    h[..., 0, 1] = _SQRT_HALF * (u[..., 2] + 1j * u[..., 3])
    h[..., 1, 0] = h[..., 0, 1].conj()
    return h


_HALF_TRACE = 0.5 * _svec(IDENTITY)  # tr(X) / 2 = _HALF_TRACE . svec(X)


def _trace(h):
    return h[..., 0, 0].real + h[..., 1, 1].real


def _cross(g, q):
    """The k-linear term of det(g + k q) = det g + k cross + k^2 det q."""
    return (g[..., 0, 0].real * q[..., 1, 1].real + g[..., 1, 1].real * q[..., 0, 0].real
            - 2.0 * (g[..., 0, 1] * q[..., 1, 0]).real)


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"


@dataclass(frozen=True)
class SdpProblem:
    """Steerable-weight SDP data: the target blocks sigma_{a|x} and a time tag.

    The rest is derived from the target count 2 n_meas, d_matrix too: it is
    `strategy_table(n_meas)` itself, the shared, read-only (2 n, 2^n) 0/1
    matrix D[(x,a), lam]. Raises DimensionMismatch unless targets has shape
    (2 n, 2, 2) with 1 <= n <= 6.
    """

    targets: np.ndarray = field(repr=False)  # (2 n_meas, 2, 2) in constraint order
    time_tag: float = 0.0

    def __post_init__(self):
        if (shape := np.shape(self.targets)) not in [(2 * n, 2, 2) for n in range(1, 7)]:
            raise DimensionMismatch(f"need 2 n 2x2 targets, 1 <= n <= 6, got shape {shape}")

    @property
    def n_meas(self) -> int:
        return len(self.targets) // 2

    @property
    def d_matrix(self) -> np.ndarray:
        return strategy_table(self.n_meas)

    @property
    def n_constraints(self) -> int:
        return 2 * self.n_meas

    @property
    def n_lambda(self) -> int:
        return 2 ** self.n_meas


@dataclass
class SdpSolution:
    mu_star: float
    sigma_tilde: np.ndarray = field(repr=False)  # (n_lambda, 2, 2), exactly feasible
    dual_vars: np.ndarray = field(repr=False)    # (n_constraints, 2, 2), exactly feasible
    dual_value: float = 0.0
    iterations: int = 0
    status: SolveStatus = SolveStatus.MAX_ITER
    primal_residual: float = 0.0
    dual_residual: float = 0.0

    @property
    def gap(self) -> float:
        """Signed gap dual_value - mu_star: certified, and below 0 by roundoff only, when
        OPTIMAL. A non-OPTIMAL exit certifies only mu_star; its gap can be far below 0."""
        return self.dual_value - self.mu_star


def _certifies(primal, dual, tol):
    """Whether dual - primal is at most tol, and below 0 by roundoff only."""
    return -_ROUNDOFF * max(1.0, abs(dual)) <= dual - primal <= tol


def build_sw_sdp(asm: Assemblage, table: np.ndarray) -> SdpProblem:
    """Assemble the SDP for a validated assemblage and its strategy_table(n_meas)."""
    if np.shape(table) != (2 * asm.n_meas, 2 ** asm.n_meas):
        raise DimensionMismatch(f"table shape {np.shape(table)} does not fit {asm.n_meas} settings")
    return SdpProblem(asm.stacked(), asm.time_tag)


def solve(problem: SdpProblem, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> SdpSolution:
    """Solve the steerable-weight SDP to a certified duality gap.

    Whitens, face-reduces and runs the interior-point method once, cold
    (see the module docstring). OPTIMAL means the signed gap dual_value -
    mu_star of the exactly feasible primal and dual points is at most tol,
    and below 0 by at most roundoff, 1e-12 max(1, |dual_value|). MAX_ITER
    means max_iter Newton steps, or a numerical breakdown, came first; such
    an exit certifies only its primal side, mu_star <= mu*, and its
    dual_value can lie far below mu_star. The certified map back is skipped
    at iterates whose reduced gap c.x - b.y exceeds tol, since the certified
    gap is never smaller. Healthy runs take 10 to 25 Lorentz-cone steps.
    Raises NotPsd for a target block that is not Hermitian (relative
    tolerance 1e-10) or has an eigenvalue < -1e-8.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise NumericalBreakdown(f"tolerance must be finite and positive, got {tol}")
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= 0):
        raise NumericalBreakdown(f"max_iter must be a non-negative integer, got {max_iter!r}")
    targets = problem.targets
    if not np.all(np.isfinite(targets)):
        raise NumericalBreakdown("assemblage targets contain non-finite entries")
    defect = _first_defect(targets, 1e-8)
    if defect:
        raise NotPsd(f"target block {defect[0]} has {defect[1]}")
    red = herm(targets.sum(axis=0) / problem.n_meas)
    if det2(red) <= _RANK_EPS * _trace(red) ** 2:
        return _constant_map(problem, red, tol)
    return _interior_point(_Reduced(problem, red), tol, max_iter)


def _constant_map(problem, red, tol):
    """Closed-form optimum when every member is a multiple of one pure state.

    P = R / tr R is its range, c_m = <sigma_m, P>, r_x = c_{+|x} + c_{-|x},
    and both sigma_tilde_lam = r_min prod_x (c_{lam(x)|x} / r_x) P and F_m =
    alpha_m P + (I - P) / n_meas >= 0, with alpha = 1 on a setting attaining
    r_min and 0 elsewhere, reach r_min (1 for a normalized non-signaling
    assemblage, so TSW = 0): each strategy takes one outcome of that
    setting, so its coverage is exactly P + (I - P) = I.
    """
    d_mat, targets = problem.d_matrix, problem.targets
    proj = red / _trace(red)
    c = np.maximum(np.einsum("mij,ij->m", targets.conj(), proj).real, 0.0)
    r = c[0::2] + c[1::2]
    best = int(np.argmin(r))
    share = c / np.maximum(np.repeat(r, 2), 1e-300)
    weight = r[best] * np.prod(np.where(d_mat > 0, share[:, None], 1.0), axis=0)
    sig = weight[:, None, None] * proj
    alpha = (np.arange(problem.n_constraints) // 2 == best).astype(float)
    f = alpha[:, None, None] * proj + (IDENTITY - proj) / problem.n_meas
    primal = float(np.einsum("nii->", sig).real)
    dual = float(np.einsum("mij,mij->", targets.conj(), f).real)
    return SdpSolution(primal, sig, f, dual, status=SolveStatus.OPTIMAL
                       if _certifies(primal, dual, tol) else SolveStatus.MAX_ITER)


class _Reduced:
    """The whitened, face-reduced problem and the certified map back.

    Blocks are the surviving strategies, then one slack per non-zero member.
    A face block (home[j] >= 0) is carried as x I and enters the
    constraints through X -> (tr X / 2) P, P = b_h / tr b_h the range of its
    rank-one member h; a rank-one constraint keeps the one row of its
    coefficient along P, with right-hand side tr b_m. `amat` is the
    operator on svec coordinates, shape (rows, blocks, 4).
    """

    def __init__(self, problem: SdpProblem, red):
        d_mat, targets = problem.d_matrix, problem.targets
        m_cons, n_lam = d_mat.shape
        self.problem = problem
        # R^{-1/2}, R^{1/2} as in step 1 (s > 0); adj R, not (tr R + s) I - R, does not cancel
        s = math.sqrt(det2(red))
        t = math.sqrt(_trace(red) + 2.0 * s)
        adj = np.array([[red[1, 1], -red[0, 1]], [-red[1, 0], red[0, 0]]])
        self.smat, self.sinv = (adj + s * IDENTITY) / (s * t), (red + s * IDENTITY) / t
        b = herm(self.smat @ targets @ self.smat)
        self.tr_b = tr_b = _trace(b)
        self.zero = zero = tr_b <= _RANK_EPS * problem.n_meas
        self.rank1 = rank1 = ~zero & (det2(b) <= _RANK_EPS * tr_b ** 2)
        self.dense = ~(zero | rank1)
        proj = b / np.where(zero, 1.0, tr_b)[:, None, None]

        keep, home = [], []
        for lam in range(n_lam):
            touched = np.flatnonzero(d_mat[:, lam])
            low = touched[rank1[touched]]
            if zero[touched].any() or any(
                    det2(proj[low[0]] + proj[m]) > 4.0 * _RANK_EPS for m in low[1:]):
                continue
            keep.append(lam)
            home.append(low[0] if low.size else -1)
        live = np.flatnonzero(~zero)
        self.keep = np.array(keep, dtype=int)
        self.home = np.array(home + [m if rank1[m] else -1 for m in live], dtype=int)
        touches = [np.flatnonzero(d_mat[:, lam]) for lam in keep] + [[m] for m in live]

        width = np.where(rank1, 1, 4) * ~zero
        start = np.concatenate([[0], np.cumsum(width)])
        owner = np.repeat(np.arange(m_cons), width)
        self.dense_rows = np.flatnonzero(self.dense[owner])
        self.rank1_rows = np.flatnonzero(rank1[owner])
        self.amat = np.zeros((start[-1], len(touches), 4))
        for j, members in enumerate(touches):
            h = self.home[j]
            col = np.eye(4) if h < 0 else np.outer(_svec(proj[h]), _HALF_TRACE)
            for m in members:
                self.amat[start[m]:start[m + 1], j] = _HALF_TRACE if rank1[m] else col
        self.b_vec = np.concatenate([[tr_b[m]] if rank1[m] else _svec(b[m]) for m in live])
        r_vec = _svec(red)
        self.c_vec = np.zeros((len(touches), 4))
        for j, h in enumerate(home):
            self.c_vec[j] = -r_vec if h < 0 else -(r_vec @ _svec(proj[h])) * _HALF_TRACE
        # lift directions adj(sigma_m) / tr sigma_m = I - P_m, from sigma_m
        # itself: <sigma_m, I - P_m> = 2 det sigma_m / tr sigma_m is exactly 0
        # when sigma_m is; I for a zero member
        tr_t = _trace(targets[rank1])[:, None, None]
        self.lift = np.zeros_like(targets)
        self.lift[rank1] = (tr_t * IDENTITY - targets[rank1]) / tr_t
        self.lift[zero] = IDENTITY
        # per-problem constants of the map back
        self.d_dense, self.t_dense = d_mat[self.dense], targets[self.dense]
        self.t_rank1, self.tr_b_rank1 = targets[rank1], tr_b[rank1]
        self.tr_t_sq = tr_t[:, 0, 0] ** 2
        self.lift_cover = np.tensordot(d_mat.T, self.lift, axes=(1, 0))

    def primal(self, x):
        """Exactly feasible sigma_tilde in original coordinates, and its value.

        A face block maps to xi sigma_h / tr b_h, exactly proportional to
        its member, and sigma_tilde shrinks by the largest theta that keeps
        every slack PSD: a rank-one slack iff its face coefficients fit in
        tr b_m, a dense one, E + (1 - theta) U, once 1 - theta lifts E along U.
        """
        p = self.problem
        keep, home = self.keep, self.home[:self.keep.size]
        face = home >= 0
        sig = np.zeros((p.n_lambda, 2, 2), dtype=complex)
        sig[keep[~face]] = psd_project(herm(self.sinv @ x[:keep.size][~face] @ self.sinv))
        xi = np.zeros(p.n_lambda)
        xi[keep[face]] = np.maximum(0.5 * _trace(x[:keep.size][face]), 0.0)
        sig[keep[face]] = (xi[keep[face]] / self.tr_b[home[face]])[:, None, None] * p.targets[home[face]]
        load = p.d_matrix @ xi
        theta = np.where(self.rank1 & (load > self.tr_b), self.tr_b / np.maximum(load, 1e-300), 1.0)
        used = np.tensordot(self.d_dense, sig, axes=(1, 0))
        theta[self.dense] = 1.0 - _lift_size(self.t_dense - used, used)
        sig = min(max(float(theta.min()), 0.0), 1.0) * sig
        return sig, float(np.einsum("nii->", sig).real)

    def dual(self, y):
        """Exactly feasible multipliers F in original coordinates, and their value.

        Reduced multipliers map back by congruence (a rank-one member's
        scalar to a multiple of sigma_m); each rank-deficient member is
        lifted along its kernel by twice the least K that covers every
        strategy touching it, and a uniform shift repairs what is left:
        F >= 0 first, then, since every strategy activates exactly n_meas
        constraints, coverage sum_m D F_m >= I.
        """
        p = self.problem
        d_mat, targets = p.d_matrix, p.targets
        f = np.zeros_like(targets)
        f[self.dense] = -(self.smat @ _unsvec(y[self.dense_rows].reshape(-1, 4)) @ self.smat)
        f[self.rank1] = ((-y[self.rank1_rows] * self.tr_b_rank1 / self.tr_t_sq)[:, None, None]
                         * self.t_rank1)
        cover = np.tensordot(d_mat.T, f, axes=(1, 0)) - IDENTITY
        k_lam = 2.0 * _lift_size(cover, self.lift_cover)
        f = f + (d_mat * k_lam).max(axis=1)[:, None, None] * self.lift
        f = f + max(0.0, -float(min_eig(f).min())) * IDENTITY
        zeta = float(min_eig(np.tensordot(d_mat.T, f, axes=(1, 0)) - IDENTITY).min())
        f = f + max(0.0, -zeta / p.n_meas) * IDENTITY
        return f, float(np.einsum("mij,mij->", targets.conj(), f).real)


def _lift_size(g, q):
    """Per block, the least k >= 0 with g + k q PSD (q PSD), or 0 where no
    k can help: the largest root of det(g + k q) = a k^2 + b k + c, or
    -tr g / tr q if larger. With b < 0 only a q of full rank can help.
    """
    a, b, c = det2(q), _cross(g, q), det2(g)
    sq = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
    full = a > _RANK_EPS * _trace(q) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        # the larger root, each branch in its cancellation-free form
        root = np.where(b < 0.0, np.where(full, (-b + sq) / (2.0 * a), 0.0),
                        -2.0 * c / (b + sq))
        by_trace = np.where(_trace(q) > 0.0, -_trace(g) / _trace(q), 0.0)
    return np.maximum(np.maximum(np.where(np.isfinite(root), root, 0.0), by_trace), 0.0)


def _interior_point(reduced: _Reduced, tol, max_iter):
    """Primal-dual interior-point run on (n_blocks, 4) Lorentz-cone vectors.

    From a cold start; 2x2 blocks exist only in the map back. That only
    lowers the primal value below -c.x (theta <= 1, face blocks keep their
    trace) and only raises the dual one above -b.y (lifts and shifts add
    non-negative multiples of <sigma_m, PSD>), so while c.x - b.y, or -b.y -
    primal once known, exceeds tol the rest of the map back is skipped; every
    exit maps back the iterate it stops at."""
    amat, b_vec, c_vec = reduced.amat, reduced.b_vec, reduced.c_vec
    n_rows, n_blocks = amat.shape[:2]
    n_x = 4 * n_blocks
    flat = amat.reshape(n_rows, n_x)
    kkt = np.diag(np.concatenate((-np.ones(n_x), np.zeros(n_rows))))

    def map_back(bound=math.inf):
        sig, primal = reduced.primal(_unsvec(x))
        if -float(b_vec @ y) - primal > bound:
            return None
        return (sig, primal, *reduced.dual(y))

    x, z = (np.tile(_svec(c * IDENTITY), (n_blocks, 1)) for c in (0.5, 1.0))
    y = np.zeros(n_rows)
    b_norm = 1.0 + float(np.abs(b_vec).max())
    status = SolveStatus.MAX_ITER
    for it in range(max_iter + 1):
        rp = b_vec - flat @ x.reshape(-1)
        rd = c_vec - (y @ flat).reshape(n_blocks, 4) - z
        pinf = float(np.abs(rp).max()) / b_norm
        # degenerate constraints drive an unbounded dual ray, so judge the
        # dual residual relative to the multiplier size
        dinf = float(np.abs(rd).max()) / (1.0 + float(np.abs(y).max()))
        mapped = map_back(tol) if float(np.vdot(c_vec, x) - b_vec @ y) <= tol else None
        if mapped is not None and _certifies(mapped[1], mapped[3], tol):
            status = SolveStatus.OPTIMAL
            break
        mu = float(np.vdot(x, z)) / (2.0 * n_blocks)
        if it == max_iter or not math.isfinite(mu) or mu <= 0:
            break
        try:
            beta, v, lam, lam_det = _nt_scaling(x, z)

            def scale(u):  # W u = beta (2 v (v.u) - J u) per block, W symmetric
                return beta * (2.0 * np.sum(v * u, axis=-1, keepdims=True) * v - _J * u)

            aw = scale(amat).reshape(n_rows, n_x)
            kkt[:n_x, n_x:], kkt[n_x:, :n_x] = aw.T, aw
            w_rd = scale(rd).reshape(-1)

            def direction(rc):
                # A W dxs = rp, A^T dy + dz = rd, dxs + W dz = rc, with dxs = W^-1 dx
                sol = np.linalg.solve(kkt, np.concatenate((w_rd - rc.reshape(-1), rp)))
                dxs, dy = sol[:n_x].reshape(n_blocks, 4), sol[n_x:]
                return dxs, scale(dxs), dy, rd - (dy @ flat).reshape(n_blocks, 4)

            dxs, dx, dy, dz = direction(-lam)
            a_p, a_d = _max_steps(x, dx, z, dz)
            mu_aff = float(np.vdot(x + a_p * dx, z + a_d * dz)) / (2.0 * n_blocks)
            sigma = min(0.8, max((max(mu_aff, 0.0) / mu) ** 3, 1e-10))
            if max(pinf, dinf) > 10.0 * mu:
                # infeasibility dominates; keep enough centering to absorb it
                sigma = max(sigma, 0.2)
            # Mehrotra: lam o (dxs + dzs) = 2 sigma mu e - lam o lam - dxs_aff o dzs_aff
            rhs = 2.0 * sigma * mu * _E - _jordan(dxs, scale(dz))
            dx, dy, dz = direction(_arw_solve(lam, lam_det, rhs) - lam)[1:]
        except np.linalg.LinAlgError:
            break
        a_p, a_d = (min(1.0, _STEP * a) for a in _max_steps(x, dx, z, dz))
        x, y, z = x + a_p * dx, y + a_d * dy, z + a_d * dz
    sig, primal, f, dual = mapped or map_back()
    return SdpSolution(primal, sig, f, dual, it, status, pinf, dinf)


def _max_steps(x, dx, z, dz):
    """Largest alphas in [0, 1] keeping x + alpha_p dx, z + alpha_d dz in the cone: u0 and
    u.J u stay >= 0, one linear and one quadratic condition per block, with no inverse."""
    v, dv = np.stack((x, z)), np.stack((dx, dz))
    a, b, c = _jdot(dv, dv), 2.0 * _jdot(v, dv), _jdot(v, v)
    disc = b * b - 4.0 * a * c
    quad = (np.abs(a) > 1e-300) & (disc >= 0)
    sq = np.sqrt(np.where(quad, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        roots = np.where(quad, np.stack([(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)]), np.inf)
        lin_det = np.where((np.abs(a) <= 1e-300) & (b < 0), c / np.maximum(-b, 1e-300), np.inf)
        lin_u0 = np.where(dv[..., 0] < 0, v[..., 0] / np.maximum(-dv[..., 0], 1e-300), np.inf)
    alpha = np.minimum(np.minimum(np.where(roots > 1e-14, roots, np.inf).min(axis=0), lin_det),
                       lin_u0).min(axis=1)
    return tuple(float(a) for a in np.clip(alpha, 0.0, 1.0))


def _jdot(u, v):
    return u[..., 0] * v[..., 0] - np.einsum("...i,...i->...", u[..., 1:], v[..., 1:])


def _jordan(u, v):
    """Jordan product u o v = (u.v, u0 v[1:] + v0 u[1:]) per block."""
    return np.concatenate((np.einsum("ni,ni->n", u, v)[:, None],
                           u[:, :1] * v[:, 1:] + v[:, :1] * u[:, 1:]), axis=1)


def _arw_solve(lam, det, r):
    """d with lam o d = r per block, for lam inside the cone with lam.J lam = det."""
    d0 = (lam[:, :1] * r[:, :1] - np.sum(lam[:, 1:] * r[:, 1:], axis=1, keepdims=True)) / det
    return np.concatenate((d0, (r[:, 1:] - d0 * lam[:, 1:]) / lam[:, :1]), axis=1)


def _nt_scaling(x, z):
    """Nesterov-Todd scaling (Alizadeh & Goldfarb 2003; Vandenberghe 2010,
    sec. 4.2): W = beta (2 v v^T - J) with W z = W^-1 x = lam, so W^2 z = x.
    Returns beta, v, lam and lam.J lam = sqrt(x.J x z.J z) free of cancellation;
    guards: u0 - |u[1:]| >= 1e-16 (u0 + |u[1:]|), gamma^2 = (1 + xn.zn)/2 >= 1."""
    unit, det = [], []
    for u in (x, z):
        r = np.linalg.norm(u[:, 1:], axis=1, keepdims=True)
        hi, lo = u[:, :1] + r, u[:, :1] - r
        lift = np.maximum(1e-16 * hi - lo, 0.0)
        det.append(hi * (lo + lift))
        shrink = 1.0 - 0.5 * lift / np.where(r > 0.0, r, 1.0)
        unit.append(np.concatenate((u[:, :1] + 0.5 * lift, shrink * u[:, 1:]), axis=1)
                    / np.sqrt(det[-1]))
    (xn, zn), (det_x, det_z) = unit, det
    gamma = np.sqrt(np.maximum(0.5 * (1.0 + np.sum(xn * zn, axis=1, keepdims=True)), 1.0))
    v = (xn + _J * zn) / (2.0 * gamma) + _E
    v /= np.sqrt(2.0 * v[:, :1])
    lam_det = np.sqrt(det_x * det_z)
    lam = np.sqrt(lam_det) * np.concatenate((gamma, ((gamma + zn[:, :1]) * xn[:, 1:] + (
        gamma + xn[:, :1]) * zn[:, 1:]) / (xn[:, :1] + zn[:, :1] + 2.0 * gamma)), axis=1)
    return (det_x / det_z) ** 0.25, v, lam, lam_det


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
    that the dual value is recorded right, not below mu_star beyond roundoff.
    Raises CertificateInvalid when any check fails beyond tol, when a value
    it reads is not finite, or when tol is not finite and positive.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise CertificateInvalid(f"tolerance must be finite and positive, got {tol}")
    if sol.status is not SolveStatus.OPTIMAL:
        raise CertificateInvalid(f"solution status is {sol.status.value}, not optimal")
    f = sol.dual_vars
    if f.shape != (problem.n_constraints, 2, 2):
        raise CertificateInvalid("multiplier count does not match constraints")
    _require_finite(dual_vars=f, dual_value=sol.dual_value, mu_star=sol.mu_star,
                    targets=problem.targets)
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
    if dual < sol.mu_star - _ROUNDOFF * max(1.0, abs(dual)):
        raise CertificateInvalid(f"dual value {dual!r} is below mu_star {sol.mu_star!r}")
    return CertificateReport(dual, sol.gap, m_eig, c_eig)


def primal_certificate(sol: SdpSolution, problem: SdpProblem) -> float:
    """Verify the primal point independently of the solve path.

    Checks in closed form that every sigma_tilde block is Hermitian and PSD,
    that every slack sigma_{a|x} - sum_lam D_lam(a|x) sigma_tilde_lam is PSD
    (up to roundoff, 1e-12), and that mu_star is their total trace. Returns
    mu_star, a lower bound on the optimum: with `dual_certificate`,
    [1 - dual_value, 1 - mu_star] brackets the steerable weight. Raises
    CertificateInvalid when any check fails or a value it reads is not finite.
    """
    sig, tol = sol.sigma_tilde, _ROUNDOFF
    if sig.shape != (problem.n_lambda, 2, 2):
        raise CertificateInvalid("sigma_tilde count does not match strategies")
    _require_finite(sigma_tilde=sig, mu_star=sol.mu_star, targets=problem.targets)
    if float(anti_herm_norm(sig).max()) > tol:
        raise CertificateInvalid("sigma_tilde is not Hermitian")
    b_eig = float(min_eig(sig).min())
    slack = problem.targets - np.tensordot(problem.d_matrix, sig, axes=(1, 0))
    s_eig = float(min_eig(slack).min())
    value = float(np.einsum("nii->", sig).real)
    if b_eig < -tol:
        raise CertificateInvalid(f"sigma_tilde min eigenvalue {b_eig:.3e} < -{tol:.1e}")
    if s_eig < -tol:
        raise CertificateInvalid(f"slack min eigenvalue {s_eig:.3e} < -{tol:.1e}")
    if abs(value - sol.mu_star) > _ROUNDOFF * max(1.0, abs(value)):
        raise CertificateInvalid("recorded mu_star is not the trace of sigma_tilde")
    return value


def _require_finite(**values):
    """Raise CertificateInvalid naming every value with a non-finite entry:
    NaN fails every comparison, so it would pass each check silently."""
    bad = [name for name, v in values.items() if not np.all(np.isfinite(v))]
    if bad:
        raise CertificateInvalid(f"non-finite {', '.join(bad)}")

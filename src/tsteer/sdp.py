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

The program's one input is the (2 n, 2, 2) stack of the targets sigma_{a|x}
in constraint order, (x0,+1), (x0,-1), (x1,+1), ...: `solve`,
`primal_certificate` and `dual_certificate` each take that array and read
D = `strategy_table(n)` from its length.

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
   as its Schur complement squares the condition; a singular one ends the run,
   as does the 300th Newton step.
4. A certified map back: sigma_tilde is shrunk until it and every slack
   are exactly PSD, and the multipliers are lifted along the kernel of
   each rank-deficient member, F_m += K (I - P_m), with P_m taken from
   sigma_m so the lift costs nothing when sigma_m is exactly rank one,
   then shifted to be exactly cone-feasible. The map back only lowers the
   primal value below -c.x and, up to roundoff, only raises the dual one
   above -b.y. So `_Reduced.certify` maps an iterate back only where the
   reduced gap c.x - b.y is at most tol, and its dual side only where
   -b.y - primal is at most 2 tol; every exit maps back the iterate it
   stops at. The run stops once dual - primal is in [-1e-12 max(1, |dual|),
   tol]. 1e-12 max(1, M) is the package's one roundoff rule, M the
   largest entry of what is checked against it: the targets, a value, or a
   block of F or its coverage, whose shortfall enters the dual bound. The
   targets are checked at it on entry too, so every accepted block is PSD
   up to the roundoff that `primal_certificate` allows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateInvalid, InvalidInput, _band, real
from .hermat import IDENTITY, anti_herm_norm, det2, herm, min_eig, psd_project
from .steering import Assemblage, check_blocks, strategy_table

DEFAULT_TOL = 1e-8
_MAX_ITER = 300    # Newton steps after which a solve ends MAX_ITER
_RANK_EPS = 1e-14  # a 2x2 PSD block with det <= _RANK_EPS * tr^2 has rank one
_STEP = 0.95       # fraction of the step to the cone boundary taken per iteration
_SQRT_HALF = math.sqrt(0.5)
_J = np.array([1.0, -1.0, -1.0, -1.0])  # the Lorentz form u.J u = u0^2 - |u[1:]|^2
_E = np.array([1.0, 0.0, 0.0, 0.0])     # the Jordan identity, the coordinates of I / sqrt 2


def _svec(h):
    """Orthonormal coordinates of h = (u0 I + u1 sz + u2 sx - u3 sy) / sqrt 2: <h, g> = u.v,
    det h = u.J u / 2, h >= 0 iff u0 >= |u[1:]|, and (hg + gh) / 2 maps to (u o v) / sqrt 2."""
    a, d, b = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 0, 1]
    u = np.empty(a.shape + (4,))
    u[..., 0], u[..., 1], u[..., 2], u[..., 3] = a + d, a - d, 2.0 * b.real, 2.0 * b.imag
    u *= _SQRT_HALF
    return u


def _unsvec(u):
    h = np.empty(u.shape[:-1] + (2, 2), dtype=complex)
    h[..., 0, 0] = _SQRT_HALF * (u[..., 0] + u[..., 1])
    h[..., 1, 1] = _SQRT_HALF * (u[..., 0] - u[..., 1])
    h[..., 0, 1] = _SQRT_HALF * (u[..., 2] + 1j * u[..., 3])
    h[..., 1, 0] = h[..., 0, 1].conj()
    return h


_HALF_TRACE = 0.5 * _svec(IDENTITY)  # tr(X) / 2 = _HALF_TRACE . svec(X)
_COLD_START = np.stack((_svec(0.5 * IDENTITY), _svec(IDENTITY)))[:, None]  # x = I / 2, z = I


def _trace(h):
    return h[..., 0, 0].real + h[..., 1, 1].real


def _cross(g, q):
    """The k-linear term of det(g + k q) = det g + k cross + k^2 det q."""
    return (g[..., 0, 0].real * q[..., 1, 1].real + g[..., 1, 1].real * q[..., 0, 0].real
            - 2.0 * (g[..., 0, 1] * q[..., 1, 0]).real)


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"


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
    return -_band(dual) <= dual - primal <= tol


def _strategies(targets) -> np.ndarray:
    """strategy_table(n) of a (2 n, 2, 2) stack of targets; InvalidInput for any other shape."""
    if (shape := np.shape(targets)) not in [(2 * n, 2, 2) for n in range(1, 7)]:
        raise InvalidInput(f"need 2 n 2x2 targets, 1 <= n <= 6, got shape {shape}")
    return strategy_table(len(targets) // 2)


def build_sw_sdp(asm: Assemblage, table: np.ndarray) -> np.ndarray:
    """The SDP's targets for a validated assemblage and its strategy_table(n_meas):
    `asm.stacked()`, the (2 n, 2, 2) stack in constraint order.

    The stack is the whole input of `solve`, and `asm.stacked()` is the public
    way to get it; this step is not exported and stays a named function only
    because `perfbench` times it as the SDP build, sdp.build_s. Raises
    InvalidInput unless table has shape (2 n, 2^n).
    """
    if np.shape(table) != (2 * asm.n_meas, 2 ** asm.n_meas):
        raise InvalidInput(f"table shape {np.shape(table)} does not fit {asm.n_meas} settings")
    return asm.stacked()


def solve(targets: np.ndarray, tol: float = DEFAULT_TOL) -> SdpSolution:
    """Solve the steerable-weight SDP of a (2 n, 2, 2) stack of targets
    sigma_{a|x}, in constraint order, to a certified duality gap.

    The strategy table is `strategy_table(n)`, and the targets are read as
    complex. Whitens, face-reduces and runs the interior-point method once,
    cold (module docstring). OPTIMAL means the signed gap dual_value -
    mu_star of the mapped-back primal and dual points is at most tol, and
    below 0 by at most 1e-12 max(1, |dual_value|). MAX_ITER means 300
    Newton steps, or a breakdown, came first; such an exit certifies only
    mu_star <= mu*, and its dual_value can lie far below mu_star. An
    OPTIMAL run on the paper's traces takes 8 to 20 steps, a constant map none.
    Raises InvalidInput unless targets has shape (2 n, 2, 2) with 1 <= n <=
    6 and tol is a finite positive real, and its subclass ValidationError
    for a target block that fails `check_blocks`.
    """
    tol = real("tol", tol, above=True)
    d_mat = _strategies(targets)
    targets = np.asarray(targets, dtype=complex)
    check_blocks(targets, [f"target block {i}" for i in range(len(targets))])
    red = herm(targets.sum(axis=0) / (len(targets) // 2))
    if det2(red) <= _RANK_EPS * _trace(red) ** 2:
        return _constant_map(targets, d_mat, red, tol)
    return _interior_point(_Reduced(targets, d_mat, red), tol)


def _constant_map(targets, d_mat, red, tol):
    """Closed-form optimum when every member is a multiple of one pure state.

    P = R / tr R is its range, c_m = <sigma_m, P>, r_x = c_{+|x} + c_{-|x},
    and both sigma_tilde_lam = r_min prod_x (c_{lam(x)|x} / r_x) P and F_m =
    alpha_m P + (I - P) / n_meas >= 0, with alpha = 1 on a setting attaining
    r_min and 0 elsewhere, reach r_min (1 when every setting has unit
    trace, so TSW = 0): each strategy takes one outcome of that
    setting, so its coverage is exactly P + (I - P) = I. An all-zero stack
    has R = 0 and takes P = 0: mu* = 0, with F_m = I / n_meas.
    """
    proj = red / (_trace(red) or 1.0)
    c = np.maximum(np.einsum("mij,ij->m", targets.conj(), proj).real, 0.0)
    r = c[0::2] + c[1::2]
    best = int(np.argmin(r))
    share = c / np.maximum(np.repeat(r, 2), 1e-300)
    weight = r[best] * np.prod(np.where(d_mat > 0, share[:, None], 1.0), axis=0)
    sig = weight[:, None, None] * proj
    alpha = (np.arange(len(targets)) // 2 == best).astype(float)
    f = alpha[:, None, None] * proj + (IDENTITY - proj) / (len(targets) // 2)
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

    def __init__(self, targets, d_mat, red):
        self.d_mat, self.n_meas = d_mat, len(targets) // 2
        # R^{-1/2}, R^{1/2} as in step 1 (s > 0); adj R, not (tr R + s) I - R, does not cancel
        s = math.sqrt(det2(red))
        t = math.sqrt(_trace(red) + 2.0 * s)
        adj = np.array([[red[1, 1], -red[0, 1]], [-red[1, 0], red[0, 0]]])
        self.smat, self.sinv = (adj + s * IDENTITY) / (s * t), (red + s * IDENTITY) / t
        b = herm(self.smat @ targets @ self.smat)
        self.tr_b = tr_b = _trace(b)
        zero = tr_b <= _RANK_EPS * self.n_meas
        self.rank1 = rank1 = ~zero & (det2(b) <= _RANK_EPS * tr_b ** 2)
        self.dense = dense = ~(zero | rank1)
        proj = b / np.where(zero, 1.0, tr_b)[:, None, None]

        # a strategy is dropped if it touches a zero member, or a rank-one
        # member whose range differs from that of the first one it touches,
        # its home; touches[m, j] says whether block j enters constraint m
        touch = d_mat > 0
        low = touch & rank1[:, None]
        first = low.argmax(axis=0)
        dropped = (touch & zero[:, None]).any(axis=0)
        if np.count_nonzero(rank1) > 1:
            clash = det2(proj[:, None] + proj) > 4.0 * _RANK_EPS
            np.fill_diagonal(clash, False)
            dropped |= (low & clash[first].T).any(axis=0)
        keep = np.flatnonzero(~dropped)
        live = np.flatnonzero(~zero)
        home = np.concatenate((np.where(low[:, keep].any(axis=0), first[keep], -1),
                               np.where(rank1[live], live, -1)))
        touches = np.concatenate((touch[:, keep], np.eye(len(d_mat), dtype=bool)[:, live]), axis=1)
        n_keep, n_blocks = keep.size, home.size

        width = np.where(rank1, 1, 4) * ~zero  # constraint rows of each member
        n_rows = int(width.sum())
        self.dense_rows = np.flatnonzero(np.repeat(dense, width))
        self.rank1_rows = np.flatnonzero(np.repeat(rank1, width))
        face = home >= 0
        ranges = _svec(proj[home[face]])  # svec P_h of every face block
        col = np.empty((n_blocks, 4, 4))
        col[...] = np.eye(4)
        col[face] = ranges[:, :, None] * _HALF_TRACE
        member, block = np.nonzero(touches[dense])
        rows = np.zeros((np.count_nonzero(dense), 4, n_blocks, 4))
        rows[member, :, block] = col[block]
        self.amat = np.zeros((n_rows, n_blocks, 4))
        self.amat[self.dense_rows] = rows.reshape(-1, n_blocks, 4)
        self.amat[self.rank1_rows] = touches[rank1][:, :, None] * _HALF_TRACE
        self.b_vec = np.empty(n_rows)
        self.b_vec[self.dense_rows] = _svec(b[dense]).reshape(-1)
        self.b_vec[self.rank1_rows] = tr_b[rank1]
        r_vec = _svec(red)
        self.c_vec = np.zeros((n_blocks, 4))
        plain, on_face = np.flatnonzero(~face[:n_keep]), np.flatnonzero(face[:n_keep])
        self.c_vec[plain] = -r_vec
        self.c_vec[on_face] = -(r_vec @ ranges[:on_face.size, :, None]) * _HALF_TRACE
        # lift directions adj(sigma_m) / tr sigma_m = I - P_m, from sigma_m
        # itself: <sigma_m, I - P_m> = 2 det sigma_m / tr sigma_m is exactly 0
        # when sigma_m is; I for a zero member
        tr_t = _trace(targets[rank1])[:, None, None]
        self.lift = np.zeros_like(targets)
        self.lift[rank1] = (tr_t * IDENTITY - targets[rank1]) / tr_t
        self.lift[zero] = IDENTITY
        # per-problem constants of the map back
        self.n_keep, self.plain, self.on_face = n_keep, plain, on_face
        self.plain_lam, self.face_lam = keep[plain], keep[on_face]
        self.tr_b_home, self.t_home = tr_b[home[on_face]], targets[home[on_face]]
        self.d_dense, self.t_dense = d_mat[dense], targets[dense]
        self.t_rank1, self.tr_b_rank1 = targets[rank1], tr_b[rank1]
        self.tr_t_sq = tr_t[:, 0, 0] ** 2
        self.lift_cover, self.t_conj = _cover(d_mat.T, self.lift), targets.conj()

    def primal(self, x):
        """Exactly feasible sigma_tilde in original coordinates, and its value,
        from the blocks x in Lorentz coordinates.

        A face block maps to xi sigma_h / tr b_h, exactly proportional to
        its member, and sigma_tilde shrinks by the largest theta that keeps
        every slack PSD: a rank-one slack iff its face coefficients fit in
        tr b_m, a dense one, E + (1 - theta) U, once 1 - theta lifts E along U.
        """
        h = _unsvec(x[:self.n_keep])
        xi = np.zeros(self.d_mat.shape[1])
        sig = np.zeros(xi.shape + (2, 2), dtype=complex)
        sig[self.plain_lam] = psd_project(herm(self.sinv @ h[self.plain] @ self.sinv))
        xi[self.face_lam] = share = np.maximum(0.5 * _trace(h[self.on_face]), 0.0)
        sig[self.face_lam] = (share / self.tr_b_home)[:, None, None] * self.t_home
        load = self.d_mat @ xi
        theta = np.where(self.rank1 & (load > self.tr_b), self.tr_b / np.maximum(load, 1e-300), 1.0)
        used = _cover(self.d_dense, sig)
        theta[self.dense] = 1.0 - _lift_size(self.t_dense - used, used)
        sig = min(max(float(theta.min()), 0.0), 1.0) * sig
        return sig, float(np.einsum("nii->", sig).real)

    def certify(self, x, y, tol):
        """The map back (sigma_tilde, primal, F, dual) of the iterate (x, y), or
        None where it cannot certify.

        The map back only lowers the primal value below -c.x, and it only
        raises the dual one above -b.y up to roundoff. So this is None where
        the reduced gap c.x - b.y exceeds tol; otherwise it maps x back, and y
        only where -b.y - primal <= 2 tol. That margin of tol is for the
        roundoff that puts dual(y) below -b.y: at most 6.7e-16 on the paper's
        traces, but up to 1.9e-8 on rank-deficient members in a rotated
        basis, where the premise fails.
        """
        by = float(self.b_vec @ y)
        if float(np.vdot(self.c_vec, x)) - by > tol:
            return None
        sig, primal = self.primal(x)
        if -by - primal > 2.0 * tol:
            return None
        return (sig, primal, *self.dual(y))

    def dual(self, y):
        """Exactly feasible multipliers F in original coordinates, and their value.

        Reduced multipliers map back by congruence (a rank-one member's
        scalar to a multiple of sigma_m); each rank-deficient member is
        lifted along its kernel by twice the least K that covers every
        strategy touching it, and a uniform shift repairs what is left:
        F >= 0 first, then, since every strategy activates exactly n_meas
        constraints, coverage sum_m D F_m >= I.
        """
        d_mat = self.d_mat
        f = np.zeros_like(self.lift)
        f[self.dense] = -(self.smat @ _unsvec(y[self.dense_rows].reshape(-1, 4)) @ self.smat)
        f[self.rank1] = ((-y[self.rank1_rows] * self.tr_b_rank1 / self.tr_t_sq)[:, None, None]
                         * self.t_rank1)
        k_lam = 2.0 * _lift_size(_cover(d_mat.T, f) - IDENTITY, self.lift_cover)
        f = f + (d_mat * k_lam).max(axis=1)[:, None, None] * self.lift
        f = f + max(0.0, -float(min_eig(f).min())) * IDENTITY
        zeta = float(min_eig(_cover(d_mat.T, f) - IDENTITY).min())
        f = f + max(0.0, -zeta / self.n_meas) * IDENTITY
        return f, float(np.einsum("mij,mij->", self.t_conj, f).real)


def _cover(d, blocks):
    """sum_k d[:, k] blocks[k] for a stack of 2x2 blocks: `np.tensordot(d, blocks,
    axes=(1, 0))` as the one dot it makes."""
    return np.dot(d, blocks.reshape(len(blocks), 4)).reshape(len(d), 2, 2)


def _lift_size(g, q):
    """Per block, the least k >= 0 with g + k q PSD (q PSD), or 0 where no
    k can help: the largest root of det(g + k q) = a k^2 + b k + c, or
    -tr g / tr q if larger. With b < 0 only a q of full rank can help.
    """
    a, b, c = det2(q), _cross(g, q), det2(g)
    sq = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
    tr_q = _trace(q)
    full = a > _RANK_EPS * tr_q ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        # the larger root, each branch in its cancellation-free form
        root = np.where(b < 0.0, np.where(full, (-b + sq) / (2.0 * a), 0.0),
                        -2.0 * c / (b + sq))
        by_trace = np.where(tr_q > 0.0, -_trace(g) / tr_q, 0.0)
    return np.maximum(np.maximum(np.where(np.isfinite(root), root, 0.0), by_trace), 0.0)


def _interior_point(reduced: _Reduced, tol):
    """Primal-dual interior-point run on (n_blocks, 4) Lorentz-cone vectors.

    From a cold start, for at most _MAX_ITER steps; 2x2 blocks exist only in
    the map back, which `_Reduced.certify` makes of each iterate it can
    certify and of the iterate every exit stops at. xz holds x and z as one
    pair, so the scaling and the step lengths run once over both cones."""
    amat, b_vec, c_vec = reduced.amat, reduced.b_vec, reduced.c_vec
    n_rows, n_blocks = amat.shape[:2]
    n_x = 4 * n_blocks
    flat = amat.reshape(n_rows, n_x)
    kkt = np.diag(np.concatenate((-np.ones(n_x), np.zeros(n_rows))))
    rhs = np.empty(n_x + n_rows)
    # the rows of A, then the dual residual rd: W scales both in one call
    a_rd = np.concatenate((amat, np.empty((1, n_blocks, 4))))
    rd = a_rd[n_rows]

    def direction():
        # A W dxs = rp, A^T dy + dz = rd, dxs + W dz = rc, with dxs = W^-1 dx;
        # the pair (dxs, dz) and dy
        sol = np.linalg.solve(kkt, rhs)
        d = np.empty((2, n_blocks, 4))
        d[0] = sol[:n_x].reshape(n_blocks, 4)
        np.subtract(rd, (sol[n_x:] @ flat).reshape(n_blocks, 4), out=d[1])
        return d, sol[n_x:]

    xz = np.tile(_COLD_START, (1, n_blocks, 1))
    y = np.zeros(n_rows)
    b_norm = 1.0 + float(np.abs(b_vec).max())
    status = SolveStatus.MAX_ITER
    for it in range(_MAX_ITER + 1):
        x, z = xz
        rp = b_vec - flat @ x.reshape(-1)
        np.subtract(c_vec - (y @ flat).reshape(n_blocks, 4), z, out=rd)
        pinf = float(np.abs(rp).max()) / b_norm
        # degenerate constraints drive an unbounded dual ray, so judge the
        # dual residual relative to the multiplier size
        dinf = float(np.abs(rd).max()) / (1.0 + float(np.abs(y).max()))
        mapped = reduced.certify(x, y, tol)
        if mapped is not None and _certifies(mapped[1], mapped[3], tol):
            status = SolveStatus.OPTIMAL
            break
        mu = float(np.vdot(x, z)) / (2.0 * n_blocks)
        if it == _MAX_ITER or not math.isfinite(mu) or mu <= 0:
            break
        try:
            beta, v, lam, lam_det = _nt_scaling(xz)

            two_v = 2.0 * v  # (2 (v.u)) v = (v.u) (2 v) exactly

            def scale(u, out=None):  # W u = beta (2 v (v.u) - J u) per block, W symmetric
                return np.multiply(beta, np.add.reduce(v * u, axis=-1, keepdims=True) * two_v
                                   - _J * u, out=out)

            w_a_rd = scale(a_rd)
            aw, w_rd = w_a_rd[:n_rows].reshape(n_rows, n_x), w_a_rd[n_rows].reshape(-1)
            kkt[:n_x, n_x:], kkt[n_x:, :n_x] = aw.T, aw
            rhs[n_x:] = rp
            np.add(w_rd, lam.reshape(-1), out=rhs[:n_x])  # affine: rc = -lam
            d, _ = direction()
            d_aff = scale(d)  # (dx, W dz)
            jordan = _jordan(d[0], d_aff[1])
            d_aff[1] = d[1]  # (dx, dz)
            c = _jdot(xz, xz)
            aff = xz + _max_steps(xz, d_aff, c)[:, None, None] * d_aff
            mu_aff = float(np.vdot(aff[0], aff[1])) / (2.0 * n_blocks)
            sigma = min(0.8, max((max(mu_aff, 0.0) / mu) ** 3, 1e-10))
            if max(pinf, dinf) > 10.0 * mu:
                # infeasibility dominates; keep enough centering to absorb it
                sigma = max(sigma, 0.2)
            # Mehrotra: lam o (dxs + dzs) = 2 sigma mu e - lam o lam - dxs_aff o dzs_aff
            rc = _arw_solve(lam, lam_det, 2.0 * sigma * mu * _E - jordan) - lam
            np.subtract(w_rd, rc.reshape(-1), out=rhs[:n_x])
            d, dy = direction()
            scale(d[0], out=d[0])
        except np.linalg.LinAlgError:
            break
        step = np.fmin(1.0, _STEP * _max_steps(xz, d, c))
        xz, y = xz + step[:, None, None] * d, y + step[1] * dy
    sig, primal, f, dual = mapped or (*reduced.primal(xz[0]), *reduced.dual(y))
    return SdpSolution(primal, sig, f, dual, it, status, pinf, dinf)


def _max_steps(v, dv, c):
    """Largest alphas in [0, 1] keeping the pair v = (x, z) plus (alpha_p, alpha_d) dv in
    the cone, given c = v.J v: u0 and u.J u stay >= 0, one linear and one quadratic
    condition per block, with no inverse. Each candidate is computed only where its
    formula applies, into a table whose other entries read 1."""
    a, b = _jdot(dv, dv), 2.0 * _jdot(v, dv)
    disc = b * b - 4.0 * a * c
    abs_a = np.abs(a)
    quad = (abs_a > 1e-300) & (disc >= 0)
    sq = np.sqrt(np.maximum(disc, 0.0))
    nb, den = -b, 2.0 * a
    cand = np.ones((4,) + c.shape)
    np.divide(nb - sq, den, out=cand[0], where=quad)
    np.divide(nb + sq, den, out=cand[1], where=quad)
    roots = cand[:2]
    roots[~(roots > 1e-14)] = 1.0
    linear = (abs_a <= 1e-300) & (b < 0)
    if linear.any():
        np.divide(c, np.maximum(nb, 1e-300), out=cand[2], where=linear)
    np.divide(v[..., 0], np.maximum(-dv[..., 0], 1e-300), out=cand[3], where=dv[..., 0] < 0)
    return np.maximum(0.0, cand.min(axis=(0, 2)))


def _jdot(u, v):
    return u[..., 0] * v[..., 0] - np.einsum("...i,...i->...", u[..., 1:], v[..., 1:])


def _jordan(u, v):
    """Jordan product u o v = (u.v, u0 v[1:] + v0 u[1:]) per block."""
    return np.concatenate((np.einsum("ni,ni->n", u, v)[:, None],
                           u[:, :1] * v[:, 1:] + v[:, :1] * u[:, 1:]), axis=1)


def _arw_solve(lam, det, r):
    """d with lam o d = r per block, for lam inside the cone with lam.J lam = det."""
    d0 = (lam[:, :1] * r[:, :1] - np.add.reduce(lam[:, 1:] * r[:, 1:], axis=1, keepdims=True)) / det
    return np.concatenate((d0, (r[:, 1:] - d0 * lam[:, 1:]) / lam[:, :1]), axis=1)


def _nt_scaling(xz):
    """Nesterov-Todd scaling (Alizadeh & Goldfarb 2003; Vandenberghe 2010,
    sec. 4.2) of the pair xz = (x, z): W = beta (2 v v^T - J) with W z = W^-1 x =
    lam, so W^2 z = x. Returns beta, v, lam and lam.J lam = sqrt(x.J x z.J z) free
    of cancellation; guards: u0 - |u[1:]| >= 1e-16 (u0 + |u[1:]|), gamma^2 =
    (1 + xn.zn)/2 >= 1."""
    u0, sp = xz[..., :1], xz[..., 1:]
    r = np.sqrt(np.add.reduce(sp * sp, axis=-1, keepdims=True))
    hi, lo = u0 + r, u0 - r
    lift = np.maximum(1e-16 * hi - lo, 0.0)
    det_x, det_z = det = hi * (lo + lift)
    half = 0.5 * lift
    shrink = 1.0 - half / np.where(r > 0.0, r, 1.0)
    xn, zn = np.concatenate((u0 + half, shrink * sp), axis=-1) / np.sqrt(det)
    gamma = np.sqrt(np.maximum(0.5 * (1.0 + np.add.reduce(xn * zn, axis=1, keepdims=True)), 1.0))
    two_gamma = 2.0 * gamma
    v = (xn + _J * zn) / two_gamma + _E
    v /= np.sqrt(2.0 * v[:, :1])
    lam_det = np.sqrt(det_x * det_z)
    lam = np.sqrt(lam_det) * np.concatenate((gamma, ((gamma + zn[:, :1]) * xn[:, 1:] + (
        gamma + xn[:, :1]) * zn[:, 1:]) / (xn[:, :1] + zn[:, :1] + two_gamma)), axis=1)
    return (det_x / det_z) ** 0.25, v, lam, lam_det


@dataclass
class CertificateReport:
    dual_value: float
    gap: float


def dual_certificate(sol: SdpSolution, targets: np.ndarray) -> CertificateReport:
    """Verify the dual multipliers F of a solve of the (2 n, 2, 2) targets
    independently of the solve path, and bound mu* from above by repairing F:
    checks that F has one finite block per constraint, that the recorded
    dual_value is <sigma, F>, that herm(F) and each strategy's coverage
    sum_{a,x} D_lam(a|x) F+_{a|x} - I pass the one roundoff rule per block,
    and that a finite mu_star is not above the bound <sigma, F+> / (1 - s)
    >= mu*, F+ the PSD part of herm(F), s < 1 its worst coverage shortfall.
    Reports the bound (dual_value if within roundoff of it) and its gap over
    mu_star. Raises CertificateInvalid when a check fails or the status is
    not OPTIMAL; InvalidInput for targets `solve` rejects by shape.
    """
    d_mat = _strategies(targets)
    if sol.status is not SolveStatus.OPTIMAL:
        raise CertificateInvalid(f"solution status is {sol.status.value}, not optimal")
    f = _finite("dual_vars", sol.dual_vars, len(targets))
    dual = float(np.einsum("mij,mij->", np.conj(targets), f).real)
    if not abs(dual - sol.dual_value) <= _band(dual):  # NaN fails here too
        raise CertificateInvalid(f"recorded dual_value {sol.dual_value!r} is not {dual!r}")
    _require_psd("dual_vars", f := herm(f), _band(f, (1, 2)))
    plus = np.where((min_eig(f) < 0.0)[:, None, None], psd_project(f), f)
    cover = np.tensordot(d_mat.T, plus, axes=(1, 0))
    short = max(0.0, -_require_psd("strategy coverage", cover - IDENTITY, _band(cover, (1, 2))))
    if not short < 1.0:
        raise CertificateInvalid(f"a strategy's coverage falls {short:.3e} below I")
    bound = (dual + float(np.einsum("mij,mij->", np.conj(targets), plus - f).real)) / (1 - short)
    bound = dual if abs(bound - dual) <= _band(bound) else bound
    if not (math.isfinite(sol.mu_star) and bound >= sol.mu_star - _band(bound)):
        raise CertificateInvalid(f"dual bound {bound!r} is below mu_star {sol.mu_star!r}")
    return CertificateReport(bound, bound - sol.mu_star)


def primal_certificate(sol: SdpSolution, targets: np.ndarray) -> float:
    """Verify the primal point of a solve of the (2 n, 2, 2) targets
    independently of the solve path.

    Checks that sigma_tilde has one Hermitian block per strategy, that it
    and every slack sigma_{a|x} - sum_lam D_lam(a|x) sigma_tilde_lam pass
    the one roundoff rule with M the largest target entry, and that mu_star
    is their total trace. Returns mu_star <= mu*. Raises CertificateInvalid
    when a check fails; InvalidInput for targets `solve` rejects by shape.
    """
    d_mat, band = _strategies(targets), _band(targets)
    sig = _finite("sigma_tilde", sol.sigma_tilde, d_mat.shape[1])
    if float(anti_herm_norm(sig).max()) > band:
        raise CertificateInvalid("sigma_tilde is not Hermitian")
    _require_psd("sigma_tilde", sig, band)
    _require_psd("slack", targets - np.tensordot(d_mat, sig, axes=(1, 0)), band)
    value = float(np.einsum("nii->", sig).real)
    if not abs(value - sol.mu_star) <= _band(value):
        raise CertificateInvalid(f"recorded mu_star {sol.mu_star!r} is not {value!r}")
    return value


def _finite(name, blocks, count):
    """count finite 2x2 blocks, as an array; CertificateInvalid naming the stack otherwise."""
    if np.shape(blocks) != (count, 2, 2):
        raise CertificateInvalid(f"{name} has shape {np.shape(blocks)}, not ({count}, 2, 2)")
    blocks = np.asarray(blocks)
    if not np.isfinite(blocks).all():
        raise CertificateInvalid(f"non-finite {name}")
    return blocks


def _require_psd(name, blocks, band):
    """The least eigenvalue, once each block's is >= -band; CertificateInvalid (NaN too) if not."""
    low = min_eig(blocks)
    if not (ok := low >= -(band := np.broadcast_to(band, low.shape))).all():
        raise CertificateInvalid(f"{name} min eigenvalue {low[~ok][0]:.3e} < -{band[~ok][0]:.1e}")
    return float(low.min())

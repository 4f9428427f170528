"""Shared test helpers: random inputs, a fixture family and independent oracles."""

import numpy as np
import pytest

from tsteer.channels import propagate_assemblage, random_kraus_channel
from tsteer.errors import InvalidInput
from tsteer.hermat import IDENTITY, herm, min_eig, psd_project
from tsteer.steering import (
    Assemblage,
    MeasurementSet,
    pauli_measurement_set,
    premeasure,
    strategy_table,
)


def random_density(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_assemblage(rng, labels="XYZ"):
    """A valid assemblage: I/2 premeasured, then a random channel."""
    ms = pauli_measurement_set(labels)
    asm = premeasure(np.eye(2, dtype=complex) / 2, ms)
    ch = random_kraus_channel(int(rng.integers(0, 2 ** 31)), int(rng.integers(1, 5)))
    return propagate_assemblage(ch, 1.0, asm)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def depolarized_assemblage(v: float, ms: MeasurementSet) -> Assemblage:
    """Test fixture: identity-channel assemblage from I/2 mixed with white noise.

    member(x, a) = (1/2) [ v P_{a|x} + (1-v) I/2 ]. At v=1 this is
    premeasure(I/2, ms); at v=0 every member is I/4.
    """
    if not 0.0 <= v <= 1.0:
        raise InvalidInput(f"visibility must lie in [0, 1], got {v}")
    members = {}
    for x, (pp, pm) in zip(ms.labels, ms.projectors):
        members[(x, 1)] = 0.5 * (v * pp + (1 - v) * IDENTITY / 2)
        members[(x, -1)] = 0.5 * (v * pm + (1 - v) * IDENTITY / 2)
    return Assemblage(ms.labels, members, 0.0)


def eig_propagate(lmat, t, vecs):
    """exp(L t) applied through the eigendecomposition of the Liouvillian.

    Cross-check path; the Liouvillians here are diagonalizable.
    """
    w, v = np.linalg.eig(lmat)
    coeff = np.linalg.solve(v, vecs)
    return v @ (np.exp(w * t)[:, None] * coeff)


def primal_ascent_bound(targets: np.ndarray, n_restarts: int = 200,
                        n_steps: int = 30, seed: int = 0) -> float:
    """Independent lower bound on mu* of the (2 n, 2, 2) targets from
    random-restart projected ascent.

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
    d_mat = strategy_table(len(targets) // 2)
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

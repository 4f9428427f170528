import numpy as np
import pytest

from tsteer import channels, hermat
from tsteer.hermat import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    anti_herm_norm,
    det2,
    herm,
    kron,
    min_eig,
    psd_project,
)


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def random_blocks(rng, n):
    """n random 2x2 Hermitian blocks whose entries span several decades."""
    g = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    return herm(g) * 10.0 ** rng.uniform(-6, 3, size=(n, 1, 1))


def test_eig_identity():
    assert min_eig(IDENTITY) == 1.0
    assert min_eig(-IDENTITY) == -1.0


def test_eig_pauli_z():
    assert min_eig(SIGMA_Z) == pytest.approx(-1.0)
    assert min_eig(IDENTITY + SIGMA_Z) == pytest.approx(0.0, abs=1e-15)


def test_eig_pauli_x():
    # X = |+><+| - |-><-|, and likewise for Y: both have spectrum {-1, +1}
    for s in (SIGMA_X, SIGMA_Y):
        assert min_eig(s) == pytest.approx(-1.0)
        assert min_eig(IDENTITY + s) == pytest.approx(0.0, abs=1e-15)
        assert min_eig(2 * IDENTITY - s) == pytest.approx(1.0)


def test_eig_rejects_non_hermitian():
    # the eigenvalue kernels read the upper triangle only, so callers detect
    # non-Hermitian input through the anti-Hermitian norm
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert anti_herm_norm(m) == pytest.approx(np.sqrt(2.0))
    rng = np.random.default_rng(4)
    assert np.all(anti_herm_norm(random_blocks(rng, 50)) == 0.0)


def test_eig_residuals_random():
    # 1000 random blocks in one batch against LAPACK
    rng = np.random.default_rng(11)
    h = random_blocks(rng, 1000)
    w = np.linalg.eigvalsh(h)
    scale = np.abs(w).max(axis=-1)
    assert np.all(np.abs(min_eig(h) - w[:, 0]) <= 1e-12 * scale)
    assert np.all(np.abs(det2(h) - w[:, 0] * w[:, 1]) <= 1e-12 * scale ** 2)


def test_psd_min_eig_cases():
    assert min_eig(IDENTITY / 2) == pytest.approx(0.5)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    assert min_eig(np.outer(plus, plus.conj())) == pytest.approx(0.0, abs=1e-15)
    stack = np.array([SIGMA_Z, IDENTITY / 2, np.diag([3.0, -2.0])])
    assert np.allclose(min_eig(stack), [-1.0, 0.5, -2.0])


def test_psd_project_cases():
    assert np.allclose(psd_project(SIGMA_Z), np.diag([1.0, 0.0]))
    assert np.allclose(psd_project(IDENTITY), IDENTITY)
    assert np.allclose(psd_project(np.diag([3.0, -2.0])), np.diag([3.0, 0.0]))
    assert np.allclose(psd_project(-IDENTITY), 0.0)


def test_psd_project_idempotent():
    rng = np.random.default_rng(5)
    h = random_blocks(rng, 1000)
    w, v = np.linalg.eigh(h)
    clipped = (v * np.maximum(w, 0.0)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    scale = np.abs(w).max(axis=-1)[:, None, None]
    p = psd_project(h)
    assert np.all(np.abs(p - clipped) <= 1e-12 * scale)
    assert np.all(min_eig(p) >= -1e-13 * scale[:, 0, 0])
    assert np.all(np.abs(psd_project(p) - p) <= 1e-12 * scale)


def test_kron_basics():
    assert np.allclose(kron(IDENTITY, IDENTITY), np.eye(4))
    assert np.allclose(kron(SIGMA_Z, IDENTITY), np.diag([1, 1, -1, -1]))
    v00 = np.zeros(4)
    v00[0] = 1.0
    assert np.allclose(kron(SIGMA_X, SIGMA_X) @ v00, [0, 0, 0, 1])


def test_kron_mixed_product():
    rng = np.random.default_rng(3)
    a, b, c, d = (random_hermitian(rng, 2) for _ in range(4))
    left = kron(a, b) @ kron(c, d)
    right = kron(a @ c, b @ d)
    assert np.linalg.norm(left - right) < 1e-12


# The two-qubit partial trace survives as the partner trace of the exchange
# model, vec(M) -> vec(tr_partner M), built on the kron convention above.


def partner_trace(m):
    return (channels._TRACE_PARTNER @ np.asarray(m).reshape(16)).reshape(2, 2)


def test_partial_trace_product_states():
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        got = partner_trace(kron(a, b))
        assert np.linalg.norm(got - np.trace(b) * a) <= 1e-12 * max(1, np.linalg.norm(a))


def test_partial_trace_bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    assert np.allclose(partner_trace(np.outer(phi, phi.conj())), IDENTITY / 2)


def test_partial_trace_excited_ground():
    e = np.outer(hermat.KET_E, hermat.KET_E.conj())
    g = np.outer(hermat.KET_G, hermat.KET_G.conj())
    assert np.allclose(partner_trace(kron(e, g)), e)
    # the embedding attaches an excited partner, which the trace removes again
    assert np.allclose(channels._TRACE_PARTNER @ channels._EMBED, np.eye(4))


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(21)
    for _ in range(100):
        m = random_hermitian(rng, 4)
        assert abs(np.trace(partner_trace(m)) - np.trace(m)) <= 1e-12

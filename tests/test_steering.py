import numpy as np
import pytest

from tsteer.errors import (
    CountMismatch,
    DuplicateLabel,
    EmptySet,
    InvalidState,
    NotPsd,
    OutOfRange,
    SchemaError,
    UnknownLabel,
)
from tsteer.hermat import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z
from tsteer.steering import (
    assemblage_from_json,
    assemblage_to_json,
    depolarized_assemblage,
    lhs_assemblage,
    pauli_measurement_set,
    premeasure,
    strategy_table,
    validate,
)

XYZ = pauli_measurement_set("XYZ")


def random_density(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def bloch_corner_sigmas():
    """Hidden states (1/16)(I + (i sx + j sy + k sz)/sqrt(3)) in table row order."""
    table = strategy_table(3)
    out = []
    for i, j, k in table.rows:
        out.append((IDENTITY + (i * SIGMA_X + j * SIGMA_Y + k * SIGMA_Z) / np.sqrt(3)) / 16)
    return out


# --- measurement sets --------------------------------------------------------


def test_pauli_set_z():
    ms = pauli_measurement_set(["Z"])
    assert ms.labels == ("Z",)
    pp, pm = ms.projectors[0]
    assert np.allclose(pp, np.diag([1.0, 0.0]))
    assert np.allclose(pm, np.diag([0.0, 1.0]))


def test_pauli_set_xyz_projector_structure():
    for (pp, pm), sigma in zip(XYZ.projectors, (SIGMA_X, SIGMA_Y, SIGMA_Z)):
        assert np.allclose(pp + pm, IDENTITY, atol=1e-12)
        assert np.allclose(pp - pm, sigma, atol=1e-12)
        for p in (pp, pm):
            assert np.allclose(p, p.conj().T, atol=1e-12)
            assert np.allclose(p @ p, p, atol=1e-12)
            assert np.linalg.eigvalsh(p)[0] >= -1e-12


def test_pauli_set_two_settings():
    ms = pauli_measurement_set("XZ")
    assert ms.labels == ("X", "Z")
    assert len(ms.projectors) == 2


def test_pauli_set_errors():
    with pytest.raises(EmptySet):
        pauli_measurement_set([])
    with pytest.raises(DuplicateLabel):
        pauli_measurement_set("XX")
    with pytest.raises(UnknownLabel):
        pauli_measurement_set("XQ")


# --- premeasure --------------------------------------------------------------


def test_premeasure_maximally_mixed():
    asm = premeasure(IDENTITY / 2, XYZ)
    assert asm.time_tag == 0.0
    for x, (pp, pm) in zip(XYZ.labels, XYZ.projectors):
        assert np.allclose(asm.member(x, 1), pp / 2, atol=1e-12)
        assert np.allclose(asm.member(x, -1), pm / 2, atol=1e-12)
        assert np.trace(asm.member(x, 1)).real == pytest.approx(0.5)


def test_premeasure_pure_z():
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    asm = premeasure(ket0, pauli_measurement_set("Z"))
    assert np.allclose(asm.member("Z", 1), ket0)
    assert np.allclose(asm.member("Z", -1), np.zeros((2, 2)))


def test_premeasure_pure_z_in_x_basis():
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    asm = premeasure(ket0, pauli_measurement_set("X"))
    for a in (1, -1):
        proj = (IDENTITY + a * SIGMA_X) / 2
        assert np.allclose(asm.member("X", a), proj / 2, atol=1e-12)


def test_premeasure_rejects_bad_states():
    with pytest.raises(InvalidState):
        premeasure(np.diag([2.0, -1.0]), XYZ)
    with pytest.raises(InvalidState):
        premeasure(np.diag([0.7, 0.7]), XYZ)


def test_premeasure_rejects_non_hermitian_state():
    with pytest.raises(InvalidState, match="anti-Hermitian"):
        premeasure(np.array([[0.5, 0.1], [0.0, 0.5]]), XYZ)
    # a relative deviation below 1e-10 is roundoff and passes
    premeasure(np.array([[0.5, 1e-12], [0.0, 0.5]]), XYZ)


def test_premeasure_rejects_non_finite_state():
    for rho in (np.full((2, 2), np.nan), [[0.5, np.inf], [np.inf, 0.5]],
                [[np.inf, 0.0], [0.0, -np.inf]]):
        with pytest.raises(InvalidState, match="non-finite"):
            premeasure(rho, XYZ)


def test_premeasure_validates_random(seed=13):
    # Positivity and total trace hold for any input state; the non-signaling
    # condition is specific to the maximally mixed input (or one setting),
    # because projective dephasing is basis dependent.
    rng = np.random.default_rng(seed)
    for _ in range(50):
        rho = random_density(rng)
        labels = ["X", "Y", "Z"][: rng.integers(1, 4)]
        asm = premeasure(rho, pauli_measurement_set(labels))
        kinds = {v.kind for v in validate(asm, 1e-12)}
        assert kinds <= {"non-signaling"}
        if len(labels) == 1:
            assert kinds == set()
    for labels in ("X", "XZ", "XYZ"):
        asm = premeasure(IDENTITY / 2, pauli_measurement_set(labels))
        assert validate(asm, 1e-12) == []


# --- strategy tables ---------------------------------------------------------


def test_strategy_rows_enumeration():
    table = strategy_table(3)
    assert table.rows.shape == (8, 3)
    assert list(table.rows[0]) == [-1, -1, -1]
    assert list(table.rows[4]) == [1, -1, -1]  # row 5 in 1-based counting
    assert list(table.rows[7]) == [1, 1, 1]
    # last setting varies fastest
    assert list(table.rows[1]) == [-1, -1, 1]


def test_strategy_deterministic_distributions():
    d = strategy_table(3).d_matrix()
    assert list(d[0]) == [0, 0, 0, 0, 1, 1, 1, 1]  # D(+1|X)
    assert list(d[1]) == [1, 1, 1, 1, 0, 0, 0, 0]  # D(-1|X)
    assert list(d[5]) == [1, 0, 1, 0, 1, 0, 1, 0]  # D(-1|Z)
    # normalization sum_a D(a|x) = 1 for every strategy and setting
    for x in range(3):
        assert np.allclose(d[2 * x] + d[2 * x + 1], 1.0)


def test_strategy_single_setting():
    table = strategy_table(1)
    assert list(table.rows[:, 0]) == [-1, 1]


def test_strategy_out_of_range():
    for bad in (0, 7, -1):
        with pytest.raises(OutOfRange):
            strategy_table(bad)


# --- hidden-state assemblages ------------------------------------------------


def test_lhs_uniform_model():
    table = strategy_table(3)
    sigmas = [IDENTITY / 16] * 8
    asm = lhs_assemblage(table, sigmas)
    for x in asm.labels:
        for a in (1, -1):
            assert np.allclose(asm.member(x, a), IDENTITY / 4, atol=1e-12)
    assert validate(asm, 1e-12) == []


def test_lhs_bloch_corner_member():
    # summing the four strategies with i=+1 cancels the y and z components
    asm = lhs_assemblage(strategy_table(3), bloch_corner_sigmas())
    expect = IDENTITY / 4 + SIGMA_X / (4 * np.sqrt(3))
    assert np.allclose(asm.member("X", 1), expect, atol=1e-12)
    assert validate(asm, 1e-12) == []


def test_lhs_deterministic_concentration():
    table = strategy_table(3)
    sigmas = [np.zeros((2, 2), dtype=complex)] * 7 + [IDENTITY / 2]
    asm = lhs_assemblage(table, sigmas)
    for x in asm.labels:
        assert np.allclose(asm.member(x, 1), IDENTITY / 2)
        assert np.allclose(asm.member(x, -1), np.zeros((2, 2)))


def test_lhs_matches_explicit_index_sets():
    """The six members are the strategy sums with the documented index sets."""
    rng = np.random.default_rng(4)
    table = strategy_table(3)
    sigmas = []
    for _ in range(8):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sigmas.append(g @ g.conj().T / 40)
    asm = lhs_assemblage(table, sigmas)
    index_sets = {
        ("X", 1): [4, 5, 6, 7],
        ("X", -1): [0, 1, 2, 3],
        ("Y", 1): [2, 3, 6, 7],
        ("Y", -1): [0, 1, 4, 5],
        ("Z", 1): [1, 3, 5, 7],
        ("Z", -1): [0, 2, 4, 6],
    }
    for key, idx in index_sets.items():
        expect = sum(sigmas[i] for i in idx)
        assert np.allclose(asm.member(*key), expect, atol=1e-13)


def test_lhs_validates_random():
    rng = np.random.default_rng(8)
    table = strategy_table(3)
    for _ in range(25):
        raw = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(8)]
        sigmas = [g @ g.conj().T for g in raw]
        total = sum(np.trace(s).real for s in sigmas)
        sigmas = [s / total for s in sigmas]
        asm = lhs_assemblage(table, sigmas)
        assert validate(asm, 1e-12) == []


def test_lhs_errors():
    table = strategy_table(2)
    with pytest.raises(CountMismatch):
        lhs_assemblage(table, [IDENTITY / 8] * 3)
    for last in (np.diag([1.0, -0.5]), np.array([[0.25, 0.1], [0.0, 0.25]]),
                 np.full((2, 2), np.nan)):
        with pytest.raises(NotPsd):
            lhs_assemblage(table, [IDENTITY / 8] * 3 + [last])


# --- depolarized fixture ------------------------------------------------------


def test_depolarized_limits():
    full = depolarized_assemblage(1.0, XYZ)
    ref = premeasure(IDENTITY / 2, XYZ)
    for key, m in full.members.items():
        assert np.allclose(m, ref.members[key], atol=1e-12)
    white = depolarized_assemblage(0.0, XYZ)
    for m in white.members.values():
        assert np.allclose(m, IDENTITY / 4, atol=1e-12)


def test_depolarized_threshold_equals_bloch_corner_lhs():
    v = 1 / np.sqrt(3)
    depol = depolarized_assemblage(v, XYZ)
    lhs = lhs_assemblage(strategy_table(3), bloch_corner_sigmas())
    for key, m in depol.members.items():
        assert np.linalg.norm(m - lhs.members[key]) <= 1e-12


def test_depolarized_out_of_range():
    for bad in (-0.1, 1.1):
        with pytest.raises(OutOfRange):
            depolarized_assemblage(bad, XYZ)


# --- validation ---------------------------------------------------------------


def test_validate_clean():
    assert validate(premeasure(IDENTITY / 2, XYZ), 1e-12) == []


def test_validate_flags_non_psd_member():
    asm = premeasure(IDENTITY / 2, XYZ)
    asm.members[("Y", 1)] = SIGMA_Z.copy()
    kinds = {v.kind for v in validate(asm, 1e-9)}
    assert "not-psd" in kinds


def test_validate_flags_signaling_and_trace():
    asm = premeasure(IDENTITY / 2, XYZ)
    asm.members[("X", 1)] = 2 * asm.members[("X", 1)]
    kinds = {v.kind for v in validate(asm, 1e-9)}
    assert "non-signaling" in kinds
    assert "total-trace" in kinds


def test_validate_flags_non_finite_members_only():
    asm = premeasure(IDENTITY / 2, XYZ)
    asm.members[("Y", -1)] = np.full((2, 2), np.nan, dtype=complex)
    asm.members[("Z", 1)] = np.array([[0.5, np.inf], [np.inf, 0.5]], dtype=complex)
    found = validate(asm, 1e-9)
    assert [(v.kind, v.where) for v in found] == [
        ("non-finite", "(Y,-1)"), ("non-finite", "(Z,+1)")]
    assert all(v.magnitude == np.inf for v in found)


def test_validate_reports_members_in_constraint_order():
    asm = premeasure(IDENTITY / 2, XYZ)
    asm.members[("X", -1)] = SIGMA_Z.copy()
    asm.members[("Y", 1)] = np.array([[0.25, 0.5], [0.0, 0.25]], dtype=complex)
    found = validate(asm, 1e-9)
    assert [(v.kind, v.where) for v in found[:2]] == [
        ("not-psd", "(X,-1)"), ("not-hermitian", "(Y,+1)")]
    assert found[0].magnitude == pytest.approx(1.0)
    assert found[1].magnitude == pytest.approx(0.5 * np.sqrt(2))


# --- JSON round trip -----------------------------------------------------------


def test_json_round_trip():
    rng = np.random.default_rng(1)
    asm = premeasure(random_density(rng), XYZ)
    obj = assemblage_to_json(asm)
    back = assemblage_from_json(obj)
    assert back.labels == asm.labels
    for key, m in asm.members.items():
        assert np.allclose(back.members[key], m, atol=1e-15)


def test_json_schema_errors():
    with pytest.raises(SchemaError):
        assemblage_from_json([1, 2, 3])
    with pytest.raises(SchemaError):
        assemblage_from_json({"n_meas": 2, "labels": ["X"], "members": []})
    good = assemblage_to_json(premeasure(IDENTITY / 2, XYZ))
    good["members"][0]["matrix"] = [[0, 0], [0, 0]]
    with pytest.raises(SchemaError):
        assemblage_from_json(good)

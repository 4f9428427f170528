import numpy as np
import pytest

from conftest import depolarized_assemblage
from tsteer import measures
from tsteer.channels import KrausChannel, RabiDecay
from tsteer.errors import InvalidInput, ValidationError
from tsteer.hermat import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z
from tsteer.measures import propagate_assemblage, tsw, tsw_trace
from tsteer.steering import (
    OUTCOMES,
    Assemblage,
    MeasurementSet,
    block_violations,
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


def assert_exact(asm, signaling=False):
    """`validate` accepts asm, and at 1e-12 every member passes `block_violations` and every
    setting's outcome sum has trace 1; unless signaling is set, those sums are all equal."""
    validate(asm)
    stack = asm.stacked()
    names = [f"({x},{a:+d})" for x in asm.labels for a in OUTCOMES]
    assert block_violations(stack, names) == []
    sums = stack[0::2] + stack[1::2]
    assert np.abs(np.trace(sums, axis1=1, axis2=2).real - 1.0).max() <= 1e-12
    if not signaling:
        assert np.linalg.norm(sums - sums[0], axis=(1, 2)).max() <= 1e-12


def bloch_corner_sigmas():
    """Hidden states (1/16)(I + (i sx + j sy + k sz)/sqrt(3)) in strategy order."""
    rows = 2 * strategy_table(3)[0::2].T - 1  # outcome of each setting, per strategy
    out = []
    for i, j, k in rows:
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
    with pytest.raises(InvalidInput, match="need at least one setting"):
        pauli_measurement_set([])
    with pytest.raises(InvalidInput, match="repeated label"):
        pauli_measurement_set("XX")
    with pytest.raises(InvalidInput, match="unsupported label 'Q'"):
        pauli_measurement_set("XQ")


def test_no_settings_is_invalid_input():
    # an empty set used to die in numpy: IndexError in MeasurementSet, and an
    # AxisError when the empty assemblage reached validate or tsw
    with pytest.raises(InvalidInput, match="^need at least one setting$"):
        MeasurementSet((), ())
    with pytest.raises(InvalidInput, match="^need at least one setting$"):
        Assemblage((), {})


def test_measurement_set_needs_distinct_labels_one_pair_each():
    # ("X", "X") with the X and Z pairs used to keep 2 of 4 members and read
    # TSW ~ 0; ("X", "Z") with one pair died with a raw KeyError in tsw
    x_pair, z_pair = pauli_measurement_set("XZ").projectors
    with pytest.raises(InvalidInput, match="repeated label"):
        MeasurementSet(("X", "X"), (x_pair, z_pair))
    for labels, pairs in ((("X", "Z"), (x_pair,)), (("X",), (x_pair, z_pair))):
        with pytest.raises(InvalidInput, match="projector pairs for"):
            MeasurementSet(labels, pairs)
    ms = MeasurementSet(("X", "Z"), (x_pair, z_pair))
    assert tsw(premeasure(IDENTITY / 2, ms)).value == pytest.approx(1.0, abs=1e-7)


def test_measurement_set_rejects_pairs_that_are_not_projective():
    # (I, I) was accepted, and premeasure gave its setting total trace 2
    z_pair = XYZ.projectors[2]
    for pair in ((IDENTITY, IDENTITY),  # P+ + P- = 2 I
                 (IDENTITY / 2, IDENTITY / 2),  # sums to I, P+ not idempotent
                 (np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, -1.0], [0.0, 1.0]])),
                 (np.full((2, 2), np.nan), IDENTITY)):
        with pytest.raises(InvalidInput, match="setting 'A'"):
            MeasurementSet(("B", "A"), (z_pair, pair))
    # a rotated pair, exact up to roundoff, is projective
    n = np.array([np.sin(0.7) * np.cos(1.9), np.sin(0.7) * np.sin(1.9), np.cos(0.7)])
    s = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    ms = MeasurementSet(("N",), (((IDENTITY + s) / 2, (IDENTITY - s) / 2),))
    assert_exact(premeasure(IDENTITY / 2, ms))


def test_measurement_set_keeps_copies_of_its_labels_and_projectors():
    # the caller's arrays were the projectors, so P[0, 0] = 3 after the checks
    # made premeasure(I/2, ms) give (Z,+1) trace 4.5
    labels = ["Z"]
    p, q = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    ms = MeasurementSet(labels, ((p, q),))
    p[0, 0] = 3.0
    labels.append("X")
    asm = premeasure(IDENTITY / 2, ms)
    assert ms.labels == ("Z",)
    assert np.array_equal(asm.member("Z", 1), np.diag([0.5, 0.0]))
    with pytest.raises(ValueError, match="read-only"):
        ms.projectors[0][0][0, 0] = 3.0


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
    with pytest.raises(ValidationError, match="not-psd at initial state"):
        premeasure(np.diag([2.0, -1.0]), XYZ)
    with pytest.raises(InvalidInput, match="initial state trace"):
        premeasure(np.diag([0.7, 0.7]), XYZ)


def test_premeasure_rejects_non_hermitian_state():
    with pytest.raises(ValidationError, match="not-hermitian at initial state"):
        premeasure(np.array([[0.5, 0.1], [0.0, 0.5]]), XYZ)
    # an offset of 1e-12 is ||h - h^dag||_F = 1.41e-12, past the roundoff rule 1e-12
    with pytest.raises(ValidationError, match="not-hermitian at initial state: 1.414e-12"):
        premeasure(np.array([[0.5, 1e-12], [0.0, 0.5]]), XYZ)
    # an offset of 0.7e-12, ||h - h^dag||_F = 0.99e-12, is roundoff and passes
    premeasure(np.array([[0.5, 0.7e-12], [0.0, 0.5]]), XYZ)


# Each input check, fed data whose defect is d: the data's largest entry is at most about 1,
# so the roundoff rule 1e-12 max(1, M) is 1e-12 (to within d) for each of them.
ROUNDOFF_CASES = {
    "measurement-set-psd": (  # P+ has eigenvalue -d; P+^2 - P+ has norm d (1 + d)
        lambda d: MeasurementSet(("A",), ((np.diag([1.0, -d]), np.diag([0.0, 1.0 + d])),)),
        ValidationError, r"not-psd at setting 'A' P\+1: 1.010e-12"),
    "premeasure-psd": (lambda d: premeasure(np.diag([1.0 + d, -d]), XYZ),
                       ValidationError, "not-psd at initial state: 1.010e-12"),
    "premeasure-hermitian": (  # ||h - h^dag||_F = d
        lambda d: premeasure(np.array([[0.5, d / np.sqrt(2.0)], [0.0, 0.5]]), XYZ),
        ValidationError, "not-hermitian at initial state: 1.010e-12"),
    "premeasure-trace": (lambda d: premeasure(np.diag([0.5 + d, 0.5]), XYZ),
                         InvalidInput, "initial state trace"),
    "lhs-hidden-state-psd": (
        lambda d: lhs_assemblage([np.diag([0.5, -d]), np.diag([0.0, 0.5])]),
        ValidationError, "not-psd at hidden state 0: 1.010e-12"),
    "kraus-completeness": (  # sum K^dag K = diag(1 + d, 1)
        lambda d: KrausChannel([IDENTITY, np.diag([np.sqrt(d), 0.0])]),
        InvalidInput, r"sum K\^dag K = I"),
}


@pytest.mark.parametrize("case", ROUNDOFF_CASES)
def test_every_input_check_applies_the_roundoff_rule(case):
    build, error, message = ROUNDOFF_CASES[case]
    with pytest.raises(error, match=message):
        build(1.01e-12)
    build(0.99e-12)


def test_premeasure_names_an_initial_state_past_roundoff(monkeypatch):
    # past the roundoff rule, the error names the initial state, not a member such as (Z,-1)
    rho0 = np.diag([1.0 + 5e-10, -5e-10])

    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran")

    monkeypatch.setattr(measures, "solve", no_solve)
    with pytest.raises(ValidationError, match="^not-psd at initial state: 5.000e-10$"):
        premeasure(rho0, XYZ)
    with pytest.raises(ValidationError, match="^not-psd at initial state: 5.000e-10$"):
        tsw_trace(RabiDecay(1.0, 0.5), XYZ, rho0, 1.0, 3)


def test_premeasure_rejects_non_finite_state():
    for rho in (np.full((2, 2), np.nan), [[0.5, np.inf], [np.inf, 0.5]],
                [[np.inf, 0.0], [0.0, -np.inf]]):
        with pytest.raises(ValidationError, match="non-finite at initial state"):
            premeasure(rho, XYZ)


def test_premeasure_validates_random(seed=13):
    # Every input state gives a valid assemblage, exact to 1e-12. It signals
    # unless the input is I/2 or there is one setting, because projective
    # dephasing is basis dependent, and validate accepts that.
    rng = np.random.default_rng(seed)
    for _ in range(50):
        rho = random_density(rng)
        labels = ["X", "Y", "Z"][: rng.integers(1, 4)]
        assert_exact(premeasure(rho, pauli_measurement_set(labels)), signaling=len(labels) > 1)
    for labels in ("X", "XZ", "XYZ"):
        assert_exact(premeasure(IDENTITY / 2, pauli_measurement_set(labels)))


def test_assemblage_members_are_keyed_by_labels_and_outcomes():
    # a missing, extra or mislabelled member used to surface as a raw
    # KeyError in validate or tsw
    full = premeasure(IDENTITY / 2, XYZ).members
    missing = {k: v for k, v in full.items() if k != ("Z", -1)}
    extra = {**full, ("W", 1): IDENTITY / 4}
    renamed = {(x, 0 if a == -1 else a): v for (x, a), v in full.items()}
    for labels, members in ((XYZ.labels, missing), (XYZ.labels, extra),
                            (XYZ.labels, renamed), (("X", "Y"), full),
                            (("X", "X", "Y", "Z"), full)):
        with pytest.raises(InvalidInput, match="members must be keyed by exactly"):
            Assemblage(labels, members)
    assert_exact(Assemblage(XYZ.labels, dict(full)))


def test_assemblage_and_measurement_set_reject_blocks_that_are_not_2x2():
    # validate read only the 2x2 corner of a 3x3 member, so diag(0.5, 0.5, -5)
    # was never "not-psd", and premeasure died in matmul on 3x3 projectors
    bad = np.diag([0.5, 0.5, -5.0])
    for member in (bad, np.zeros((3, 3)), np.ones(4) / 4, 0.5):
        members = {("X", 1): member, ("X", -1): np.zeros((2, 2))}
        with pytest.raises(InvalidInput, match="2x2"):
            Assemblage(("X",), members)
    for pair in ((np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])),
                 (XYZ.projectors[0][0], np.eye(3))):
        with pytest.raises(InvalidInput, match="2x2"):
            MeasurementSet(("X",), (pair,))


# --- strategy tables ---------------------------------------------------------


def test_strategy_rows_enumeration():
    rows = 2 * strategy_table(3)[0::2].T - 1  # outcome of each setting, per strategy
    assert rows.shape == (8, 3)
    assert list(rows[0]) == [-1, -1, -1]
    assert list(rows[4]) == [1, -1, -1]  # strategy 5 in 1-based counting
    assert list(rows[7]) == [1, 1, 1]
    # last setting varies fastest
    assert list(rows[1]) == [-1, -1, 1]


def test_strategy_deterministic_distributions():
    d = strategy_table(3)
    assert list(d[0]) == [0, 0, 0, 0, 1, 1, 1, 1]  # D(+1|X)
    assert list(d[1]) == [1, 1, 1, 1, 0, 0, 0, 0]  # D(-1|X)
    assert list(d[5]) == [1, 0, 1, 0, 1, 0, 1, 0]  # D(-1|Z)
    # normalization sum_a D(a|x) = 1 for every strategy and setting
    for x in range(3):
        assert np.allclose(d[2 * x] + d[2 * x + 1], 1.0)


def test_strategy_single_setting():
    rows = 2 * strategy_table(1)[0::2].T - 1
    assert list(rows[:, 0]) == [-1, 1]


def test_strategy_table_is_built_once_and_read_only():
    for n in range(1, 7):
        d = strategy_table(n)
        with pytest.raises(InvalidInput, match=f"n_meas must be an integer in 1..6, got {n}.0"):
            strategy_table(float(n))
        assert strategy_table(np.int64(n)) is d
        assert d.shape == (2 * n, 2 ** n) and d.dtype == np.float64
        assert np.isin(d, (0.0, 1.0)).all()
        # column lam, read as bits with D(+1|x) -> bit n-1-x, is lam in binary
        assert np.array_equal(2 ** np.arange(n - 1, -1, -1) @ d[0::2], np.arange(2 ** n))
        # exactly one outcome per setting and strategy
        assert np.array_equal(d[0::2] + d[1::2], np.ones((n, 2 ** n)))
        assert not d.flags.writeable
    with pytest.raises(ValueError):
        strategy_table(2)[0, 0] = 1.0


def test_strategy_out_of_range():
    for bad in (0, 7, -1, 2.5, np.nan, "3", None, 3j):
        with pytest.raises(InvalidInput, match="n_meas must be an integer in 1..6"):
            strategy_table(bad)
    with pytest.raises(InvalidInput, match="n_meas must be an integer in 1..6, got 3.0"):
        strategy_table(3.0)
    assert strategy_table(np.int64(3)) is strategy_table(3)


# --- hidden-state assemblages ------------------------------------------------


def test_lhs_uniform_model():
    sigmas = [IDENTITY / 16] * 8
    asm = lhs_assemblage(sigmas)
    for x in asm.labels:
        for a in (1, -1):
            assert np.allclose(asm.member(x, a), IDENTITY / 4, atol=1e-12)
    assert_exact(asm)


def test_lhs_bloch_corner_member():
    # summing the four strategies with i=+1 cancels the y and z components
    asm = lhs_assemblage(bloch_corner_sigmas())
    expect = IDENTITY / 4 + SIGMA_X / (4 * np.sqrt(3))
    assert np.allclose(asm.member("X", 1), expect, atol=1e-12)
    assert_exact(asm)


def test_lhs_deterministic_concentration():
    sigmas = [np.zeros((2, 2), dtype=complex)] * 7 + [IDENTITY / 2]
    asm = lhs_assemblage(sigmas)
    for x in asm.labels:
        assert np.allclose(asm.member(x, 1), IDENTITY / 2)
        assert np.allclose(asm.member(x, -1), np.zeros((2, 2)))


def test_lhs_matches_explicit_index_sets():
    """The six members are the strategy sums with the documented index sets."""
    rng = np.random.default_rng(4)
    sigmas = []
    for _ in range(8):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sigmas.append(g @ g.conj().T / 40)
    asm = lhs_assemblage(sigmas)
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
    for _ in range(25):
        raw = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(8)]
        sigmas = [g @ g.conj().T for g in raw]
        total = sum(np.trace(s).real for s in sigmas)
        sigmas = [s / total for s in sigmas]
        asm = lhs_assemblage(sigmas)
        assert_exact(asm)


def test_lhs_errors():
    # the settings follow from the count of states, which must be 2^n, 1 <= n <= 6
    for count in (0, 1, 3, 6, 128):
        with pytest.raises(InvalidInput, match=f"2\\^n hidden states with 1 <= n <= 6, got {count}$"):
            lhs_assemblage([IDENTITY / 8] * count)
    for labels in (("X",), ("X", "Y", "Z")):
        with pytest.raises(InvalidInput, match="expected 2 labels"):
            lhs_assemblage([IDENTITY / 8] * 4, labels=labels)
    for last in (np.diag([1.0, -0.5]), np.array([[0.25, 0.1], [0.0, 0.25]]),
                 np.full((2, 2), np.nan)):
        with pytest.raises(ValidationError, match="at hidden state 3"):
            lhs_assemblage([IDENTITY / 8] * 3 + [last])
    for sigmas in ([np.eye(3) / 6] * 2, [IDENTITY / 4, np.eye(3) / 6], [IDENTITY / 4, np.ones(4) / 8]):
        with pytest.raises(InvalidInput, match="2x2"):
            lhs_assemblage(sigmas)


def test_lhs_rejects_repeated_labels():
    # members are keyed by (label, outcome), so a repeated label would keep
    # only the last setting's members and stack the wrong assemblage
    for labels in (("X", "X"), ["Z", "Z"]):
        with pytest.raises(InvalidInput, match="repeated label"):
            lhs_assemblage([IDENTITY / 8] * 4, labels=labels)
    asm = lhs_assemblage([IDENTITY / 8] * 4, labels=("X", "Z"))
    assert len(asm.members) == 4


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
    lhs = lhs_assemblage(bloch_corner_sigmas())
    for key, m in depol.members.items():
        assert np.linalg.norm(m - lhs.members[key]) <= 1e-12


def test_depolarized_out_of_range():
    for bad in (-0.1, 1.1):
        with pytest.raises(InvalidInput, match="visibility"):
            depolarized_assemblage(bad, XYZ)


# --- validation ---------------------------------------------------------------


def violations(asm):
    """The violations `validate` raises for asm."""
    with pytest.raises(ValidationError) as err:
        validate(asm)
    return err.value.violations


def test_validate_clean():
    assert validate(premeasure(IDENTITY / 2, XYZ)) is None
    assert_exact(premeasure(IDENTITY / 2, XYZ))


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0, None, "1e-9"])
def test_validate_rejects_a_tolerance_that_is_not_finite_and_non_negative(tol):
    # a NaN tol reported a member with eigenvalue -0.3, off in trace, as
    # clean, and tol = -1 flagged a valid assemblage "not-hermitian 0"; the
    # bands are fixed now (the roundoff rule for members, TARGET_TOL for each
    # setting's trace), so validate takes no tolerance at all
    broken = premeasure(IDENTITY / 2, XYZ)
    broken.members[("X", 1)] = np.diag([0.9, -0.3]).astype(complex)
    assert {v.kind for v in violations(broken)} == {"not-psd", "total-trace"}
    for asm in (broken, premeasure(IDENTITY / 2, XYZ)):
        with pytest.raises(TypeError):
            validate(asm, tol)
        with pytest.raises(TypeError):
            validate(asm, tol=tol)


def test_validate_flags_non_psd_member():
    asm = premeasure(IDENTITY / 2, XYZ)
    asm.members[("Y", 1)] = SIGMA_Z.copy()
    kinds = {v.kind for v in violations(asm)}
    assert "not-psd" in kinds


def test_validate_flags_signaling_and_trace():
    # the doubled member makes setting X signal and sum to trace 3/2; only the
    # trace is a violation, since the weight is defined for signaling families
    asm = premeasure(IDENTITY / 2, XYZ)
    asm.members[("X", 1)] = 2 * asm.members[("X", 1)]
    assert violations(asm) == [("total-trace", "(x=X)", pytest.approx(0.5))]


def test_validate_checks_the_total_trace_of_every_setting():
    # setting Z summing to trace 1/2 was reported only as signaling, which
    # tsw tolerates, and read TSW 1.0 with status OPTIMAL
    asm = premeasure(IDENTITY / 2, pauli_measurement_set("XZ"))
    asm.members[("Z", -1)] = np.zeros((2, 2), dtype=complex)
    traces = [v for v in violations(asm) if v.kind == "total-trace"]
    assert [(v.where, v.magnitude) for v in traces] == [("(x=Z)", pytest.approx(0.5))]
    with pytest.raises(ValidationError, match="total-trace"):
        tsw(asm)
    with pytest.raises(ValidationError, match="total-trace"):
        propagate_assemblage(KrausChannel([IDENTITY]), 0.5, asm)


def test_validate_flags_non_finite_members_only():
    asm = premeasure(IDENTITY / 2, XYZ)
    asm.members[("Y", -1)] = np.full((2, 2), np.nan, dtype=complex)
    asm.members[("Z", 1)] = np.array([[0.5, np.inf], [np.inf, 0.5]], dtype=complex)
    found = violations(asm)
    assert [(v.kind, v.where) for v in found] == [
        ("non-finite", "(Y,-1)"), ("non-finite", "(Z,+1)")]
    assert all(v.magnitude == np.inf for v in found)


def test_validate_reports_members_in_constraint_order():
    asm = premeasure(IDENTITY / 2, XYZ)
    asm.members[("X", -1)] = SIGMA_Z.copy()
    asm.members[("Y", 1)] = np.array([[0.25, 0.5], [0.0, 0.25]], dtype=complex)
    found = violations(asm)
    assert [(v.kind, v.where) for v in found[:2]] == [
        ("not-psd", "(X,-1)"), ("not-hermitian", "(Y,+1)")]
    assert found[0].magnitude == pytest.approx(1.0)
    assert found[1].magnitude == pytest.approx(0.5 * np.sqrt(2))

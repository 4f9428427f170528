"""Measurement sets, assemblages, and deterministic hidden-state machinery.

An assemblage is the family of unnormalized post-measurement states
sigma_{a|x} indexed by measurement setting x and outcome a in {+1, -1}.
For a projective pair {P_{+|x}, P_{-|x}} acting on an initial state rho0,

    sigma_{a|x} = P_{a|x} rho0 P_{a|x},   Tr sigma_{a|x} = p(a|x),

and after the state is pushed through a channel the family at time t keeps
the same index structure. A deterministic strategy assigns one outcome to
every setting; enumerating all 2^n of them gives the extreme points of the
classical response polytope, from which any unsteerable assemblage is a
mixture sigma_{a|x} = sum_lam D_lam(a|x) sigma_lam.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import hermat
from .errors import (
    CountMismatch,
    DuplicateLabel,
    EmptySet,
    InvalidState,
    NotPsd,
    OutOfRange,
    SchemaError,
    UnknownLabel,
)

PAULI = {"X": hermat.SIGMA_X, "Y": hermat.SIGMA_Y, "Z": hermat.SIGMA_Z}
OUTCOMES = (1, -1)

# Outcome a maps to the eigenvalue-a eigenprojector (I + a*sigma)/2; array
# index 0 holds a=+1 and index 1 holds a=-1.


@dataclass
class MeasurementSet:
    """Ordered binary projective measurements, one projector pair per setting."""

    labels: tuple
    projectors: tuple  # one (P_plus, P_minus) pair per label

    @property
    def n_meas(self) -> int:
        return len(self.labels)


def pauli_measurement_set(labels) -> MeasurementSet:
    """Projective measurements in the eigenbases of the chosen Pauli operators.

    labels is any ordered collection drawn from {X, Y, Z}; a plain string
    like "XZ" works too. Setting order follows the input order.
    """
    labels = tuple(str(l).upper() for l in labels)
    if not labels:
        raise EmptySet("need at least one measurement label")
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"repeated label in {labels}")
    pairs = []
    for lab in labels:
        if lab not in PAULI:
            raise UnknownLabel(f"unsupported label {lab!r}, expected one of X, Y, Z")
        s = PAULI[lab]
        pairs.append(((hermat.IDENTITY + s) / 2, (hermat.IDENTITY - s) / 2))
    return MeasurementSet(labels, tuple(pairs))


@dataclass
class Assemblage:
    """Unnormalized conditional states sigma_{a|x} at a fixed evolution time."""

    labels: tuple
    members: dict = field(repr=False)  # (label, outcome) -> 2x2 complex array
    time_tag: float = 0.0

    @property
    def n_meas(self) -> int:
        return len(self.labels)

    def member(self, x: str, a: int) -> np.ndarray:
        return self.members[(x, a)]

    def stacked(self) -> np.ndarray:
        """Members as an array in constraint order: (x0,+1), (x0,-1), (x1,+1), ..."""
        return np.array([self.members[(x, a)] for x in self.labels for a in OUTCOMES])

    def reduced_state(self) -> np.ndarray:
        """sum_a sigma_{a|x} for the first setting (x-independent when valid)."""
        x = self.labels[0]
        return self.members[(x, 1)] + self.members[(x, -1)]


def _from_stack(labels, stack, time_tag=0.0) -> Assemblage:
    members = {}
    for i, x in enumerate(labels):
        for k, a in enumerate(OUTCOMES):
            members[(x, a)] = np.asarray(stack[2 * i + k], dtype=complex)
    return Assemblage(tuple(labels), members, time_tag)


def _first_defect(stack, psd_tol):
    """(index, reason) for the first block of a stack that is not a finite,
    Hermitian (relative tolerance 1e-10) and PSD (tolerance psd_tol) matrix;
    None when every block is."""
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if not finite.all():
        return int(np.argmin(finite)), "non-finite entries"
    asym = hermat.anti_herm_norm(stack) / np.maximum(np.linalg.norm(stack, axis=(-2, -1)), 1.0)
    lo = hermat.min_eig(hermat.herm(stack))
    for i, (dev, low) in enumerate(zip(asym, lo)):
        if dev > 1e-10:
            return i, f"relative anti-Hermitian part {dev:.3e}"
        if low < -psd_tol:
            return i, f"negative eigenvalue {low:.3e}"
    return None


def premeasure(rho0, ms: MeasurementSet) -> Assemblage:
    """Assemblage produced by measuring rho0 projectively, before any evolution."""
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (2, 2):
        raise InvalidState(f"expected a 2x2 density matrix, got shape {rho0.shape}")
    defect = _first_defect(rho0[None], 1e-9)
    if defect:
        raise InvalidState(f"initial state has {defect[1]}")
    if abs(np.trace(rho0).real - 1.0) > 1e-9:
        raise InvalidState(f"initial state trace {np.trace(rho0).real} != 1")
    members = {}
    for x, (pp, pm) in zip(ms.labels, ms.projectors):
        members[(x, 1)] = pp @ rho0 @ pp
        members[(x, -1)] = pm @ rho0 @ pm
    return Assemblage(ms.labels, members, 0.0)


@dataclass
class StrategyTable:
    """All deterministic outcome assignments for n settings.

    Row lam_n holds the outcomes for setting 1..n; row 1 is all -1, the last
    row is all +1, and the last setting varies fastest.
    """

    n_meas: int
    rows: np.ndarray  # (2^n, n) of +-1

    @property
    def n_lambda(self) -> int:
        return 2 ** self.n_meas

    def d_matrix(self) -> np.ndarray:
        """0/1 matrix D[(x,a), lam] in constraint order (x0,+1), (x0,-1), ..."""
        d = np.zeros((2 * self.n_meas, self.n_lambda))
        for x in range(self.n_meas):
            for k, a in enumerate(OUTCOMES):
                d[2 * x + k] = (self.rows[:, x] == a).astype(float)
        return d


def strategy_table(n_meas: int) -> StrategyTable:
    if not 1 <= int(n_meas) <= 6:
        raise OutOfRange(f"n_meas must be in 1..6, got {n_meas}")
    n = int(n_meas)
    rows = np.empty((2 ** n, n), dtype=int)
    for i in range(2 ** n):
        for j in range(n):
            rows[i, j] = 1 if (i >> (n - 1 - j)) & 1 else -1
    return StrategyTable(n, rows)


def lhs_assemblage(table: StrategyTable, sigmas, labels=None) -> Assemblage:
    """Unsteerable assemblage sum_lam D_lam(a|x) sigma_lam from fixed states sigma_lam."""
    sigmas = [np.asarray(s, dtype=complex) for s in sigmas]
    if len(sigmas) != table.n_lambda:
        raise CountMismatch(f"expected {table.n_lambda} hidden states, got {len(sigmas)}")
    sigmas = np.array(sigmas)
    defect = _first_defect(sigmas, 1e-10)
    if defect:
        raise NotPsd(f"hidden state {defect[0]} has {defect[1]}")
    if labels is None:
        if table.n_meas <= 3:
            labels = ("X", "Y", "Z")[: table.n_meas]
        else:
            labels = tuple(f"M{i + 1}" for i in range(table.n_meas))
    d = table.d_matrix()
    stack = np.tensordot(d, sigmas, axes=(1, 0))
    return _from_stack(labels, stack)


def depolarized_assemblage(v: float, ms: MeasurementSet) -> Assemblage:
    """Test fixture: identity-channel assemblage from I/2 mixed with white noise.

    member(x, a) = (1/2) [ v P_{a|x} + (1-v) I/2 ]. At v=1 this is
    premeasure(I/2, ms); at v=0 every member is I/4.
    """
    if not 0.0 <= v <= 1.0:
        raise OutOfRange(f"visibility must lie in [0, 1], got {v}")
    members = {}
    for x, (pp, pm) in zip(ms.labels, ms.projectors):
        members[(x, 1)] = 0.5 * (v * pp + (1 - v) * hermat.IDENTITY / 2)
        members[(x, -1)] = 0.5 * (v * pm + (1 - v) * hermat.IDENTITY / 2)
    return Assemblage(ms.labels, members, 0.0)


class Violation(NamedTuple):
    kind: str
    where: str
    magnitude: float

    def __str__(self):
        return f"{self.kind} at {self.where}: {self.magnitude:.3e}"


def validate(asm: Assemblage, tol: float = 1e-9) -> list:
    """Check the assemblage invariants; empty list means all hold within tol.

    Checks each member for Hermiticity and positivity, the non-signaling
    condition (sum over outcomes independent of the setting), and unit total
    trace. A member with a NaN or infinite entry is reported as "non-finite"
    (magnitude inf) and nothing else is checked, since every other invariant
    would be computed from it.
    """
    stack = asm.stacked()
    where = [f"({x},{a:+d})" for x in asm.labels for a in OUTCOMES]
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if not finite.all():
        return [Violation("non-finite", w, np.inf) for w, ok in zip(where, finite) if not ok]
    out = []
    asym = hermat.anti_herm_norm(stack)
    lo = hermat.min_eig(hermat.herm(stack))
    for w, dev, low in zip(where, asym, lo):
        if dev > tol:
            out.append(Violation("not-hermitian", w, float(dev)))
        elif low < -tol:
            out.append(Violation("not-psd", w, float(-low)))
    sums = stack[0::2] + stack[1::2]
    for x, total in zip(asm.labels[1:], sums[1:]):
        dev = float(np.linalg.norm(total - sums[0]))
        if dev > tol:
            out.append(Violation("non-signaling", f"(x={x})", dev))
    tr_dev = abs(np.trace(sums[0]).real - 1.0)
    if tr_dev > tol:
        out.append(Violation("total-trace", "(all)", tr_dev))
    return out


# --- JSON wire format -------------------------------------------------------
#
# { "n_meas": int, "labels": [str], "members":
#     [ { "x": str, "a": +1|-1, "matrix": [[[re, im], ...], ...] } ] }


def _matrix_to_json(m):
    return [[[float(c.real), float(c.imag)] for c in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(obj):
    try:
        m = np.array([[complex(c[0], c[1]) for c in row] for row in obj])
    except (TypeError, ValueError, IndexError) as exc:
        raise SchemaError(f"bad matrix entry: {exc}") from exc
    if m.shape != (2, 2):
        raise SchemaError(f"matrix must be 2x2, got shape {m.shape}")
    return m


def assemblage_to_json(asm: Assemblage) -> dict:
    return {
        "n_meas": asm.n_meas,
        "labels": list(asm.labels),
        "members": [
            {"x": x, "a": a, "matrix": _matrix_to_json(asm.members[(x, a)])}
            for x in asm.labels
            for a in OUTCOMES
        ],
    }


def assemblage_from_json(obj) -> Assemblage:
    if not isinstance(obj, dict):
        raise SchemaError("top level must be an object")
    for key in ("n_meas", "labels", "members"):
        if key not in obj:
            raise SchemaError(f"missing key {key!r}")
    labels = tuple(str(l) for l in obj["labels"])
    if len(labels) != int(obj["n_meas"]):
        raise SchemaError("labels length disagrees with n_meas")
    members = {}
    for entry in obj["members"]:
        if not isinstance(entry, dict) or not {"x", "a", "matrix"} <= set(entry):
            raise SchemaError("each member needs keys x, a, matrix")
        x, a = str(entry["x"]), int(entry["a"])
        if x not in labels or a not in OUTCOMES:
            raise SchemaError(f"unknown member index ({x}, {a})")
        members[(x, a)] = _matrix_from_json(entry["matrix"])
    expected = {(x, a) for x in labels for a in OUTCOMES}
    if set(members) != expected:
        raise SchemaError("members must cover every (label, outcome) pair exactly once")
    return Assemblage(labels, members, 0.0)

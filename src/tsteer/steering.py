"""Measurement sets, assemblages, and deterministic hidden-state machinery.

An assemblage is the family of unnormalized post-measurement states
sigma_{a|x} indexed by measurement setting x and outcome a in {+1, -1}.
For a projective pair {P_{+|x}, P_{-|x}} acting on an initial state rho0,

    sigma_{a|x} = P_{a|x} rho0 P_{a|x},   Tr sigma_{a|x} = p(a|x),

and after the state is pushed through a channel the family at time t keeps
the same index structure. A deterministic strategy assigns one outcome to
every setting; enumerating all 2^n of them gives the extreme points of the
classical response polytope, from which any unsteerable assemblage is a
mixture sigma_{a|x} = sum_lam D_lam(a|x) sigma_lam. The 0/1 response
matrix D of `strategy_table` is the one representation of the strategy set:
row (x, a) in constraint order, column lam with bit n-1-x set iff
lam(x) = +1.
"""

from __future__ import annotations

import functools
import math
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
    UnknownLabel,
)

PAULI = {"X": hermat.SIGMA_X, "Y": hermat.SIGMA_Y, "Z": hermat.SIGMA_Z}
OUTCOMES = (1, -1)

# Outcome a maps to the eigenvalue-a eigenprojector (I + a*sigma)/2; array
# index 0 holds a=+1 and index 1 holds a=-1.


@dataclass
class MeasurementSet:
    """Ordered binary projective measurements, one projector pair per setting.

    Raises InvalidState, naming the setting, unless both members of each
    pair are finite, Hermitian and PSD (the `_first_defect` check), P_plus^2 =
    P_plus and P_plus + P_minus = I, each within 1e-10.
    """

    labels: tuple
    projectors: tuple  # one (P_plus, P_minus) pair per label

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateLabel(f"repeated label in {tuple(self.labels)}")
        if len(self.projectors) != len(self.labels):
            raise CountMismatch(f"{len(self.projectors)} projector pairs for "
                                f"{len(self.labels)} labels")
        if any(np.shape(p) != (2, 2) for pair in self.projectors for p in pair):
            raise InvalidState("every projector must be 2x2")
        for x, pair in zip(self.labels, self.projectors):
            pair = np.asarray(pair, dtype=complex)
            pp, pm = pair
            if _first_defect(pair, 1e-10) or max(np.linalg.norm(pp @ pp - pp),
                                                 np.linalg.norm(pp + pm - hermat.IDENTITY)) > 1e-10:
                raise InvalidState(f"setting {x!r} is not a binary projective measurement")

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

    def __post_init__(self):
        keys = {(x, a) for x in self.labels for a in OUTCOMES}
        if len(self.members) != 2 * len(self.labels) or set(self.members) != keys:
            raise CountMismatch(f"members must be keyed by exactly {tuple(self.labels)} x "
                                f"{OUTCOMES}, got {sorted(self.members, key=str)}")
        if any(np.shape(m) != (2, 2) for m in self.members.values()):
            raise InvalidState("every member must be 2x2")

    @property
    def n_meas(self) -> int:
        return len(self.labels)

    def member(self, x: str, a: int) -> np.ndarray:
        return self.members[(x, a)]

    def stacked(self) -> np.ndarray:
        """Members as an array in constraint order: (x0,+1), (x0,-1), (x1,+1), ..."""
        return np.array([self.members[(x, a)] for x in self.labels for a in OUTCOMES])


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


def strategy_table(n_meas: int) -> np.ndarray:
    """The read-only (2 n, 2^n) 0/1 matrix D[(x,a), lam] of n_meas settings, built once per n.

    Rows follow constraint order (x0,+1), (x0,-1), (x1,+1), ...; strategy
    lam gives setting x the outcome +1 iff bit n-1-x of lam is set, so lam = 0
    is all -1, the last column all +1, and the last setting varies fastest.
    """
    if not (float(n_meas).is_integer() and 1 <= n_meas <= 6):
        raise OutOfRange(f"n_meas must be an integer in 1..6, got {n_meas}")
    return _strategy_table(int(n_meas))


@functools.lru_cache(maxsize=None)
def _strategy_table(n):
    plus = np.arange(2 ** n) >> np.arange(n - 1, -1, -1)[:, None] & 1
    d = np.stack([plus, 1 - plus], axis=1).reshape(2 * n, 2 ** n).astype(float)
    d.flags.writeable = False
    return d


def lhs_assemblage(table: np.ndarray, sigmas, labels=None) -> Assemblage:
    """Unsteerable assemblage sum_lam D_lam(a|x) sigma_lam from fixed states sigma_lam.

    table is the D of `strategy_table(n_meas)`. labels, when given, must be
    n_meas distinct names (DuplicateLabel otherwise), since members are keyed
    by (label, outcome).
    """
    n_meas, n_lambda = table.shape[0] // 2, table.shape[1]
    sigmas = [np.asarray(s, dtype=complex) for s in sigmas]
    if len(sigmas) != n_lambda:
        raise CountMismatch(f"expected {n_lambda} hidden states, got {len(sigmas)}")
    for i, s in enumerate(sigmas):
        if s.shape != (2, 2):
            raise InvalidState(f"hidden state {i} must be 2x2, got shape {s.shape}")
    sigmas = np.array(sigmas)
    defect = _first_defect(sigmas, 1e-10)
    if defect:
        raise NotPsd(f"hidden state {defect[0]} has {defect[1]}")
    if labels is None:
        if n_meas <= 3:
            labels = ("X", "Y", "Z")[:n_meas]
        else:
            labels = tuple(f"M{i + 1}" for i in range(n_meas))
    elif len(labels) != n_meas:
        raise CountMismatch(f"expected {n_meas} labels, got {len(labels)}")
    elif len(set(labels)) != len(labels):
        raise DuplicateLabel(f"repeated label in {tuple(labels)}")
    stack = np.tensordot(table, sigmas, axes=(1, 0))
    return _from_stack(labels, stack)


class Violation(NamedTuple):
    kind: str
    where: str
    magnitude: float

    def __str__(self):
        return f"{self.kind} at {self.where}: {self.magnitude:.3e}"


def validate(asm: Assemblage, tol: float = 1e-9) -> list:
    """Check the assemblage invariants; empty list means all hold within tol.

    Checks each member for Hermiticity and positivity, the non-signaling
    condition (sum over outcomes independent of the setting), and unit
    trace of each setting's outcome sum. A member with a NaN or infinite
    entry is reported as "non-finite" (magnitude inf) and nothing else is
    checked, since every other invariant would be computed from it. Raises
    InvalidState unless tol is finite and >= 0, since a NaN tol passes
    every check and a negative one fails them all.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidState(f"tol must be finite and >= 0, got {tol}")
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
    for x, total in zip(asm.labels, sums):
        tr_dev = abs(np.trace(total).real - 1.0)
        if tr_dev > tol:
            out.append(Violation("total-trace", f"(x={x})", tr_dev))
    return out

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
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import hermat
from .errors import InvalidInput, ValidationError

PAULI = {"X": hermat.SIGMA_X, "Y": hermat.SIGMA_Y, "Z": hermat.SIGMA_Z}
OUTCOMES = (1, -1)

# Outcome a maps to the eigenvalue-a eigenprojector (I + a*sigma)/2; array
# index 0 holds a=+1 and index 1 holds a=-1.


@dataclass
class MeasurementSet:
    """Ordered binary projective measurements, one projector pair per setting.

    Raises InvalidInput, naming the setting, unless the labels are distinct,
    there is one pair of 2x2 projectors per label, and P_plus^2 = P_plus and
    P_plus + P_minus = I within 1e-10; its subclass ValidationError when a
    projector fails `check_blocks` at tolerance 1e-10.
    """

    labels: tuple
    projectors: tuple  # one (P_plus, P_minus) pair per label

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise InvalidInput(f"repeated label in {tuple(self.labels)}")
        if len(self.projectors) != len(self.labels):
            raise InvalidInput(f"{len(self.projectors)} projector pairs for "
                               f"{len(self.labels)} labels")
        if any(len(pair) != 2 or any(np.shape(p) != (2, 2) for p in pair)
               for pair in self.projectors):
            raise InvalidInput("every setting needs one pair of 2x2 projectors")
        pairs = np.asarray(self.projectors, dtype=complex)
        check_blocks(pairs.reshape(-1, 2, 2), 1e-10,
                     [f"setting {x!r} P{a:+d}" for x in self.labels for a in OUTCOMES])
        pp, pm = pairs[:, 0], pairs[:, 1]
        off = np.maximum(np.linalg.norm(pp @ pp - pp, axis=(-2, -1)),
                         np.linalg.norm(pp + pm - hermat.IDENTITY, axis=(-2, -1))) > 1e-10
        if off.any():
            raise InvalidInput(f"setting {self.labels[int(np.argmax(off))]!r} is not a binary "
                               "projective measurement")

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
        raise InvalidInput("need at least one measurement label")
    pairs = []
    for lab in labels:
        if lab not in PAULI:
            raise InvalidInput(f"unsupported label {lab!r}, expected one of X, Y, Z")
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
            raise InvalidInput(f"members must be keyed by exactly {tuple(self.labels)} x "
                                f"{OUTCOMES}, got {sorted(self.members, key=str)}")
        if any(np.shape(m) != (2, 2) for m in self.members.values()):
            raise InvalidInput("every member must be 2x2")

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


def premeasure(rho0, ms: MeasurementSet) -> Assemblage:
    """Assemblage produced by measuring rho0 projectively, before any evolution."""
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (2, 2):
        raise InvalidInput(f"expected a 2x2 density matrix, got shape {rho0.shape}")
    check_blocks(rho0[None], 1e-9, ["initial state"])
    if abs(np.trace(rho0).real - 1.0) > 1e-9:
        raise InvalidInput(f"initial state trace {np.trace(rho0).real} != 1")
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
    if not (isinstance(n_meas, numbers.Real) and float(n_meas).is_integer() and 1 <= n_meas <= 6):
        raise InvalidInput(f"n_meas must be an integer in 1..6, got {n_meas!r}")
    return _strategy_table(int(n_meas))


@functools.lru_cache(maxsize=None)
def _strategy_table(n):
    plus = np.arange(2 ** n) >> np.arange(n - 1, -1, -1)[:, None] & 1
    d = np.stack([plus, 1 - plus], axis=1).reshape(2 * n, 2 ** n).astype(float)
    d.flags.writeable = False
    return d


def lhs_assemblage(sigmas, labels=None) -> Assemblage:
    """Unsteerable assemblage sum_lam D_lam(a|x) sigma_lam from fixed states sigma_lam.

    2^n_meas states give n_meas settings, and D is `strategy_table(n_meas)`.
    labels, when given, must be n_meas distinct names, since members are
    keyed by (label, outcome). Raises InvalidInput for a count of states that
    is not 2^n with 1 <= n <= 6, a wrong count of labels, a repeated label or
    a state that is not 2x2, and its subclass ValidationError when a hidden
    state fails `check_blocks` at tolerance 1e-10.
    """
    sigmas = [np.asarray(s, dtype=complex) for s in sigmas]
    n_lambda = len(sigmas)
    n_meas = n_lambda.bit_length() - 1
    if not (1 <= n_meas <= 6 and n_lambda == 1 << n_meas):
        raise InvalidInput(f"need 2^n hidden states with 1 <= n <= 6, got {n_lambda}")
    for i, s in enumerate(sigmas):
        if s.shape != (2, 2):
            raise InvalidInput(f"hidden state {i} must be 2x2, got shape {s.shape}")
    sigmas = np.array(sigmas)
    check_blocks(sigmas, 1e-10, [f"hidden state {i}" for i in range(n_lambda)])
    if labels is None:
        if n_meas <= 3:
            labels = ("X", "Y", "Z")[:n_meas]
        else:
            labels = tuple(f"M{i + 1}" for i in range(n_meas))
    elif len(labels) != n_meas:
        raise InvalidInput(f"expected {n_meas} labels, got {len(labels)}")
    elif len(set(labels)) != len(labels):
        raise InvalidInput(f"repeated label in {tuple(labels)}")
    stack = np.tensordot(strategy_table(n_meas), sigmas, axes=(1, 0))
    return _from_stack(labels, stack)


class Violation(NamedTuple):
    kind: str
    where: str
    magnitude: float

    def __str__(self):
        return f"{self.kind} at {self.where}: {self.magnitude:.3e}"


def block_violations(stack, tol, where) -> list:
    """Violations of the blocks of a (k, 2, 2) stack, in block order, block i named where[i].

    The one block check of the package. A block must be, in this order,
    finite ("non-finite", magnitude inf), Hermitian ("not-hermitian" when
    ||h - h^dag||_F > min(tol, 1e-10 max(1, ||h||_F)), magnitude ||h -
    h^dag||_F) and PSD ("not-psd" when the least eigenvalue of its Hermitian
    part is below -tol, magnitude minus that eigenvalue); each block reports
    its first failure. If any block is non-finite, only the non-finite
    blocks are reported, since every other quantity would be computed from
    them.
    """
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if not finite.all():
        return [Violation("non-finite", where[i], math.inf) for i in np.flatnonzero(~finite)]
    asym = hermat.anti_herm_norm(stack)
    asym_tol = np.minimum(tol, 1e-10 * np.maximum(np.linalg.norm(stack, axis=(-2, -1)), 1.0))
    low = hermat.min_eig(hermat.herm(stack))
    return [Violation("not-hermitian", where[i], float(asym[i])) if asym[i] > asym_tol[i]
            else Violation("not-psd", where[i], float(-low[i]))
            for i in np.flatnonzero((asym > asym_tol) | (low < -tol))]


def check_blocks(stack, tol, where):
    """Raise ValidationError listing the `block_violations` of the stack, if any."""
    bad = block_violations(stack, tol, where)
    if bad:
        raise ValidationError(bad)


def validate(asm: Assemblage, tol: float = 1e-9) -> list:
    """Check the assemblage invariants; empty list means all hold within tol.

    Checks each member with `block_violations` (non-finite, not-hermitian,
    not-psd), then the non-signaling condition (sum over outcomes
    independent of the setting) and unit trace of each setting's outcome
    sum. If a member is non-finite, only the non-finite members are
    reported, since every other invariant would be computed from them.
    Raises InvalidInput unless tol is a finite real >= 0, since a NaN tol
    passes every check and a negative one fails them all.
    """
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol >= 0):
        raise InvalidInput(f"tol must be finite and >= 0, got {tol}")
    stack = asm.stacked()
    out = block_violations(stack, tol, [f"({x},{a:+d})" for x in asm.labels for a in OUTCOMES])
    if out and out[0].kind == "non-finite":
        return out
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

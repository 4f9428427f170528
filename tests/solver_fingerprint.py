"""Fingerprint of the solver on three fixed check sets, and of the channels.

    PYTHONPATH=src python3 tests/solver_fingerprint.py

prints one line per set: the problem count, how many solves end OPTIMAL, the
total Newton steps, and a SHA-256 over every field of every `SdpSolution`,
arrays bit for bit. Two trees whose lines agree solve every problem of the
sets identically. The sets:

- 10-trace: Exchange(1, 0) and Exchange(1, 0.3) on [0, 2 pi],
  LorentzianAD(2, 1) and LorentzianAD(2.0177..., 1.0002...) on [0, 10] and
  RabiDecay(1, 1/6) on [0, 8], each a `tsw_trace` of 81 points with XYZ and
  XZ settings from I/2.
- F6, the rotated rank-deficient family: 4 unitaries from default_rng(2024)
  (QR of a complex normal 2x2) x LorentzianAD(2, 1) on (0, 10] and
  Exchange(1, 0) on (0, 2 pi], at the 40 points t > 0 of a 41-point grid,
  XYZ settings from I/2.
- random-kraus: random_kraus_channel(k, 1 + k % 4) at t = 1 for k < 300, XYZ
  settings from I/2 for even k and XZ for odd k.

A fourth line, channels, is a SHA-256 over the `transfer_grid` matrices of
RabiDecay(1, 1/6) on [0, 8], Exchange(1, 0) and Exchange(1, 0.3) on
[0, 2 pi] and LorentzianAD(2, 1) on [0, 10], 81 points each, and over the
`nc_trace` values of the benchmark's nc_compare curves: RabiDecay(1, 1/6) on
[0, 8] at 33 points, Exchange(1, 0) on [0, 2 pi] and LorentzianAD(2, 1) on
[0, 10] at 81. Two trees whose channels lines agree evolve those grids bit
for bit alike.

Exits 1 unless every solve of the 10-trace and random-kraus sets is OPTIMAL.
The hashes and the F6 count depend on the BLAS build, so they are printed
only. Takes about 10 s on one core.
"""

import dataclasses
import enum
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from tsteer import (  # noqa: E402
    Exchange,
    LorentzianAD,
    RabiDecay,
    SolveStatus,
    nc_trace,
    pauli_measurement_set,
    premeasure,
    propagate_assemblage,
    random_kraus_channel,
    solve,
    tsw,
    tsw_trace,
)
from tsteer.channels import evolve_grid, transfer_grid  # noqa: E402

MIXED = np.eye(2, dtype=complex) / 2
XYZ, XZ = pauli_measurement_set("XYZ"), pauli_measurement_set("XZ")
TRACES = ((Exchange(1.0, 0.0), 2 * np.pi), (Exchange(1.0, 0.3), 2 * np.pi),
          (LorentzianAD(2.0, 1.0), 10.0),
          (LorentzianAD(2.017722244222895, 1.0002265510562873), 10.0),
          (RabiDecay(1.0, 1.0 / 6.0), 8.0))
GRIDS = ((RabiDecay(1.0, 1.0 / 6.0), 8.0), (Exchange(1.0, 0.0), 2 * np.pi),
         (Exchange(1.0, 0.3), 2 * np.pi), (LorentzianAD(2.0, 1.0), 10.0))
NC_CURVES = ((RabiDecay(1.0, 1.0 / 6.0), 8.0, 33), (Exchange(1.0, 0.0), 2 * np.pi, 81),
             (LorentzianAD(2.0, 1.0), 10.0, 81))


def ten_traces():
    for ch, t_max in TRACES:
        for ms in (XYZ, XZ):
            yield from tsw_trace(ch, ms, MIXED, t_max, 81).solutions


def rotated_family():
    rng = np.random.default_rng(2024)
    unitaries = [np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                 for _ in range(4)]
    base = premeasure(MIXED, XYZ).stacked()
    for u in unitaries:
        for ch, t_max in ((LorentzianAD(2.0, 1.0), 10.0), (Exchange(1.0, 0.0), 2 * np.pi)):
            for stack in evolve_grid(ch, base, np.linspace(0.0, t_max, 41))[1:]:
                yield solve(u @ stack @ u.conj().T)


def random_kraus():
    for k in range(300):
        asm = premeasure(MIXED, XZ if k % 2 else XYZ)
        yield tsw(propagate_assemblage(random_kraus_channel(k, 1 + k % 4), 1.0, asm)).solution


# (name, solutions, whether every solve must end OPTIMAL)
SETS = (("10-trace", ten_traces, True), ("F6", rotated_family, False),
        ("random-kraus", random_kraus, True))


def fingerprint(solutions):
    """(problems, OPTIMAL count, Newton steps, SHA-256 over every field of every solution)."""
    digest, problems, optimal, steps = hashlib.sha256(), 0, 0, 0
    for sol in solutions:
        problems += 1
        optimal += sol.status is SolveStatus.OPTIMAL
        steps += sol.iterations
        for f in dataclasses.fields(sol):
            value = getattr(sol, f.name)
            digest.update(f.name.encode())
            digest.update(value.value.encode() if isinstance(value, enum.Enum)
                          else np.ascontiguousarray(value).tobytes())
    return problems, optimal, steps, digest.hexdigest()


def channel_fingerprint():
    """SHA-256 over the transfer matrices of GRIDS and the concurrence values of NC_CURVES."""
    digest = hashlib.sha256()
    for ch, t_max in GRIDS:
        digest.update(transfer_grid(ch, np.linspace(0.0, t_max, 81)).tobytes())
    for ch, t_max, n_steps in NC_CURVES:
        digest.update(nc_trace(ch, t_max, n_steps).values.tobytes())
    return digest.hexdigest()


def main():
    short = []
    for name, solutions, required in SETS:
        problems, optimal, steps, sha = fingerprint(solutions())
        print(f"{name:<13} {optimal}/{problems} OPTIMAL  {steps} Newton steps  sha256 {sha}",
              flush=True)
        if required and optimal < problems:
            short.append(name)
    print(f"{'channels':<13} {len(GRIDS)} transfer grids, {len(NC_CURVES)} nc_trace curves  "
          f"sha256 {channel_fingerprint()}", flush=True)
    if short:
        sys.exit(f"not every solve is OPTIMAL: {', '.join(short)}")


if __name__ == "__main__":
    main()

"""The public API of `tsteer`, pinned so that every addition or deletion is a visible edit."""

import dataclasses
import functools
import types
import warnings

import numpy as np
import pytest

import tsteer
from tsteer.errors import InvalidInput

PUBLIC = [
    "Assemblage", "Exchange", "KrausChannel", "LorentzianAD", "MeasurementSet", "NmResult",
    "RabiDecay", "SdpSolution", "SolveStatus", "TraceSeries", "TswResult", "build_sw_sdp",
    "concurrence", "dual_certificate", "lhs_assemblage", "lorentzian_G", "lorentzian_gamma",
    "n_tsw", "nc_trace", "pauli_measurement_set", "premeasure", "primal_certificate",
    "propagate_assemblage", "random_kraus_channel", "solve", "strategy_table", "tsw",
    "tsw_trace", "validate",
]


def test_public_names_are_pinned():
    exported = sorted(name for name, value in vars(tsteer).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC


# --- one argument rule: every scalar, count and time goes through tsteer.errors -----------

MIXED = np.eye(2, dtype=complex) / 2
XYZ = tsteer.pauli_measurement_set("XYZ")


@functools.cache
def _targets():
    """The targets of a premeasured, evolved XYZ assemblage."""
    return tsteer.propagate_assemblage(tsteer.RabiDecay(1.0, 0.5), 0.5,
                                       tsteer.premeasure(MIXED, XYZ)).stacked()


def _series():
    return tsteer.TraceSeries(np.arange(3.0), np.array([0.0, 0.5, 1.0]))


# (entry, argument, kind, call with the argument, values out of range); a real is
# >= 0 unless its range says > 0, a count lies in low..high
ARGUMENTS = [
    ("RabiDecay", "g1", "real", lambda v: tsteer.RabiDecay(v, 0.0), (-1.0,)),
    ("RabiDecay", "gamma1", "real", lambda v: tsteer.RabiDecay(1.0, v), (-1.0,)),
    ("Exchange", "j", "real", lambda v: tsteer.Exchange(v, 0.0), (-1.0,)),
    ("Exchange", "gamma2", "real", lambda v: tsteer.Exchange(1.0, v), (-1.0,)),
    ("LorentzianAD", "g", "real", lambda v: tsteer.LorentzianAD(v, 1.0), (-1.0,)),
    ("LorentzianAD", "omega_w", "real", lambda v: tsteer.LorentzianAD(2.0, v), (0.0, -1.0)),
    ("lorentzian_G", "omega_w", "real", lambda v: tsteer.lorentzian_G(2.0, v, 1.0), (0.0,)),
    ("propagate_assemblage", "t", "real",
     lambda v: tsteer.propagate_assemblage(tsteer.RabiDecay(1.0, 0.5), v,
                                           tsteer.premeasure(MIXED, XYZ)), (-1.0,)),
    ("nc_trace", "t_max", "real", lambda v: tsteer.nc_trace(tsteer.RabiDecay(1.0), v, 5), (0.0,)),
    ("tsw_trace", "t_max", "real",
     lambda v: tsteer.tsw_trace(tsteer.RabiDecay(1.0, 0.5), XYZ, MIXED, v, 3), (0.0, -1.0)),
    ("n_tsw", "slope_threshold", "real",
     lambda v: tsteer.n_tsw(_series(), slope_threshold=v), (-1e-6,)),
    ("solve", "tol", "real", lambda v: tsteer.solve(_targets(), tol=v), (0.0, -1e-8)),
    ("tsw", "tol", "real", lambda v: tsteer.tsw(tsteer.premeasure(MIXED, XYZ), tol=v), (0.0,)),
    ("random_kraus_channel", "n_kraus", "count",
     lambda v: tsteer.random_kraus_channel(0, v).operators, (0, -1)),
    ("random_kraus_channel", "seed", "count", lambda v: tsteer.random_kraus_channel(v, 2).operators,
     (-1,)),
    ("nc_trace", "n_steps", "count", lambda v: tsteer.nc_trace(tsteer.RabiDecay(1.0), 2.0, v),
     (1, 0)),
    ("tsw_trace", "n_steps", "count",
     lambda v: tsteer.tsw_trace(tsteer.RabiDecay(1.0, 0.5), XYZ, MIXED, 1.0, v), (1,)),
    ("strategy_table", "n_meas", "count", tsteer.strategy_table, (0, 7)),
    ("lorentzian_G", "t", "times", lambda v: tsteer.lorentzian_G(2.0, 1.0, v), (-1.0,)),
    ("lorentzian_gamma", "t", "times", lambda v: tsteer.lorentzian_gamma(2.0, 1.0, v), (-1.0,)),
    ("transfer_grid", "times", "times",
     lambda v: tsteer.channels.transfer_grid(tsteer.RabiDecay(1.0), v), (-1.0,)),
]

# every kind of argument rejects these; a real rejects lists and arrays, 0-d too, and an
# int beyond the float range, and a count floats besides, while an array of times is fine
BAD = [True, "1", 1j, None, np.nan, np.inf]
BAD_BY_KIND = {
    "real": [[1.0], np.array(1.0), 10 ** 400],
    "count": [[1], np.array(2), 2.0, 2.5, np.float64(3.0)],
    "times": [[0.0, 1j], [0.0, np.nan], [[0.5], [1.0, 2.0]], np.array([1.0, -1.0]),
              np.array([False, True])],
}
GOOD_BY_KIND = {"real": 1.0, "count": 3, "times": 1.0}


def _same(a, b):
    """Whether two results are equal field by field, arrays bit for bit."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    return a == b


@pytest.mark.parametrize("name, kind, call, out_of_range", [entry[1:] for entry in ARGUMENTS],
                         ids=[f"{entry[0]}-{entry[1]}" for entry in ARGUMENTS])
def test_every_scalar_count_and_time_has_one_rule(name, kind, call, out_of_range):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in BAD + BAD_BY_KIND[kind] + list(out_of_range):
            with pytest.raises(InvalidInput, match=f"^{name} must be ") as err:
                call(bad)
            assert type(err.value) is InvalidInput, bad
        # numpy's scalars, float32 too, and an int for a real, give what the plain
        # value gives
        good = GOOD_BY_KIND[kind]
        want = call(good)
        same = ([np.int64(good)] if kind == "count"
                else [1, np.int64(1), np.float32(1.0), np.float64(1.0)])
        for value in same:
            assert _same(call(value), want), value

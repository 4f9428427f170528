"""The public API of `tsteer`, pinned so that every addition or deletion is a visible edit."""

import types

import tsteer

PUBLIC = [
    "Assemblage", "Exchange", "KrausChannel", "LorentzianAD", "MeasurementSet", "NmResult",
    "RabiDecay", "SdpSolution", "SolveStatus", "TraceSeries", "TswResult", "apply_channel",
    "build_sw_sdp", "concurrence", "dual_certificate", "lhs_assemblage", "lorentzian_G",
    "lorentzian_gamma", "n_tsw", "nc_trace", "pauli_measurement_set", "premeasure",
    "primal_certificate", "propagate_assemblage", "random_kraus_channel", "solve",
    "strategy_table", "tsw", "tsw_trace", "validate",
]


def test_public_names_are_pinned():
    exported = sorted(name for name, value in vars(tsteer).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC

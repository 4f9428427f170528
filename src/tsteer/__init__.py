"""Temporal steerable weight of qubit channels and non-Markovianity measures."""

from .channels import (
    Exchange,
    KrausChannel,
    LorentzianAD,
    RabiDecay,
    lorentzian_G,
    lorentzian_gamma,
    random_kraus_channel,
)
from .measures import (
    NmResult,
    TraceSeries,
    TswResult,
    concurrence,
    n_tsw,
    nc_trace,
    propagate_assemblage,
    tsw,
    tsw_trace,
)
from .sdp import (
    SdpSolution,
    SolveStatus,
    build_sw_sdp,
    dual_certificate,
    primal_certificate,
    solve,
)
from .steering import (
    Assemblage,
    MeasurementSet,
    lhs_assemblage,
    pauli_measurement_set,
    premeasure,
    strategy_table,
    validate,
)

__version__ = "0.1.0"

"""Temporal steerable weight of qubit channels and non-Markovianity measures."""

from .channels import (
    Exchange,
    KrausChannel,
    LorentzianAD,
    RabiDecay,
    apply_channel,
    lorentzian_G,
    lorentzian_gamma,
    propagate_assemblage,
    random_kraus_channel,
)
from .measures import (
    NmResult,
    TraceSeries,
    TswResult,
    concurrence,
    n_tsw,
    nc_trace,
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

"""Shadow-based density-operator reconstruction and device diagnostics.

Pipeline: sample (or ingest) randomized-measurement records, invert and
average them into subsystem state estimates, project each estimate onto its
dominant pure state, then use the resulting fidelity and entanglement
entropy maps for device diagnostics, non-local correlation detection, and
qubit-chain routing.
"""

from .diagnostics import (
    DiagnosticReport,
    NonlocalResult,
    SubsystemDiagnostics,
    SubsystemSpec,
    build_report,
    nonlocal_scan,
    score_candidates,
)
from .layout import DeviceLayout, heavy_hex_127
from .linalg import EigenDecomposition, clamp_psd, eigh, kron, mat_sqrt_psd, partial_trace
from .projection import ZecsResult, zecs_project
from .routing import (
    ChainSolution,
    EdgeScore,
    best_chain,
    edge_scores_from_report,
    score_chain,
)
from .shadow import ShadowAccumulator, merge, reconstruct, rho_cs
from .simulator import (
    Circuit,
    Gate,
    SnapshotRecord,
    StateVector,
    build_efficient_su2,
    perturb_state,
    run,
    sample_shadow,
    zero_state,
)
from .states import (
    DensityOperator,
    concurrence,
    entanglement_entropy,
    fidelity,
    trace_distance,
)
from .study import perturbation_study

__version__ = "0.1.0"

__all__ = [
    "ChainSolution",
    "Circuit",
    "DensityOperator",
    "DeviceLayout",
    "DiagnosticReport",
    "EdgeScore",
    "EigenDecomposition",
    "Gate",
    "NonlocalResult",
    "ShadowAccumulator",
    "SnapshotRecord",
    "StateVector",
    "SubsystemDiagnostics",
    "SubsystemSpec",
    "ZecsResult",
    "best_chain",
    "build_efficient_su2",
    "build_report",
    "clamp_psd",
    "concurrence",
    "edge_scores_from_report",
    "eigh",
    "entanglement_entropy",
    "fidelity",
    "heavy_hex_127",
    "kron",
    "mat_sqrt_psd",
    "merge",
    "nonlocal_scan",
    "partial_trace",
    "perturb_state",
    "perturbation_study",
    "reconstruct",
    "rho_cs",
    "run",
    "sample_shadow",
    "score_candidates",
    "score_chain",
    "trace_distance",
    "zecs_project",
    "zero_state",
]

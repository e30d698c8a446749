"""Diagnostic report records: subsystem kinds, report rows and scan results.

Plain frozen dataclasses with no NumPy, so that reading, writing and routing
over a stored report loads none of the numeric layers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SubsystemError

PAIR = "pair"
PAIR_PLUS_IDLE = "pair_plus_idle"
PAIR_PAIR = "pair_pair"

_KIND_SIZES = {PAIR: 2, PAIR_PLUS_IDLE: 3, PAIR_PAIR: 4}


@dataclass(frozen=True)
class SubsystemSpec:
    """A subsystem to reconstruct: its kind fixes size and bipartition.

    ``qubits`` are device indices in reconstruction order: the active pair
    first, then the idle qubit or the second pair.
    """

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in _KIND_SIZES:
            raise SubsystemError(f"unknown subsystem kind {self.kind!r}")
        qubits = tuple(int(q) for q in self.qubits)
        if len(qubits) != _KIND_SIZES[self.kind]:
            raise SubsystemError(
                f"{self.kind} subsystem needs {_KIND_SIZES[self.kind]} qubits, got {qubits}"
            )
        if len(set(qubits)) != len(qubits):
            raise SubsystemError(f"subsystem qubits {qubits} must be distinct")
        object.__setattr__(self, "qubits", qubits)

    def partition_a(self) -> tuple[int, ...] | None:
        """Local positions of the first block of the kind's bipartition."""
        if self.kind == PAIR:
            return None
        return (0, 1)


@dataclass(frozen=True)
class SubsystemDiagnostics:
    """One report row.  Fields are None when not applicable or not ingested."""

    kind: str
    qubits: tuple[int, ...]
    infidelity_cs: float | None
    infidelity_zecs: float | None
    trace_distance: float | None
    s_ab: float | None
    s_ab_normalized: float | None
    degenerate_flag: bool | None
    clamp_magnitude: float | None


@dataclass(frozen=True)
class DiagnosticReport:
    subsystems: tuple[SubsystemDiagnostics, ...]
    entropy_normalization: str = "per-kind"


@dataclass(frozen=True)
class NonlocalResult:
    target: tuple[int, ...]
    candidate: tuple[int, ...]
    s_ij: float
    zscore: float
    flagged: bool
    highest: bool

"""Per-subsystem quality maps and the non-local correlation scanner.

``build_report`` reconstructs each requested subsystem from one code matrix
of a shared record stream, projects it to its dominant pure state, and scores
it against an ideal reference: infidelity of the raw and projected
reconstructions, trace distance, and (for 3- and 4-qubit subsystems) the
entanglement entropy of the bipartition the subsystem kind defines.  Entropies are computed on the
projected state, the only one for which bipartite entanglement entropy is a
well-defined measure.

``nonlocal_scan`` reconstructs a target pair jointly with each candidate
pair it shares no coupling with, from one code matrix, and flags candidates
whose cross-partition entropy sits two or more standard deviations above the
candidate-pool mean.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import shadow
from .errors import (
    AdjacencyError,
    CoverageError,
    InsufficientCandidatesError,
    MissingReferenceError,
    SubsystemError,
)
from .layout import DeviceLayout
from .projection import zecs_project
from .simulator import SnapshotRecord
from .states import DensityOperator, entanglement_entropy, fidelity, trace_distance

PAIR = "pair"
PAIR_PLUS_IDLE = "pair_plus_idle"
PAIR_PAIR = "pair_pair"

_KIND_SIZES = {PAIR: 2, PAIR_PLUS_IDLE: 3, PAIR_PAIR: 4}

#: Candidates at or above this z-score are flagged as non-locally correlated.
FLAG_ZSCORE = 2.0


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


def _check_coverage(codes: np.ndarray, qubits: Sequence[int]) -> None:
    if not len(codes):
        raise CoverageError("record stream is empty")
    width = codes.shape[1]
    missing = [q for q in qubits if q < 0 or q >= width]
    if missing:
        raise CoverageError(f"records cover qubits 0..{width - 1}, need {missing}")


def resolve_reference(
    spec: SubsystemSpec, references: Mapping[tuple[int, ...], DensityOperator]
) -> DensityOperator:
    """Ideal state for a subsystem.

    An exact entry for the full qubit tuple wins; otherwise the reference is
    composed from per-pair entries, with idle qubits in |0>.
    """
    exact = references.get(spec.qubits)
    if exact is not None:
        return exact
    first = references.get(spec.qubits[:2])
    if first is None:
        raise MissingReferenceError(f"no reference state for pair {spec.qubits[:2]}")
    if spec.kind == PAIR:
        return first
    if spec.kind == PAIR_PLUS_IDLE:
        idle = np.zeros((2, 2), dtype=complex)
        idle[0, 0] = 1.0
        matrix = np.kron(first.matrix, idle)
    else:
        second = references.get(spec.qubits[2:])
        if second is None:
            raise MissingReferenceError(f"no reference state for pair {spec.qubits[2:]}")
        matrix = np.kron(first.matrix, second.matrix)
    vec = None
    if first.pure_vector is not None:
        if spec.kind == PAIR_PLUS_IDLE:
            other = np.array([1.0, 0.0], dtype=complex)
            vec = np.kron(first.pure_vector, other)
        elif references.get(spec.qubits[2:]) is not None:
            second = references[spec.qubits[2:]]
            if second.pure_vector is not None:
                vec = np.kron(first.pure_vector, second.pure_vector)
    if vec is not None:
        return DensityOperator.from_pure(vec)
    return DensityOperator.from_matrix(matrix, validate=True)


def _diagnose_one(
    codes: np.ndarray,
    spec: SubsystemSpec,
    reference: DensityOperator,
) -> SubsystemDiagnostics:
    rho_cs = shadow.rho_cs(shadow.ShadowAccumulator(spec.qubits).add_codes(codes))
    _, clamp_magnitude = rho_cs.clamped()
    result = zecs_project(rho_cs)
    part_a = spec.partition_a()
    s_ab = None
    if part_a is not None:
        s_ab = entanglement_entropy(result.rho_zecs, part_a)
    return SubsystemDiagnostics(
        kind=spec.kind,
        qubits=spec.qubits,
        infidelity_cs=1.0 - fidelity(rho_cs, reference),
        infidelity_zecs=1.0 - fidelity(result.rho_zecs, reference),
        trace_distance=trace_distance(result.rho_zecs, reference),
        s_ab=s_ab,
        s_ab_normalized=None,
        degenerate_flag=result.degenerate_flag,
        clamp_magnitude=clamp_magnitude,
    )


def normalize_entropies(
    rows: Sequence[SubsystemDiagnostics], mode: str = "per-kind"
) -> tuple[SubsystemDiagnostics, ...]:
    """Fill ``s_ab_normalized`` by dividing by the max entropy of the row's
    kind (``per-kind``) or of all entropy-carrying rows (``global``)."""
    if mode not in ("per-kind", "global"):
        raise SubsystemError(f"unknown entropy normalization {mode!r}")
    maxima: dict[str, float] = {}
    for row in rows:
        if row.s_ab is None:
            continue
        key = row.kind if mode == "per-kind" else "all"
        maxima[key] = max(maxima.get(key, 0.0), row.s_ab)
    out = []
    for row in rows:
        if row.s_ab is None:
            out.append(row)
            continue
        key = row.kind if mode == "per-kind" else "all"
        peak = maxima.get(key, 0.0)
        normalized = row.s_ab / peak if peak > 0.0 else 0.0
        out.append(replace(row, s_ab_normalized=normalized))
    return tuple(out)


def build_report(
    records: Sequence[SnapshotRecord],
    subsystems: Sequence[SubsystemSpec],
    references: Mapping[tuple[int, ...], DensityOperator],
    entropy_normalization: str = "per-kind",
) -> DiagnosticReport:
    """Reconstruct and score every subsystem against its ideal reference."""
    codes = shadow.outcome_codes(list(records))
    specs = list(subsystems)
    for spec in specs:
        _check_coverage(codes, spec.qubits)
    refs = [resolve_reference(spec, references) for spec in specs]

    rows = [_diagnose_one(codes, spec, ref) for spec, ref in zip(specs, refs)]
    return DiagnosticReport(
        subsystems=normalize_entropies(rows, entropy_normalization),
        entropy_normalization=entropy_normalization,
    )


def _as_pair(qubits: Sequence[int]) -> tuple[int, int]:
    pair = tuple(int(q) for q in qubits)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise SubsystemError(f"{pair} is not a qubit pair")
    return pair


def score_candidates(
    target: tuple[int, int], values: Sequence[tuple[tuple[int, int], float]]
) -> list[NonlocalResult]:
    """Z-score a set of (candidate, entropy) values against their own pool.

    Used both by the live scanner and when ingesting archived entropy values.
    """
    if len(values) < 3:
        raise InsufficientCandidatesError(
            f"need at least 3 candidates for target {target}, got {len(values)}"
        )
    entropies = np.array([s for _, s in values], dtype=float)
    mean = float(entropies.mean())
    std = float(entropies.std())
    top = int(np.argmax(entropies))
    rows = []
    for i, (cand, s) in enumerate(values):
        z = (s - mean) / std if std > 0.0 else 0.0
        rows.append(
            NonlocalResult(
                target=target,
                candidate=cand,
                s_ij=float(s),
                zscore=float(z),
                flagged=bool(z >= FLAG_ZSCORE),
                highest=bool(i == top),
            )
        )
    return rows


def nonlocal_scan(
    records: Sequence[SnapshotRecord],
    targets: Sequence[Sequence[int]],
    candidates: Sequence[Sequence[int]],
    layout: DeviceLayout,
    auto_exclude: bool = True,
) -> list[NonlocalResult]:
    """Scan target pairs against candidate pairs they share no coupling with.

    Candidates that overlap a target or couple to it directly are excluded
    from that target's pool (``auto_exclude=True``, the default) or rejected
    outright (``auto_exclude=False``).
    """
    target_pairs = [_as_pair(t) for t in targets]
    candidate_pairs = [_as_pair(c) for c in candidates]
    codes = shadow.outcome_codes(list(records))
    for pair in target_pairs + candidate_pairs:
        _check_coverage(codes, pair)

    results: list[NonlocalResult] = []
    for target in target_pairs:
        pool = []
        for cand in candidate_pairs:
            conflicting = set(cand) & set(target) or layout.groups_adjacent(target, cand)
            if conflicting:
                if not auto_exclude:
                    raise AdjacencyError(
                        f"candidate {cand} overlaps or couples to target {target}"
                    )
                continue
            pool.append(cand)
        if len(pool) < 3:
            raise InsufficientCandidatesError(
                f"target {target} retains {len(pool)} candidates after exclusions"
            )
        values = []
        for cand in pool:
            joint = shadow.rho_cs(shadow.ShadowAccumulator(target + cand).add_codes(codes))
            projected = zecs_project(joint).rho_zecs
            values.append((cand, entanglement_entropy(projected, (0, 1))))
        results.extend(score_candidates(target, values))
    return results

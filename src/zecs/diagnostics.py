"""Per-subsystem quality maps and the non-local correlation scanner.

``build_report`` reconstructs each requested subsystem from one code matrix
of a shared record stream, projects it to its dominant pure state, and scores
it against its ideal pure reference: infidelity of the raw and projected
reconstructions, trace distance, and (for 3- and 4-qubit subsystems) the
entanglement entropy of the bipartition the subsystem kind defines, computed
on the projected state, the only one for which bipartite entanglement entropy
is a well-defined measure.  ``infidelity_zecs`` lies in [0, 1] up to rounding.
``infidelity_cs`` scores the raw reconstruction clamped to the PSD cone and
not renormalized, so it can fall below 0 by the clamped-away magnitude:
``clamp_magnitude`` plus the negatives within ``CLAMP_TOL`` that it ignores.
References are unit vectors: a reference operator's ``pure_vector``, or the
Kronecker product of the pair vectors (``resolve_reference``).

``nonlocal_scan`` reconstructs a target pair jointly with each candidate
pair it shares no coupling with, from one code matrix, and flags candidates
whose cross-partition entropy sits two or more standard deviations above the
candidate-pool mean.

Both build the reconstructions of one kind (of one target) as one
``shadow.rho_cs`` stack, decompose it with one ``linalg.eigh`` call and score
it with the matrix kernels of ``states``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from . import linalg, shadow, states
from .errors import (DimensionMismatchError, InsufficientCandidatesError, MissingReferenceError,
                     SubsystemError)
from .layout import DeviceLayout
from .projection import project_spectra
from .report import (
    ENTROPY_NORMALIZATIONS,
    DiagnosticReport,
    NonlocalResult,
    SubsystemDiagnostics,
    SubsystemSpec,
    as_pairs,
)
from .simulator import SnapshotRecord

#: Candidates at or above this z-score are flagged as non-locally correlated.
FLAG_ZSCORE = 2.0

def resolve_reference(
    spec: SubsystemSpec, references: Mapping[tuple[int, ...], states.DensityOperator]
) -> np.ndarray:
    """Ideal pure state of a subsystem, as a unit vector of length ``2**len(spec.qubits)``.

    An exact entry for the full qubit tuple wins; otherwise the state is the
    product of the per-pair entries, with idle qubits in |0>.  A missing
    entry, or one that is not a pure state with its vector, raises
    ``MissingReferenceError``; an entry of the wrong width raises
    ``DimensionMismatchError``.
    """
    exact = references.get(spec.qubits)
    if exact is not None:
        return _pure(exact, spec.qubits, spec)
    # A pair's one pair is its exact key, so for a pair ``_pure`` raises here.
    first, *second = (_pure(references.get(pair), pair, spec) for pair in spec.pairs())
    return np.kron(first, second[0] if second else np.array([1.0, 0.0], dtype=complex))


def _pure(
    ref: states.DensityOperator | None, qubits: tuple[int, ...], spec: SubsystemSpec
) -> np.ndarray:
    if ref is None:
        raise MissingReferenceError(f"no reference state for pair {qubits}")
    if ref.pure_vector is None:
        raise MissingReferenceError(f"reference state for {qubits} is not a pure state")
    if ref.n_qubits != len(qubits):
        raise DimensionMismatchError(f"subsystem {spec.qubits}: the reference for {qubits} "
                                     f"has {ref.n_qubits} qubit(s), not {len(qubits)}")
    return ref.pure_vector


def _diagnose_kind(
    rho: np.ndarray, specs: Sequence[SubsystemSpec], psi: np.ndarray
) -> list[SubsystemDiagnostics]:
    """Rows of one kind from their ``rho_cs`` stack (one ``eigh``) and ideal vectors ``psi``."""
    decomp = linalg.eigh(rho)
    top, zecs, degenerate = project_spectra(decomp)
    clamped, clamp_magnitude = linalg.clamp_spectrum(decomp)
    ideal = psi[:, :, None] * psi.conj()[:, None, :]
    part_a = specs[0].partition_a()
    columns = {
        "infidelity_cs": 1.0 - states.pure_fidelity_matrix(psi, clamped),
        "infidelity_zecs": 1.0 - states.pure_fidelity_matrix(top, ideal),
        "trace_distance": states.trace_distance_matrix(zecs, ideal),
        "s_ab": np.full(len(specs), None) if part_a is None
                else states.entanglement_entropy_matrix(zecs, part_a),
        "degenerate_flag": degenerate,
        "clamp_magnitude": clamp_magnitude,
    }
    rows = zip(specs, zip(*(column.tolist() for column in columns.values())))
    return [SubsystemDiagnostics(s.kind, s.qubits, s_ab_normalized=None, **dict(zip(columns, row)))
            for s, row in rows]


def normalize_entropies(
    rows: Sequence[SubsystemDiagnostics], mode: str = "per-kind"
) -> tuple[SubsystemDiagnostics, ...]:
    """Fill ``s_ab_normalized`` by dividing by the max entropy of the row's
    kind (``per-kind``) or of all entropy-carrying rows (``global``)."""
    if mode not in ENTROPY_NORMALIZATIONS:
        raise SubsystemError(f"unknown entropy normalization {mode!r}")
    keys = [row.kind if mode == "per-kind" else "all" for row in rows]
    peaks: dict[str, float] = {}
    for key, row in zip(keys, rows):
        if row.s_ab is not None:
            peaks[key] = max(peaks.get(key, 0.0), row.s_ab)
    return tuple(row if row.s_ab is None else
                 replace(row, s_ab_normalized=row.s_ab / peaks[key] if peaks[key] > 0.0 else 0.0)
                 for key, row in zip(keys, rows))


def build_report(
    stream: np.ndarray | Sequence[SnapshotRecord],
    subsystems: Sequence[SubsystemSpec],
    references: Mapping[tuple[int, ...], states.DensityOperator],
    entropy_normalization: str = "per-kind",
) -> DiagnosticReport:
    """Reconstruct and score every subsystem against its ideal pure reference.

    ``stream`` is a code matrix or a record list (see ``shadow.outcome_codes``).
    Per kind, three stacked ``linalg.eigh`` calls: the reconstructions, the
    trace distances and (for kinds with a bipartition) the marginal entropies.
    """
    codes = shadow.outcome_codes(stream)
    specs = list(subsystems)
    # Reconstruct before resolving references, so that a stream which does not
    # cover a subsystem is reported before a missing reference.
    kinds = {kind: [i for i, spec in enumerate(specs) if spec.kind == kind]
             for kind in dict.fromkeys(spec.kind for spec in specs)}
    stacks = {kind: shadow.rho_cs(codes, [specs[i].qubits for i in index])
              for kind, index in kinds.items()}
    refs = [resolve_reference(spec, references) for spec in specs]

    rows: dict[int, SubsystemDiagnostics] = {}
    for kind, index in kinds.items():
        rows.update(zip(index, _diagnose_kind(stacks[kind], [specs[i] for i in index],
                                              np.stack([refs[i] for i in index]))))
    return DiagnosticReport(
        subsystems=normalize_entropies([rows[i] for i in range(len(specs))],
                                       entropy_normalization),
        entropy_normalization=entropy_normalization,
    )


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
    stream: np.ndarray | Sequence[SnapshotRecord],
    targets: Sequence[Sequence[int]],
    candidates: Sequence[Sequence[int]],
    layout: DeviceLayout,
) -> list[NonlocalResult]:
    """Scan target pairs against candidate pairs they share no coupling with.

    ``stream`` is a code matrix or a record list (see ``shadow.outcome_codes``).

    Candidates that overlap a target or couple to it directly are left out
    of that target's pool: only regions not directly connected to the
    target are compared.  A target or candidate pair given twice, in either
    qubit order, raises ``SubsystemError``.
    """
    target_pairs = as_pairs(targets, "target")
    candidate_pairs = as_pairs(candidates, "candidate")
    codes = shadow.outcome_codes(stream)

    results: list[NonlocalResult] = []
    for target in target_pairs:
        pool = [cand for cand in candidate_pairs
                if not (set(cand) & set(target) or layout.edges_between(target, cand))]
        if len(pool) < 3:
            raise InsufficientCandidatesError(
                f"target {target} retains {len(pool)} candidates after exclusions"
            )
        joint = shadow.rho_cs(codes, [target + cand for cand in pool])
        _, zecs, _ = project_spectra(linalg.eigh(joint))
        values = list(zip(pool, states.entanglement_entropy_matrix(zecs, (0, 1)).tolist()))
        results.extend(score_candidates(target, values))
    return results

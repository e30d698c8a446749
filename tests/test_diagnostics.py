"""Tests for the diagnostic report, reference resolution and the non-local scan."""

import math

import numpy as np
import pytest

from zecs import cli, shadow
from zecs.diagnostics import (
    FLAG_ZSCORE,
    build_report,
    nonlocal_scan,
    normalize_entropies,
    resolve_reference,
    score_candidates,
)
from zecs.errors import (
    AdjacencyError,
    ConfigError,
    CoverageError,
    InsufficientCandidatesError,
    MissingReferenceError,
    SubsystemError,
)
from zecs.layout import DeviceLayout
from zecs.projection import zecs_project
from zecs.report import PAIR, PAIR_PAIR, PAIR_PLUS_IDLE, SubsystemDiagnostics, SubsystemSpec
from zecs.simulator import CNOT, RY, Circuit, Gate, SnapshotRecord, StateVector, sample_shadow
from zecs.states import DensityOperator, entanglement_entropy, fidelity, trace_distance

BELL = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
ZERO = np.array([1, 0], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)


def kron_all(*vectors):
    out = np.ones(1, dtype=complex)
    for v in vectors:
        out = np.kron(out, v)
    return out


def pure(vec):
    return DensityOperator.from_pure(vec)


@pytest.fixture
def encode_calls(monkeypatch):
    """Record the stream length of every ``shadow.outcome_codes`` call."""
    calls = []
    encode = shadow.outcome_codes

    def counted(records):
        calls.append(len(records))
        return encode(records)

    monkeypatch.setattr(shadow, "outcome_codes", counted)
    return calls


@pytest.fixture(scope="module")
def six_qubit_records():
    # Bell(0,1) (x) |0>_2 (x) Bell(3,4) (x) |+>_5
    state = StateVector(6, kron_all(BELL, ZERO, BELL, PLUS))
    return sample_shadow(state, 4000, seed=31)


class TestResolveReference:
    def test_exact_entry_wins(self):
        exact = pure(kron_all(PLUS, PLUS, PLUS))
        refs = {(0, 1): pure(BELL), (0, 1, 2): exact}
        assert resolve_reference(SubsystemSpec(PAIR_PLUS_IDLE, (0, 1, 2)), refs) is exact

    def test_pair_is_its_own_entry(self):
        bell = pure(BELL)
        assert resolve_reference(SubsystemSpec(PAIR, (3, 4)), {(3, 4): bell}) is bell

    def test_pair_plus_idle_appends_zero(self):
        ref = resolve_reference(SubsystemSpec(PAIR_PLUS_IDLE, (0, 1, 2)), {(0, 1): pure(BELL)})
        expected = kron_all(BELL, ZERO)
        assert np.allclose(ref.matrix, np.outer(expected, expected.conj()), atol=1e-15)
        assert np.allclose(ref.pure_vector, expected)

    def test_pair_pair_composes_both_pairs(self):
        refs = {(0, 1): pure(BELL), (3, 4): pure(kron_all(PLUS, ZERO))}
        ref = resolve_reference(SubsystemSpec(PAIR_PAIR, (0, 1, 3, 4)), refs)
        expected = kron_all(BELL, PLUS, ZERO)
        assert np.allclose(ref.matrix, np.outer(expected, expected.conj()), atol=1e-15)
        assert np.allclose(ref.pure_vector, expected)

    def test_mixed_pair_composes_matrices(self):
        mixed = DensityOperator.from_matrix(np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex))
        refs = {(0, 1): mixed, (3, 4): pure(BELL)}
        ref = resolve_reference(SubsystemSpec(PAIR_PAIR, (0, 1, 3, 4)), refs)
        assert ref.pure_vector is None
        assert ref.validated
        assert np.allclose(ref.matrix, np.kron(mixed.matrix, np.outer(BELL, BELL.conj())))

    @pytest.mark.parametrize("refs", [{}, {(0, 1): pure(BELL)}], ids=["first", "second"])
    def test_missing_pair_raises(self, refs):
        with pytest.raises(MissingReferenceError):
            resolve_reference(SubsystemSpec(PAIR_PAIR, (0, 1, 3, 4)), refs)


class TestReferencePolicies:
    SPECS = [SubsystemSpec(PAIR, (0, 1)), SubsystemSpec(PAIR_PLUS_IDLE, (3, 4, 5))]
    BELL_CIRCUIT = Circuit(2, (Gate(RY, 0, angle=math.pi / 2), Gate(CNOT, target=1, control=0)))

    def test_require_keeps_missing_references_missing(self):
        refs = cli._references_from_specs(self.SPECS, {(0, 1): self.BELL_CIRCUIT}, "require")
        assert set(refs) == {(0, 1)}
        assert fidelity(resolve_reference(self.SPECS[0], refs), pure(BELL)) == pytest.approx(1.0)
        with pytest.raises(MissingReferenceError):
            resolve_reference(self.SPECS[1], refs)

    def test_zero_fills_missing_pairs_with_zero_state(self):
        refs = cli._references_from_specs(self.SPECS, {(0, 1): self.BELL_CIRCUIT}, "zero")
        assert set(refs) == {(0, 1), (3, 4)}
        assert fidelity(resolve_reference(self.SPECS[0], refs), pure(BELL)) == pytest.approx(1.0)
        idle = resolve_reference(self.SPECS[1], refs)
        assert np.allclose(idle.pure_vector, kron_all(ZERO, ZERO, ZERO))

    def test_policies_agree_when_every_reference_is_given(self, six_qubit_records):
        circuits = {(0, 1): self.BELL_CIRCUIT, (3, 4): self.BELL_CIRCUIT}
        specs = [SubsystemSpec(PAIR, (0, 1)), SubsystemSpec(PAIR_PAIR, (0, 1, 3, 4))]
        reports = [
            build_report(six_qubit_records, specs, cli._references_from_specs(specs, circuits, p))
            for p in ("require", "zero")
        ]
        assert reports[0] == reports[1]

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            cli._references_from_specs(self.SPECS, {}, "guess")


def diag_row(kind, qubits, s_ab):
    return SubsystemDiagnostics(kind, qubits, 0.1, 0.05, 0.2, s_ab, None, False, 0.0)


class TestNormalizeEntropies:
    ROWS = (
        diag_row(PAIR, (0, 1), None),
        diag_row(PAIR_PLUS_IDLE, (0, 1, 2), 0.25),
        diag_row(PAIR_PLUS_IDLE, (3, 4, 5), 0.5),
        diag_row(PAIR_PAIR, (0, 1, 3, 4), 2.0),
        diag_row(PAIR_PAIR, (0, 3, 1, 4), 1.0),
    )

    def test_per_kind(self):
        out = normalize_entropies(self.ROWS, "per-kind")
        assert [r.s_ab_normalized for r in out] == [None, 0.5, 1.0, 1.0, 0.5]
        assert [r.s_ab for r in out] == [r.s_ab for r in self.ROWS]

    def test_global(self):
        out = normalize_entropies(self.ROWS, "global")
        assert [r.s_ab_normalized for r in out] == [None, 0.125, 0.25, 1.0, 0.5]

    def test_zero_peak_normalizes_to_zero(self):
        rows = (diag_row(PAIR_PLUS_IDLE, (0, 1, 2), 0.0), diag_row(PAIR_PLUS_IDLE, (3, 4, 5), 0.0))
        assert [r.s_ab_normalized for r in normalize_entropies(rows)] == [0.0, 0.0]

    def test_row_without_entropy_is_unchanged(self):
        assert normalize_entropies(self.ROWS[:1])[0] is self.ROWS[0]

    def test_unknown_mode(self):
        with pytest.raises(SubsystemError):
            normalize_entropies(self.ROWS, "per-row")


class TestBuildReport:
    SPECS = [
        SubsystemSpec(PAIR, (0, 1)),
        SubsystemSpec(PAIR, (3, 4)),
        SubsystemSpec(PAIR_PLUS_IDLE, (0, 1, 2)),
        SubsystemSpec(PAIR_PAIR, (0, 1, 3, 4)),
        SubsystemSpec(PAIR_PAIR, (0, 3, 1, 4)),
    ]
    # Bell(0,1) (x) Bell(3,4) with its qubits in the order (0, 3, 1, 4).
    CROSSED = kron_all(BELL, BELL).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(-1)

    @pytest.fixture(scope="class")
    def references(self):
        return {(0, 1): pure(BELL), (3, 4): pure(BELL), (0, 3, 1, 4): pure(self.CROSSED)}

    def test_rows_recompose_from_public_pieces(self, six_qubit_records, references):
        report = build_report(six_qubit_records, self.SPECS, references)
        assert report.entropy_normalization == "per-kind"
        assert [(r.kind, r.qubits) for r in report.subsystems] == [
            (s.kind, s.qubits) for s in self.SPECS
        ]
        for spec, row in zip(self.SPECS, report.subsystems):
            ref = resolve_reference(spec, references)
            rho = shadow.reconstruct(six_qubit_records, spec.qubits)
            result = zecs_project(rho)
            assert row.infidelity_cs == 1.0 - fidelity(rho, ref)
            assert row.infidelity_zecs == 1.0 - fidelity(result.rho_zecs, ref)
            assert row.trace_distance == trace_distance(result.rho_zecs, ref)
            assert row.clamp_magnitude == rho.clamped()[1]
            assert row.degenerate_flag == result.degenerate_flag
            if spec.kind == PAIR:
                assert row.s_ab is None and row.s_ab_normalized is None
            else:
                assert row.s_ab == entanglement_entropy(result.rho_zecs, (0, 1))

    def test_values_match_the_prepared_state(self, six_qubit_records, references):
        rows = build_report(six_qubit_records, self.SPECS, references).subsystems
        for row in rows:
            assert 0.0 <= row.infidelity_zecs < 0.05
        # |0> idle and the second Bell pair are product with the first pair;
        # the crossed order splits both Bell pairs, two bits of entanglement.
        assert rows[2].s_ab < 0.05
        assert rows[3].s_ab < 0.05
        assert rows[4].s_ab == pytest.approx(2.0, abs=0.05)
        assert rows[4].s_ab_normalized == 1.0
        assert rows[3].s_ab_normalized == rows[3].s_ab / rows[4].s_ab

    def test_global_normalization(self, six_qubit_records, references):
        rows = build_report(six_qubit_records, self.SPECS, references, "global").subsystems
        peak = max(r.s_ab for r in rows if r.s_ab is not None)
        for row in rows[2:]:
            assert row.s_ab_normalized == row.s_ab / peak

    def test_stream_is_encoded_once(self, six_qubit_records, references, encode_calls):
        build_report(six_qubit_records, self.SPECS, references)
        assert encode_calls == [len(six_qubit_records)]

    def test_ragged_stream_names_the_short_record(self, six_qubit_records, references):
        records = list(six_qubit_records[:5]) + [SnapshotRecord("XYZ", "010")]
        with pytest.raises(CoverageError, match=r"^record 5 covers qubits 0\.\.2, subset asks"):
            build_report(records, self.SPECS[:2], references)

    def test_uncovered_qubit(self, six_qubit_records, references):
        with pytest.raises(CoverageError):
            build_report(six_qubit_records, [SubsystemSpec(PAIR, (5, 6))], references)

    def test_empty_stream(self, references):
        with pytest.raises(CoverageError):
            build_report([], self.SPECS[:1], references)

    def test_missing_reference(self, six_qubit_records):
        with pytest.raises(MissingReferenceError):
            build_report(six_qubit_records, self.SPECS[:2], {(0, 1): pure(BELL)})


class TestScoreCandidates:
    def test_zscores_against_the_pool(self):
        values = [((2 * i, 2 * i + 1), 0.1 + 0.01 * i) for i in range(9)] + [((30, 31), 1.0)]
        rows = score_candidates((0, 1), values)
        entropies = np.array([s for _, s in values])
        z = (entropies - entropies.mean()) / entropies.std()
        assert [r.candidate for r in rows] == [c for c, _ in values]
        assert [r.s_ij for r in rows] == list(entropies)
        assert np.allclose([r.zscore for r in rows], z, rtol=0, atol=1e-12)
        assert [r.flagged for r in rows] == list(z >= FLAG_ZSCORE)
        assert [r.highest for r in rows] == [False] * 9 + [True]
        assert rows[-1].flagged and all(r.target == (0, 1) for r in rows)

    def test_flat_pool_flags_nothing(self):
        rows = score_candidates((0, 1), [((2, 3), 0.5), ((4, 5), 0.5), ((6, 7), 0.5)])
        assert [r.zscore for r in rows] == [0.0, 0.0, 0.0]
        assert not any(r.flagged for r in rows)
        assert [r.highest for r in rows] == [True, False, False]

    def test_needs_three_candidates(self):
        with pytest.raises(InsufficientCandidatesError):
            score_candidates((0, 1), [((2, 3), 0.5), ((4, 5), 0.7)])


class TestNonlocalScan:
    LINE = DeviceLayout(10, tuple((q, q + 1) for q in range(9)))
    # (1, 2) overlaps the target and (2, 3) couples to qubit 1; both are excluded.
    CANDIDATES = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (8, 9), (3, 8)]
    POOL = [(3, 4), (4, 5), (5, 6), (6, 7), (8, 9), (3, 8)]

    @pytest.fixture(scope="class")
    def records(self):
        # Qubits 0 and 7 share a Bell pair across the line; every other qubit is |+>.
        t = np.zeros([2] * 10)
        for b in (0, 1):
            t[(b,) + (slice(None),) * 6 + (b,)] = 1.0
        return sample_shadow(StateVector(10, t.reshape(-1) / np.linalg.norm(t)), 4000, seed=41)

    def test_planted_candidate_is_flagged(self, records):
        results = nonlocal_scan(records, [(0, 1)], self.CANDIDATES, self.LINE)
        assert [r.candidate for r in results] == self.POOL
        top = results[self.POOL.index((6, 7))]
        assert top.highest and top.flagged
        assert top.s_ij == pytest.approx(1.0, abs=0.1)
        assert [r for r in results if r.flagged] == [top]

    def test_matches_scoring_the_reconstructed_pool(self, records):
        values = []
        for cand in self.POOL:
            joint = zecs_project(shadow.reconstruct(records, (0, 1) + cand)).rho_zecs
            values.append((cand, entanglement_entropy(joint, (0, 1))))
        expected = score_candidates((0, 1), values)
        assert nonlocal_scan(records, [(0, 1)], self.CANDIDATES, self.LINE) == expected

    def test_stream_is_encoded_once(self, records, encode_calls):
        # (8, 9) keeps (1, 2)..(5, 6) in its pool: two targets, one encoding.
        results = nonlocal_scan(records, [(0, 1), (8, 9)], self.CANDIDATES, self.LINE)
        assert {r.target for r in results} == {(0, 1), (8, 9)}
        assert encode_calls == [len(records)]

    def test_conflicting_candidate_rejected_without_auto_exclude(self, records):
        with pytest.raises(AdjacencyError):
            nonlocal_scan(records, [(0, 1)], self.CANDIDATES, self.LINE, auto_exclude=False)

    def test_too_few_candidates_after_exclusion(self, records):
        with pytest.raises(InsufficientCandidatesError):
            nonlocal_scan(records, [(0, 1)], [(1, 2), (2, 3), (4, 5), (6, 7)], self.LINE)

    def test_uncovered_candidate(self, records):
        with pytest.raises(CoverageError):
            nonlocal_scan(records, [(0, 1)], [(3, 4), (5, 6), (8, 10)], self.LINE)

    def test_malformed_pair(self, records):
        with pytest.raises(SubsystemError):
            nonlocal_scan(records, [(0, 0)], self.POOL, self.LINE)

"""Tests for the diagnostic report, reference resolution and the non-local scan."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from zecs import cli, io, linalg, shadow
from zecs.diagnostics import (
    FLAG_ZSCORE,
    build_report,
    nonlocal_scan,
    normalize_entropies,
    resolve_reference,
    score_candidates,
)
from zecs.errors import (
    ConfigError,
    CoverageError,
    DimensionMismatchError,
    InsufficientCandidatesError,
    MissingReferenceError,
    RecordError,
    SubsystemError,
)
from zecs.layout import DeviceLayout
from zecs.projection import zecs_project
from zecs.report import PAIR, PAIR_PAIR, PAIR_PLUS_IDLE, SubsystemDiagnostics, SubsystemSpec
from zecs.simulator import CNOT, RY, Circuit, Gate, SnapshotRecord, StateVector, sample_shadow
from zecs.states import DensityOperator, entanglement_entropy, fidelity, trace_distance

#: Canonical output bytes of ``build_report`` and ``nonlocal_scan`` on the seeded
#: streams below, pinned so that kernel rewrites must keep every byte.
GOLDEN = Path(__file__).resolve().parent / "golden"

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


@pytest.fixture
def eigh_calls(monkeypatch):
    """Record the shape of every ``linalg.eigh`` argument."""
    calls = []
    eigh = linalg.eigh

    def counted(m, *args, **kwargs):
        calls.append(np.shape(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(linalg, "eigh", counted)
    return calls


@pytest.fixture(scope="module")
def six_qubit_records():
    # Bell(0,1) (x) |0>_2 (x) Bell(3,4) (x) |+>_5
    state = StateVector(6, kron_all(BELL, ZERO, BELL, PLUS))
    return sample_shadow(state, 4000, seed=31)


class TestResolveReference:
    def test_pairs_of_each_kind(self):
        assert SubsystemSpec(PAIR, (3, 4)).pairs() == ((3, 4),)
        assert SubsystemSpec(PAIR_PLUS_IDLE, (0, 1, 2)).pairs() == ((0, 1),)
        assert SubsystemSpec(PAIR_PAIR, (0, 3, 1, 4)).pairs() == ((0, 3), (1, 4))

    @pytest.mark.parametrize("qubits, bad", [
        ((0, 1.9), "1.9"), ((True, 2), "True"), ((0, np.float64(1.0)), "np.float64(1.0)"),
        ((0, "1"), "'1'"),
    ])
    def test_spec_rejects_non_integer_qubits(self, qubits, bad):
        message = f"^qubit index must be an integer, got {re.escape(bad)}$"
        with pytest.raises(SubsystemError, match=message):
            SubsystemSpec(PAIR, qubits)

    def test_spec_accepts_numpy_integers(self):
        spec = SubsystemSpec(PAIR_PLUS_IDLE, (np.int64(3), np.uint8(4), 5))
        assert spec.qubits == (3, 4, 5)
        assert all(type(q) is int for q in spec.qubits)

    def test_exact_entry_wins(self):
        exact = pure(kron_all(PLUS, PLUS, PLUS))
        refs = {(0, 1): pure(BELL), (0, 1, 2): exact}
        spec = SubsystemSpec(PAIR_PLUS_IDLE, (0, 1, 2))
        assert resolve_reference(spec, refs) is exact.pure_vector

    def test_pair_is_its_own_entry(self):
        bell = pure(BELL)
        assert resolve_reference(SubsystemSpec(PAIR, (3, 4)), {(3, 4): bell}) is bell.pure_vector

    def test_pair_plus_idle_appends_zero(self):
        ref = resolve_reference(SubsystemSpec(PAIR_PLUS_IDLE, (0, 1, 2)), {(0, 1): pure(BELL)})
        assert ref.shape == (8,) and ref.dtype == complex
        assert np.array_equal(ref, kron_all(BELL, ZERO))

    def test_pair_pair_composes_both_pairs(self):
        refs = {(0, 1): pure(BELL), (3, 4): pure(kron_all(PLUS, ZERO))}
        ref = resolve_reference(SubsystemSpec(PAIR_PAIR, (0, 1, 3, 4)), refs)
        assert ref.shape == (16,)
        assert np.array_equal(ref, kron_all(BELL, PLUS, ZERO))

    @pytest.mark.parametrize(
        "spec", [SubsystemSpec(PAIR, (0, 1)), SubsystemSpec(PAIR_PAIR, (3, 4, 0, 1))],
        ids=["pair", "second-pair"],
    )
    def test_mixed_reference_is_rejected(self, spec):
        mixed = DensityOperator.from_matrix(np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex))
        refs = {(0, 1): mixed, (3, 4): pure(BELL)}
        with pytest.raises(MissingReferenceError, match=r"\(0, 1\) is not a pure state"):
            resolve_reference(spec, refs)

    def test_mixed_exact_entry_is_rejected(self):
        mixed = DensityOperator.from_matrix(np.eye(8, dtype=complex) / 8)
        refs = {(0, 1): pure(BELL), (0, 1, 2): mixed}
        with pytest.raises(MissingReferenceError, match="not a pure state"):
            resolve_reference(SubsystemSpec(PAIR_PLUS_IDLE, (0, 1, 2)), refs)

    @pytest.mark.parametrize("refs", [{}, {(0, 1): pure(BELL)}], ids=["first", "second"])
    def test_missing_pair_raises(self, refs):
        with pytest.raises(MissingReferenceError):
            resolve_reference(SubsystemSpec(PAIR_PAIR, (0, 1, 3, 4)), refs)

    @pytest.mark.parametrize("spec, refs, key, width", [
        (SubsystemSpec(PAIR, (0, 1)), {(0, 1): pure(kron_all(ZERO, ZERO, ZERO))}, (0, 1), 3),
        (SubsystemSpec(PAIR_PLUS_IDLE, (0, 1, 2)), {(0, 1, 2): pure(BELL)}, (0, 1, 2), 2),
        (SubsystemSpec(PAIR_PLUS_IDLE, (0, 1, 2)), {(0, 1): pure(ZERO)}, (0, 1), 1),
        (SubsystemSpec(PAIR_PAIR, (0, 1, 3, 4)), {(0, 1): pure(BELL), (3, 4): pure(ZERO)},
         (3, 4), 1),
    ], ids=["exact-pair", "exact-idle", "first-pair", "second-pair"])
    def test_wrong_width_names_the_subsystem(self, spec, refs, key, width):
        message = (re.escape(f"subsystem {spec.qubits}: the reference for {key} has {width} ")
                   + rf"qubit\(s\), not {len(key)}$")
        with pytest.raises(DimensionMismatchError, match=message):
            resolve_reference(spec, refs)


class TestReferencePolicies:
    SPECS = [SubsystemSpec(PAIR, (0, 1)), SubsystemSpec(PAIR_PLUS_IDLE, (3, 4, 5))]
    BELL_CIRCUIT = Circuit(2, (Gate(RY, 0, angle=math.pi / 2), Gate(CNOT, target=1, control=0)))

    def test_require_keeps_missing_references_missing(self):
        refs = cli._references_from_specs(self.SPECS, {(0, 1): self.BELL_CIRCUIT}, "require")
        assert set(refs) == {(0, 1)}
        assert abs(np.vdot(BELL, resolve_reference(self.SPECS[0], refs))) == pytest.approx(1.0)
        with pytest.raises(MissingReferenceError):
            resolve_reference(self.SPECS[1], refs)

    def test_zero_fills_missing_pairs_with_zero_state(self):
        refs = cli._references_from_specs(self.SPECS, {(0, 1): self.BELL_CIRCUIT}, "zero")
        assert set(refs) == {(0, 1), (3, 4)}
        assert abs(np.vdot(BELL, resolve_reference(self.SPECS[0], refs))) == pytest.approx(1.0)
        idle = resolve_reference(self.SPECS[1], refs)
        assert np.allclose(idle, kron_all(ZERO, ZERO, ZERO))

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
            ref = pure(resolve_reference(spec, references))
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

    def test_output_bytes_match_golden(self, six_qubit_records, references):
        report = build_report(six_qubit_records, self.SPECS, references)
        golden = (GOLDEN / "report_six_qubit.json").read_text(encoding="ascii")
        assert io.canonical_dumps(io.report_to_obj(report)) == golden

    def test_stream_is_encoded_once(self, six_qubit_records, references, encode_calls):
        build_report(six_qubit_records, self.SPECS, references)
        assert encode_calls == [len(six_qubit_records)]

    def test_code_matrix_gives_the_same_bytes(self, six_qubit_records, references, encode_calls):
        codes = shadow.outcome_codes(six_qubit_records)
        report = build_report(codes, self.SPECS, references)
        golden = (GOLDEN / "report_six_qubit.json").read_text(encoding="ascii")
        assert io.canonical_dumps(io.report_to_obj(report)) == golden
        # The encoding above, then one pass-through call in build_report.
        assert encode_calls == [len(six_qubit_records)] * 2

    def test_one_stacked_spectrum_per_kind(self, six_qubit_records, references, eigh_calls):
        build_report(six_qubit_records, self.SPECS, references)
        # Per kind: the reconstructions, then the trace distances, then (with a
        # bipartition) the marginals; never more than 3 calls per subsystem size.
        assert eigh_calls == [(2, 4, 4), (2, 4, 4), (1, 8, 8), (1, 8, 8), (1, 4, 4),
                              (2, 16, 16), (2, 16, 16), (2, 4, 4)]

    def test_rows_respect_the_clamped_bounds(self, references):
        # Few records leave the reconstructions strongly indefinite, so the
        # clamped operator's fidelity can exceed 1 by up to the clamp magnitude.
        state = StateVector(6, kron_all(BELL, ZERO, BELL, PLUS))
        rows = build_report(sample_shadow(state, 150, seed=7), self.SPECS, references).subsystems
        assert any(row.infidelity_cs < 0.0 for row in rows)
        for row in rows:
            assert row.clamp_magnitude > 0.0
            assert row.infidelity_cs >= -row.clamp_magnitude - 1e-9
            assert 0.0 <= row.infidelity_zecs <= 1.0 + 1e-12

    def test_ragged_stream_names_the_short_record(self, six_qubit_records, references):
        records = list(six_qubit_records[:5]) + [SnapshotRecord("XYZ", "010")]
        with pytest.raises(RecordError, match=r"^record 5 covers 3 qubits, record 0 covers 6$"):
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

    def test_output_bytes_match_golden(self, records):
        results = nonlocal_scan(records, [(0, 1), (8, 9)], self.CANDIDATES, self.LINE)
        golden = (GOLDEN / "scan_ten_qubit.json").read_text(encoding="ascii")
        assert io.canonical_dumps(io.scan_to_obj(results)) == golden

    def test_stream_is_encoded_once(self, records, encode_calls):
        # (8, 9) keeps (1, 2)..(5, 6) in its pool: two targets, one encoding.
        results = nonlocal_scan(records, [(0, 1), (8, 9)], self.CANDIDATES, self.LINE)
        assert {r.target for r in results} == {(0, 1), (8, 9)}
        assert encode_calls == [len(records)]

    def test_code_matrix_gives_the_same_bytes(self, records, encode_calls):
        codes = shadow.outcome_codes(records)
        results = nonlocal_scan(codes, [(0, 1), (8, 9)], self.CANDIDATES, self.LINE)
        golden = (GOLDEN / "scan_ten_qubit.json").read_text(encoding="ascii")
        assert io.canonical_dumps(io.scan_to_obj(results)) == golden
        assert encode_calls == [len(records)] * 2

    def test_two_stacked_spectra_per_target(self, records, eigh_calls):
        nonlocal_scan(records, [(0, 1), (8, 9)], self.CANDIDATES, self.LINE)
        assert eigh_calls == [(6, 16, 16), (6, 4, 4), (5, 16, 16), (5, 4, 4)]

    def test_overlapping_and_adjacent_candidates_are_dropped(self, records):
        # (0, 1): (1, 2) overlaps and (2, 3) couples to qubit 1.  (8, 9): (8, 9) and
        # (3, 8) overlap, and (6, 7) couples to qubit 8 through the edge (7, 8).
        results = nonlocal_scan(records, [(0, 1), (8, 9)], self.CANDIDATES, self.LINE)
        pools = {target: [r.candidate for r in results if r.target == target]
                 for target in [(0, 1), (8, 9)]}
        assert pools == {(0, 1): self.POOL, (8, 9): [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]}

    def test_too_few_candidates_after_exclusion(self, records):
        with pytest.raises(InsufficientCandidatesError):
            nonlocal_scan(records, [(0, 1)], [(1, 2), (2, 3), (4, 5), (6, 7)], self.LINE)

    def test_uncovered_candidate(self, records):
        with pytest.raises(CoverageError):
            nonlocal_scan(records, [(0, 1)], [(3, 4), (5, 6), (8, 10)], self.LINE)

    def test_malformed_pair(self, records):
        with pytest.raises(SubsystemError):
            nonlocal_scan(records, [(0, 0)], self.POOL, self.LINE)

    @pytest.mark.parametrize("twin", [(3, 4), (4, 3)], ids=["same-order", "reversed"])
    def test_repeated_pair_is_rejected(self, records, twin):
        with pytest.raises(SubsystemError, match=rf"^candidate pair {re.escape(str(twin))} "
                                                 r"repeats candidate pair \(3, 4\)$"):
            nonlocal_scan(records, [(0, 1)], [*self.POOL, twin], self.LINE)
        with pytest.raises(SubsystemError, match=r"^target pair \(1, 0\) repeats target pair"):
            nonlocal_scan(records, [(0, 1), (1, 0)], self.POOL, self.LINE)

    @pytest.mark.parametrize("pair, bad", [((0.7, 1), "0.7"), ((0, True), "True")])
    def test_non_integer_qubit(self, records, pair, bad):
        message = f"^qubit index must be an integer, got {bad}$"
        with pytest.raises(SubsystemError, match=message):
            nonlocal_scan(records, [pair], self.POOL, self.LINE)
        with pytest.raises(SubsystemError, match=message):
            nonlocal_scan(records, [(0, 1)], [*self.POOL, pair], self.LINE)

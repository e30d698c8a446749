"""Tests for snapshot inversion and accumulation.

The central oracle: averaging inverted snapshots over every basis string and
outcome, weighted by the exact Born probabilities, must reproduce the input
state to machine precision (the inverted channel is unbiased).  The
histogram kernel ``ShadowAccumulator.add_codes`` is checked bit for bit
against a per-record Kronecker-product oracle, through ``add_many``.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from zecs import linalg
from zecs.errors import CoverageError, EmptyAccumulatorError, SubsystemError
from zecs.shadow import _FACTORS, ShadowAccumulator, outcome_codes, reconstruct, rho_cs
from zecs.simulator import BASIS_ROTATIONS, SnapshotRecord, StateVector, sample_shadow


def invert_snapshot(record, qubit_subset):
    """Per-record oracle: Kronecker product of the subset's factors, in subset order."""
    factors = [_FACTORS["XYZ".index(record.bases[q]), int(record.bits[q])] for q in qubit_subset]
    return functools.reduce(np.kron, factors)


def oracle_sum(records, qubit_subset):
    dim = 2 ** len(qubit_subset)
    total = np.zeros((dim, dim), dtype=complex)
    for record in records:
        total += invert_snapshot(record, qubit_subset)
    return total


def snapshot(record, qubit_subset):
    """Inverted snapshot of one record, through the accumulator."""
    return ShadowAccumulator(qubit_subset).add_many([record]).sum_matrix


def random_records(rng, n_records, width):
    return [
        SnapshotRecord(
            bases="".join(rng.choice(list("XYZ"), width)),
            bits="".join(rng.choice(list("01"), width)),
        )
        for _ in range(n_records)
    ]


def exact_channel_average(rho, n_qubits):
    """Enumerate all basis strings x outcomes with exact Born weights."""
    dim = 2**n_qubits
    total = np.zeros((dim, dim), dtype=complex)
    for bases in itertools.product("XYZ", repeat=n_qubits):
        u = functools.reduce(np.kron, [BASIS_ROTATIONS[b] for b in bases])
        rotated = u @ rho @ u.conj().T
        for outcome in range(dim):
            prob = rotated[outcome, outcome].real / 3**n_qubits
            record = SnapshotRecord(bases="".join(bases), bits=format(outcome, f"0{n_qubits}b"))
            total += prob * invert_snapshot(record, list(range(n_qubits)))
    return total


def random_density_matrix(rng, n_qubits):
    dim = 2**n_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestInvertSnapshot:
    def test_z_basis_factors(self):
        rec = SnapshotRecord(bases="Z", bits="0")
        assert np.array_equal(snapshot(rec, [0]), np.diag([2.0, -1.0]).astype(complex))
        rec = SnapshotRecord(bases="Z", bits="1")
        assert np.array_equal(snapshot(rec, [0]), np.diag([-1.0, 2.0]).astype(complex))

    def test_x_basis_factor(self):
        rec = SnapshotRecord(bases="X", bits="0")
        expected = np.array([[0.5, 1.5], [1.5, 0.5]], dtype=complex)
        assert np.array_equal(snapshot(rec, [0]), expected)

    def test_y_basis_factor(self):
        rec = SnapshotRecord(bases="Y", bits="1")
        expected = np.array([[0.5, 1.5j], [-1.5j, 0.5]], dtype=complex)
        assert np.array_equal(snapshot(rec, [0]), expected)

    def test_factor_spectrum(self):
        for basis in "XYZ":
            for bit in "01":
                rec = SnapshotRecord(bases=basis, bits=bit)
                factor = snapshot(rec, [0])
                assert np.trace(factor) == 1.0
                values = np.sort(np.linalg.eigvalsh(factor))
                assert np.allclose(values, [-1.0, 2.0], atol=1e-12)

    def test_subset_order_controls_factor_order(self):
        rec = SnapshotRecord(bases="ZX", bits="00")
        forward = snapshot(rec, [0, 1])
        reverse = snapshot(rec, [1, 0])
        z0 = np.diag([2.0, -1.0]).astype(complex)
        x0 = np.array([[0.5, 1.5], [1.5, 0.5]], dtype=complex)
        assert np.array_equal(forward, np.kron(z0, x0))
        assert np.array_equal(reverse, np.kron(x0, z0))

    def test_factor_table_matches_definition(self):
        for b, basis in enumerate("XYZ"):
            u = BASIS_ROTATIONS[basis]
            for bit in (0, 1):
                ket = u.conj().T[:, bit]
                defined = 3.0 * np.outer(ket, ket.conj()) - np.eye(2)
                factor = _FACTORS[b, bit]
                assert np.abs(factor - defined).max() <= 1e-15
                assert np.array_equal(2 * factor, np.round(2 * factor))
                assert np.trace(factor) == 1.0

    def test_subset_extraction_matches_partial_trace(self):
        rec = SnapshotRecord(bases="XYZ", bits="101")
        full = snapshot(rec, [0, 1, 2])
        sub = snapshot(rec, [0, 2])
        via_trace = linalg.partial_trace(full, [0, 2], 3)
        assert np.allclose(sub, via_trace, atol=1e-12)

    def test_coverage_checked(self):
        rec = SnapshotRecord(bases="XY", bits="01")
        with pytest.raises(CoverageError):
            snapshot(rec, [2])
        with pytest.raises(CoverageError):
            snapshot(rec, [-1])
        with pytest.raises(SubsystemError):
            snapshot(rec, [0, 0])
        with pytest.raises(SubsystemError):
            snapshot(rec, [])


class TestHistogramKernel:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_per_record_oracle(self, k):
        rng = np.random.default_rng(100 + k)
        records = random_records(rng, 400, 8)
        subset = [int(q) for q in rng.permutation(8)[:k]]
        acc = ShadowAccumulator(subset).add_many(iter(records))
        assert acc.count == len(records)
        assert np.array_equal(acc.sum_matrix, oracle_sum(records, subset))

    @pytest.mark.parametrize("subset", [[3, 0, 2], [2, 1, 0], [4, 1], [0, 4, 2, 3]])
    def test_reversed_and_non_contiguous_subsets(self, subset):
        records = random_records(np.random.default_rng(7), 300, 5)
        acc = ShadowAccumulator(subset).add_many(records)
        assert np.array_equal(acc.sum_matrix, oracle_sum(records, subset))

    def test_every_local_outcome_once(self):
        records = [
            SnapshotRecord(bases="".join(bases), bits="".join(bits))
            for bases in itertools.product("XYZ", repeat=2)
            for bits in itertools.product("01", repeat=2)
        ]
        for subset in ([0, 1], [1, 0]):
            acc = ShadowAccumulator(subset).add_many(records)
            assert np.array_equal(acc.sum_matrix, oracle_sum(records, subset))
            assert np.trace(acc.sum_matrix) == len(records)

    def test_mixed_width_batch_reads_no_padding(self):
        rng = np.random.default_rng(8)
        records = random_records(rng, 20, 5) + random_records(rng, 20, 3)
        rng.shuffle(records)
        acc = ShadowAccumulator([2, 0]).add_many(records)
        assert np.array_equal(acc.sum_matrix, oracle_sum(records, [2, 0]))

    def test_mixed_width_batch_with_short_record_later(self):
        records = [
            SnapshotRecord(bases="ZZZZ", bits="0000"),
            SnapshotRecord(bases="XYZX", bits="0101"),
            SnapshotRecord(bases="XY", bits="11"),
            SnapshotRecord(bases="YYYY", bits="1111"),
        ]
        acc = ShadowAccumulator([0, 3])
        with pytest.raises(
            CoverageError, match=r"^record 2 covers qubits 0\.\.1, subset asks for \[0, 3\]$"
        ):
            acc.add_many(records)
        assert acc.count == 0
        assert not acc.sum_matrix.any()

    def test_empty_batch_changes_nothing(self):
        acc = ShadowAccumulator([0, 1]).add_many([])
        assert acc.count == 0
        assert not acc.sum_matrix.any()


class TestCodeMatrix:
    def test_codes_are_two_basis_plus_bit(self):
        codes = outcome_codes([SnapshotRecord("XYZ", "011"), SnapshotRecord("ZX", "10")])
        assert codes.dtype == np.uint8
        # The short record's uncovered qubit reads 6.
        assert codes.tolist() == [[0, 3, 5], [5, 0, 6]]
        assert outcome_codes([]).shape == (0, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_add_many_equals_add_codes_and_sharded_merge(self, seed):
        rng = np.random.default_rng(200 + seed)
        records = random_records(rng, int(rng.integers(1, 400)), 9)
        codes = outcome_codes(records)
        for k in range(1, 6):
            subset = [int(q) for q in rng.permutation(9)[:k]]
            by_records = ShadowAccumulator(subset).add_many(records)
            by_codes = ShadowAccumulator(subset).add_codes(codes)
            assert by_codes.count == by_records.count == len(records)
            assert np.array_equal(by_codes.sum_matrix, by_records.sum_matrix)
            cut = int(rng.integers(0, len(records) + 1))
            left = ShadowAccumulator(subset).add_codes(codes[:cut])
            right = ShadowAccumulator(subset).add_many(records[cut:])
            assert left.count + right.count == by_records.count
            assert np.array_equal(left.sum_matrix + right.sum_matrix, by_records.sum_matrix)


class TestUnbiasedness:
    def test_single_qubit_plus_state(self):
        plus = np.array([1, 1]) / math.sqrt(2)
        rho = np.outer(plus, plus).astype(complex)
        assert np.abs(exact_channel_average(rho, 1) - rho).max() <= 1e-12

    def test_random_two_qubit_state(self):
        rng = np.random.default_rng(17)
        rho = random_density_matrix(rng, 2)
        assert np.abs(exact_channel_average(rho, 2) - rho).max() <= 1e-12

    def test_random_three_qubit_state(self):
        rng = np.random.default_rng(18)
        rho = random_density_matrix(rng, 3)
        assert np.abs(exact_channel_average(rho, 3) - rho).max() <= 1e-12


class TestAccumulator:
    def test_single_record(self):
        acc = ShadowAccumulator([0]).add_many([SnapshotRecord(bases="Z", bits="0")])
        assert acc.count == 1
        assert np.array_equal(acc.sum_matrix, np.diag([2.0, -1.0]).astype(complex))

    def test_add_many_matches_sequential(self):
        state = StateVector(2, np.array([1, 1, 1, 1], dtype=complex) / 2)
        records = sample_shadow(state, 300, seed=5)
        one = ShadowAccumulator([0, 1])
        for rec in records:
            one.add_many([rec])
        bulk = ShadowAccumulator([0, 1]).add_many(records)
        assert bulk.count == one.count
        assert np.array_equal(bulk.sum_matrix, one.sum_matrix)
        assert np.array_equal(bulk.sum_matrix, oracle_sum(records, [0, 1]))

    def test_records_must_cover_subset(self):
        acc = ShadowAccumulator([3])
        with pytest.raises(CoverageError):
            acc.add_many([SnapshotRecord(bases="XY", bits="01")])
        with pytest.raises(CoverageError):
            acc.add_many(
                [SnapshotRecord(bases="XYZX", bits="0110"), SnapshotRecord(bases="XY", bits="01")]
            )


class TestRhoCs:
    def test_single_record_mean(self):
        acc = ShadowAccumulator([0]).add_many([SnapshotRecord(bases="Z", bits="0")])
        rho = rho_cs(acc)
        assert not rho.validated
        assert np.array_equal(rho.matrix, np.diag([2.0, -1.0]).astype(complex))

    def test_empty_accumulator_rejected(self):
        with pytest.raises(EmptyAccumulatorError):
            rho_cs(ShadowAccumulator([0]))

    def test_trace_exactly_one(self):
        state = StateVector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
        records = sample_shadow(state, 777, seed=7)
        rho = reconstruct(records, [0, 1])
        assert np.trace(rho.matrix) == 1.0 + 0.0j

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_trace_exact_across_seeds(self, k):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            amps = rng.normal(size=2**k) + 1j * rng.normal(size=2**k)
            state = StateVector(k, amps / np.linalg.norm(amps))
            records = sample_shadow(state, int(rng.integers(1, 200)), seed=seed)
            acc = ShadowAccumulator(range(k)).add_many(records)
            assert np.trace(acc.sum_matrix) == acc.count
            rho = rho_cs(acc)
            assert np.trace(rho.matrix) == 1.0
            assert sum(rho.matrix.diagonal().real[::-1]) == 1.0
            mean = acc.sum_matrix / acc.count
            bound = 2 * (np.abs(mean.diagonal()).sum() + 1) * 2.0**-52
            assert np.abs(rho.matrix - mean).max() < bound

    def test_mean_converges_to_state(self):
        state = StateVector(1, np.array([1, 0], dtype=complex))
        records = sample_shadow(state, 100_000, seed=8)
        rho = reconstruct(records, [0])
        target = np.diag([1.0, 0.0]).astype(complex)
        assert np.linalg.norm(rho.matrix - target) <= 0.02

    def test_frobenius_error_scales_like_inverse_sqrt_n(self):
        state = StateVector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
        rho_true = np.outer(state.amplitudes, state.amplitudes.conj())
        sizes = [100, 1000, 10_000]
        log_err = []
        for n in sizes:
            errs = []
            for seed in range(20):
                recs = sample_shadow(state, n, seed=1000 * n + seed)
                errs.append(np.linalg.norm(reconstruct(recs, [0, 1]).matrix - rho_true))
            log_err.append(math.log10(np.mean(errs)))
        slope = np.polyfit(np.log10(sizes), log_err, 1)[0]
        assert -0.65 <= slope <= -0.35

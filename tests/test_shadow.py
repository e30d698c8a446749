"""Tests for snapshot inversion and the stacked ``rho_cs`` kernel.

The central oracle: averaging inverted snapshots over every basis string and
outcome, weighted by the exact Born probabilities, must reproduce the input
state to machine precision (the inverted channel is unbiased).  The
histogram kernel ``rho_cs`` is checked bit for bit against a per-record
Kronecker-product oracle.
"""

import functools
import itertools
import math
import re

import numpy as np
import pytest

from zecs import linalg
from zecs.errors import CoverageError, RecordError, SubsystemError
from zecs.shadow import (
    _FACTORS,
    _unit_trace_diagonal,
    encode_rows,
    outcome_codes,
    reconstruct,
    rho_cs,
)
from zecs.simulator import BASIS_ROTATIONS, SnapshotRecord, StateVector, sample_shadow


def oracle_snapshots(records, qubit_subset):
    """Per-record oracle: each record's Kronecker product of its subset factors, in subset order."""
    out = np.ones((len(records), 1, 1), dtype=complex)
    for q in qubit_subset:
        factors = np.stack([_FACTORS["XYZ".index(r.bases[q]), int(r.bits[q])] for r in records])
        out = np.einsum("nab,ncd->nacbd", out, factors).reshape(len(records), 2 * len(out[0]), -1)
    return out


def invert_snapshot(record, qubit_subset):
    return oracle_snapshots([record], qubit_subset)[0]


def oracle_sum(records, qubit_subset, chunk=16):
    """Exact: every partial sum of the snapshots is a multiple of 2**-k.  Summed ``chunk``
    records at a time, so eight qubits take 16 * 256**2 complex entries at most."""
    return sum(oracle_snapshots(records[at:at + chunk], qubit_subset).sum(axis=0)
               for at in range(0, len(records), chunk))


def oracle_mean(records, qubit_subset):
    """``rho_cs`` from the oracle sum, through the kernel's division, hermitization and grid."""
    mean = oracle_sum(records, qubit_subset) / len(records)
    mean = (mean + mean.conj().T) / 2.0
    np.fill_diagonal(mean, _unit_trace_diagonal(mean.diagonal().real[None])[0])
    return mean


def snapshot(record, qubit_subset):
    """Inverted snapshot of one record: the ``rho_cs`` of a one-record stream."""
    return rho_cs(outcome_codes([record]), [qubit_subset])[0]


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
        via_trace = linalg.partial_trace(full, [0, 2])
        assert np.allclose(sub, via_trace, atol=1e-12)

    def test_coverage_checked(self):
        rec = SnapshotRecord(bases="XY", bits="01")
        with pytest.raises(CoverageError):
            snapshot(rec, [2])
        with pytest.raises(SubsystemError):
            snapshot(rec, [-1])
        with pytest.raises(SubsystemError):
            snapshot(rec, [0, 0])
        with pytest.raises(SubsystemError):
            snapshot(rec, [])


class TestHistogramKernel:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_per_record_oracle(self, k):
        """Up to k = 6 a subset's index 6**k - 1 fits in uint16; from k = 7 it does not."""
        rng = np.random.default_rng(100 + k)
        records = random_records(rng, 400, 8)
        subset = [int(q) for q in rng.permutation(8)[:k]]
        rho = rho_cs(outcome_codes(records), [subset])
        assert rho.shape == (1, 2**k, 2**k)
        assert np.array_equal(rho[0], oracle_mean(records, subset))

    @pytest.mark.parametrize("k", [1, 3, 6, 7, 8])
    def test_column_reversed_view(self, k):
        """The ``q0-rightmost`` matrix ``read_snapshots`` returns is a reversed view: its
        column q is qubit 7 - q of the records, and it reads as a contiguous copy does."""
        rng = np.random.default_rng(400 + k)
        records = random_records(rng, 300, 8)
        view = outcome_codes(records)[:, ::-1]
        assert not view.flags.c_contiguous
        subsets = [[int(q) for q in rng.permutation(8)[:k]] for _ in range(3)]
        stack = rho_cs(view, subsets)
        assert stack.tobytes() == rho_cs(np.ascontiguousarray(view), subsets).tobytes()
        for got, subset in zip(stack, subsets):
            assert np.array_equal(got, oracle_mean(records, [7 - q for q in subset]))

    @pytest.mark.parametrize("dtype, bad, column", [
        (np.uint8, 6, 1), (np.uint8, 255, 1), (np.uint8, 6, 3),
        (np.int64, -1, 1), (np.int64, 2**16 + 3, 1),
    ])
    def test_codes_outside_0_to_5_are_rejected(self, dtype, bad, column):
        """Also in a column no subset reads, and for a value that wraps to a code in uint16."""
        codes = outcome_codes(random_records(np.random.default_rng(11), 20, 4)).astype(dtype)
        codes[7, column] = bad
        with pytest.raises(RecordError, match=rf"^a code matrix holds codes 0\.\.5, got {bad}$"):
            rho_cs(codes, [[0, 1], [1, 2]])

    def test_codes_must_be_integers(self):
        codes = outcome_codes(random_records(np.random.default_rng(12), 5, 2)).astype(float)
        with pytest.raises(RecordError, match=r"^a code matrix holds integer codes, got float64$"):
            rho_cs(codes, [[0, 1]])

    @pytest.mark.parametrize("subset", [[3, 0, 2], [2, 1, 0], [4, 1], [0, 4, 2, 3]])
    def test_reversed_and_non_contiguous_subsets(self, subset):
        records = random_records(np.random.default_rng(7), 300, 5)
        rho = rho_cs(outcome_codes(records), [subset])[0]
        assert np.array_equal(rho, oracle_mean(records, subset))

    def test_every_local_outcome_once(self):
        records = [
            SnapshotRecord(bases="".join(bases), bits="".join(bits))
            for bases in itertools.product("XYZ", repeat=2)
            for bits in itertools.product("01", repeat=2)
        ]
        assert np.trace(oracle_sum(records, [0, 1])) == len(records)
        rho = rho_cs(outcome_codes(records), [[0, 1], [1, 0]])
        for got, subset in zip(rho, ([0, 1], [1, 0])):
            assert np.array_equal(got, oracle_mean(records, subset))
            assert np.trace(got) == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_stack_matches_single_subset_calls(self, seed):
        rng = np.random.default_rng(300 + seed)
        codes = outcome_codes(random_records(rng, int(rng.integers(1, 400)), 9))
        for k in range(1, 6):
            subsets = [[int(q) for q in rng.permutation(9)[:k]] for _ in range(rng.integers(2, 8))]
            stack = rho_cs(codes, subsets)
            assert stack.shape == (len(subsets), 2**k, 2**k)
            for got, subset in zip(stack, subsets):
                assert got.tobytes() == rho_cs(codes, [subset])[0].tobytes()

    def test_mixed_width_batch_with_short_record_later(self):
        records = [
            SnapshotRecord(bases="ZZZZ", bits="0000"),
            SnapshotRecord(bases="XYZX", bits="0101"),
            SnapshotRecord(bases="XY", bits="11"),
            SnapshotRecord(bases="YYYY", bits="1111"),
        ]
        with pytest.raises(RecordError, match=r"^record 2: record width 2 != expected 4$"):
            outcome_codes(records)
        with pytest.raises(RecordError, match=r"^record 1: record width 4 != expected 2$"):
            outcome_codes(records[2:])
        with pytest.raises(RecordError, match=r"^record 3: record width 4 != expected 2$"):
            outcome_codes(records[2:3] * 3 + records[:1])

    def test_subsets_must_share_one_size(self):
        codes = outcome_codes(random_records(np.random.default_rng(9), 10, 4))
        with pytest.raises(SubsystemError):
            rho_cs(codes, [[0, 1], [2]])
        with pytest.raises(SubsystemError):
            rho_cs(codes, [])


    @pytest.mark.parametrize("subset, bad", [([0.9, 2], "0.9"), ([False, 2], "False")])
    def test_qubits_must_be_integers(self, subset, bad):
        codes = outcome_codes(random_records(np.random.default_rng(9), 10, 4))
        with pytest.raises(SubsystemError, match=rf"^qubit index must be an integer, got {bad}$"):
            rho_cs(codes, [subset])
        assert np.array_equal(rho_cs(codes, [np.array([0, 2])]), rho_cs(codes, [[0, 2]]))


class TestCodeMatrix:
    def test_codes_are_two_basis_plus_bit(self):
        codes = outcome_codes([SnapshotRecord("XYZ", "011"), SnapshotRecord("ZXY", "100")])
        assert codes.dtype == np.uint8
        assert codes.tolist() == [[0, 3, 5], [5, 0, 2]]
        assert outcome_codes([]).shape == (0, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_reconstruct_equals_rho_cs_of_codes(self, seed):
        rng = np.random.default_rng(200 + seed)
        records = random_records(rng, int(rng.integers(1, 400)), 9)
        codes = outcome_codes(records)
        for k in range(1, 6):
            subset = [int(q) for q in rng.permutation(9)[:k]]
            rho = reconstruct(records, subset)
            assert not rho.validated
            assert rho.matrix.tobytes() == rho_cs(codes, [subset])[0].tobytes()
            assert reconstruct(codes, subset).matrix.tobytes() == rho.matrix.tobytes()

    def test_code_matrix_passes_through(self):
        codes = outcome_codes([SnapshotRecord("XYZ", "011")])
        assert outcome_codes(codes) is codes
        flipped = codes[:, ::-1]
        assert outcome_codes(flipped) is flipped
        empty = np.zeros((0, 0), dtype=np.uint8)
        assert outcome_codes(empty) is empty

    @pytest.mark.parametrize("matrix, message", [
        (np.array([[7, 0]], dtype=np.uint8), "codes 0..5, got 7"),
        (np.array([[6]], dtype=np.uint8), "codes 0..5, got 6"),
        (np.array([0, 1], dtype=np.uint8), "2-D uint8, got 1-D uint8"),
        (np.array([[0, 1]]), "2-D uint8, got 2-D int64"),
    ])
    def test_invalid_code_matrix_is_rejected(self, matrix, message):
        with pytest.raises(RecordError, match=re.escape(message)):
            outcome_codes(matrix)
        with pytest.raises(RecordError, match=re.escape(message)):
            reconstruct(matrix, [0])


class TestEncodeRows:
    """``encode_rows`` checks every row in one pass and names the first bad one."""

    def test_matches_the_per_character_table(self):
        rng = np.random.default_rng(4)
        records = random_records(rng, 50, 7)
        codes = encode_rows([r.bases for r in records], [r.bits for r in records], 7)
        expected = [[2 * "XYZ".index(b) + int(t) for b, t in zip(r.bases, r.bits)]
                    for r in records]
        assert codes.dtype == np.uint8 and codes.tolist() == expected

    def test_empty(self):
        assert encode_rows([], [], 5).shape == (0, 5)
        assert encode_rows([], [], 0).shape == (0, 0)

    @pytest.mark.parametrize(
        "bases, bits, message",
        [
            (["XY", "ZQ", "X"], ["01", "01", "0"], "row 1: invalid basis character(s) ['Q']"),
            (["XY", "ZZ", "XQ"], ["01", "01", "0"], "row 2: bases/bits length mismatch"),
            (["XY", "XYZ", "XQ"], ["01", "012", "01"], "row 1: invalid bit character(s) ['2']"),
            (["XY", "XYZ", "XQ"], ["01", "011", "01"], "row 1: record width 3 != expected 2"),
            (["XY", "X\u00e9", "XYZ"], ["01", "01", "010"],
             "row 1: invalid basis character(s) ['\u00e9']"),
            (["XY", "X?"], ["01", "01"], "row 1: invalid basis character(s) ['?']"),
            (["XY", "ZZ"], ["01", "0\u00b9"], "row 1: invalid bit character(s) ['\u00b9']"),
            (["XY", ""], ["01", ""], "row 1: record covers no qubits"),
        ],
    )
    def test_first_bad_row_is_named(self, bases, bits, message):
        with pytest.raises(RecordError, match=rf"^{re.escape(message)}"):
            encode_rows(bases, bits, 2, where="row {}".format)

    def test_zero_width_rows_are_rejected(self):
        with pytest.raises(RecordError, match=r"^record 0: record covers no qubits$"):
            encode_rows([""], [""], 0)
        with pytest.raises(RecordError, match=r"^record 0: record covers no qubits$"):
            encode_rows([""], [""], 1)


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
    """Records absorbed into one mean: coverage and the one-record case."""

    def test_single_record(self):
        rho = rho_cs(outcome_codes([SnapshotRecord(bases="Z", bits="0")]), [[0]])
        assert np.array_equal(rho, np.diag([2.0, -1.0]).astype(complex)[None])

    def test_records_must_cover_subset(self):
        with pytest.raises(CoverageError):
            rho_cs(outcome_codes([SnapshotRecord(bases="XY", bits="01")]), [[3]])
        codes = outcome_codes([SnapshotRecord(bases="XYZX", bits="0110")])
        message = r"^records cover qubits 0\.\.3, subset asks for \[1, 4\]$"
        with pytest.raises(CoverageError, match=message):
            rho_cs(codes, [[0, 1], [1, 4]])


class TestRhoCs:
    def test_single_record_mean(self):
        rho = reconstruct([SnapshotRecord(bases="Z", bits="0")], [0])
        assert not rho.validated
        assert np.array_equal(rho.matrix, np.diag([2.0, -1.0]).astype(complex))

    def test_empty_accumulator_rejected(self):
        with pytest.raises(CoverageError, match="^record stream is empty$"):
            rho_cs(outcome_codes([]), [[0]])
        with pytest.raises(CoverageError):
            reconstruct([], [0])

    def test_trace_exactly_one(self):
        state = StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
        records = sample_shadow(state, 777, seed=7)
        rho = reconstruct(records, [0, 1])
        assert np.trace(rho.matrix) == 1.0 + 0.0j

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_trace_exact_across_seeds(self, k):
        subsets = [list(range(k)), list(range(k, 0, -1)), list(range(1, k + 1))]
        for seed in range(200):
            rng = np.random.default_rng(seed)
            amps = rng.normal(size=2 ** (k + 1)) + 1j * rng.normal(size=2 ** (k + 1))
            state = StateVector(amps / np.linalg.norm(amps))
            records = sample_shadow(state, int(rng.integers(1, 200)), seed=seed)
            stack = rho_cs(outcome_codes(records), subsets)
            for rho, subset in zip(stack, subsets):
                total = oracle_sum(records, subset)
                assert np.trace(total) == len(records)
                assert np.trace(rho) == 1.0
                assert sum(rho.diagonal().real[::-1]) == 1.0
                mean = total / len(records)
                bound = 2 * (np.abs(mean.diagonal()).sum() + 1) * 2.0**-52
                assert np.abs(rho - mean).max() < bound

    @pytest.mark.parametrize("k", range(1, 7))
    def test_hermitian_bit_for_bit(self, k):
        """The exact sum makes each mean Hermitian with no symmetrizing step (20 streams per k)."""
        rng = np.random.default_rng(100 + k)
        for _ in range(20):
            codes = rng.integers(0, 6, size=(int(rng.integers(1, 2000)), 8), dtype=np.uint8)
            stack = rho_cs(codes, [rng.permutation(8)[:k].tolist() for _ in range(3)])
            adjoint = stack.conj().swapaxes(-1, -2)
            assert np.array_equal(stack, adjoint)
            # Symmetrizing would change no bit, not even the sign of a zero.
            assert ((stack + adjoint) / 2.0).tobytes() == stack.tobytes()

    def test_mean_converges_to_state(self):
        state = StateVector(np.array([1, 0], dtype=complex))
        records = sample_shadow(state, 100_000, seed=8)
        rho = reconstruct(records, [0])
        target = np.diag([1.0, 0.0]).astype(complex)
        assert np.linalg.norm(rho.matrix - target) <= 0.02

    def test_frobenius_error_scales_like_inverse_sqrt_n(self):
        state = StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
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

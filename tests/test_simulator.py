"""Tests for circuit simulation, shadow sampling, and the perturbation model."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from zecs import cli, linalg
from zecs.errors import (
    CircuitSpecError,
    ConfigError,
    DimensionMismatchError,
    RecordError,
    ValidationError,
)
from zecs.simulator import (
    _SAMPLE_CHUNK,
    BASIS_ROTATIONS,
    CNOT,
    RY,
    RZ,
    Circuit,
    Gate,
    SnapshotRecord,
    StateVector,
    build_efficient_su2,
    perturb_state,
    random_su2_params,
    run,
    sample_shadow,
    _apply_cnot,
    _apply_single,
    _chain_rule_bits,
    _gate_matrix,
    _perturb_stack,
    zero_state,
)
from zecs.states import DensityOperator

# chi-squared critical values at p=0.001, by degrees of freedom
_CHI2_P001 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 6: 22.458, 7: 24.322}
_CHI2_1DF_P001 = _CHI2_P001[1]

#: sha256 of ``zecs simulate --qubits 4 --reps 2 --param-seed 0 --snapshots 300 --seed 7``,
#: written by the per-basis inverse-CDF sampler this package used before the chain rule.
_SMALL_STREAM_SHA256 = "a25a0f87faa84dbafd0a89a131be60b5437fe6faa413a540243459a9af9ade4d"


def inverse_circuit(circuit):
    """Reversed gate order with negated rotation angles (CNOT is its own inverse)."""
    inv = []
    for g in reversed(circuit.gates):
        if g.kind == CNOT:
            inv.append(g)
        else:
            inv.append(Gate(g.kind, g.target, angle=-g.angle))
    return Circuit(circuit.n_qubits, tuple(inv))


def rotated_amplitudes(amps, bases):
    """Amplitudes after rotating each qubit into its basis letter (Z is left alone)."""
    n = len(bases)
    t = np.asarray(amps, dtype=complex).reshape([2] * n)
    for q, letter in enumerate(bases):
        if letter != "Z":
            t = np.moveaxis(np.tensordot(BASIS_ROTATIONS[letter], t, axes=([1], [q])), 0, q)
    return t.reshape(-1)


def tensordot_gate(amps, u, qubit, n):
    """Oracle: ``u`` on ``qubit`` through ``tensordot`` and ``moveaxis``."""
    t = np.tensordot(u, amps.reshape([2] * n), axes=([1], [qubit]))
    return np.moveaxis(t, 0, qubit).reshape(-1)


def tensordot_run(circuit):
    """Oracle: :func:`run` with every single-qubit gate applied by :func:`tensordot_gate`."""
    n = circuit.n_qubits
    amps = zero_state(n).amplitudes
    for gate in circuit.gates:
        if gate.kind == CNOT:
            amps = _apply_cnot(amps, gate.control, gate.target, n)
        else:
            amps = tensordot_gate(amps, _gate_matrix(gate), gate.target, n)
    return amps / np.linalg.norm(amps)


def inverse_cdf_sampler(state, n_records, seed):
    """Oracle: the same seed stream, one cumulative distribution per basis string."""
    n = state.n_qubits
    rng = np.random.default_rng(seed)
    bases = rng.integers(0, 3, size=(n_records, n))
    draws = rng.random(n_records)
    cdfs = {}
    records = []
    for r in range(n_records):
        letters = "".join("XYZ"[b] for b in bases[r])
        if letters not in cdfs:
            probs = np.abs(rotated_amplitudes(state.amplitudes, letters)) ** 2
            cdfs[letters] = np.cumsum(probs / probs.sum())
        outcome = min(int(np.searchsorted(cdfs[letters], draws[r], side="right")), 2**n - 1)
        records.append(SnapshotRecord(letters, format(outcome, f"0{n}b")))
    return records


def draw_order_sampler(state, n_records, seed):
    """Oracle: the unsorted sampler, ``_chain_rule_bits`` on 2,048-record chunks in draw order.

    Returns the ``(n_records, n)`` basis-index and bit matrices.
    """
    rng = np.random.default_rng(seed)
    bases = rng.integers(0, 3, size=(n_records, state.n_qubits))
    draws = rng.random(n_records) * float(np.vdot(state.amplitudes, state.amplitudes).real)
    bits = np.concatenate([
        _chain_rule_bits(state.amplitudes, bases[i:i + 2048], draws[i:i + 2048])
        for i in range(0, n_records, 2048)
    ])
    return bases, bits


def record_matrices(records):
    """The basis-index and bit matrices of a record list."""
    shape = (len(records), records[0].n_qubits)
    bases = np.array(["XYZ".index(c) for r in records for c in r.bases]).reshape(shape)
    bits = np.array([int(c) for r in records for c in r.bits]).reshape(shape)
    return bases, bits


def peak_memory(function, *args):
    """Peak bytes allocated by one call, under ``tracemalloc``."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ghz(n):
    amps = np.zeros(2**n)
    amps[0] = amps[-1] = 1 / math.sqrt(2)
    return StateVector(amps)


def product_state():
    factors = [
        np.array([1, 1]) / math.sqrt(2),
        np.array([0, 1]),
        np.array([math.cos(0.4), math.sin(0.4) * np.exp(0.9j)]),
        np.array([1, 1j]) / math.sqrt(2),
    ]
    amps = factors[0]
    for f in factors[1:]:
        amps = np.kron(amps, f)
    return StateVector(amps)


def su2_state(n, seed):
    return run(build_efficient_su2(n, 2, random_su2_params(n, 2, seed=seed)))


def w_state():
    amps = np.zeros(8, dtype=complex)
    amps[[1, 2, 4]] = np.array([1, 1j, -1]) / math.sqrt(3)
    return StateVector(amps)


def spearman(xs, ys):
    def ranks(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(len(v))
        return r

    rx, ry = ranks(np.asarray(xs)), ranks(np.asarray(ys))
    return float(np.corrcoef(rx, ry)[0, 1])


class TestCircuitConstruction:
    def test_layer_schedule_two_qubits_one_rep(self):
        params = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        circuit = build_efficient_su2(2, 1, params)
        kinds = [(g.kind, g.target) for g in circuit.gates]
        assert kinds == [
            ("ry", 0), ("ry", 1), ("rz", 0), ("rz", 1),
            ("cnot", 1),
            ("ry", 0), ("ry", 1), ("rz", 0), ("rz", 1),
        ]
        assert circuit.gates[4].control == 0
        angles = [g.angle for g in circuit.gates if g.angle is not None]
        assert angles == params

    def test_parameter_count_enforced(self):
        with pytest.raises(CircuitSpecError):
            build_efficient_su2(2, 1, [0.0] * 7)
        with pytest.raises(CircuitSpecError):
            build_efficient_su2(3, 2, [0.0] * 25)

    def test_reps_must_be_positive(self):
        with pytest.raises(CircuitSpecError):
            build_efficient_su2(3, 0, [])

    @pytest.mark.parametrize("n_qubits, reps", [(3, -1), (-2, 1), (0, 1), (3, 0)])
    def test_params_need_a_positive_size(self, n_qubits, reps):
        with pytest.raises(CircuitSpecError, match="must be >= 1"):
            random_su2_params(n_qubits, reps, seed=0)

    def test_parameter_consumption_scales(self):
        circuit = build_efficient_su2(3, 7, [0.0] * (4 * 7 * 3))
        rotations = [g for g in circuit.gates if g.kind != "cnot"]
        assert len(rotations) == 4 * 7 * 3
        ladders = [g for g in circuit.gates if g.kind == "cnot"]
        assert len(ladders) == 7 * 2

    def test_zero_parameters_fix_the_zero_state(self):
        circuit = build_efficient_su2(3, 2, [0.0] * 24)
        out = run(circuit)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_gate_validation(self):
        with pytest.raises(CircuitSpecError):
            Circuit(2, (Gate("cnot", target=0, control=0),))
        with pytest.raises(CircuitSpecError):
            Circuit(1, (Gate("ry", target=0),))
        with pytest.raises(CircuitSpecError):
            Circuit(1, (Gate("hadamard", target=0, angle=1.0),))

    @pytest.mark.parametrize("n_qubits", [2.0, 2.5, True, "2", 0, -1])
    def test_rejects_a_qubit_count_that_is_not_a_positive_integer(self, n_qubits):
        message = f"circuit needs an integer number of qubits >= 1, got {n_qubits!r}"
        with pytest.raises(CircuitSpecError, match=f"^{re.escape(message)}$"):
            Circuit(n_qubits, ())

    def test_numpy_integer_qubit_count_is_stored_as_an_int(self):
        circuit = Circuit(np.int64(2), (Gate(CNOT, 1, control=0),))
        assert type(circuit.n_qubits) is int and circuit.n_qubits == 2
        assert np.array_equal(run(circuit).amplitudes, zero_state(2).amplitudes)


class TestRun:
    def test_empty_circuit_is_identity(self):
        out = run(Circuit(2, ()))
        assert np.array_equal(out.amplitudes, zero_state(2).amplitudes)

    def test_ry_pi_flips(self):
        out = run(Circuit(1, (Gate("ry", 0, angle=math.pi),)))
        assert abs(out.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)

    def test_bell_circuit(self):
        circuit = Circuit(2, (Gate("ry", 0, angle=math.pi / 2), Gate("cnot", target=1, control=0)))
        out = run(circuit)
        expected = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert np.allclose(out.amplitudes, expected, atol=1e-10)

    def test_norm_preserved(self):
        rng = np.random.default_rng(0)
        circuit = build_efficient_su2(3, 3, rng.uniform(0, math.pi, 36))
        out = run(circuit)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-10

    def test_inverse_circuit_returns_initial(self):
        rng = np.random.default_rng(1)
        circuit = build_efficient_su2(3, 2, rng.uniform(0, math.pi / 2, 24))
        assert not np.allclose(run(circuit).amplitudes, zero_state(3).amplitudes, atol=1e-2)
        back = run(Circuit(3, circuit.gates + inverse_circuit(circuit).gates))
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.allclose(back.amplitudes, expected, atol=1e-8)

    @pytest.mark.parametrize("n_qubits", range(1, 9))
    def test_equals_tensordot_oracle_bit_for_bit(self, n_qubits):
        """Every target qubit, with RY, RZ and a dense complex gate, and whole ansatz runs."""
        rng = np.random.default_rng(600 + n_qubits)
        amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
        dense = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        spread = tuple(Gate(RY, q, angle=float(rng.uniform(0, math.pi)))
                       for q in range(n_qubits))
        for qubit in range(n_qubits):
            for kind in (RY, RZ):
                gate = Gate(kind, qubit, angle=float(rng.uniform(-math.pi, math.pi)))
                circuit = Circuit(n_qubits, spread + (gate,))
                assert run(circuit).amplitudes.tobytes() == tensordot_run(circuit).tobytes()
            expected = tensordot_gate(amps, dense, qubit, n_qubits)
            assert _apply_single(amps, dense, qubit).tobytes() == expected.tobytes()
        for reps in (1, 2, 3):
            circuit = build_efficient_su2(n_qubits, reps, random_su2_params(n_qubits, reps, reps))
            assert run(circuit).amplitudes.tobytes() == tensordot_run(circuit).tobytes()

    def test_statevector_norm_validated(self):
        with pytest.raises(ValidationError):
            StateVector(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("size", [0, 3, 6])
    def test_statevector_length_must_be_a_power_of_two(self, size):
        with pytest.raises(DimensionMismatchError, match=f"^{size} amplitudes are not 2"):
            StateVector(np.ones(size) / math.sqrt(max(size, 1)))

    def test_statevector_qubit_count_comes_from_the_amplitudes(self):
        assert [StateVector(np.eye(2**n)[0]).n_qubits for n in range(1, 4)] == [1, 2, 3]
        assert StateVector(np.eye(4) / 2).n_qubits == 4  # amplitudes are flattened
        assert zero_state(5).n_qubits == 5


class TestSampleShadow:
    def test_z_basis_on_zero_state_yields_zeros(self):
        records = sample_shadow(zero_state(1), 500, seed=0)
        for rec in records:
            if rec.bases == "Z":
                assert rec.bits == "0"

    def test_x_basis_on_plus_state_is_certain(self):
        plus = StateVector(np.array([1, 1]) / math.sqrt(2))
        records = sample_shadow(plus, 600, seed=1)
        z_bits = []
        for rec in records:
            if rec.bases == "X":
                assert rec.bits == "0"
            elif rec.bases == "Z":
                z_bits.append(int(rec.bits))
        # Z outcomes on |+> are an unbiased coin
        n = len(z_bits)
        ones = sum(z_bits)
        chi2 = (ones - n / 2) ** 2 / (n / 2) + ((n - ones) - n / 2) ** 2 / (n / 2)
        assert chi2 < _CHI2_1DF_P001

    def test_bell_z_outcomes_perfectly_correlated(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
        records = sample_shadow(bell, 2000, seed=2)
        zz = {rec.bits for rec in records if rec.bases == "ZZ"}
        assert zz <= {"00", "11"}

    def test_reproducible_from_seed(self):
        state = StateVector(np.array([0.5, 0.5, 0.5, 0.5]))
        a = sample_shadow(state, 50, seed=9)
        b = sample_shadow(state, 50, seed=9)
        assert a == b
        c = sample_shadow(state, 50, seed=10)
        assert a != c

    def test_basis_frequencies_uniform(self):
        state = zero_state(2)
        n = 30_000
        records = sample_shadow(state, n, seed=3)
        for q in range(2):
            for letter in "XYZ":
                count = sum(1 for rec in records if rec.bases[q] == letter)
                sigma = math.sqrt(n * (1 / 3) * (2 / 3))
                assert abs(count - n / 3) <= 3 * sigma

    def test_product_state_marginals_match_born(self):
        # |+> (x) |1>: X on qubit 0 certain, Z on qubit 1 certain
        amps = np.kron(np.array([1, 1]) / math.sqrt(2), np.array([0, 1]))
        state = StateVector(amps)
        records = sample_shadow(state, 10_000, seed=4)
        q0_z = [int(r.bits[0]) for r in records if r.bases[0] == "Z"]
        n, ones = len(q0_z), sum(q0_z)
        chi2 = (ones - n / 2) ** 2 / (n / 2) + ((n - ones) - n / 2) ** 2 / (n / 2)
        assert chi2 < _CHI2_1DF_P001
        for rec in records:
            if rec.bases[1] == "Z":
                assert rec.bits[1] == "1"

    def test_bad_count_and_seed_are_config_errors(self):
        with pytest.raises(ConfigError, match=r"^n_records must be >= 1, got 0$"):
            sample_shadow(zero_state(1), 0, seed=0)
        with pytest.raises(ConfigError, match=r"^seed must be a non-negative integer, got -1$"):
            sample_shadow(zero_state(1), 5, seed=-1)

    def test_zero_qubit_state_is_a_dimension_error(self):
        """A one-amplitude state is a valid ``StateVector`` of no qubits, but nothing to measure."""
        state = StateVector(np.array([1.0]))
        assert state.n_qubits == 0
        with pytest.raises(DimensionMismatchError, match="^sampling needs a state of at least one"):
            sample_shadow(state, 3, 0)

    def test_record_validation(self):
        with pytest.raises(RecordError):
            SnapshotRecord(bases="XQ", bits="00")
        with pytest.raises(RecordError):
            SnapshotRecord(bases="XY", bits="02")
        with pytest.raises(RecordError):
            SnapshotRecord(bases="XY", bits="0")


class TestSamplerOracle:
    """The chain-rule sampler reproduces the per-basis inverse-CDF draw record for record."""

    @pytest.mark.parametrize(
        "make_state, n_records, seeds",
        [
            (product_state, 1500, (0, 1, 2)),
            (lambda: ghz(1), 500, (0, 1, 2)),
            (lambda: ghz(3), 1500, (0, 1, 2)),
            (lambda: ghz(8), 1500, (0, 1, 2)),
            (lambda: su2_state(12, 3), 250, (0, 1)),
        ],
        ids=["product", "ghz1", "ghz3", "ghz8", "su2-12"],
    )
    def test_equal_records(self, make_state, n_records, seeds):
        state = make_state()
        for seed in seeds:
            assert sample_shadow(state, n_records, seed) == inverse_cdf_sampler(
                state, n_records, seed
            )

    @pytest.mark.parametrize("make_state", [lambda: ghz(3), lambda: su2_state(6, 8)])
    def test_equal_records_across_chunks(self, make_state):
        state = make_state()
        n_records = 2 * _SAMPLE_CHUNK + 123
        assert sample_shadow(state, n_records, seed=21) == inverse_cdf_sampler(
            state, n_records, seed=21
        )

    @staticmethod
    def assert_bits_equal_draw_order_sampler(state, n_records, seed):
        bases, bits = record_matrices(sample_shadow(state, n_records, seed))
        expected_bases, expected_bits = draw_order_sampler(state, n_records, seed)
        assert np.array_equal(bases, expected_bases)
        assert np.array_equal(bits, expected_bits)

    @pytest.mark.parametrize("n_qubits", range(1, 13))
    @pytest.mark.parametrize("make_state", [su2_state, lambda n, seed: ghz(n)], ids=["su2", "ghz"])
    def test_bits_equal_draw_order_sampler(self, make_state, n_qubits):
        state = make_state(n_qubits, n_qubits)
        for n_records, seed in [(1, 0), (7, 1), (2 * _SAMPLE_CHUNK + 76, 2)]:
            self.assert_bits_equal_draw_order_sampler(state, n_records, seed)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_bits_equal_draw_order_sampler_across_many_chunks(self, seed):
        assert 6000 > 2 * _SAMPLE_CHUNK
        self.assert_bits_equal_draw_order_sampler(su2_state(12, 2), 6000, seed)

    def test_simulate_stream_is_pinned(self, tmp_path, capsys):
        out = tmp_path / "small.jsonl"
        argv = ["simulate", "--qubits", "4", "--reps", "2", "--param-seed", "0",
                "--snapshots", "300", "--seed", "7", "--out", str(out)]
        assert cli.main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _SMALL_STREAM_SHA256


class TestSamplerProperties:
    def test_ghz_z_qubits_agree(self):
        for rec in sample_shadow(ghz(10), 3000, seed=11):
            z_bits = {bit for letter, bit in zip(rec.bases, rec.bits) if letter == "Z"}
            assert len(z_bits) <= 1, rec

    @pytest.mark.parametrize("make_state", [lambda: ghz(10), w_state, lambda: su2_state(7, 2)])
    def test_no_outcome_has_zero_born_probability(self, make_state):
        state = make_state()
        for rec in sample_shadow(state, 1500, seed=12):
            amp = rotated_amplitudes(state.amplitudes, rec.bases)[int(rec.bits, 2)]
            assert abs(amp) ** 2 > 1e-12, rec

    def test_draw_past_total_mass_takes_no_empty_branch(self):
        # Under Z, |00000> has one outcome; a draw at or above the total mass
        # (the inverse CDF clamped it to 11111) must still land on it.
        bases = np.full((3, 5), 2)
        bits = _chain_rule_bits(zero_state(5).amplitudes, bases, np.array([0.0, 1.0, 1.5]))
        assert not bits.any()

    @pytest.mark.parametrize("make_state", [w_state, lambda: su2_state(3, 5)], ids=["w", "su2"])
    def test_joint_distribution_per_basis_string(self, make_state):
        state = make_state()
        counts = {}
        for rec in sample_shadow(state, 54_000, seed=13):
            counts.setdefault(rec.bases, np.zeros(8))[int(rec.bits, 2)] += 1
        assert len(counts) == 27
        for letters, observed in counts.items():
            total = observed.sum()
            expected = total * np.abs(rotated_amplitudes(state.amplitudes, letters)) ** 2
            support = expected > 1e-9 * total
            assert observed[~support].sum() == 0, letters
            chi2 = float((((observed - expected) ** 2)[support] / expected[support]).sum())
            assert chi2 < _CHI2_P001[int(support.sum()) - 1], (letters, chi2)

    def test_peak_memory_is_bounded(self):
        # About 3.0 MiB; the draw-order sampler on 2,048-record chunks peaks at 16.5 MiB.
        assert peak_memory(sample_shadow, su2_state(12, 2), 6000, 14) <= 6 * 2**20

    def test_peak_memory_at_ten_times_the_records(self):
        # About 16.2 MiB, most of it the records themselves; the draw-order
        # sampler on 2,048-record chunks, with an int64 basis matrix, peaks at 22.7 MiB.
        assert peak_memory(sample_shadow, su2_state(12, 2), 60_000, 14) <= 22.2 * 2**20


class TestPerturbState:
    @pytest.fixture
    def bell(self):
        return DensityOperator.from_pure(np.array([1, 0, 0, 1]) / math.sqrt(2))

    def test_sigma_zero_is_identity(self, bell):
        assert perturb_state(bell, 0.0, seed=5) is bell

    def test_output_is_physical(self, bell):
        for seed in range(20):
            out = perturb_state(bell, 0.3, seed=seed)
            assert out.validated
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_wrong_size(self):
        single = DensityOperator.from_pure([1, 0])
        with pytest.raises(DimensionMismatchError):
            perturb_state(single, 0.1, seed=0)

    def test_sigma_range_enforced(self, bell):
        with pytest.raises(ConfigError):
            perturb_state(bell, 0.6, seed=0)
        with pytest.raises(ConfigError):
            perturb_state(bell, -0.1, seed=0)

    def test_distance_stochastically_increasing(self, bell):
        sigmas = [0.05, 0.15, 0.25, 0.35, 0.45]
        means = []
        for i, sigma in enumerate(sigmas):
            dists = [
                np.linalg.norm(perturb_state(bell, sigma, seed=200 * i + t).matrix - bell.matrix)
                for t in range(200)
            ]
            means.append(np.mean(dists))
        assert spearman(sigmas, means) > 0.9
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_reproducible(self, bell):
        a = perturb_state(bell, 0.2, seed=42)
        b = perturb_state(bell, 0.2, seed=42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_matches_pauli_sum_oracle(self, bell):
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                  np.diag([1.0, -1.0])]
        for seed in range(10):
            eta = np.random.default_rng(seed).normal(0.0, 0.4, size=(4, 4))
            m = bell.matrix + sum(0.5 * eta[i, j] * np.kron(paulis[i], paulis[j])
                                  for i in range(4) for j in range(4))
            w, v = np.linalg.eigh(m)
            expected = (v * (np.abs(w) / np.abs(w).sum())) @ v.conj().T
            assert np.allclose(perturb_state(bell, 0.4, seed).matrix, expected, rtol=0, atol=1e-13)

    def test_one_physical_check_per_call(self, bell, monkeypatch):
        """One ``eigh`` repairs the spectrum and one checks the result, in ``from_matrix``."""
        calls = []
        eigh = linalg.eigh
        monkeypatch.setattr(linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        assert perturb_state(bell, 0.2, seed=3).validated
        assert len(calls) == 2

    def test_stack_matches_one_seed_calls(self, bell):
        seeds = [3, 1 << 40, 2**63 - 2, 17]
        stack = _perturb_stack(bell.matrix, 0.25, seeds)
        assert stack.shape == (4, 4, 4)
        for matrix, seed in zip(stack, seeds):
            assert np.array_equal(matrix, perturb_state(bell, 0.25, seed).matrix)
        assert np.array_equal(_perturb_stack(bell.matrix, 0.0, seeds), np.stack([bell.matrix] * 4))


class TestRandomParams:
    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"^seed must be a non-negative integer, got -3$"):
            random_su2_params(3, 1, seed=-3)

    @pytest.mark.parametrize("seed", [True, 2.0, "2"], ids=["bool", "float", "string"])
    def test_seed_that_is_not_an_integer_is_a_config_error(self, seed):
        message = f"seed must be a non-negative integer, got {seed!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            random_su2_params(3, 1, seed=seed)

    @pytest.mark.parametrize("value", [True, 2.0, "2"], ids=["bool", "float", "string"])
    def test_ansatz_size_that_is_not_an_integer_is_rejected(self, value):
        """``range(True)`` would run one repetition: a ``bool`` is not a count."""
        for name, args in (("n_qubits", (value, 1)), ("reps", (2, value))):
            message = f"{name} must be an integer, got {value!r}"
            with pytest.raises(CircuitSpecError, match=f"^{re.escape(message)}$"):
                random_su2_params(*args, seed=0)
            with pytest.raises(CircuitSpecError, match=f"^{re.escape(message)}$"):
                build_efficient_su2(*args, [0.0] * 8)

    def test_range_and_shape(self):
        params = random_su2_params(3, 7, seed=0)
        assert params.shape == (84,)
        assert params.min() >= 0.0 and params.max() <= math.pi / 2

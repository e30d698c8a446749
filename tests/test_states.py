"""Tests for density operators and the closeness / entanglement metrics."""

import math

import numpy as np
import pytest

from zecs import linalg
from zecs.errors import DimensionMismatchError, SubsystemError, ValidationError
from zecs.states import (
    DensityOperator,
    concurrence,
    concurrence_matrix,
    entanglement_entropy,
    entanglement_entropy_matrix,
    fidelity,
    pure_fidelity_matrix,
    require_physical,
    trace_distance,
    trace_distance_matrix,
)

BELL = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)


def random_density(rng, n_qubits):
    dim = 2**n_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityOperator.from_matrix(rho / np.trace(rho))


def random_pure(rng, n_qubits):
    v = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return DensityOperator.from_pure(v / np.linalg.norm(v))


def uhlmann_fidelity(a, b):
    """Oracle: Uhlmann fidelity ``Tr(sqrt(sqrt(a) b sqrt(a)))**2`` of two PSD matrices.

    Taken in the equal form ``||sqrt(a) sqrt(b)||_1 ** 2``, whose singular
    values stay accurate when an operand is rank-deficient.
    """

    def sqrt_psd(m):
        w, v = np.linalg.eigh(m)
        return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T

    return float(np.linalg.svd(sqrt_psd(a) @ sqrt_psd(b), compute_uv=False).sum() ** 2)


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestDensityOperator:
    def test_validation_accepts_physical_state(self):
        rho = DensityOperator.from_matrix(np.eye(2) / 2)
        assert rho.validated and rho.n_qubits == 1

    def test_validation_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityOperator.from_matrix(np.eye(2).astype(complex))

    def test_validation_rejects_indefinite(self):
        with pytest.raises(ValidationError):
            DensityOperator.from_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_unvalidated_allows_indefinite(self):
        rho = DensityOperator.from_matrix(np.diag([2.0, -1.0]).astype(complex), validate=False)
        assert not rho.validated

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityOperator.from_matrix(np.array([[0.5, 1], [0, 0.5]]), validate=False)

    def test_from_pure_tracks_vector(self):
        rho = DensityOperator.from_pure(BELL)
        assert rho.validated
        assert np.allclose(rho.matrix, np.outer(BELL, BELL.conj()))

    def test_matrix_is_stored_as_given(self):
        m = np.array([[0.5, 0.1 + 1e-12j], [0.1, 0.5 + 1e-17j]])
        assert np.array_equal(DensityOperator.from_matrix(m, validate=False).matrix, m)
        rho = DensityOperator.from_pure(BELL)
        assert np.array_equal(rho.matrix, np.outer(BELL, BELL.conj()))

    @pytest.mark.parametrize("make", [
        lambda: DensityOperator.from_matrix(np.eye(3) / 3),
        lambda: DensityOperator.from_matrix(np.eye(3) / 3, validate=False),
        lambda: DensityOperator.from_pure(np.ones(3) / math.sqrt(3)),
        lambda: DensityOperator(1, np.eye(3) / 3),
    ], ids=["validated", "unvalidated", "pure", "constructor"])
    def test_dimension_must_be_a_power_of_two(self, make):
        with pytest.raises(DimensionMismatchError, match="^matrix of dim 3 does not describe 1 qubit"):
            make()

    @pytest.mark.parametrize("n_qubits, m", [
        (2, np.eye(2) / 2), (0, np.eye(1)), (1, np.full(2, 0.5)), (1, np.stack([np.eye(2) / 2] * 2)),
    ], ids=["too-many-qubits", "no-qubits", "vector", "stack"])
    def test_needs_one_matrix_of_the_qubit_count(self, n_qubits, m):
        with pytest.raises(DimensionMismatchError):
            DensityOperator(n_qubits, m)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(1)
        psi = random_pure(rng, 2)
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        zero = DensityOperator.from_pure([1, 0])
        one = DensityOperator.from_pure([0, 1])
        assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)

    def test_pure_versus_maximally_mixed(self):
        zero = DensityOperator.from_pure([1, 0])
        mixed = DensityOperator.from_matrix(np.eye(2) / 2)
        assert fidelity(zero, mixed) == pytest.approx(0.5, abs=1e-12)

    def test_pure_pure_matches_overlap(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = random_pure(rng, 2)
            b = random_pure(rng, 2)
            overlap = abs(np.vdot(a.pure_vector, b.pure_vector)) ** 2
            assert fidelity(a, b) == pytest.approx(overlap, abs=1e-10)

    def test_fast_path_matches_general_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            pure = random_pure(rng, 2)
            mixed = random_density(rng, 2)
            general = uhlmann_fidelity(mixed.matrix, pure.matrix)
            assert fidelity(pure, mixed) == pytest.approx(general, abs=1e-8)

    def test_symmetric_for_psd_inputs(self):
        rng = np.random.default_rng(4)
        a = random_pure(rng, 2)
        b = random_density(rng, 2)
        assert fidelity(a, b) == fidelity(b, a)
        assert fidelity(a, b) == pytest.approx(uhlmann_fidelity(b.matrix, a.matrix), abs=1e-8)

    def test_two_mixed_states_are_rejected(self):
        rng = np.random.default_rng(8)
        a = random_density(rng, 2)
        with pytest.raises(ValidationError, match="pure operand"):
            fidelity(a, random_density(rng, 2))
        # A rank-1 matrix without its state vector is not taken as pure.
        with pytest.raises(ValidationError, match="pure operand"):
            fidelity(DensityOperator.from_matrix(random_pure(rng, 2).matrix), a)

    def test_clamps_indefinite_reconstructions(self):
        cs_like = DensityOperator.from_matrix(
            np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex), validate=False
        )
        ref = DensityOperator.from_pure([1, 0, 0, 0])
        value = fidelity(cs_like, ref)
        assert value == pytest.approx(1.1, abs=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fidelity(DensityOperator.from_pure([1, 0]), DensityOperator.from_pure(BELL))


class TestTraceDistance:
    def test_orthogonal_states(self):
        zero = DensityOperator.from_pure([1, 0])
        one = DensityOperator.from_pure([0, 1])
        assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)

    def test_pure_versus_mixed(self):
        zero = DensityOperator.from_pure([1, 0])
        mixed = DensityOperator.from_matrix(np.eye(2) / 2)
        assert trace_distance(zero, mixed) == pytest.approx(0.5, abs=1e-12)

    def test_self_distance_zero(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 2)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_inputs_give_half_l1(self):
        a = DensityOperator.from_matrix(np.diag([0.7, 0.2, 0.1, 0.0]).astype(complex))
        b = DensityOperator.from_matrix(np.diag([0.1, 0.3, 0.4, 0.2]).astype(complex))
        l1 = abs(0.7 - 0.1) + abs(0.2 - 0.3) + abs(0.1 - 0.4) + abs(0.0 - 0.2)
        assert trace_distance(a, b) == pytest.approx(l1 / 2, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a, b, c = (random_density(rng, 2) for _ in range(3))
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-8

    def test_fuchs_van_de_graaff_sandwich(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            a = random_pure(rng, 2)
            b = random_density(rng, 2)
            f = fidelity(a, b)
            d = trace_distance(a, b)
            assert 1 - math.sqrt(f) <= d + 1e-6
            assert d <= math.sqrt(1 - f) + 1e-6


class TestStackedKernels:
    """Each matrix-level kernel on a stack equals the scalar function, matrix by matrix."""

    @pytest.fixture
    def states(self):
        rng = np.random.default_rng(41)
        return [random_density(rng, 2) for _ in range(5)] + [random_pure(rng, 2) for _ in range(3)]

    def test_concurrence(self, states):
        stack = np.stack([s.matrix for s in states])
        assert np.array_equal(concurrence_matrix(stack), [concurrence(s) for s in states])

    def test_trace_distance(self, states):
        stack = np.stack([s.matrix for s in states])
        ref = DensityOperator.from_pure(BELL)
        got = trace_distance_matrix(stack, ref.matrix)
        assert np.array_equal(got, [trace_distance(s, ref) for s in states])

    def test_pure_fidelity(self, states):
        stack = np.stack([s.matrix for s in states])
        ref = DensityOperator.from_pure(BELL)
        assert np.array_equal(pure_fidelity_matrix(BELL, stack), [fidelity(ref, s) for s in states])
        vectors = np.stack([s.pure_vector for s in states[5:]])
        assert np.array_equal(pure_fidelity_matrix(vectors, ref.matrix),
                              [fidelity(s, ref) for s in states[5:]])

    def test_entanglement_entropy(self):
        rng = np.random.default_rng(43)
        states = [random_pure(rng, 4) for _ in range(3)] + [random_density(rng, 4)]
        # A product across the cut: its marginal has eigenvalues that clip to 0.
        states.append(DensityOperator.from_pure(np.kron(BELL, random_pure(rng, 2).pure_vector)))
        stack = np.stack([s.matrix for s in states])

        def per_matrix(m):
            """Entropy over the positive marginal eigenvalues only, one matrix at a time."""
            marginal = linalg.partial_trace(m, [0, 1])
            probs = np.clip(linalg.eigh(marginal).eigenvalues, 0.0, 1.0)
            probs = probs / probs.sum()
            positive = probs[probs > 0.0]
            return -(positive * np.log2(positive)).sum()

        got = entanglement_entropy_matrix(stack, [0, 1])
        assert np.array_equal(got, [per_matrix(m) for m in stack])
        assert np.array_equal(got, [entanglement_entropy(s, [0, 1]) for s in states])
        assert got[-1] == pytest.approx(0.0, abs=1e-12)

    def test_require_physical_names_the_failure(self, states):
        stack = np.stack([s.matrix for s in states])
        require_physical(stack)
        stack[6] *= 1.01
        with pytest.raises(ValidationError, match="trace 1.01"):
            require_physical(stack)
        stack[6] = np.diag([1.1, -0.1, 0.0, 0.0])
        with pytest.raises(ValidationError, match="minimum eigenvalue -1.000e-01"):
            require_physical(stack)


class TestConcurrence:
    def test_bell_state_is_maximally_entangled(self):
        assert concurrence(DensityOperator.from_pure(BELL)) == pytest.approx(1.0, abs=1e-8)

    def test_product_state_is_zero(self):
        assert concurrence(DensityOperator.from_pure([1, 0, 0, 0])) == pytest.approx(0.0, abs=1e-10)

    def test_werner_state_against_independent_evaluation(self):
        # second code path: numpy-based matrix square roots of the R-matrix
        p = 0.5
        rho = p * np.outer(BELL, BELL.conj()) + (1 - p) * np.eye(4) / 4

        def np_sqrt(m):
            w, v = np.linalg.eigh(m)
            return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T

        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        flip = np.kron(sx, sx)
        flipped = flip @ rho.conj() @ flip
        r = np_sqrt(np_sqrt(rho) @ flipped @ np_sqrt(rho))
        lam = np.sort(np.linalg.eigvalsh(r))[::-1]
        expected = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])

        ours = concurrence(DensityOperator.from_matrix(rho))
        assert ours == pytest.approx(expected, abs=1e-8)
        # Werner-state closed form at p=0.5: (3p - 1)/2
        assert ours == pytest.approx(0.25, abs=1e-8)

    def test_wrong_size_rejected(self):
        with pytest.raises(DimensionMismatchError):
            concurrence(DensityOperator.from_pure([1, 0]))

    @pytest.mark.xfail(strict=True, reason="the spin flip is X (x) X, not Wootters' Y (x) Y")
    def test_pure_states_match_wootters_closed_form(self):
        # Wootters' concurrence of a pure state a|00> + b|01> + c|10> + d|11> is 2|ad - bc|.
        rng = np.random.default_rng(17)
        states = [random_pure(rng, 2) for _ in range(50)]
        closed = [2 * abs(v[0] * v[3] - v[1] * v[2]) for v in (s.pure_vector for s in states)]
        ours = concurrence_matrix(np.stack([s.matrix for s in states]))
        assert np.allclose(ours, closed, rtol=0, atol=1e-7)


class TestEntanglementEntropy:
    def test_bell_pair_scores_one_bit(self):
        rho = DensityOperator.from_pure(BELL)
        assert entanglement_entropy(rho, [0]) == pytest.approx(1.0, abs=1e-10)

    def test_pure_product_state_scores_zero(self):
        rng = np.random.default_rng(8)
        a = random_pure(rng, 1)
        b = random_pure(rng, 1)
        joint = DensityOperator.from_pure(np.kron(a.pure_vector, b.pure_vector))
        assert entanglement_entropy(joint, [0]) == pytest.approx(0.0, abs=1e-10)

    def test_ghz_marginal(self):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / math.sqrt(2)
        rho = DensityOperator.from_pure(ghz)
        assert entanglement_entropy(rho, [0]) == pytest.approx(1.0, abs=1e-10)

    def test_pure_state_symmetry(self):
        rng = np.random.default_rng(9)
        rho = random_pure(rng, 3)
        s_a = entanglement_entropy(rho, [0])
        s_b = entanglement_entropy(rho, [1, 2])
        assert s_a == pytest.approx(s_b, abs=1e-6)

    def test_invariant_under_local_unitary(self):
        rng = np.random.default_rng(10)
        rho = random_pure(rng, 2)
        u = np.kron(random_unitary(rng, 2), np.eye(2))
        rotated = DensityOperator.from_matrix(u @ rho.matrix @ u.conj().T)
        assert entanglement_entropy(rotated, [0]) == pytest.approx(
            entanglement_entropy(rho, [0]), abs=1e-6
        )

    def test_bad_subsystem_rejected(self):
        rho = DensityOperator.from_pure(BELL)
        with pytest.raises(SubsystemError):
            entanglement_entropy(rho, [])
        with pytest.raises(SubsystemError):
            entanglement_entropy(rho, [0, 1])
        with pytest.raises(SubsystemError):
            entanglement_entropy(rho, [3])

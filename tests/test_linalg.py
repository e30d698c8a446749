"""Tests for the dense linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zecs import linalg
from zecs.errors import DimensionMismatchError, NotHermitianError, ValidationError
from zecs.states import DensityOperator


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def reconstruct(d):
    """``V diag(w) V†`` of a decomposition."""
    v = d.eigenvectors
    return (v * d.eigenvalues) @ v.conj().T


def random_density(rng, n_qubits):
    dim = 2**n_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestEigh:
    def test_diagonal_input(self):
        d = linalg.eigh(np.diag([0.9, 0.3, -0.1, -0.1]).astype(complex))
        assert np.allclose(d.eigenvalues, [0.9, 0.3, -0.1, -0.1])
        assert np.allclose(np.abs(d.eigenvectors), np.eye(4))

    def test_pauli_x_spectrum(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        d = linalg.eigh(x)
        assert np.allclose(sorted(d.eigenvalues), [-1, 1])
        plus = np.array([1, 1]) / np.sqrt(2)
        overlap = abs(plus @ d.eigenvectors[:, 0])
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        m = random_hermitian(rng, 8)
        d = linalg.eigh(m)
        scale = np.linalg.norm(m)
        assert np.linalg.norm(reconstruct(d) - m) <= 1e-10 * scale
        gram = d.eigenvectors.conj().T @ d.eigenvectors
        assert np.linalg.norm(gram - np.eye(8)) <= 1e-10

    def test_matches_numpy_eigenvalues(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3, 5, 16):
            m = random_hermitian(rng, dim)
            ours = np.sort(linalg.eigh(m).eigenvalues)
            ref = np.sort(np.linalg.eigvalsh(m))
            assert np.allclose(ours, ref, atol=1e-10 * max(1.0, np.linalg.norm(m)))

    def test_ordering_by_absolute_value(self):
        m = np.diag([0.2, -0.9, 0.5]).astype(complex)
        d = linalg.eigh(m)
        assert np.allclose(d.eigenvalues, [-0.9, 0.5, 0.2])

    def test_tie_breaks_prefer_positive(self):
        m = np.diag([-0.5, 0.5, 0.1]).astype(complex)
        d = linalg.eigh(m)
        assert np.allclose(d.eigenvalues, [0.5, -0.5, 0.1])

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 6)
        a = linalg.eigh(m)
        b = linalg.eigh(m.copy())
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            linalg.eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_oversized(self):
        with pytest.raises(DimensionMismatchError):
            linalg.eigh(np.eye(2048, dtype=complex))

    def test_rejects_oversized_before_checking_hermiticity(self):
        m = np.triu(np.ones((2048, 2048), dtype=complex))
        with pytest.raises(DimensionMismatchError):
            linalg.eigh(m)

    def test_input_not_mutated(self):
        rng = np.random.default_rng(9)
        m = random_hermitian(rng, 4)
        copy = m.copy()
        linalg.eigh(m)
        assert np.array_equal(m, copy)

    def test_full_supported_dimension(self):
        rng = np.random.default_rng(1024)
        m = random_hermitian(rng, 1024)
        d = linalg.eigh(m)
        assert np.linalg.norm(reconstruct(d) - m) <= 1e-10 * np.linalg.norm(m)
        gram = d.eigenvectors.conj().T @ d.eigenvectors
        assert np.linalg.norm(gram - np.eye(1024)) <= 1e-10
        assert np.all(np.diff(np.abs(d.eigenvalues)) <= 0.0)


NON_FINITE = [
    np.array([[np.nan, 0], [0, 1]], dtype=complex),
    np.array([[np.inf, 0], [0, 1]], dtype=complex),
    np.array([[0.5, np.inf], [np.inf, 0.5]], dtype=complex),
    np.array([[0.5, complex(0, np.nan)], [complex(0, np.nan), 0.5]]),
]


class TestNonFinite:
    @pytest.mark.parametrize("m", NON_FINITE)
    def test_eigh_rejects(self, m):
        with pytest.raises(ValidationError, match="non-finite"):
            linalg.eigh(m)

    @pytest.mark.parametrize("m", NON_FINITE)
    def test_clamp_psd_rejects(self, m):
        with pytest.raises(ValidationError, match="non-finite"):
            linalg.clamp_psd(m)

    @pytest.mark.parametrize("m", NON_FINITE)
    def test_density_operator_rejects(self, m):
        with pytest.raises(ValidationError, match="non-finite"):
            DensityOperator(1, m)
        with pytest.raises(ValidationError, match="non-finite"):
            DensityOperator.from_matrix(m, validate=False)


class TestKron:
    def test_identity(self):
        assert np.array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_product(self):
        out = linalg.kron(np.diag([2.0, -1.0]), np.diag([2.0, -1.0]))
        assert np.array_equal(out, np.diag([4.0, -2.0, -2.0, 1.0]))

    def test_index_formula(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        p00 = np.array([[1, 0], [0, 0]], dtype=complex)
        out = linalg.kron(x, p00)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = 1.0
        expected[2, 0] = 1.0
        assert np.array_equal(out, expected)

    def test_overflow_guard(self):
        big = np.eye(2**11, dtype=complex)
        with pytest.raises(OverflowError):
            linalg.kron(big, big)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_associativity_exact_on_dyadic_entries(self, da, db, dc, seed):
        # dyadic-rational entries (the snapshot factors' value grid) multiply exactly
        rng = np.random.default_rng(seed)
        grid = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 1.5, 2.0])
        a, b, c = (
            rng.choice(grid, size=(d, d)) + 1j * rng.choice(grid, size=(d, d))
            for d in (da, db, dc)
        )
        left = linalg.kron(linalg.kron(a, b), c)
        right = linalg.kron(a, linalg.kron(b, c))
        assert np.array_equal(left, right)

    def test_associativity_on_generic_entries(self):
        rng = np.random.default_rng(6)
        a, b, c = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in (2, 3, 2))
        left = linalg.kron(linalg.kron(a, b), c)
        right = linalg.kron(a, linalg.kron(b, c))
        assert np.allclose(left, right, rtol=1e-14, atol=0)


class TestPartialTrace:
    def test_product_state_factorization(self):
        rng = np.random.default_rng(21)
        rho_a = random_density(rng, 1)
        rho_b = random_density(rng, 2)
        joint = linalg.kron(rho_a, rho_b)
        assert np.allclose(linalg.partial_trace(joint, [0], 3), rho_a, atol=1e-12)
        assert np.allclose(linalg.partial_trace(joint, [1, 2], 3), rho_b, atol=1e-12)

    def test_bell_marginal_is_maximally_mixed(self):
        bell = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                bell[i, j] = 0.5
        assert np.allclose(linalg.partial_trace(bell, [0], 2), np.eye(2) / 2)

    def test_against_brute_force_summation(self):
        rng = np.random.default_rng(33)
        rho = random_density(rng, 3)
        # keep qubits 0 and 2, trace qubit 1, by explicit double-index sums
        expected = np.zeros((4, 4), dtype=complex)
        for i0 in range(2):
            for i2 in range(2):
                for j0 in range(2):
                    for j2 in range(2):
                        acc = 0.0
                        for k in range(2):
                            row = (i0 << 2) | (k << 1) | i2
                            col = (j0 << 2) | (k << 1) | j2
                            acc += rho[row, col]
                        expected[(i0 << 1) | i2, (j0 << 1) | j2] = acc
        out = linalg.partial_trace(rho, [0, 2], 3)
        assert np.allclose(out, expected, atol=1e-14)

    def test_keep_order_permutes_result(self):
        rng = np.random.default_rng(4)
        rho_a = random_density(rng, 1)
        rho_b = random_density(rng, 1)
        joint = linalg.kron(rho_a, rho_b)
        swapped = linalg.partial_trace(joint, [1, 0], 2)
        assert np.allclose(swapped, linalg.kron(rho_b, rho_a), atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 3)
        out = linalg.partial_trace(rho, [1], 3)
        assert np.trace(out) == pytest.approx(np.trace(rho).real, abs=1e-12)

    def test_keep_all_and_keep_none(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 2)
        assert np.allclose(linalg.partial_trace(rho, [0, 1], 2), rho)
        total = linalg.partial_trace(rho, [], 2)
        assert total.shape == (1, 1)
        assert total[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(14)
        a = random_hermitian(rng, 8)
        b = random_hermitian(rng, 8)
        alpha, beta = 0.7, -1.3
        left = linalg.partial_trace(alpha * a + beta * b, [2], 3)
        right = alpha * linalg.partial_trace(a, [2], 3) + beta * linalg.partial_trace(b, [2], 3)
        assert np.allclose(left, right, atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            linalg.partial_trace(np.eye(4, dtype=complex), [2], 2)
        with pytest.raises(IndexError):
            linalg.partial_trace(np.eye(4, dtype=complex), [0, 0], 2)


class TestPsdHelpers:
    def test_sqrt_of_diagonal(self):
        out = linalg.mat_sqrt_psd(np.diag([4.0, 1.0]).astype(complex))
        assert np.allclose(out, np.diag([2.0, 1.0]))

    def test_sqrt_of_scaled_identity(self):
        out = linalg.mat_sqrt_psd((np.eye(2) / 2).astype(complex))
        assert np.allclose(out, np.eye(2) / np.sqrt(2))

    def test_clamp_forced_by_policy(self):
        out = linalg.mat_sqrt_psd(np.diag([1.0, -1e-14]).astype(complex))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(12)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        psd = g @ g.conj().T / 6 + 1e-3 * np.eye(6)
        root = linalg.mat_sqrt_psd(psd)
        assert np.linalg.norm(root @ root - psd) <= 1e-8

    def test_clamp_reports_magnitude(self):
        m = np.diag([1.2, -0.2]).astype(complex)
        clamped, magnitude = linalg.clamp_psd(m)
        assert np.allclose(clamped, np.diag([1.2, 0.0]))
        assert magnitude == pytest.approx(0.2, abs=1e-12)

    def test_clamp_ignores_numerical_noise(self):
        m = np.diag([1.0, -1e-12]).astype(complex)
        clamped, magnitude = linalg.clamp_psd(m)
        assert magnitude == 0.0
        assert np.allclose(clamped, np.diag([1.0, 0.0]), atol=1e-11)

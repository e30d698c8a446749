"""Tests for the dense linear algebra layer."""

import numpy as np
import pytest

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



def hermitian_stack(rng, count, dim):
    g = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    return (g + linalg.adjoint(g)) / 2.0


class TestStackedEigh:
    def test_matches_single_calls_matrix_by_matrix(self):
        rng = np.random.default_rng(17)
        stack = hermitian_stack(rng, 40, 4)
        stack[3] = np.diag([1.0, -1.0, 0.5, -0.5])
        stack[7] = np.diag([-0.5, 0.5, -0.5, 0.5])
        stack[11] = np.diag([0.0, -0.25, 0.25, 0.0])
        d = linalg.eigh(stack)
        assert d.eigenvalues.shape == (40, 4) and d.eigenvectors.shape == (40, 4, 4)
        for m, values, vectors in zip(stack, d.eigenvalues, d.eigenvectors):
            single = linalg.eigh(m)
            assert np.array_equal(values, single.eigenvalues)
            assert np.array_equal(vectors, single.eigenvectors)
        assert np.array_equal(d.eigenvalues[3], [1.0, -1.0, 0.5, -0.5])
        assert np.array_equal(d.eigenvalues[7], [0.5, 0.5, -0.5, -0.5])
        assert np.array_equal(d.eigenvalues[11], [0.25, -0.25, 0.0, 0.0])

    def test_order_is_abs_then_signed_then_lapack(self):
        rng = np.random.default_rng(23)
        stack = hermitian_stack(rng, 50, 5)
        stack[:10] = np.round(stack[:10].real) + 0j  # integer spectra tie often
        d = linalg.eigh(stack)
        for values, (lapack, _) in zip(d.eigenvalues, map(np.linalg.eigh, stack)):
            key = sorted(range(5), key=lambda i: (-abs(lapack[i]), -lapack[i], i))
            assert np.array_equal(values, lapack[key])

    def test_reconstructs_each_matrix(self):
        rng = np.random.default_rng(29)
        stack = hermitian_stack(rng, 6, 3).reshape(2, 3, 3, 3)
        d = linalg.eigh(stack)
        v = d.eigenvectors
        assert np.allclose((v * d.eigenvalues[..., None, :]) @ linalg.adjoint(v), stack,
                           atol=1e-12)

    @pytest.mark.parametrize("where", [0, 13, 31])
    def test_nan_anywhere_rejected(self, where):
        stack = hermitian_stack(np.random.default_rng(where), 32, 4)
        stack[where, 1, 2] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            linalg.eigh(stack)

    @pytest.mark.parametrize("where", [0, 13, 31])
    def test_non_hermitian_anywhere_rejected(self, where):
        stack = hermitian_stack(np.random.default_rng(where), 32, 4)
        stack[where, 0, 3] += 1e-6
        with pytest.raises(NotHermitianError):
            linalg.eigh(stack)

    def test_long_stack_of_small_matrices_accepted(self):
        stack = hermitian_stack(np.random.default_rng(2000), 2000, 4)
        assert linalg.eigh(stack).eigenvalues.shape == (2000, 4)

    def test_rejects_oversized_matrices_in_a_stack(self):
        with pytest.raises(DimensionMismatchError):
            linalg.eigh(np.broadcast_to(np.zeros(1, dtype=complex), (2, 2048, 2048)))

    def test_mat_sqrt_psd_matches_single_calls(self):
        rng = np.random.default_rng(31)
        stack = np.stack([random_density(rng, 2) for _ in range(8)])
        roots = linalg.mat_sqrt_psd(stack)
        for m, root in zip(stack, roots):
            assert np.array_equal(root, linalg.mat_sqrt_psd(m))
            assert np.allclose(root @ root, m, atol=1e-12)

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
    """The qubit order of the module docstring: a Kronecker product's left factor
    acts on qubit 0, the most significant index bit.  The package builds its
    Pauli product table, the spin flip and composed references with ``np.kron``
    under this convention."""

    def test_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_product(self):
        out = np.kron(np.diag([2.0, -1.0]), np.diag([2.0, -1.0]))
        assert np.array_equal(out, np.diag([4.0, -2.0, -2.0, 1.0]))

    def test_index_formula(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        p00 = np.array([[1, 0], [0, 0]], dtype=complex)
        out = np.kron(x, p00)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = 1.0
        expected[2, 0] = 1.0
        assert np.array_equal(out, expected)


class TestPartialTrace:
    def test_product_state_factorization(self):
        rng = np.random.default_rng(21)
        rho_a = random_density(rng, 1)
        rho_b = random_density(rng, 2)
        joint = np.kron(rho_a, rho_b)
        assert np.allclose(linalg.partial_trace(joint, [0]), rho_a, atol=1e-12)
        assert np.allclose(linalg.partial_trace(joint, [1, 2]), rho_b, atol=1e-12)

    def test_bell_marginal_is_maximally_mixed(self):
        bell = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                bell[i, j] = 0.5
        assert np.allclose(linalg.partial_trace(bell, [0]), np.eye(2) / 2)

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
        out = linalg.partial_trace(rho, [0, 2])
        assert np.allclose(out, expected, atol=1e-14)

    def test_keep_order_permutes_result(self):
        rng = np.random.default_rng(4)
        rho_a = random_density(rng, 1)
        rho_b = random_density(rng, 1)
        joint = np.kron(rho_a, rho_b)
        swapped = linalg.partial_trace(joint, [1, 0])
        assert np.allclose(swapped, np.kron(rho_b, rho_a), atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 3)
        out = linalg.partial_trace(rho, [1])
        assert np.trace(out) == pytest.approx(np.trace(rho).real, abs=1e-12)

    def test_keep_all_and_keep_none(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 2)
        assert np.allclose(linalg.partial_trace(rho, [0, 1]), rho)
        total = linalg.partial_trace(rho, [])
        assert total.shape == (1, 1)
        assert total[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(14)
        a = random_hermitian(rng, 8)
        b = random_hermitian(rng, 8)
        alpha, beta = 0.7, -1.3
        left = linalg.partial_trace(alpha * a + beta * b, [2])
        right = alpha * linalg.partial_trace(a, [2]) + beta * linalg.partial_trace(b, [2])
        assert np.allclose(left, right, atol=1e-12)

    @pytest.mark.parametrize("keep", [[0, 1], [3, 0], [2], []])
    def test_stack_matches_per_matrix_loop(self, keep):
        rng = np.random.default_rng(15)
        stack = np.stack([random_hermitian(rng, 16) for _ in range(5)])
        out = linalg.partial_trace(stack, keep)
        assert out.shape == (5, 2 ** len(keep), 2 ** len(keep))
        assert np.array_equal(out, [linalg.partial_trace(m, keep) for m in stack])

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            linalg.partial_trace(np.eye(4, dtype=complex), [2])
        with pytest.raises(IndexError):
            linalg.partial_trace(np.eye(4, dtype=complex), [0, 0])

    @pytest.mark.parametrize("shape", [(3, 3), (2, 6, 6)], ids=["3x3", "6x6-stack"])
    def test_dimension_not_a_power_of_two(self, shape):
        with pytest.raises(DimensionMismatchError, match="not a power of two"):
            linalg.partial_trace(np.zeros(shape, dtype=complex), [0])


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

    def test_clamp_spectrum_of_a_stack_matches_per_matrix_loop(self):
        rng = np.random.default_rng(16)
        stack = np.stack([random_hermitian(rng, 16) for _ in range(6)])
        clamped, magnitudes = linalg.clamp_spectrum(linalg.eigh(stack))
        assert magnitudes.shape == (6,)
        for m, got_matrix, got_magnitude in zip(stack, clamped, magnitudes):
            expected_matrix, expected_magnitude = linalg.clamp_psd(m)
            assert np.array_equal(got_matrix, expected_matrix)
            # Summed over the negative eigenvalues alone, as one matrix's clamp does.
            w = np.linalg.eigvalsh(m)
            assert got_magnitude == expected_magnitude
            assert got_magnitude == pytest.approx(-w[w < 0].sum(), abs=1e-12)

    @pytest.mark.parametrize("m", [np.stack([np.eye(2)] * 2), np.ones(2)], ids=["stack", "vector"])
    def test_clamp_psd_takes_one_matrix(self, m):
        with pytest.raises(DimensionMismatchError, match="expected one square matrix"):
            linalg.clamp_psd(m)

    def test_clamp_ignores_numerical_noise(self):
        m = np.diag([1.0, -1e-12]).astype(complex)
        clamped, magnitude = linalg.clamp_psd(m)
        assert magnitude == 0.0
        assert np.allclose(clamped, np.diag([1.0, 0.0]), atol=1e-11)

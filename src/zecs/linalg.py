"""Dense complex linear algebra for small qubit-sized operators.

Matrices are plain square ``numpy`` arrays of ``complex128`` in row-major
order.  The qubit-index convention used throughout the package: qubit 0 is
the most significant bit of the computational-basis index, so the first
factor of a Kronecker product acts on qubit 0.

The Hermitian eigensolver is LAPACK's, through ``numpy.linalg.eigh``, at
the dimensions this package works with (up to 2**10).  Every matrix entering
this module must be finite: NaN and inf are rejected, not propagated.
"""

from __future__ import annotations

from dataclasses import dataclass
from string import ascii_letters
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, ValidationError

#: Max entrywise deviation of ``m - m.conj().T`` tolerated for Hermitian input.
HERMITICITY_TOL = 1e-8

#: Eigenvalues in [-CLAMP_TOL, 0) are treated as numerical noise when clamping.
CLAMP_TOL = 1e-10

_MAX_DIM = 1024
_MAX_KRON_DIM = 2**20


def as_matrix(m: np.ndarray | Sequence) -> np.ndarray:
    """Coerce input to a square complex matrix, validating shape and finiteness."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries (NaN or inf)")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation between ``m`` and its adjoint."""
    return float(np.abs(m - m.conj().T).max())


def require_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate hermiticity and return the symmetrized matrix ``(m + m†)/2``."""
    a = as_matrix(m)
    defect = hermiticity_defect(a)
    if defect > tol:
        raise NotHermitianError(f"matrix deviates from its adjoint by {defect:.3e} (tol {tol:.1e})")
    return (a + a.conj().T) / 2.0


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted by descending absolute value (ties
    broken by descending signed value, then LAPACK's ascending order);
    ``eigenvectors`` holds the matching orthonormal columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Return ``V diag(w) V†``."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eigh(m: np.ndarray, tol: float = HERMITICITY_TOL) -> EigenDecomposition:
    """Eigendecompose a Hermitian matrix with LAPACK (``numpy.linalg.eigh``).

    Raises ``NotHermitianError`` when the input fails the hermiticity
    tolerance, ``ValidationError`` for NaN or inf entries and
    ``DimensionMismatchError`` above dimension 1024.
    """
    n = max(np.shape(m), default=0)
    if n > _MAX_DIM:
        raise DimensionMismatchError(f"dimension {n} exceeds the supported maximum {_MAX_DIM}")
    values, v = np.linalg.eigh(require_hermitian(m, tol))
    order = sorted(range(len(values)), key=lambda i: (-abs(values[i]), -values[i], i))
    return EigenDecomposition(eigenvalues=values[order], eigenvectors=v[:, order])


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the left factor is the more significant one."""
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape[0] * bm.shape[0] > _MAX_KRON_DIM:
        raise OverflowError(
            f"Kronecker product dimension {am.shape[0] * bm.shape[0]} exceeds {_MAX_KRON_DIM}"
        )
    return np.kron(am, bm)


def partial_trace(m: np.ndarray, keep: Sequence[int], n: int) -> np.ndarray:
    """Trace out all qubits not listed in ``keep`` from an ``n``-qubit operator.

    ``keep`` is an ordered list of distinct qubit indices; the result axes
    follow that order, so ``keep=[2, 0]`` returns an operator whose most
    significant qubit is original qubit 2.  ``keep=[]`` yields the 1x1
    matrix ``[[trace]]``.
    """
    a = as_matrix(m)
    if n < 0 or a.shape[0] != 2**n:
        raise DimensionMismatchError(f"matrix of dim {a.shape[0]} is not a {n}-qubit operator")
    keep = list(keep)
    if len(set(keep)) != len(keep):
        raise IndexError(f"duplicate qubit indices in keep={keep}")
    for q in keep:
        if not 0 <= q < n:
            raise IndexError(f"qubit index {q} out of range for {n} qubits")

    if not keep:
        return np.array([[np.trace(a)]], dtype=complex)

    keep_set = set(keep)
    row = {}
    col = {}
    symbols = iter(ascii_letters)
    for q in range(n):
        if q in keep_set:
            row[q] = next(symbols)
            col[q] = next(symbols)
        else:
            shared = next(symbols)
            row[q] = shared
            col[q] = shared
    source = "".join(row[q] for q in range(n)) + "".join(col[q] for q in range(n))
    target = "".join(row[q] for q in keep) + "".join(col[q] for q in keep)
    reduced = np.einsum(f"{source}->{target}", a.reshape([2] * (2 * n)))
    dim = 2 ** len(keep)
    return reduced.reshape(dim, dim)


def clamp_psd(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Project a Hermitian matrix onto the PSD cone by zeroing negative eigenvalues.

    Returns the clamped matrix and the total magnitude of eigenvalues below
    ``-CLAMP_TOL`` that had to be removed (0.0 when only numerical-noise
    negatives were present).  The trace is not renormalized.
    """
    decomp = eigh(m)
    values = decomp.eigenvalues
    clamped_magnitude = float(-values[values < -CLAMP_TOL].sum())
    positive = np.maximum(values, 0.0)
    v = decomp.eigenvectors
    out = (v * positive) @ v.conj().T
    return (out + out.conj().T) / 2.0, clamped_magnitude


def mat_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Negative eigenvalues are clamped to zero first, so mildly indefinite
    inputs (finite-sample shadow reconstructions) are accepted.
    """
    decomp = eigh(m)
    roots = np.sqrt(np.maximum(decomp.eigenvalues, 0.0))
    v = decomp.eigenvectors
    out = (v * roots) @ v.conj().T
    return (out + out.conj().T) / 2.0

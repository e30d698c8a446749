"""Dense complex linear algebra for small qubit-sized operators.

Matrices are plain square ``numpy`` arrays of ``complex128`` in row-major
order.  The qubit-index convention used throughout the package: qubit 0 is
the most significant bit of the computational-basis index, so the first
factor of a Kronecker product acts on qubit 0.

The Hermitian eigensolver is LAPACK's, through ``numpy.linalg.eigh``, at
the dimensions this package works with (up to 2**10).  ``eigh`` and
``mat_sqrt_psd`` also take a stack ``(..., d, d)`` of matrices and treat
each one as a single call would: one vectorized finiteness check, one
hermiticity check and one symmetrization cover the whole stack, and one
LAPACK call decomposes it; ``from_spectrum`` is the one rebuild from spectra.
Every matrix entering this module must be finite: NaN and inf are rejected, not propagated.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, ValidationError
from .report import Record, qubit_subset

#: Max entrywise deviation of ``m - m.conj().T`` tolerated for Hermitian input.
HERMITICITY_TOL = 1e-8

#: Eigenvalues in [-CLAMP_TOL, 0) are treated as numerical noise when clamping.
CLAMP_TOL = 1e-10

_MAX_DIM = 1024


def as_stack(m: np.ndarray | Sequence) -> np.ndarray:
    """Coerce input to a complex ``(..., d, d)`` array, validating shape and finiteness."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries (NaN or inf)")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a ``(..., d, d)`` stack."""
    return m.conj().swapaxes(-1, -2)


def require_hermitian(m: np.ndarray | Sequence) -> np.ndarray:
    """``as_stack`` of ``m``, not symmetrized; ``NotHermitianError`` if an entry of the
    stack deviates from the adjoint's by more than ``HERMITICITY_TOL``."""
    a = as_stack(m)
    defect = float(np.abs(a - adjoint(a)).max())
    if defect > HERMITICITY_TOL:
        raise NotHermitianError(
            f"matrix deviates from its adjoint by {defect:.3e} (tol {HERMITICITY_TOL:.1e})"
        )
    return a


class EigenDecomposition(Record):
    """Spectral decomposition of a Hermitian matrix, or of each matrix in a stack.

    ``eigenvalues`` (shape ``(..., d)``) are real and sorted by descending
    absolute value (ties broken by descending signed value, then LAPACK's
    ascending order); ``eigenvectors`` (shape ``(..., d, d)``) holds the
    matching orthonormal columns.
    """

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenvectors", eigenvectors)


def eigh(m: np.ndarray) -> EigenDecomposition:
    """Eigendecompose a Hermitian matrix, or a ``(..., d, d)`` stack, with LAPACK.

    A stack gives, matrix by matrix, what single calls would.  Raises
    ``NotHermitianError`` when any matrix fails ``HERMITICITY_TOL``,
    ``ValidationError`` for NaN or inf entries and ``DimensionMismatchError``
    above dimension 1024 (the matrix dimension; the stack may be any length).
    """
    shape = np.shape(m)
    n = shape[-1] if shape else 0
    if n > _MAX_DIM:
        raise DimensionMismatchError(f"dimension {n} exceeds the supported maximum {_MAX_DIM}")
    a = require_hermitian(m)
    values, v = np.linalg.eigh((a + adjoint(a)) / 2.0)
    # lexsort is stable and its last key is the primary one.
    order = np.lexsort((-values, -np.abs(values)), axis=-1)
    # Gathered as rows and viewed transposed, so each eigenvector column is contiguous.
    rows = np.take_along_axis(v.swapaxes(-1, -2), order[..., :, None], axis=-2)
    return EigenDecomposition(
        eigenvalues=np.take_along_axis(values, order, axis=-1),
        eigenvectors=rows.swapaxes(-1, -2),
    )


def partial_trace(m: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Trace out all qubits not listed in ``keep`` from a qubit operator.

    ``m`` is one matrix or a ``(..., d, d)`` stack, traced matrix by matrix;
    ``d = 2**n`` gives the qubit count ``n``, and any other ``d`` raises
    ``DimensionMismatchError``.  ``keep`` is a :func:`zecs.report.qubit_subset`
    of ``range(n)``, else ``SubsystemError``, in the order of the result
    axes, so ``keep=[2, 0]`` returns an operator whose most significant
    qubit is original qubit 2.  ``keep=[]`` yields the 1x1 matrix ``[[trace]]``.
    """
    a = as_stack(m)
    n = a.shape[-1].bit_length() - 1
    if a.shape[-1] != 2**n:
        raise DimensionMismatchError(f"matrix dimension {a.shape[-1]} is not a power of two")
    keep = list(qubit_subset(keep, n))

    lead = a.shape[:-2]
    order = [len(lead) + q for q in keep + [q for q in range(n) if q not in keep]]
    axes = [*range(len(lead)), *order, *(n + q for q in order)]
    t = a.reshape(lead + (2,) * (2 * n)).transpose(axes)
    dk, dr = 2 ** len(keep), 2 ** (n - len(keep))
    return np.trace(t.reshape(lead + (dk, dr, dk, dr)), axis1=-3, axis2=-1)


def from_spectrum(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``V diag(w) V†`` of each ``V`` and real ``w`` of a stack, made Hermitian bit for bit."""
    out = (vectors * values[..., None, :]) @ adjoint(vectors)
    return (out + adjoint(out)) / 2.0


def clamp_spectrum(decomp: EigenDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """PSD part of each decomposed matrix and the negative magnitude removed from it.

    Negative eigenvalues are zeroed before :func:`from_spectrum`; the trace is not
    renormalized.  The magnitude is minus the sum, matrix by matrix, of just the
    eigenvalues below ``-CLAMP_TOL`` (0.0 when only numerical-noise negatives are present).
    """
    values = decomp.eigenvalues
    rows = values.reshape(-1, values.shape[-1])
    magnitudes = np.array([-w[w < -CLAMP_TOL].sum() for w in rows]).reshape(values.shape[:-1])
    return from_spectrum(decomp.eigenvectors, np.maximum(values, 0.0)), magnitudes


def clamp_psd(m: np.ndarray) -> tuple[np.ndarray, float]:
    """``clamp_spectrum`` of one Hermitian matrix: its PSD part and the removed magnitude."""
    if np.ndim(m) != 2:
        raise DimensionMismatchError(f"expected one square matrix, got shape {np.shape(m)}")
    clamped, magnitude = clamp_spectrum(eigh(m))
    return clamped, float(magnitude)


def mat_sqrt_psd(m: np.ndarray, decomp: EigenDecomposition | None = None) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix, or of each matrix in a stack.

    The :func:`from_spectrum` of the roots of the eigenvalues, clamped to zero first, so
    mildly indefinite inputs (finite-sample shadow reconstructions) are accepted.
    ``decomp`` is ``eigh(m)`` when the caller already holds it.
    """
    decomp = eigh(m) if decomp is None else decomp
    return from_spectrum(decomp.eigenvectors, np.sqrt(np.maximum(decomp.eigenvalues, 0.0)))

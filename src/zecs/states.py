"""Density operators and the closeness / entanglement metrics built on them.

Fidelity is taken to a pure state, ``F = <psi| rho |psi>``, trace distance
is ``D = Tr|r1 - r2| / 2``, concurrence comes from the R-matrix spectrum
with the ``X (x) X`` flip (see ``concurrence_matrix``; this is not Wootters'
concurrence in general), and entanglement entropy is the base-2 von Neumann
entropy of a marginal (a Bell pair scores exactly 1).

Shadow reconstructions are generally indefinite; metric functions clamp
negative eigenvalues internally instead of rejecting such inputs.

Trace distance, concurrence, entanglement entropy and the fidelity to a pure
state each have one matrix-level kernel (``trace_distance_matrix``,
``concurrence_matrix``, ``entanglement_entropy_matrix``,
``pure_fidelity_matrix``) that takes plain arrays or ``(..., d, d)`` stacks;
the ``DensityOperator`` functions delegate to them.  The report, the scan and
the study call the kernels directly, with ideal states as unit vectors.  A
``DensityOperator`` reads its qubit count from its matrix; its constructor is
the one structural check, and ``from_matrix`` always adds the physical one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, SubsystemError, ValidationError
from .report import Record, qubit_subset

#: Tolerances for deciding that an operator is a physical density operator.
TRACE_TOL = 1e-8
PSD_TOL = 1e-8

#: The two-qubit flip ``X (x) X``: it reverses the computational basis.  It is
#: not Wootters' spin flip ``Y (x) Y`` (see ``concurrence_matrix``).
_SPIN_FLIP = np.eye(4, dtype=complex)[::-1]


class DensityOperator(Record):
    """Hermitian unit-trace operator on ``n_qubits = log2(len(matrix))`` qubits.

    The constructor takes only the matrix and checks its structure: one square,
    finite matrix of dimension ``2**n``, n >= 1, Hermitian within
    ``linalg.HERMITICITY_TOL``.  It stores the matrix as given, without
    symmetrizing it.  ``validated`` (the PSD and unit-trace checks passed) and
    ``pure_vector`` (the state vector of a rank-1 projector) are set only by
    :meth:`from_matrix` and :meth:`from_pure`; raw shadow reconstructions carry neither.
    """

    __slots__ = ("matrix", "validated", "pure_vector")

    def __init__(self, matrix: np.ndarray):
        m = linalg.require_hermitian(matrix)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "validated", False)
        object.__setattr__(self, "pure_vector", None)
        if m.ndim != 2 or len(m) < 2 or len(m) != 2**self.n_qubits:
            raise DimensionMismatchError(f"expected one 2**n x 2**n matrix, n >= 1, not {m.shape}")

    @property
    def n_qubits(self) -> int:
        return len(self.matrix).bit_length() - 1

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "DensityOperator":
        """Wrap a matrix that must pass the trace and PSD checks of :func:`require_physical`."""
        rho = cls(matrix)
        require_physical(rho.matrix)
        return rho._validated()

    @classmethod
    def from_pure(cls, vector: np.ndarray) -> "DensityOperator":
        """Density operator of a pure state, keeping the vector cached."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-10:
            raise ValidationError(f"state vector norm {norm:.12g} deviates from 1")
        return cls(np.outer(v, v.conj()))._validated(v)

    def _validated(self, pure_vector: np.ndarray | None = None) -> "DensityOperator":
        object.__setattr__(self, "validated", True)
        object.__setattr__(self, "pure_vector", pure_vector)
        return self

    def clamped(self) -> tuple[np.ndarray, float]:
        """PSD projection of the matrix plus the removed negative magnitude."""
        if self.validated:
            return self.matrix, 0.0
        return linalg.clamp_psd(self.matrix)


def require_physical(m: np.ndarray) -> linalg.EigenDecomposition:
    """``linalg.eigh(m)``; ``ValidationError`` unless each matrix of the stack is a density matrix.

    Each matrix of the Hermitian ``(..., d, d)`` stack must have unit trace
    within ``TRACE_TOL`` and no eigenvalue below ``-PSD_TOL``.
    """
    traces = np.atleast_1d(np.trace(m, axis1=-2, axis2=-1))
    off = np.abs(traces - 1.0) > TRACE_TOL
    if off.any():
        trace = complex(traces[off][0])
        raise ValidationError(f"trace {trace:.6g} deviates from 1 beyond {TRACE_TOL:.1e}")
    decomp = linalg.eigh(m)
    smallest = decomp.eigenvalues.min()
    if smallest < -PSD_TOL:
        raise ValidationError(f"minimum eigenvalue {smallest:.3e} below -{PSD_TOL:.1e}")
    return decomp


def fidelity(a: DensityOperator, b: DensityOperator) -> float:
    """Fidelity ``<psi| rho |psi>`` between a pure state and another state.

    One operand must carry its state vector ``psi`` (``DensityOperator.from_pure``),
    else ``ValidationError``.  The other, ``rho``, is clamped to the PSD cone
    first and not renormalized, so up to rounding the value lies in [0, 1 + m],
    where m is the total magnitude of its negative eigenvalues: above 1 is
    possible for an indefinite reconstruction, not for a density operator.
    """
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(f"operators differ in qubits: {a.n_qubits} vs {b.n_qubits}")
    if a.pure_vector is None:
        a, b = b, a
    if a.pure_vector is None:
        raise ValidationError("fidelity needs a pure operand (one with its state vector)")
    m, _ = b.clamped()
    return float(pure_fidelity_matrix(a.pure_vector, m))


def pure_fidelity_matrix(psi: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Fidelity ``<psi| m |psi>`` of PSD matrices ``m`` to pure states ``psi``.

    ``psi`` is ``(..., d)`` and ``m`` is ``(..., d, d)``; leading axes broadcast.
    """
    return np.real(psi.conj()[..., None, :] @ m @ psi[..., :, None])[..., 0, 0]


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Half the trace norm of the difference of the two operators."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(f"operators differ in qubits: {a.n_qubits} vs {b.n_qubits}")
    return float(trace_distance_matrix(a.matrix, b.matrix))


def trace_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half the trace norm of ``a - b``, matrix by matrix over ``(..., d, d)`` stacks."""
    return np.abs(linalg.eigh(a - b).eigenvalues).sum(axis=-1) / 2.0


def concurrence(rho: DensityOperator) -> float:
    """Two-qubit concurrence-like value from the ``X (x) X``-flipped R-matrix.

    Indefinite inputs are clamped to the PSD cone first; see
    ``concurrence_matrix`` for the formula, which is not Wootters'
    concurrence in general.
    """
    if rho.n_qubits != 2:
        raise DimensionMismatchError("concurrence is defined for exactly 2 qubits")
    m, _ = rho.clamped()
    return float(concurrence_matrix(m))


def concurrence_matrix(
    m: np.ndarray, decomp: linalg.EigenDecomposition | None = None
) -> np.ndarray:
    """Wootters' formula with an ``X (x) X`` flip, per PSD matrix of a ``(..., 4, 4)`` stack.

    ``R = sqrt(sqrt(rho) rho~ sqrt(rho))`` with
    ``rho~ = (X (x) X) conj(rho) (X (x) X)``; the result is
    ``max(0, l0 - l1 - l2 - l3)`` over the descending eigenvalues of R.
    Wootters' concurrence flips with ``Y (x) Y`` instead.  The two agree on
    the Bell pair (1) and on |00> (0) but not in general: the product state
    |++> gives 1 here, not 0.  ``decomp`` is ``linalg.eigh(m)`` when the caller already
    holds it, as the study does from ``require_physical``.
    """
    flipped = _SPIN_FLIP @ m.conj() @ _SPIN_FLIP
    sqrt_m = linalg.mat_sqrt_psd(m, decomp)
    inner = sqrt_m @ flipped @ sqrt_m
    # R's eigenvalues are the square roots of inner's (inner is PSD up to noise).
    lam = np.sort(np.sqrt(np.maximum(linalg.eigh(inner).eigenvalues, 0.0)), axis=-1)
    return np.maximum(0.0, lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0])


def entanglement_entropy(rho: DensityOperator, subsystem_a: Sequence[int]) -> float:
    """Base-2 von Neumann entropy of the marginal on ``subsystem_a``, a non-empty proper
    subset of the qubits checked by ``linalg.partial_trace``; see the matrix kernel."""
    if not 0 < len(qubit_subset(subsystem_a)) < rho.n_qubits:
        raise SubsystemError(f"subsystem {subsystem_a} must be a non-empty proper subset "
                             f"of the {rho.n_qubits} qubits")
    return float(entanglement_entropy_matrix(rho.matrix, subsystem_a))


def entanglement_entropy_matrix(m: np.ndarray, subsystem_a: Sequence[int]) -> np.ndarray:
    """Entropy of the marginal on ``subsystem_a`` of each matrix in a ``(..., d, d)`` stack.

    Marginal eigenvalues are clipped to [0, 1] and renormalized before the
    entropy sum, so slightly unphysical reconstructions are handled.
    """
    marginals = linalg.partial_trace(m, subsystem_a)
    probs = np.clip(linalg.eigh(marginals).eigenvalues, 0.0, 1.0)
    total = probs.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise ValidationError("marginal has no positive weight")
    probs = probs / total
    # A zero probability adds 0 * log2(1) = 0 exactly.
    return -(probs * np.log2(np.where(probs > 0.0, probs, 1.0))).sum(axis=-1)

"""Rank-1 projection of a shadow-reconstructed state onto its dominant eigenvector.

A finite-sample shadow mean is Hermitian with unit trace but indefinite.
Projecting onto the eigenvector with the largest |eigenvalue| (the leading
singular vector) and renormalizing yields the closest pure state in the
sense of the Mirsky / Eckart-Young rank-1 approximation, and is by
construction positive semidefinite with unit trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ValidationError
from .states import DensityOperator

#: Relative spectral-gap threshold below which the top eigenvalue is considered degenerate.
DEGENERACY_REL_TOL = 1e-6

_TRACE_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class ZecsResult:
    """Outcome of the rank-1 projection.

    ``lambda_top`` keeps the sign of the dominant eigenvalue; ``spectrum``
    lists all |eigenvalues| in descending order (singular values).  A
    negative ``lambda_top`` or a set ``degenerate_flag`` indicates severe
    sampling noise and downstream consumers may want to exclude the entry.
    """

    rho_zecs: DensityOperator
    lambda_top: float
    spectrum: np.ndarray
    spectral_gap: float
    degenerate_flag: bool


def zecs_project(rho_cs: DensityOperator) -> ZecsResult:
    """Project onto the dominant-|eigenvalue| eigenvector, renormalized to trace 1.

    The input must be Hermitian with unit trace (within 1e-6); positivity is
    not required.  The output is independent of the eigenvector's global
    phase and always validates as a physical pure state.
    """
    trace = complex(np.trace(rho_cs.matrix))
    if abs(trace - 1.0) > _TRACE_TOL:
        raise ValidationError(f"trace {trace:.8g} deviates from 1 beyond {_TRACE_TOL:.1e}")
    if rho_cs.dim < 2:
        raise ValidationError("projection needs dimension >= 2")
    decomp = linalg.eigh(rho_cs.matrix)
    top = decomp.eigenvectors[:, 0]
    lambda_top = float(decomp.eigenvalues[0])
    spectrum = np.abs(decomp.eigenvalues)
    gap = float(spectrum[0] - spectrum[1])
    pure = DensityOperator.from_pure(top)
    return ZecsResult(
        rho_zecs=pure,
        lambda_top=lambda_top,
        spectrum=spectrum,
        spectral_gap=gap,
        degenerate_flag=bool(gap < DEGENERACY_REL_TOL * spectrum[0]),
    )

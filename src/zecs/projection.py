"""Rank-1 projection of a shadow-reconstructed state onto its dominant eigenvector.

A finite-sample shadow mean is Hermitian with unit trace but indefinite.
Projecting onto the eigenvector with the largest |eigenvalue| (the leading
singular vector) and renormalizing yields the closest pure state in the
sense of the Mirsky / Eckart-Young rank-1 approximation, and is by
construction positive semidefinite with unit trace.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import ValidationError
from .report import Identity
from .states import DensityOperator

#: Relative spectral-gap threshold below which the top eigenvalue is considered degenerate.
DEGENERACY_REL_TOL = 1e-6

_TRACE_TOL = 1e-6


def project_spectra(decomp: linalg.EigenDecomposition) -> tuple[np.ndarray, ...]:
    """Rank-1 projection of each matrix that one ``linalg.eigh`` call decomposed.

    Returns the unit dominant-|eigenvalue| eigenvectors ``(..., d)`` (column 0
    of the sorted decomposition), their projectors ``|v><v|`` and the flags of
    a gap between the top two |eigenvalues| below ``DEGENERACY_REL_TOL`` times
    the first.
    """
    top = decomp.eigenvectors[..., :, 0]
    spectrum = np.abs(decomp.eigenvalues)
    degenerate = spectrum[..., 0] - spectrum[..., 1] < DEGENERACY_REL_TOL * spectrum[..., 0]
    return top, top[..., :, None] * top.conj()[..., None, :], degenerate


class ZecsResult(Identity, NamedTuple("ZecsResult", [
        ("rho_zecs", DensityOperator), ("lambda_top", float), ("degenerate_flag", bool)])):
    """Outcome of the rank-1 projection; ``lambda_top`` keeps the dominant eigenvalue's sign.

    A negative ``lambda_top`` or a set ``degenerate_flag`` indicates severe sampling
    noise and downstream consumers may want to exclude the entry.
    """

    __slots__ = ()


def zecs_project(rho_cs: DensityOperator) -> ZecsResult:
    """Project onto the dominant-|eigenvalue| eigenvector, renormalized to trace 1.

    The input must be Hermitian with unit trace (within 1e-6); positivity is
    not required.  The output is independent of the eigenvector's global
    phase and always validates as a physical pure state.
    """
    trace = complex(np.trace(rho_cs.matrix))
    if abs(trace - 1.0) > _TRACE_TOL:
        raise ValidationError(f"trace {trace:.8g} deviates from 1 beyond {_TRACE_TOL:.1e}")
    decomp = linalg.eigh(rho_cs.matrix)
    top, _, degenerate = project_spectra(decomp)
    return ZecsResult(
        rho_zecs=DensityOperator.from_pure(top),
        lambda_top=float(decomp.eigenvalues[0]),
        degenerate_flag=bool(degenerate),
    )

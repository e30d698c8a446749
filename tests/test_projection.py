"""Tests for the rank-1 ZECS projection against NumPy's eigendecomposition."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from zecs.errors import ValidationError
from zecs.projection import zecs_project
from zecs.shadow import reconstruct
from zecs.simulator import StateVector, sample_shadow
from zecs.states import DensityOperator


def shadow_estimate(seed, n_qubits=2, n_records=60):
    """A finite-sample reconstruction: Hermitian, unit trace, indefinite."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    state = StateVector(n_qubits, amps / np.linalg.norm(amps))
    records = sample_shadow(state, n_records, seed=seed)
    return reconstruct(records, list(range(n_qubits)))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n_qubits", [2, 3])
def test_eckart_young_residual_equals_tail_norm(seed, n_qubits):
    rho_cs = shadow_estimate(seed, n_qubits)
    result = zecs_project(rho_cs)
    values = np.linalg.eigvalsh(rho_cs.matrix)
    values = values[np.argsort(-np.abs(values), kind="stable")]
    residual = np.linalg.norm(result.lambda_top * result.rho_zecs.matrix - rho_cs.matrix)
    tail = math.sqrt(float((values[1:] ** 2).sum()))
    assert residual == pytest.approx(tail, abs=1e-12)
    assert result.lambda_top == pytest.approx(values[0], abs=1e-12)
    assert np.allclose(result.spectrum, np.abs(values), atol=1e-12)
    assert result.spectral_gap == pytest.approx(abs(values[0]) - abs(values[1]), abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_projection_does_not_depend_on_eigenvector_phase(seed):
    rho_cs = shadow_estimate(100 + seed)
    result = zecs_project(rho_cs)
    values, vectors = np.linalg.eigh(rho_cs.matrix)
    top = vectors[:, np.argmax(np.abs(values))]
    for phase in (0.0, 0.7, math.pi / 2, math.pi, 5.0):
        rotated = DensityOperator.from_pure(np.exp(1j * phase) * top)
        assert np.abs(rotated.matrix - result.rho_zecs.matrix).max() <= 1e-12
    pure = result.rho_zecs
    assert pure.validated
    assert np.trace(pure.matrix).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(pure.matrix @ pure.matrix - pure.matrix).max() <= 1e-12


def test_degenerate_flag():
    mixed = DensityOperator.from_matrix(np.eye(4, dtype=complex) / 4)
    assert zecs_project(mixed).degenerate_flag
    bell = DensityOperator.from_pure(np.array([1, 0, 0, 1]) / math.sqrt(2))
    result = zecs_project(bell)
    assert not result.degenerate_flag
    assert result.lambda_top == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("offset", [2e-6, -2e-6, 0.25])
def test_rejects_trace_off_by_more_than_tolerance(offset):
    m = np.diag([0.5 + offset, 0.5]).astype(complex)
    with pytest.raises(ValidationError, match="trace"):
        zecs_project(DensityOperator.from_matrix(m, validate=False))


def test_accepts_trace_within_tolerance():
    m = np.diag([0.5 + 5e-7, 0.5]).astype(complex)
    assert zecs_project(DensityOperator.from_matrix(m, validate=False)).lambda_top > 0.5


def test_rejects_dimension_one():
    # DensityOperator itself needs n_qubits >= 1, so a stand-in carries the 1x1 matrix.
    rho = SimpleNamespace(matrix=np.array([[1.0 + 0j]]), dim=1)
    with pytest.raises(ValidationError, match="dimension >= 2"):
        zecs_project(rho)

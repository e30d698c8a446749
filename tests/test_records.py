"""Record semantics: every record of the package is immutable, keeps its equality, builds
from the constructions its callers use, copies and pickles, and rejects a bad field with its
typed error."""

import copy
import math
import pickle
import re

import numpy as np
import pytest

from zecs.errors import (CircuitSpecError, DimensionMismatchError, NotHermitianError,
                         RecordError, SubsystemError, ValidationError)
from zecs.layout import DeviceLayout
from zecs.linalg import EigenDecomposition
from zecs.projection import ZecsResult
from zecs.report import DiagnosticReport, NonlocalResult, SubsystemDiagnostics, SubsystemSpec
from zecs.routing import ChainSolution, EdgeScore
from zecs.simulator import Circuit, Gate, SnapshotRecord, StateVector
from zecs.states import DensityOperator

HALF = np.eye(2, dtype=complex) / 2


def row(s_ab=0.5):
    return SubsystemDiagnostics(kind="pair_plus_idle", qubits=(0, 1, 2), infidelity_cs=0.1,
                                infidelity_zecs=0.05, trace_distance=0.2, s_ab=s_ab,
                                s_ab_normalized=None, degenerate_flag=False,
                                clamp_magnitude=0.0)


#: Record name -> (a builder giving equal records on each call, a record that differs in
#: one field, or None for the records that are equal only to themselves).
RECORDS = {
    "SubsystemSpec": (lambda: SubsystemSpec(kind="pair", qubits=[0, 1]),
                      SubsystemSpec("pair", (1, 0))),
    "SubsystemDiagnostics": (row, row(s_ab=0.25)),
    "DiagnosticReport": (lambda: DiagnosticReport(subsystems=(row(),)),
                         DiagnosticReport((row(),), entropy_normalization="global")),
    "NonlocalResult": (lambda: NonlocalResult(target=(0, 1), candidate=(4, 5), s_ij=0.5,
                                              zscore=2.5, flagged=True, highest=True),
                       NonlocalResult((0, 1), (4, 5), 0.5, 2.5, False, True)),
    "EdgeScore": (lambda: EdgeScore(fidelity=0.9, s_ij=0.2), EdgeScore(0.9)),
    "ChainSolution": (lambda: ChainSolution(qubits=(0, 1, 2), cost=0.3, mean_fidelity=0.85,
                                            mean_entropy=0.0),
                      ChainSolution((0, 1, 2), 0.3, 0.85, 0.0, approximate=True)),
    "Gate": (lambda: Gate("cnot", target=1, control=0), Gate("ry", 1, angle=0.5)),
    "SnapshotRecord": (lambda: SnapshotRecord("XZ", "01"), SnapshotRecord(bases="XZ", bits="00")),
    "DeviceLayout": (lambda: DeviceLayout(num_qubits=3, edges=((1, 0), (1, 2))), None),
    "EigenDecomposition": (lambda: EigenDecomposition(eigenvalues=np.ones(2),
                                                      eigenvectors=np.eye(2)), None),
    "ZecsResult": (lambda: ZecsResult(rho_zecs=DensityOperator.from_pure(np.array([1.0, 0.0])),
                                      lambda_top=0.9, degenerate_flag=False), None),
    "DensityOperator": (lambda: DensityOperator(matrix=HALF), None),
    "Circuit": (lambda: Circuit(n_qubits=2, gates=(Gate("ry", 0, angle=0.5),
                                                   Gate("cnot", target=1, control=0))), None),
    "StateVector": (lambda: StateVector(amplitudes=np.array([0.6, 0.8])), None),
}

#: The fields of each record, as its constructor and its readers name them.
FIELDS = {
    "SubsystemSpec": ("kind", "qubits"),
    "SubsystemDiagnostics": ("kind", "qubits", "infidelity_cs", "infidelity_zecs",
                             "trace_distance", "s_ab", "s_ab_normalized", "degenerate_flag",
                             "clamp_magnitude"),
    "DiagnosticReport": ("subsystems", "entropy_normalization"),
    "NonlocalResult": ("target", "candidate", "s_ij", "zscore", "flagged", "highest"),
    "EdgeScore": ("fidelity", "s_ij"),
    "ChainSolution": ("qubits", "cost", "mean_fidelity", "mean_entropy", "approximate"),
    "Gate": ("kind", "target", "control", "angle"),
    "SnapshotRecord": ("bases", "bits"),
    "DeviceLayout": ("num_qubits", "edges"),
    "EigenDecomposition": ("eigenvalues", "eigenvectors"),
    "ZecsResult": ("rho_zecs", "lambda_top", "degenerate_flag"),
    "DensityOperator": ("matrix", "validated", "pure_vector"),
    "Circuit": ("n_qubits", "gates"),
    "StateVector": ("amplitudes",),
}


def test_the_tables_cover_the_same_records():
    assert RECORDS.keys() == FIELDS.keys() and len(RECORDS) == 14


@pytest.mark.parametrize("name", FIELDS)
def test_assigning_or_deleting_a_field_raises(name):
    record = RECORDS[name][0]()
    for field in FIELDS[name]:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before


@pytest.mark.parametrize("name", [name for name, (_, other) in RECORDS.items() if other])
def test_value_records_with_equal_fields_are_equal_and_hash_equal(name):
    build, other = RECORDS[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2


@pytest.mark.parametrize("name", [name for name, (_, other) in RECORDS.items() if not other])
def test_identity_records_are_equal_only_to_themselves(name):
    build, _ = RECORDS[name]
    a, b = build(), build()
    assert a == a and not a != a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b}) == 2


@pytest.mark.parametrize("name", FIELDS)
def test_copies_and_pickles_hold_the_same_fields(name):
    record = RECORDS[name][0]()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and repr(twin) == repr(record)
        if RECORDS[name][1] is not None:
            assert twin == record


def test_fields_hold_what_the_constructors_were_given():
    spec = RECORDS["SubsystemSpec"][0]()
    assert spec.qubits == (0, 1) and type(spec.qubits) is tuple
    assert DiagnosticReport((row(),)).entropy_normalization == "per-kind"
    assert EdgeScore(0.9).s_ij == 0.0
    assert ChainSolution((0, 1), 0.1, 0.9, 0.0).approximate is False
    assert Gate("ry", 0, angle=0.5) == Gate(kind="ry", target=0, control=None, angle=0.5)
    assert Gate("cnot", 1, 0).control == 0 and Gate("cnot", 1, 0).angle is None
    layout = RECORDS["DeviceLayout"][0]()
    assert layout.edges == ((0, 1), (1, 2))
    assert layout.edges_between([1], [0, 2]) == [(0, 1), (1, 2)]
    circuit = Circuit(2, [Gate("ry", 0, angle=0.5)])
    assert type(circuit.gates) is tuple and circuit.n_qubits == 2
    rho = DensityOperator(HALF)
    assert rho.n_qubits == 1 and rho.validated is False and rho.pure_vector is None
    pure = DensityOperator.from_pure(np.array([0.6, 0.8]))
    assert pure.validated is True and np.array_equal(pure.pure_vector, [0.6, 0.8])
    assert DensityOperator.from_matrix(HALF).validated is True
    vector = StateVector([0.6, 0.8])
    assert vector.amplitudes.dtype == complex and vector.n_qubits == 1
    assert SnapshotRecord("XYZ", "010").n_qubits == 3


def test_keyword_constructions_of_the_callers_build():
    SubsystemDiagnostics("pair", (0, 1), s_ab_normalized=None, infidelity_cs=0.1,
                         infidelity_zecs=0.1, trace_distance=0.1, s_ab=None,
                         degenerate_flag=None, clamp_magnitude=None)
    SubsystemDiagnostics("pair", (0, 1), degenerate_flag=True, infidelity_cs=None,
                         infidelity_zecs=None, trace_distance=None, s_ab=None,
                         s_ab_normalized=None, clamp_magnitude=None)
    DiagnosticReport(subsystems=(), entropy_normalization="per-kind")
    NonlocalResult(target=(0, 1), candidate=(2, 3), s_ij=0.0, zscore=0.0, flagged=False,
                   highest=False)
    EdgeScore(fidelity=1.0, s_ij=0.0)
    ChainSolution(qubits=(0, 1), cost=0.0, mean_fidelity=1.0, mean_entropy=0.0,
                  approximate=True)
    DeviceLayout(10, tuple((q, q + 1) for q in range(9)))
    SubsystemSpec("pair_pair", (0, 1, 3, 4))
    SnapshotRecord("XYZ", "011")
    Gate("rz", 2, angle=0.1)
    Gate("cnot", target=2, control=1)
    Gate("ry", 0, None, 0.3)
    Circuit(3, ())
    StateVector(np.array([1.0, 0.0]))
    ZecsResult(DensityOperator.from_pure(np.array([0.0, 1.0])), -0.5, True)
    EigenDecomposition(np.ones(1), np.eye(1))


@pytest.mark.parametrize("build, error, message", [
    (lambda: SubsystemSpec(3, (0, 1)), SubsystemError, "kind must be a string, got 3"),
    (lambda: SubsystemSpec("pear", (0, 1)), SubsystemError, "unknown subsystem kind 'pear'"),
    (lambda: SubsystemSpec("pair", (0, 0)), SubsystemError, "qubit subset (0, 0) repeats a qubit"),
    (lambda: SubsystemSpec("pair", (0, 1, 2)), SubsystemError,
     "pair subsystem needs 2 qubits, got (0, 1, 2)"),
    (lambda: SubsystemSpec("pair", (0, -1)), SubsystemError,
     "qubit index must be non-negative, got -1"),
    (lambda: EdgeScore(1.5), ValidationError, "fidelity 1.5 outside [0, 1]"),
    (lambda: EdgeScore(math.nan, 0.0), ValidationError, "fidelity nan outside [0, 1]"),
    (lambda: EdgeScore(fidelity=0.5, s_ij=-1.0), ValidationError,
     "s_ij -1.0 must be finite and non-negative"),
    (lambda: EdgeScore(0.5, math.inf), ValidationError,
     "s_ij inf must be finite and non-negative"),
    (lambda: SnapshotRecord("XQ", "01"), RecordError, "invalid basis character(s) ['Q']"),
    (lambda: SnapshotRecord("XZ", "012"), RecordError, "bases/bits length mismatch: 'XZ' vs '012'"),
    (lambda: SnapshotRecord("", ""), RecordError, "record covers no qubits"),
    (lambda: DeviceLayout(0, ()), ValidationError,
     "layout needs an integer number of qubits >= 1, got 0"),
    (lambda: DeviceLayout(2, ((0, 1), (1, 2))), ValidationError,
     "edge 1: qubit subset (1, 2) out of range for 2 qubits"),
    (lambda: DeviceLayout(3, ((0, 1), (1, 0))), ValidationError,
     "edge 1: (1, 0) repeats edge 0 (0, 1)"),
    (lambda: DensityOperator(np.eye(3) / 3), DimensionMismatchError,
     "expected one 2**n x 2**n matrix, n >= 1, not (3, 3)"),
    (lambda: DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]])), NotHermitianError,
     "matrix deviates from its adjoint by 1.000e+00 (tol 1.0e-08)"),
    (lambda: DensityOperator([[1.0, math.nan], [math.nan, 0.0]]), ValidationError,
     "matrix has non-finite entries (NaN or inf)"),
    (lambda: Circuit(0, ()), CircuitSpecError,
     "circuit needs an integer number of qubits >= 1, got 0"),
    (lambda: Circuit(2, (Gate("rx", 0, angle=1.0),)), CircuitSpecError,
     "gate 0: unknown gate kind 'rx'"),
    (lambda: Circuit(2, (Gate("ry", 0, angle=1.0), Gate("ry", 1))), CircuitSpecError,
     "gate 1: ry gate needs an angle"),
    (lambda: Circuit(2, (Gate("cnot", 1, 1),)), CircuitSpecError,
     "gate 0: qubit subset (1, 1) repeats a qubit"),
    (lambda: StateVector(np.ones(3) / math.sqrt(3)), DimensionMismatchError,
     "3 amplitudes are not 2**n for any n >= 0"),
    (lambda: StateVector(np.array([1.0, 1.0])), ValidationError,
     "state vector norm 1.41421356237 deviates from 1"),
])
def test_a_bad_field_raises_its_typed_error(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()

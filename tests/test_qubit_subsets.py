"""One rule for qubit subsets: ``report.qubit_subset`` and every public entry point using it.

Each entry point that takes qubit indices, circuits included, rejects a
``bool``, a float, a negative index with or without a width, a subset that
is not a sequence, a repeated qubit and, where a width is known, an
out-of-range qubit with a ``ZecsError`` subclass, never a bare ``IndexError``,
``ValueError`` or ``TypeError``.
"""

import re

import numpy as np
import pytest

from zecs import linalg
from zecs.errors import CircuitSpecError, CoverageError, SubsystemError, ValidationError, ZecsError
from zecs.layout import DeviceLayout
from zecs.report import PAIR, SubsystemSpec, as_pairs, qubit_subset
from zecs.shadow import rho_cs
from zecs.simulator import CNOT, RY, Circuit, Gate
from zecs.states import DensityOperator, entanglement_entropy


@pytest.mark.parametrize(
    "qubits, width, expected",
    [
        ((), None, ()),
        ([2, 0], None, (2, 0)),
        ((0, 1, 2), 3, (0, 1, 2)),
        ([np.int64(3), np.uint8(1)], 4, (3, 1)),
        (np.array([1, 0]), 2, (1, 0)),
        (range(5), 5, (0, 1, 2, 3, 4)),
    ],
    ids=["empty", "any-order", "full-width", "numpy-integers", "numpy-array", "range"],
)
def test_qubit_subset_accepts(qubits, width, expected):
    subset = qubit_subset(qubits, width)
    assert subset == expected
    assert all(type(q) is int for q in subset)


@pytest.mark.parametrize(
    "qubits, width, message",
    [
        ([True], None, "qubit index must be an integer, got True"),
        ([0, False], 2, "qubit index must be an integer, got False"),
        ([0.0], None, "qubit index must be an integer, got 0.0"),
        ([1, 2.5], 4, "qubit index must be an integer, got 2.5"),
        (["1"], None, "qubit index must be an integer, got '1'"),
        ([1, 1], None, "qubit subset (1, 1) repeats a qubit"),
        ([2, 0, 2], 3, "qubit subset (2, 0, 2) repeats a qubit"),
        ([0, 3], 3, "qubit subset (0, 3) out of range for 3 qubits"),
        ([-1], 3, "qubit index must be non-negative, got -1"),
        ([0, -2], None, "qubit index must be non-negative, got -2"),
        ([0], 0, "qubit subset (0,) out of range for 0 qubits"),
        (5, None, "expected a sequence of qubit indices, got 5"),
    ],
    ids=["bool", "bool-later", "float", "fraction", "string", "repeat", "repeat-later",
         "past-end", "negative", "negative-without-width", "no-width", "not-a-sequence"],
)
def test_qubit_subset_rejects(qubits, width, message):
    with pytest.raises(SubsystemError, match=f"^{re.escape(message)}$"):
        qubit_subset(qubits, width)


def _codes():
    """A 4-qubit code matrix of three records."""
    return np.array([[0, 3, 4, 1], [5, 2, 0, 4], [1, 1, 3, 2]], dtype=np.uint8)


_LINE = DeviceLayout(4, ((0, 1), (1, 2), (2, 3)))
_TWO_QUBITS = np.eye(4, dtype=complex) / 4
_THREE_QUBITS = DensityOperator.from_matrix(np.eye(8, dtype=complex) / 8)

#: (entry point, malformed input) -> the call and the ``ZecsError`` it must raise.
#: ``edges_between`` has no out-of-range case: a qubit outside the layout couples
#: to nothing, so a report row beyond the layout scores no edge and a scan
#: candidate beyond the stream is the stream's ``CoverageError``.  A circuit
#: takes its qubits one gate field at a time, so its not-a-sequence case is a
#: field holding a sequence where one index belongs.
SWEEP = {
    "partial_trace-bool": (lambda: linalg.partial_trace(_TWO_QUBITS, [True]), SubsystemError),
    "partial_trace-float": (lambda: linalg.partial_trace(_TWO_QUBITS, [0.0]), SubsystemError),
    "partial_trace-repeat": (lambda: linalg.partial_trace(_TWO_QUBITS, [0, 0]), SubsystemError),
    "partial_trace-range": (lambda: linalg.partial_trace(_TWO_QUBITS, [2]), SubsystemError),
    "partial_trace-negative": (lambda: linalg.partial_trace(_TWO_QUBITS, [-1]), SubsystemError),
    "partial_trace-not-a-sequence": (lambda: linalg.partial_trace(_TWO_QUBITS, 1), SubsystemError),
    "entropy-bool": (lambda: entanglement_entropy(_THREE_QUBITS, [True]), SubsystemError),
    "entropy-float": (lambda: entanglement_entropy(_THREE_QUBITS, [1.0]), SubsystemError),
    "entropy-repeat": (lambda: entanglement_entropy(_THREE_QUBITS, [0, 0]), SubsystemError),
    "entropy-range": (lambda: entanglement_entropy(_THREE_QUBITS, [3]), SubsystemError),
    "entropy-negative": (lambda: entanglement_entropy(_THREE_QUBITS, [-1]), SubsystemError),
    "entropy-not-a-sequence": (lambda: entanglement_entropy(_THREE_QUBITS, 1), SubsystemError),
    "rho_cs-bool": (lambda: rho_cs(_codes(), [[True, 2]]), SubsystemError),
    "rho_cs-float": (lambda: rho_cs(_codes(), [[0.5, 2]]), SubsystemError),
    "rho_cs-repeat": (lambda: rho_cs(_codes(), [[0, 1], [1, 1]]), SubsystemError),
    "rho_cs-range": (lambda: rho_cs(_codes(), [[1, 4]]), CoverageError),
    "rho_cs-negative": (lambda: rho_cs(_codes(), [[-1, 2]]), SubsystemError),
    "rho_cs-not-a-sequence": (lambda: rho_cs(_codes(), [0, 1]), SubsystemError),
    "rho_cs-subsets-not-a-sequence": (lambda: rho_cs(_codes(), 5), SubsystemError),
    "spec-bool": (lambda: SubsystemSpec(PAIR, (True, 2)), SubsystemError),
    "spec-float": (lambda: SubsystemSpec(PAIR, (0, 1.0)), SubsystemError),
    "spec-repeat": (lambda: SubsystemSpec(PAIR, (1, 1)), SubsystemError),
    "spec-negative": (lambda: SubsystemSpec(PAIR, (-1, 0)), SubsystemError),
    "spec-not-a-sequence": (lambda: SubsystemSpec(PAIR, 5), SubsystemError),
    "spec-kind-not-a-string": (lambda: SubsystemSpec(["pair"], (0, 1)), SubsystemError),
    "as_pairs-bool": (lambda: as_pairs([(True, 2)], "target"), SubsystemError),
    "as_pairs-float": (lambda: as_pairs([(0, 1.5)], "target"), SubsystemError),
    "as_pairs-repeat": (lambda: as_pairs([(4, 4)], "target"), SubsystemError),
    "as_pairs-negative": (lambda: as_pairs([(-1, 2)], "target"), SubsystemError),
    "as_pairs-not-a-sequence": (lambda: as_pairs([5], "target"), SubsystemError),
    "layout-bool": (lambda: DeviceLayout(3, ((True, 2),)), ValidationError),
    "layout-float": (lambda: DeviceLayout(3, ((0, 1.0),)), ValidationError),
    "layout-repeat": (lambda: DeviceLayout(3, ((1, 1),)), ValidationError),
    "layout-range": (lambda: DeviceLayout(3, ((0, 3),)), ValidationError),
    "layout-not-a-pair": (lambda: DeviceLayout(3, ((0, 1, 2),)), ValidationError),
    "layout-negative": (lambda: DeviceLayout(3, ((-1, 2),)), ValidationError),
    "layout-not-a-sequence": (lambda: DeviceLayout(3, (5,)), ValidationError),
    "edges_between-bool": (lambda: _LINE.edges_between((True,), (2,)), SubsystemError),
    "edges_between-float": (lambda: _LINE.edges_between((0,), (1.0,)), SubsystemError),
    "edges_between-repeat": (lambda: _LINE.edges_between((1, 1), (2,)), SubsystemError),
    "edges_between-negative": (lambda: _LINE.edges_between((-1,), (0,)), SubsystemError),
    "edges_between-not-a-sequence": (lambda: _LINE.edges_between(1, (2,)), SubsystemError),
    "circuit-bool": (lambda: Circuit(2, (Gate(RY, True, angle=0.1),)), CircuitSpecError),
    "circuit-float": (lambda: Circuit(2, (Gate(RY, 1.0, angle=0.1),)), CircuitSpecError),
    "circuit-repeat": (lambda: Circuit(2, (Gate(CNOT, 1, control=1),)), CircuitSpecError),
    "circuit-range": (lambda: Circuit(2, (Gate(CNOT, 2, control=0),)), CircuitSpecError),
    "circuit-no-control": (lambda: Circuit(2, (Gate(CNOT, 1),)), CircuitSpecError),
    "circuit-negative": (lambda: Circuit(2, (Gate(RY, -1, angle=0.1),)), CircuitSpecError),
    "circuit-not-a-sequence": (lambda: Circuit(2, (Gate(RY, (0, 1), angle=0.1),)),
                               CircuitSpecError),
}


@pytest.mark.parametrize("case", SWEEP)
def test_every_entry_point_raises_a_typed_error(case):
    call, error = SWEEP[case]
    assert issubclass(error, ZecsError)
    with pytest.raises(error):
        call()


def test_rho_cs_subsets_that_are_not_a_sequence_name_them():
    message = "^expected a sequence of qubit subsets, got 5$"
    with pytest.raises(SubsystemError, match=message):
        rho_cs(_codes(), 5)


def test_circuit_gate_errors_name_the_gate_and_the_qubits():
    message = r"^gate 0: qubit subset \(0, 0\) repeats a qubit$"
    with pytest.raises(CircuitSpecError, match=message):
        Circuit(2, (Gate(CNOT, 0, control=0),))
    message = r"^gate 1: qubit index must be an integer, got 1\.0$"
    with pytest.raises(CircuitSpecError, match=message):
        Circuit(2, (Gate(RY, 0, angle=0.1), Gate(RY, 1.0, angle=0.1)))
    assert Circuit(2, (Gate(CNOT, np.int64(1), control=np.uint8(0)),)).n_qubits == 2

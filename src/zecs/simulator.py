"""State-vector simulation, shadow-record sampling, and the perturbation model.

Circuits are flat gate lists over {RY, RZ, CNOT}.  The layered ansatz
(:func:`build_efficient_su2`) consumes ``4 * reps * n_qubits`` angles; each
repetition is an RY column, an RZ column, a linear CNOT ladder, then a
second RY and RZ column.

Shadow sampling measures every qubit in a uniformly random Pauli basis and
draws the bit string from the exact Born distribution of the basis-rotated
state by the chain rule, one qubit at a time.  Records are sampled in chunks
of ``_SAMPLE_CHUNK`` after sorting them by basis string, so the records of a
chunk share long basis prefixes, and records with a common (basis, bit)
prefix share one collapsed state.  Streams are reproducible bit-for-bit from
the seed (PCG64), and do not depend on the chunk size.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import (
    CircuitSpecError,
    ConfigError,
    DimensionMismatchError,
    RecordError,
    SubsystemError,
    ValidationError,
)
from .report import (BASIS_LETTERS, Record, ValueRecord, is_integer, qubit_count, qubit_subset,
                     record_problem)
from .states import DensityOperator

RY = "ry"
RZ = "rz"
CNOT = "cnot"

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S_DAG = np.array([[1, 0], [0, -1j]], dtype=complex)

#: Rotation applied before a computational-basis measurement, per basis letter.
BASIS_ROTATIONS = {
    "X": _HADAMARD,
    "Y": _HADAMARD @ _S_DAG,
    "Z": np.eye(2, dtype=complex),
}
_ROTATION_STACK = np.stack([BASIS_ROTATIONS[letter] for letter in BASIS_LETTERS])

_MAX_SIM_QUBITS = 12
_SAMPLE_CHUNK = 512  # basis-sorted records sampled together; bounds the states held at any depth


class Gate(NamedTuple):
    kind: str
    target: int
    control: int | None = None
    angle: float | None = None


class Circuit(Record):
    __slots__ = ("n_qubits", "gates")

    def __init__(self, n_qubits: int, gates: tuple[Gate, ...]):
        n = _simulable(qubit_count(n_qubits, CircuitSpecError, "circuit"))
        for index, g in enumerate(gates):
            try:
                qubit_subset((g.control, g.target) if g.kind == CNOT else (g.target,), n)
                if g.kind not in (RY, RZ, CNOT):
                    raise CircuitSpecError(f"unknown gate kind {g.kind!r}")
                if g.kind != CNOT and g.angle is None:
                    raise CircuitSpecError(f"{g.kind} gate needs an angle")
                if g.kind != CNOT and g.control is not None:
                    raise CircuitSpecError(f"{g.kind} gate takes no control, got {g.control!r}")
            except (SubsystemError, CircuitSpecError) as exc:
                raise CircuitSpecError(f"gate {index}: {exc}") from None
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "gates", tuple(gates))


class StateVector(Record):
    """Unit-norm amplitudes, flattened, of ``n_qubits = log2(len(amplitudes))`` qubits."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: np.ndarray):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if len(amps) != 2**self.n_qubits:
            raise DimensionMismatchError(f"{len(amps)} amplitudes are not 2**n for any n >= 0")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-10:
            raise ValidationError(f"state vector norm {norm:.12g} deviates from 1")

    @property
    def n_qubits(self) -> int:
        return len(self.amplitudes).bit_length() - 1

    def to_density(self) -> DensityOperator:
        return DensityOperator.from_pure(self.amplitudes)


class SnapshotRecord(ValueRecord):
    """One measurement event: per-qubit basis letter and observed bit."""

    __slots__ = ("bases", "bits")

    def __init__(self, bases: str, bits: str):
        problem = record_problem(bases, bits)
        if problem:
            raise RecordError(problem)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "bits", bits)

    @property
    def n_qubits(self) -> int:
        return len(self.bases)


def _generator(seed: int) -> np.random.Generator:
    """The PCG64 generator of ``seed``; ``ConfigError`` unless it is an integer >= 0."""
    if not is_integer(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def zero_state(n_qubits: int) -> StateVector:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(amps)


def _simulable(n_qubits: int) -> int:
    """``n_qubits`` if :func:`run` can hold its state vector, else ``DimensionMismatchError``."""
    if n_qubits > _MAX_SIM_QUBITS:
        raise DimensionMismatchError(f"simulation capped at {_MAX_SIM_QUBITS} qubits")
    return n_qubits


def _ansatz_size(n_qubits: int, reps: int) -> int:
    """Angle count ``4 * reps * n_qubits``; ``CircuitSpecError`` unless both are integers >= 1,
    and :func:`_simulable` fails an ansatz too wide to run before any angle or gate is made."""
    for name, value in (("reps", reps), ("n_qubits", n_qubits)):
        if not is_integer(value):
            raise CircuitSpecError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise CircuitSpecError(f"{name} must be >= 1, got {value}")
    return 4 * reps * _simulable(n_qubits)


def build_efficient_su2(n_qubits: int, reps: int, params: Sequence[float]) -> Circuit:
    """Layered SU(2) ansatz: per repetition RY, RZ, CNOT ladder, RY, RZ.

    Consumes exactly ``4 * reps * n_qubits`` angles in that column order;
    the CNOT ladder entangles ``i -> i+1`` down the chain.
    """
    expected = _ansatz_size(n_qubits, reps)
    angles = [float(p) for p in params]
    if len(angles) != expected:
        raise CircuitSpecError(
            f"need {expected} parameters for n_qubits={n_qubits}, reps={reps}; got {len(angles)}"
        )
    gates: list[Gate] = []
    it = iter(angles)

    def rotation_column(kind: str) -> None:
        for q in range(n_qubits):
            gates.append(Gate(kind, q, angle=next(it)))

    for _ in range(reps):
        rotation_column(RY)
        rotation_column(RZ)
        for q in range(n_qubits - 1):
            gates.append(Gate(CNOT, target=q + 1, control=q))
        rotation_column(RY)
        rotation_column(RZ)
    return Circuit(n_qubits, tuple(gates))


def _apply_single(amps: np.ndarray, u: np.ndarray, qubit: int) -> np.ndarray:
    """``u`` applied to ``qubit``: the product ``tensordot`` forms, without its axis handling."""
    blocks = amps.reshape(2**qubit, 2, -1)
    t = u.dot(blocks.transpose(1, 0, 2).reshape(2, -1))
    return t.reshape(2, 2**qubit, -1).transpose(1, 0, 2).reshape(-1)


def _apply_cnot(amps: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    t = amps.reshape([2] * n).copy()
    sel_flip = [slice(None)] * n
    sel_flip[control] = 1
    block = t[tuple(sel_flip)]
    t[tuple(sel_flip)] = np.flip(block, axis=target - (1 if target > control else 0))
    return t.reshape(-1)


def _gate_matrix(gate: Gate) -> np.ndarray:
    half = gate.angle / 2.0
    if gate.kind == RY:
        return np.array(
            [[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]], dtype=complex
        )
    return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]], dtype=complex)


def run(circuit: Circuit) -> StateVector:
    """Apply the circuit, at most ``_MAX_SIM_QUBITS`` wide, to the all-zeros state."""
    n = circuit.n_qubits
    amps = zero_state(n).amplitudes
    for gate in circuit.gates:
        if gate.kind == CNOT:
            amps = _apply_cnot(amps, gate.control, gate.target, n)
        else:
            amps = _apply_single(amps, _gate_matrix(gate), gate.target)
    norm = np.linalg.norm(amps)
    return StateVector(amps / norm)


def _chain_rule_bits(amps: np.ndarray, bases: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Chain-rule outcome bits of one chunk; ``draws`` are uniforms scaled by ``|psi|^2``."""
    bits = np.empty(bases.shape, dtype=np.uint8)
    states = amps.reshape(1, -1)
    row = np.zeros(len(draws), dtype=np.intp)
    for q in range(bases.shape[1]):
        keys, pair = np.unique(3 * row + bases[:, q], return_inverse=True)
        halves = _ROTATION_STACK[keys % 3] @ states[keys // 3].reshape(len(keys), 2, -1)
        mass = np.einsum("pbk,pbk->pb", halves.view(np.float64), halves.view(np.float64))
        mass0 = mass[pair, 0]
        bit = (draws >= mass0) & (mass[pair, 1] > 0)
        draws = np.where(bit, draws - mass0, draws)
        bits[:, q] = bit
        states = halves.reshape(2 * len(keys), -1)
        row = 2 * pair + bit
    return bits


def sample_shadow(state: StateVector, n_records: int, seed: int) -> list[SnapshotRecord]:
    """Draw ``n_records`` randomized Pauli-basis measurement records.

    Per record each qubit's basis is uniform over {X, Y, Z} and the joint
    bit string follows the Born distribution of the rotated state.  One
    uniform per record is the inverse-CDF draw, taken qubit by qubit: rotate
    qubit q, take bit 1 when the remaining draw reaches the bit-0 mass (never
    a zero-mass branch), collapse.  The chain rule runs on the records sorted
    by basis string, ``_SAMPLE_CHUNK`` at a time, and the bits are scattered
    back into draw order; a record's bits depend only on its own bases and
    draw, so neither the sort nor the chunk size changes them.  Records of a
    chunk that share a (basis, bit) prefix share one collapsed state: at 12
    qubits and 6,000 records one call peaks at about 3 MiB under
    ``tracemalloc``.
    """
    if n_records < 1:
        raise ConfigError(f"n_records must be >= 1, got {n_records}")
    n = state.n_qubits
    if n < 1:
        raise DimensionMismatchError("sampling needs a state of at least one qubit")
    rng = _generator(seed)
    bases = rng.integers(0, 3, size=(n_records, n)).astype(np.uint8)
    draws = rng.random(n_records) * float(np.vdot(state.amplitudes, state.amplitudes).real)
    order = np.lexsort(bases.T[::-1])
    bits = np.empty_like(bases)
    for start in range(0, n_records, _SAMPLE_CHUNK):
        rows = order[start:start + _SAMPLE_CHUNK]
        bits[rows] = _chain_rule_bits(state.amplitudes, bases[rows], draws[rows])
    base_text = np.frombuffer(BASIS_LETTERS.encode(), dtype=np.uint8)[bases].tobytes().decode()
    bit_text = (bits + ord("0")).tobytes().decode()
    return [
        SnapshotRecord(base_text[i:i + n], bit_text[i:i + n])
        for i in range(0, n_records * n, n)
    ]


_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
#: ``_PAULI_PRODUCTS[i, j] = P_i (x) P_j`` for the 16 two-qubit Pauli pairs.
_PAULI_PRODUCTS = np.array([[np.kron(p, q) for q in _PAULIS] for p in _PAULIS])


def perturb_state(rho0: DensityOperator, sigma: float, seed: int) -> DensityOperator:
    """Randomly perturb a 2-qubit state and project back to a physical one.

    Adds ``(1/2) sum_ij eta_ij P_i (x) P_j`` over all 16 two-qubit Pauli
    pairs with ``eta_ij ~ N(0, sigma**2)`` i.i.d. drawn from ``seed``, then
    restores positivity by replacing eigenvalues with their absolute values
    and renormalizing the trace to 1.  ``sigma=0`` returns the input
    unchanged.  This is the one-seed case of the stacked model that
    :func:`zecs.study.perturbation_study` runs for all trials at once.
    """
    if rho0.n_qubits != 2:
        raise DimensionMismatchError("perturbation model is defined for 2-qubit states")
    (matrix,) = _perturb_stack(rho0.matrix, sigma, [seed])
    if sigma == 0.0:
        return rho0
    return DensityOperator.from_matrix(matrix)


def _perturb_stack(rho0: np.ndarray, sigma: float, seeds: Sequence[int]) -> np.ndarray:
    """The perturbation model of :func:`perturb_state` on a 4x4 matrix, once per seed.

    Returns a ``(len(seeds), 4, 4)`` stack: entry t is what ``seeds[t]``
    alone gives.  All perturbations come from one contraction with the Pauli
    product table, and the |eigenvalue| repair is one stacked ``eigh``.  The
    stack is returned unchecked: each caller runs the trace and PSD checks of
    ``require_physical`` once, :func:`perturb_state` through
    ``DensityOperator.from_matrix`` and the study on the whole stack.
    """
    if not 0.0 <= sigma <= 0.5:  # also false for NaN
        raise ConfigError(f"sigma must be a finite number in [0, 0.5], got {sigma}")
    if sigma == 0.0:
        return np.repeat(rho0[None], len(seeds), axis=0)
    eta = np.stack([_generator(int(s)).normal(0.0, sigma, size=(4, 4)) for s in seeds])
    perturbed = rho0 + np.einsum("tij,ijab->tab", 0.5 * eta, _PAULI_PRODUCTS)
    decomp = linalg.eigh(perturbed)
    magnitudes = np.abs(decomp.eigenvalues)
    weights = magnitudes / magnitudes.sum(axis=-1, keepdims=True)
    return linalg.from_spectrum(decomp.eigenvectors, weights)


def random_su2_params(n_qubits: int, reps: int, seed: int) -> np.ndarray:
    """Ansatz angles drawn uniformly from [0, pi/2], the protocol's choice."""
    return _generator(seed).uniform(0.0, math.pi / 2.0, size=_ansatz_size(n_qubits, reps))

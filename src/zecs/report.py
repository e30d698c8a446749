"""Diagnostic report records: subsystem kinds, report rows and scan results.

Immutable records with no NumPy, so that reading, writing and routing over a
stored report loads none of the numeric layers.  Every record of the package is a
``NamedTuple``.  One that checks its fields subclasses the ``NamedTuple`` of those
fields with ``__slots__ = ()`` and runs its checks in ``__new__``; one that holds
arrays, or is equal only to itself, lists :class:`Identity` ahead of that base.
``_make`` and ``_replace`` skip ``__new__``: on a checked record the package calls
them only in ``DensityOperator.from_matrix`` and ``from_pure``.  Each check takes raw
JSON values: :func:`is_integer` is the integer rule, :func:`qubit_index` checks a qubit
index, :func:`qubit_count` a width, :func:`qubit_subset` a set of indices (for specs,
circuits, ``partial_trace`` and ``rho_cs``), :func:`as_pairs` a list of qubit pairs
(layout edges, and the target and candidate pairs of a scan or a values file) and
:func:`record_problem` a record's basis letters and bits (for ``SnapshotRecord`` and
the rows ``shadow.encode_rows`` reads), so the numeric layers that need only these
rules load neither the simulator nor the router.
"""

# Annotations here are evaluated (no ``from __future__ import annotations``): ``io``
# reads the number fields of ``SubsystemDiagnostics`` as the ones typed ``float | None``.
import numbers
from typing import NamedTuple, Sequence

from .errors import SubsystemError, ZecsError

PAIR = "pair"
PAIR_PLUS_IDLE = "pair_plus_idle"
PAIR_PAIR = "pair_pair"

_KIND_SIZES = {PAIR: 2, PAIR_PLUS_IDLE: 3, PAIR_PAIR: 4}


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or NumPy integer and not a ``bool``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def qubit_index(q) -> int:
    """``q`` as a Python int if it is a non-negative :func:`is_integer`;
    anything else raises ``SubsystemError`` naming it."""
    if not is_integer(q):
        raise SubsystemError(f"qubit index must be an integer, got {q!r}")
    if q < 0:
        raise SubsystemError(f"qubit index must be non-negative, got {q!r}")
    return int(q)


def qubit_count(n, error: type[ZecsError], owner: str) -> int:
    """``n`` as a Python int if it is an integer >= 1 as for :func:`qubit_index`, else ``error``."""
    if not is_integer(n) or n < 1:
        raise error(f"{owner} needs an integer number of qubits >= 1, got {n!r}")
    return int(n)


def _indices(qubits: Sequence[int]) -> tuple[int, ...]:
    """The :func:`qubit_index` of each of ``qubits``; a non-iterable raises ``SubsystemError``."""
    try:
        return tuple(map(qubit_index, qubits))
    except TypeError:
        raise SubsystemError(f"expected a sequence of qubit indices, got {qubits!r}") from None


def qubit_subset(qubits: Sequence[int], width: int | None = None) -> tuple[int, ...]:
    """``qubits`` as a tuple of :func:`qubit_index` values, none repeated and, when
    ``width`` is given, each below ``width``; else ``SubsystemError`` naming them."""
    subset = _indices(qubits)
    if len(set(subset)) != len(subset):
        raise SubsystemError(f"qubit subset {subset} repeats a qubit")
    if width is not None and not all(q < width for q in subset):
        raise SubsystemError(f"qubit subset {subset} out of range for {width} qubits")
    return subset


def as_pairs(groups: Sequence[Sequence[int]], role: str) -> list[tuple[int, int]]:
    """Qubit pairs from ``groups``, in order: two distinct :func:`qubit_index` values each,
    no pair given twice in either order.  The one reader of layout edges and scan pairs;
    each ``SubsystemError`` names its group as ``{role} {position}``."""
    first: dict[frozenset[int], tuple[int, tuple[int, int]]] = {}
    for index, qubits in enumerate(groups):
        try:
            pair = _indices(qubits)
        except SubsystemError as exc:
            raise SubsystemError(f"{role} {index}: {exc}") from None
        if len(pair) != 2 or pair[0] == pair[1]:
            raise SubsystemError(f"{role} {index}: {pair} is not a qubit pair")
        key = frozenset(pair)
        if key in first:
            raise SubsystemError(f"{role} {index}: {pair} repeats {role} {first[key][0]} "
                                 f"{first[key][1]}")
        first[key] = index, pair
    return [pair for _, pair in first.values()]


#: Basis letters in the order basis index 0, 1, 2 maps to.
BASIS_LETTERS = "XYZ"


def record_problem(bases: str, bits: str) -> str | None:
    """Why per-qubit basis letters and bits do not form a record, or None if they do."""
    if len(bases) != len(bits):
        return f"bases/bits length mismatch: {bases!r} vs {bits!r}"
    if not bases:
        return "record covers no qubits"
    if bases.strip(BASIS_LETTERS):
        return f"invalid basis character(s) {sorted(set(bases) - set(BASIS_LETTERS))}"
    if bits.strip("01"):
        return f"invalid bit character(s) {sorted(set(bits) - set('01'))}"
    return None


#: How ``s_ab_normalized`` is scaled: by the kind's largest entropy, or by the report's.
ENTROPY_NORMALIZATIONS = ("per-kind", "global")


class Identity:
    """Listed ahead of a record's ``NamedTuple`` base: the record is equal only to itself."""
    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class SubsystemSpec(NamedTuple("SubsystemSpec", [("kind", str), ("qubits", tuple[int, ...])])):
    """A subsystem to reconstruct: its kind fixes size and bipartition.

    ``qubits`` are device indices in reconstruction order: the active pair
    first, then the idle qubit or the second pair.
    """

    __slots__ = ()

    def __new__(cls, kind: str, qubits: tuple[int, ...]):
        if type(kind) is not str:
            raise SubsystemError(f"kind must be a string, got {kind!r}")
        if kind not in _KIND_SIZES:
            raise SubsystemError(f"unknown subsystem kind {kind!r}")
        qubits = qubit_subset(qubits)
        if len(qubits) != _KIND_SIZES[kind]:
            raise SubsystemError(f"{kind} subsystem needs {_KIND_SIZES[kind]} qubits, got {qubits}")
        return super().__new__(cls, kind, qubits)

    def pairs(self) -> tuple[tuple[int, ...], ...]:
        """The active pair, then for ``pair_pair`` the second pair."""
        if self.kind == PAIR_PAIR:
            return (self.qubits[:2], self.qubits[2:])
        return (self.qubits[:2],)

    def partition_a(self) -> tuple[int, ...] | None:
        """Local positions of the first block of the kind's bipartition."""
        if self.kind == PAIR:
            return None
        return (0, 1)


class SubsystemDiagnostics(NamedTuple):
    """One report row.  Fields are None when not applicable or not ingested."""

    kind: str
    qubits: tuple[int, ...]
    infidelity_cs: float | None
    infidelity_zecs: float | None
    trace_distance: float | None
    s_ab: float | None
    s_ab_normalized: float | None
    degenerate_flag: bool | None
    clamp_magnitude: float | None


class DiagnosticReport(NamedTuple):
    subsystems: tuple[SubsystemDiagnostics, ...]
    entropy_normalization: str = "per-kind"


class NonlocalResult(NamedTuple):
    target: tuple[int, ...]
    candidate: tuple[int, ...]
    s_ij: float
    zscore: float
    flagged: bool
    highest: bool

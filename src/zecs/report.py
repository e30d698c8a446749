"""Diagnostic report records: subsystem kinds, report rows and scan results.

Immutable records with no NumPy, so that reading, writing and routing over a
stored report loads none of the numeric layers.  The value records without
checks are ``NamedTuple``s; a record that checks its fields is a :class:`Record`
(equal only to itself) or a :class:`ValueRecord` (equal to one with equal fields),
and every record of the package is one of these three kinds.  Each check takes raw
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


class Record:
    """Base of the records that check their fields: each lists them in ``__slots__`` and
    sets them once in ``__init__``, after which assigning or deleting one raises
    ``AttributeError``.  A record is equal only to itself."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # ``copy`` and ``pickle`` restore the fields here, since ``__setattr__`` refuses them.
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__name__}({', '.join(shown)})"


class ValueRecord(Record):
    """A :class:`Record` equal to one of its own class with equal fields, and hashed by them."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class SubsystemSpec(ValueRecord):
    """A subsystem to reconstruct: its kind fixes size and bipartition.

    ``qubits`` are device indices in reconstruction order: the active pair
    first, then the idle qubit or the second pair.
    """

    __slots__ = ("kind", "qubits")

    def __init__(self, kind: str, qubits: tuple[int, ...]):
        if type(kind) is not str:
            raise SubsystemError(f"kind must be a string, got {kind!r}")
        if kind not in _KIND_SIZES:
            raise SubsystemError(f"unknown subsystem kind {kind!r}")
        qubits = qubit_subset(qubits)
        if len(qubits) != _KIND_SIZES[kind]:
            raise SubsystemError(f"{kind} subsystem needs {_KIND_SIZES[kind]} qubits, got {qubits}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "qubits", qubits)

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

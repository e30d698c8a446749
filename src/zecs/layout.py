"""Device coupling graphs.

A layout is an undirected graph over physical qubits; its edges, the native
two-qubit couplings, are read as a pair list by ``report.as_pairs``, the reader of
the scan's pairs, and held as one set of normalized edges.  ``edges_between``
gives the edges joining two groups of qubits, which the router scores and the
non-local scan excludes.  The bundled 127-qubit heavy-hex map of the Eagle-class
devices, ``data/heavy_hex_127.json``, is written by ``tools/make_fixtures.py``.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import SubsystemError, ValidationError
from .report import Identity, as_pairs, qubit_count, qubit_subset


def normalize_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class DeviceLayout(Identity, NamedTuple("DeviceLayout", [("num_qubits", int), ("edges", tuple),
                                                          ("edge_set", frozenset)])):
    """An integer ``num_qubits`` >= 1 and ``edges``, read by ``report.as_pairs`` and each
    within ``range(num_qubits)``; else ``ValidationError`` naming the edge's position.
    ``edges`` are sorted and normalized, and ``edge_set`` holds them as a set."""

    __slots__ = ()

    def __new__(cls, num_qubits: int, edges: tuple[tuple[int, int], ...]):
        n = qubit_count(num_qubits, ValidationError, "layout")
        try:
            pairs = as_pairs(edges, "edge")
        except SubsystemError as exc:
            raise ValidationError(str(exc)) from None
        for index, pair in enumerate(pairs):
            if max(pair) >= n:
                raise ValidationError(
                    f"edge {index}: qubit subset {pair} out of range for {n} qubits")
        edges = sorted(normalize_edge(*pair) for pair in pairs)
        return super().__new__(cls, n, tuple(edges), frozenset(edges))

    def __getnewargs__(self):  # copies and pickles rebuild through the checks
        return self.num_qubits, self.edges

    def edges_between(self, group_a, group_b) -> list[tuple[int, int]]:
        """Sorted normalized edges from one ``qubit_subset`` to the other, else
        ``SubsystemError``; a qubit outside the layout couples to nothing."""
        pairs = itertools.product(qubit_subset(group_a), qubit_subset(group_b))
        return sorted({normalize_edge(a, b) for a, b in pairs} & self.edge_set)

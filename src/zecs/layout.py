"""Device coupling graphs.

A layout is an undirected graph whose vertices are physical qubits and
whose edges are native two-qubit couplings, held as one set of normalized
edges.  The 127-qubit heavy-hex map of the Eagle-class devices is bundled
as ``data/heavy_hex_127.json`` (``datasets.brisbane_layout``); the builder
that writes it is ``tools/make_fixtures.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError


def normalize_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True, eq=False)
class DeviceLayout:
    num_qubits: int
    edges: tuple[tuple[int, int], ...]
    _edge_set: frozenset[tuple[int, int]] = field(init=False, repr=False)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValidationError("layout needs at least one qubit")
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise ValidationError(f"self-loop on qubit {a}")
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValidationError(f"edge ({a}, {b}) out of range")
            edge = normalize_edge(a, b)
            if edge in seen:
                raise ValidationError(f"duplicate edge {edge}")
            seen.add(edge)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        object.__setattr__(self, "_edge_set", frozenset(seen))

    def has_edge(self, a: int, b: int) -> bool:
        return normalize_edge(a, b) in self._edge_set

    def groups_adjacent(self, group_a, group_b) -> bool:
        """True when any qubit of one group couples to any qubit of the other."""
        return any(self.has_edge(a, b) for a in group_a for b in group_b)

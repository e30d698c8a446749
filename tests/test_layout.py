"""Tests for device coupling graphs, on small layouts and the bundled heavy-hex map."""

import itertools
from collections import Counter

import pytest

from zecs import datasets
from zecs.errors import ValidationError
from zecs.layout import DeviceLayout, normalize_edge
from zecs.report import PAIR


@pytest.fixture(scope="module")
def heavy_hex():
    return datasets.brisbane_layout()


def test_edges_are_normalized_and_sorted():
    layout = DeviceLayout(4, ((3, 2), (0, 1), (2, 1)))
    assert layout.edges == ((0, 1), (1, 2), (2, 3))
    assert normalize_edge(5, 2) == normalize_edge(2, 5) == (2, 5)


def neighbors(layout, q):
    """Oracle: the qubits coupled to ``q``, read off the edge list."""
    return sorted({v for e in layout.edges if q in e for v in e} - {q})


def test_neighbors_are_sorted_and_symmetric(heavy_hex):
    assert list(heavy_hex.edges) == sorted(set(heavy_hex.edges))
    degree_sum = 0
    for q in range(heavy_hex.num_qubits):
        for v in neighbors(heavy_hex, q):
            assert q in neighbors(heavy_hex, v)
            assert heavy_hex.has_edge(q, v) and heavy_hex.has_edge(v, q)
        degree_sum += len(neighbors(heavy_hex, q))
    assert degree_sum == 2 * len(heavy_hex.edges) == 288


def test_has_edge_is_edge_membership(heavy_hex):
    """On all 127**2 ordered pairs, ``has_edge`` is membership of either order in ``edges``."""
    edges = set(heavy_hex.edges)
    for a, b in itertools.product(range(heavy_hex.num_qubits), repeat=2):
        assert heavy_hex.has_edge(a, b) == ((a, b) in edges or (b, a) in edges)


def test_heavy_hex_degrees(heavy_hex):
    degree = Counter(q for edge in heavy_hex.edges for q in edge)
    degrees = [degree[q] for q in range(127)]
    assert max(degrees) == 3 and min(degrees) == 1
    # connector qubits join exactly one qubit of the row above and one below
    for connector in (14, 15, 16, 17, 33, 109, 112):
        assert degree[connector] == 2
    assert [v for v in range(127) if heavy_hex.has_edge(14, v)] == [0, 18]


def test_isolated_qubit_has_no_neighbors():
    layout = DeviceLayout(3, ((0, 1),))
    assert not any(layout.has_edge(2, v) for v in range(3))
    assert not layout.has_edge(1, 2)


def test_groups_adjacent():
    line = DeviceLayout(6, tuple((q, q + 1) for q in range(5)))
    assert line.groups_adjacent((0, 1), (2, 3))
    assert line.groups_adjacent((2, 3), (0, 1))
    assert not line.groups_adjacent((0, 1), (3, 4))
    assert not line.groups_adjacent((0,), (5,))
    assert not line.groups_adjacent((), (0, 1))
    # a qubit outside the layout couples to nothing
    assert not line.groups_adjacent((9,), (0, 1))


def test_groups_adjacent_on_heavy_hex(heavy_hex):
    assert heavy_hex.groups_adjacent((19, 20), (21, 22))
    assert not heavy_hex.groups_adjacent((19, 20), (2, 3))


def test_groups_adjacent_matches_brute_force_on_bundled_pairs(heavy_hex):
    """For every two of the bundled report's 54 pairs, in both orders, against the edge list."""
    pairs = [row.qubits for row in datasets.brisbane_report().subsystems if row.kind == PAIR]
    assert len(pairs) == 54
    for group_a, group_b in itertools.permutations(pairs, 2):
        expected = any((a in group_a and b in group_b) or (b in group_a and a in group_b)
                       for a, b in heavy_hex.edges)
        assert heavy_hex.groups_adjacent(group_a, group_b) == expected


@pytest.mark.parametrize(
    "num_qubits, edges",
    [
        (0, ()),
        (3, ((1, 1),)),
        (3, ((0, 3),)),
        (3, ((-1, 0),)),
        (3, ((0, 1), (0, 1))),
        (3, ((0, 1), (1, 0))),
    ],
    ids=["no-qubits", "self-loop", "past-end", "negative", "duplicate", "reversed-duplicate"],
)
def test_rejects_malformed_edges(num_qubits, edges):
    with pytest.raises(ValidationError):
        DeviceLayout(num_qubits, edges)

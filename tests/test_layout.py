"""Tests for device coupling graphs, on small layouts and the bundled heavy-hex map."""

import itertools
import re
from collections import Counter

import numpy as np
import pytest

from zecs import datasets, io
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
            assert heavy_hex.edges_between((q,), (v,)) and heavy_hex.edges_between((v,), (q,))
        degree_sum += len(neighbors(heavy_hex, q))
    assert degree_sum == 2 * len(heavy_hex.edges) == 288


def test_has_edge_is_edge_membership(heavy_hex):
    """On all 127**2 ordered pairs, an edge between two single qubits is membership
    of either order in ``edges``."""
    edges = set(heavy_hex.edges)
    for a, b in itertools.product(range(heavy_hex.num_qubits), repeat=2):
        has_edge = bool(heavy_hex.edges_between((a,), (b,)))
        assert has_edge == ((a, b) in edges or (b, a) in edges)


def test_heavy_hex_degrees(heavy_hex):
    degree = Counter(q for edge in heavy_hex.edges for q in edge)
    degrees = [degree[q] for q in range(127)]
    assert max(degrees) == 3 and min(degrees) == 1
    # connector qubits join exactly one qubit of the row above and one below
    for connector in (14, 15, 16, 17, 33, 109, 112):
        assert degree[connector] == 2
    assert [v for v in range(127) if heavy_hex.edges_between((14,), (v,))] == [0, 18]


def test_isolated_qubit_has_no_neighbors():
    layout = DeviceLayout(3, ((0, 1),))
    assert not any(layout.edges_between((2,), (v,)) for v in range(3))
    assert not layout.edges_between((1,), (2,))


def test_edges_between():
    line = DeviceLayout(6, tuple((q, q + 1) for q in range(5)))
    assert line.edges_between((0, 1), (2, 3)) == [(1, 2)]
    assert line.edges_between((2, 3), (0, 1)) == [(1, 2)]
    assert line.edges_between((1, 3), (2, 0)) == [(0, 1), (1, 2), (2, 3)]
    assert line.edges_between((0, 1), (3, 4)) == []
    assert line.edges_between((0,), (5,)) == []
    assert line.edges_between((), (0, 1)) == []
    # a qubit outside the layout couples to nothing
    assert line.edges_between((9,), (0, 1)) == []


def test_edges_between_on_heavy_hex(heavy_hex):
    assert heavy_hex.edges_between((19, 20), (21, 22)) == [(20, 21)]
    assert heavy_hex.edges_between((19, 20), (2, 3)) == []


def test_edges_between_matches_brute_force_on_bundled_pairs(heavy_hex):
    """For every two of the bundled report's 54 pairs, in both orders, against the edge list."""
    pairs = [row.qubits for row in datasets.brisbane_report().subsystems if row.kind == PAIR]
    assert len(pairs) == 54
    for group_a, group_b in itertools.permutations(pairs, 2):
        expected = [(a, b) for a, b in heavy_hex.edges
                    if (a in group_a and b in group_b) or (b in group_a and a in group_b)]
        assert heavy_hex.edges_between(group_a, group_b) == expected


@pytest.mark.parametrize(
    "num_qubits, edges, message",
    [
        (0, (), "layout needs an integer number of qubits >= 1, got 0"),
        (3, ((1, 1),), "edge 0: (1, 1) is not a qubit pair"),
        (3, ((0, 3),), "edge 0: qubit subset (0, 3) out of range for 3 qubits"),
        (3, ((-1, 0),), "edge 0: qubit index must be non-negative, got -1"),
        (3, ((0, 1), (0, 1)), "edge 1: (0, 1) repeats edge 0 (0, 1)"),
        (3, ((0, 1), (1, 0)), "edge 1: (1, 0) repeats edge 0 (0, 1)"),
        (3, ((0, 1), (1, 2), (2, 1)), "edge 2: (2, 1) repeats edge 1 (1, 2)"),
    ],
    ids=["no-qubits", "self-loop", "past-end", "negative", "duplicate", "reversed-duplicate",
         "reversed-repeat-of-an-earlier-edge"],
)
def test_rejects_malformed_edges(num_qubits, edges, message):
    """Edges get the ``report.as_pairs`` rule and message of scan pairs, then the range check."""
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        DeviceLayout(num_qubits, edges)


@pytest.mark.parametrize(
    "edge, index",
    [((True, 2), True), ((0, 1.0), 1.0), ((0.0, 1), 0.0), ((0, "1"), "1")],
    ids=["bool", "float-second", "float-first", "string"],
)
def test_rejects_non_integer_qubits_naming_the_edge(edge, index):
    message = f"edge 1: qubit index must be an integer, got {index!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        DeviceLayout(3, ((0, 2), edge))


def test_numpy_integer_edges_are_stored_as_ints():
    layout = DeviceLayout(3, ((np.int64(2), np.uint8(1)),))
    assert layout.edges == ((1, 2),)
    assert all(type(q) is int for q in layout.edges[0])
    assert io.layout_to_obj(layout) == {"edges": [[1, 2]], "num_qubits": 3}


@pytest.mark.parametrize(
    "edge, message",
    [((0,), "(0,) is not a qubit pair"), ((0, 1, 2), "(0, 1, 2) is not a qubit pair"),
     ((), "() is not a qubit pair"), (5, "expected a sequence of qubit indices, got 5")],
    ids=["one", "three", "empty", "int"],
)
def test_rejects_an_edge_that_is_not_a_pair_naming_it(edge, message):
    with pytest.raises(ValidationError, match=f"^edge 0: {re.escape(message)}$"):
        DeviceLayout(3, (edge,))


@pytest.mark.parametrize("num_qubits", [3.0, 2.5, True, "3", 0, -1])
def test_rejects_a_qubit_count_that_is_not_a_positive_integer(num_qubits):
    message = f"layout needs an integer number of qubits >= 1, got {num_qubits!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        DeviceLayout(num_qubits, ((0, 1),))


def test_numpy_integer_qubit_count_is_stored_as_an_int(tmp_path):
    layout = DeviceLayout(np.int64(3), ((0, 1),))
    assert type(layout.num_qubits) is int and layout.num_qubits == 3
    path = tmp_path / "layout.json"
    io.write_canonical(path, io.layout_to_obj(layout))
    assert path.read_text() == '{"edges":[[0,1]],"num_qubits":3}\n'
    assert io.read_layout(path).num_qubits == 3

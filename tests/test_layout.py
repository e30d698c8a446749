"""Tests for device coupling graphs."""

import pytest

from zecs.errors import ValidationError
from zecs.layout import DeviceLayout, heavy_hex_127, normalize_edge


@pytest.fixture(scope="module")
def heavy_hex():
    return heavy_hex_127()


def test_edges_are_normalized_and_sorted():
    layout = DeviceLayout(4, ((3, 2), (0, 1), (2, 1)))
    assert layout.edges == ((0, 1), (1, 2), (2, 3))
    assert normalize_edge(5, 2) == normalize_edge(2, 5) == (2, 5)


def test_neighbors_are_sorted_and_symmetric(heavy_hex):
    degree_sum = 0
    for q in range(heavy_hex.num_qubits):
        nbrs = heavy_hex.neighbors(q)
        assert list(nbrs) == sorted(set(nbrs))
        for v in nbrs:
            assert q in heavy_hex.neighbors(v)
            assert heavy_hex.has_edge(q, v) and heavy_hex.has_edge(v, q)
        degree_sum += len(nbrs)
    assert degree_sum == 2 * len(heavy_hex.edges) == 288


def test_heavy_hex_degrees(heavy_hex):
    degrees = [len(heavy_hex.neighbors(q)) for q in range(127)]
    assert max(degrees) == 3 and min(degrees) == 1
    # connector qubits join exactly one qubit of the row above and one below
    for connector in (14, 15, 16, 17, 33, 109, 112):
        assert len(heavy_hex.neighbors(connector)) == 2
    assert heavy_hex.neighbors(14) == (0, 18)


def test_isolated_qubit_has_no_neighbors():
    layout = DeviceLayout(3, ((0, 1),))
    assert layout.neighbors(2) == ()
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

"""Tests for chain routing: branch and bound against exhaustive enumeration."""

import numpy as np
import pytest

from zecs.errors import PathError
from zecs.layout import DeviceLayout
from zecs.routing import EdgeScore, best_chain, brute_force_chains


def random_instance(seed, grid):
    """Random graph on 5-10 vertices, edge probability 0.35, scored edges.

    With ``grid`` the fidelities and entropies sit on a 0.1 grid, so many
    chains tie in cost and the lexicographic tie-break decides.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 11))
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.35]
    scores = []
    for edge in edges:
        if grid:
            fidelity, s_ij = rng.integers(0, 11) / 10, rng.integers(0, 11) / 10
        else:
            fidelity, s_ij = rng.random(), rng.random()
        scores.append(EdgeScore(pair=edge, fidelity=fidelity, s_ij=s_ij))
    return DeviceLayout(num_qubits=n, edges=tuple(edges)), scores


def outcome(search, layout, scores, length_L, weight_w):
    try:
        return search(layout, scores, length_L, weight_w)
    except PathError as exc:
        return type(exc)


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("seed", range(28))
def test_best_chain_matches_brute_force(seed, grid):
    layout, scores = random_instance(seed, grid)
    for length_L in range(2, 8):
        for weight_w in (0.0, 1.0):
            exact = outcome(brute_force_chains, layout, scores, length_L, weight_w)
            found = outcome(best_chain, layout, scores, length_L, weight_w)
            if isinstance(exact, type):
                assert found is exact
                continue
            assert not isinstance(found, type), (length_L, weight_w)
            assert found.qubits == exact.qubits
            assert found.cost == pytest.approx(exact.cost, abs=1e-12)
            assert found.approximate is False


def test_instances_cover_feasible_and_infeasible_lengths():
    feasible = infeasible = 0
    for seed in range(28):
        layout, scores = random_instance(seed, grid=False)
        for length_L in range(2, 8):
            try:
                brute_force_chains(layout, scores, length_L)
                feasible += 1
            except PathError:
                infeasible += 1
    assert feasible > 50 and infeasible > 10

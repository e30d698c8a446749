"""Tests for chain routing: branch and bound against exhaustive enumeration,
its non-backtracking walk bound, the node budget, and edge scores derived
from a report."""

import math

import numpy as np
import pytest

from zecs import datasets
from zecs.errors import ConfigError, PathError, SearchBudgetError
from zecs.layout import DeviceLayout, normalize_edge
from zecs.report import PAIR, PAIR_PAIR, PAIR_PLUS_IDLE, DiagnosticReport, SubsystemDiagnostics
from zecs.routing import (
    EdgeScore,
    _scored_adjacency,
    _walk_bounds,
    best_chain,
    edge_scores_from_report,
)


def score_chain(chain, scores, weight_w=1.0):
    """Oracle: the cost of a given chain, the ``math.fsum`` of its edge costs."""
    return math.fsum(
        scores[normalize_edge(a, b)].cost(weight_w) for a, b in zip(chain, chain[1:])
    )


def brute_force_chains(layout, scores, length_L, weight_w=1.0):
    """Exhaustive oracle: the cheapest simple path of ``length_L`` qubits over scored edges.

    Returns ``(cost, qubits)``.  Costs within 1e-12 tie, and the
    lexicographically smallest qubit sequence wins.  Raises ``PathError``
    when no such path exists.
    """
    cost = {pair: s.cost(weight_w) for pair, s in scores.items()}
    adj = {
        q: [v for v in range(layout.num_qubits)
            if layout.has_edge(q, v) and normalize_edge(q, v) in cost]
        for q in range(layout.num_qubits)
    }
    best = None

    def walk(path, path_cost):
        nonlocal best
        if len(path) == length_L:
            here = tuple(path)
            if best is None or path_cost < best[0] - 1e-12:
                best = (path_cost, here)
            elif path_cost <= best[0] + 1e-12:
                best = (min(best[0], path_cost), min(best[1], here))
            return
        for v in adj[path[-1]]:
            if v not in path:
                walk(path + [v], path_cost + cost[normalize_edge(path[-1], v)])

    for root in range(layout.num_qubits):
        walk([root], 0.0)
    if best is None:
        raise PathError(f"no simple path of {length_L} qubits exists")
    return best


def random_instance(seed, grid):
    """Random graph on 5-10 vertices, edge probability 0.35, and its edge scores by pair.

    With ``grid`` the fidelities and entropies sit on a 0.1 grid, so many
    chains tie in cost and the lexicographic tie-break decides.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 11))
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.35]
    scores = {}
    for edge in edges:
        if grid:
            fidelity, s_ij = rng.integers(0, 11) / 10, rng.integers(0, 11) / 10
        else:
            fidelity, s_ij = rng.random(), rng.random()
        scores[edge] = EdgeScore(pair=edge, fidelity=fidelity, s_ij=s_ij)
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
            cost, qubits = exact
            assert found.qubits == qubits
            assert found.cost == pytest.approx(cost, abs=1e-12)
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


def test_negative_weight_matches_brute_force():
    for seed in range(6):
        layout, scores = random_instance(seed, grid=False)
        for length_L in range(2, 6):
            exact = outcome(brute_force_chains, layout, scores, length_L, -1.5)
            found = outcome(best_chain, layout, scores, length_L, -1.5)
            if isinstance(exact, type):
                assert found is exact
                continue
            assert found.qubits == exact[1]
            assert found.cost == pytest.approx(exact[0], abs=1e-12)


def walk_table(layout, scores, steps, weight_w):
    adj, _ = _scored_adjacency(layout, scores, weight_w)
    return adj, _walk_bounds(adj, steps)


def cheapest_walk(adj, prev, vertex, steps):
    """Exhaustive oracle: cheapest walk of ``steps`` edges from ``vertex`` never stepping back."""
    if steps == 0:
        return 0.0
    return min(
        (c + cheapest_walk(adj, vertex, w, steps - 1) for c, w in adj[vertex] if w != prev),
        default=float("inf"),
    )


@pytest.mark.parametrize("weight_w", [0.0, 1.0, -1.5])
@pytest.mark.parametrize("grid", [False, True])
def test_walk_table_matches_enumerated_walks(grid, weight_w):
    """Every root reads ``best``; every directed edge u -> v reads ``second`` only via u."""
    for seed in range(8):
        layout, scores = random_instance(seed, grid)
        adj, walk = walk_table(layout, scores, 4, weight_w)
        assert len(walk) == 5
        for r, row in enumerate(walk):
            assert len(row) == len(adj)
            for v, (best, via, second) in enumerate(row):
                assert best == cheapest_walk(adj, -1, v, r)
                for _, u in adj[v]:
                    assert (second if via == u else best) == cheapest_walk(adj, u, v, r)


@pytest.mark.parametrize("weight_w", [0.0, 1.0, -1.5])
@pytest.mark.parametrize("grid", [False, True])
def test_root_walk_bound_never_exceeds_optimum(grid, weight_w):
    checked = 0
    for seed in range(28):
        layout, scores = random_instance(seed, grid)
        _, walk = walk_table(layout, scores, 6, weight_w)
        for length_L in range(2, 8):
            try:
                optimum, _ = brute_force_chains(layout, scores, length_L, weight_w)
            except PathError:
                continue
            root_bound = min(best for best, _, _ in walk[length_L - 1])
            assert root_bound <= optimum + 1e-12
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_weight_rejected(weight):
    layout, scores = random_instance(0, grid=False)
    with pytest.raises(ConfigError, match="entropy weight must be finite"):
        best_chain(layout, scores, 3, weight)


@pytest.mark.parametrize(
    "fidelity, s_ij",
    [(-0.1, 0.0), (1.5, 0.0), (float("nan"), 0.0), (0.9, -1.0), (0.9, float("nan")),
     (0.9, float("inf"))],  # at weight 0 an infinite entropy costs 0 * inf = nan
)
def test_edge_score_rejects_out_of_range_values(fidelity, s_ij):
    with pytest.raises(ValueError):
        EdgeScore(pair=(0, 1), fidelity=fidelity, s_ij=s_ij)


#: The chain a 40-qubit search cut short at each node budget returns; the
#: traversal order decides it, so these pin that order on the bundled report.
BUDGET_CHAINS = {
    100: (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 17, 30, 29, 28, 27, 26, 25,
          24, 34, 43, 44, 45, 54, 64, 63, 62, 61, 60, 59, 58, 57, 56, 52, 37, 38, 39, 40),
    1000: (2, 3, 4, 15, 22, 21, 20, 33, 39, 40, 41, 53, 60, 59, 58, 71, 77, 78, 79, 80,
           81, 82, 83, 84, 85, 73, 66, 65, 64, 54, 45, 46, 47, 35, 28, 29, 30, 17, 12, 13),
    4000: (12, 17, 30, 29, 28, 35, 47, 46, 45, 54, 64, 65, 66, 73, 85, 84, 83, 82, 81, 72,
           62, 61, 60, 53, 41, 40, 39, 38, 37, 52, 56, 57, 58, 71, 77, 78, 79, 91, 98, 97),
}


class TestNodeBudget:
    @pytest.fixture(scope="class")
    def brisbane(self):
        layout = datasets.brisbane_layout()
        scores = edge_scores_from_report(datasets.brisbane_report(), layout)
        return layout, scores, best_chain(layout, scores, 40)

    def test_default_budget_is_exact(self, brisbane):
        assert brisbane[2].approximate is False

    def test_default_case_fits_small_budget(self, brisbane):
        layout, scores, _ = brisbane
        assert best_chain(layout, scores, 40, node_budget=20_000).approximate is False

    @pytest.mark.parametrize("budget", sorted(BUDGET_CHAINS))
    def test_exhausted_budget_returns_best_chain_so_far(self, brisbane, budget):
        layout, scores, exact = brisbane
        found = best_chain(layout, scores, 40, node_budget=budget)
        assert found.approximate is True
        assert found.qubits == BUDGET_CHAINS[budget]
        assert len(found.qubits) == len(set(found.qubits)) == 40
        assert all(layout.has_edge(a, b) for a, b in zip(found.qubits, found.qubits[1:]))
        assert found.cost == pytest.approx(score_chain(found.qubits, scores), abs=1e-12)
        assert found.cost >= exact.cost

    def test_budget_exhausted_before_any_chain(self, brisbane):
        layout, scores, _ = brisbane
        with pytest.raises(SearchBudgetError, match="before any 40-qubit chain"):
            best_chain(layout, scores, 40, node_budget=10)

    @pytest.mark.parametrize(
        "length_L, weight_w, nodes",
        [(40, 0.0, 13_607), (40, 0.5, 8_750), (40, 1.0, 8_083), (40, 2.0, 9_839), (20, 1.0, 200)],
    )
    def test_node_count_is_pinned(self, brisbane, length_L, weight_w, nodes):
        """The search expands exactly ``nodes`` nodes: one fewer no longer completes it."""
        layout, scores, _ = brisbane
        exact = best_chain(layout, scores, length_L, weight_w, node_budget=nodes)
        assert exact.approximate is False
        try:
            short = best_chain(layout, scores, length_L, weight_w, node_budget=nodes - 1)
        except SearchBudgetError:
            return
        assert short.approximate is True

    def test_sixty_qubit_chain_is_exact(self, brisbane):
        layout, scores, _ = brisbane
        found = best_chain(layout, scores, 60)
        assert found.approximate is False
        assert len(found.qubits) == len(set(found.qubits)) == 60
        assert all(layout.has_edge(a, b) for a, b in zip(found.qubits, found.qubits[1:]))
        assert found.cost == score_chain(found.qubits, scores)


def row(kind, qubits, infidelity=None, s_ab=None):
    return SubsystemDiagnostics(
        kind=kind, qubits=qubits, infidelity_cs=None, infidelity_zecs=infidelity,
        trace_distance=None, s_ab=s_ab, s_ab_normalized=None,
        degenerate_flag=None, clamp_magnitude=None,
    )


class TestEdgeScoresFromReport:
    """Path 0-1-2-3-4 with a spur 1-5; dyadic values keep every sum exact."""

    LAYOUT = DeviceLayout(num_qubits=6, edges=((0, 1), (1, 2), (2, 3), (3, 4), (1, 5)))

    def scores(self, *rows):
        report = DiagnosticReport(subsystems=rows)
        return {
            e: (s.fidelity, s.s_ij)
            for e, s in edge_scores_from_report(report, self.LAYOUT).items()
        }

    def test_pair_row_scores_its_own_edge_only_if_coupled(self):
        got = self.scores(row(PAIR, (1, 0), 0.25), row(PAIR, (0, 4), 0.5))
        assert got == {(0, 1): (0.75, 0.0)}

    def test_rows_outside_the_layout_score_nothing(self):
        assert self.scores(row(PAIR, (6, 7), 0.25), row(PAIR_PAIR, (0, 1, 8, 9), 0.25, 0.5)) == {}

    def test_boundary_rows_score_crossing_edges(self):
        got = self.scores(
            row(PAIR_PAIR, (1, 2, 0, 5), 0.25, 0.5),
            row(PAIR_PLUS_IDLE, (2, 3, 4), 0.125, 0.25),
        )
        assert got == {(0, 1): (0.75, 0.5), (1, 5): (0.75, 0.5), (3, 4): (0.875, 0.25)}

    def test_lowest_fidelity_wins_on_shared_edge(self):
        rows = (row(PAIR, (1, 2), 0.5), row(PAIR_PAIR, (0, 1, 2, 3), 0.25, 0.0))
        assert self.scores(*rows)[(1, 2)] == (0.5, 0.0)
        assert self.scores(*rows[::-1])[(1, 2)] == (0.5, 0.0)

    def test_entropy_is_max_over_non_pair_rows(self):
        got = self.scores(
            row(PAIR_PAIR, (0, 1, 2, 3), 0.0, 0.25),
            row(PAIR_PLUS_IDLE, (2, 3, 1), 0.0, 0.5),
            row(PAIR, (1, 2), 0.0, 0.75),
            row(PAIR, (0, 1), 0.0, 0.75),
        )
        assert got == {(1, 2): (1.0, 0.5), (0, 1): (1.0, 0.0)}

    def test_fidelity_clamped_to_unit_interval(self):
        got = self.scores(row(PAIR, (0, 1), -0.5), row(PAIR, (1, 2), 1.5))
        assert got == {(0, 1): (1.0, 0.0), (1, 2): (0.0, 0.0)}

    def test_missing_infidelity_adds_no_fidelity(self):
        assert self.scores(row(PAIR, (0, 1)), row(PAIR_PAIR, (0, 1, 2, 3), None, 0.5)) == {}
        got = self.scores(row(PAIR_PAIR, (0, 1, 2, 3), None, 0.5), row(PAIR, (1, 2), 0.25))
        assert got == {(1, 2): (0.75, 0.5)}

"""Select the best simple qubit chain on a device graph from per-edge scores.

Every scored edge carries a fidelity and an entanglement-entropy annotation;
a chain's cost is ``sum over its edges of (1 - fidelity) + w * s_ij``.
``best_chain`` is exact: one depth-first branch and bound over all roots.
A partial chain ending in the step ``u -> v`` with r edges still to go is
pruned when its cost plus the cheapest walk of r edges from ``v`` that never
steps straight back to ``u`` cannot beat the best chain so far; every simple
path is such a walk, so the bound never cuts off an optimum.  The bounds
come from one ``(best, via, second)`` triple per vertex and walk length (see
``_walk_bounds``).  Costs within 1e-12 tie, and the lexicographically
smallest qubit sequence wins, so results do not depend on traversal order.
If the node-expansion budget runs out, the cheapest chain found so far is
returned and marked approximate; if none was found, ``SearchBudgetError`` is
raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, PathError, SearchBudgetError
from .layout import DeviceLayout, normalize_edge
from .report import PAIR, DiagnosticReport

_EPS = 1e-12


@dataclass(frozen=True)
class EdgeScore:
    """Quality annotations for one coupling edge."""

    pair: tuple[int, int]
    fidelity: float
    s_ij: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "pair", normalize_edge(*self.pair))
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError(f"fidelity {self.fidelity} outside [0, 1]")
        if not (math.isfinite(self.s_ij) and self.s_ij >= 0.0):
            raise ValueError(f"s_ij {self.s_ij} must be finite and non-negative")

    def cost(self, weight_w: float) -> float:
        return (1.0 - self.fidelity) + weight_w * self.s_ij


@dataclass(frozen=True)
class ChainSolution:
    qubits: tuple[int, ...]
    cost: float
    mean_fidelity: float
    mean_entropy: float
    approximate: bool = False


def _boundary_edges(
    layout: DeviceLayout, block_a: Sequence[int], block_b: Sequence[int]
) -> list[tuple[int, int]]:
    """Layout edges with one endpoint in each block."""
    return sorted({normalize_edge(a, b) for a in block_a for b in block_b if layout.has_edge(a, b)})


def edge_scores_from_report(
    report: DiagnosticReport, layout: DeviceLayout
) -> dict[tuple[int, int], EdgeScore]:
    """Derive per-edge scores from a diagnostic report.

    A pair row scores its own edge; 3- and 4-qubit rows score the edge(s)
    crossing their bipartition boundary.  When several rows touch the same
    edge the lowest fidelity wins, and the edge's entropy annotation is the
    maximum entropy among the boundary-crossing rows.  Edges no row reaches
    stay unscored and are excluded from routing.
    """
    fidelity_by_edge: dict[tuple[int, int], float] = {}
    entropy_by_edge: dict[tuple[int, int], float] = {}
    for row in report.subsystems:
        if row.kind == PAIR:
            edge = normalize_edge(row.qubits[0], row.qubits[1])
            edges = [edge] if layout.has_edge(*edge) else []
        else:
            edges = _boundary_edges(layout, row.qubits[:2], row.qubits[2:])
        if row.infidelity_zecs is not None:
            f = min(1.0, max(0.0, 1.0 - row.infidelity_zecs))
            for e in edges:
                fidelity_by_edge[e] = min(f, fidelity_by_edge.get(e, 1.0))
        if row.s_ab is not None and row.kind != PAIR:
            for e in edges:
                entropy_by_edge[e] = max(row.s_ab, entropy_by_edge.get(e, 0.0))
    return {
        e: EdgeScore(pair=e, fidelity=f, s_ij=entropy_by_edge.get(e, 0.0))
        for e, f in fidelity_by_edge.items()
    }


def _scored_adjacency(
    layout: DeviceLayout, scores: dict[tuple[int, int], EdgeScore], weight_w: float
) -> tuple[list[list[tuple[float, int]]], dict[tuple[int, int], float]]:
    """Adjacency lists over scored layout edges by qubit, sorted by (cost, vertex)."""
    costs: dict[tuple[int, int], float] = {}
    adj: list[list[tuple[float, int]]] = [[] for _ in range(layout.num_qubits)]
    for edge in layout.edges:
        score = scores.get(edge)
        if score is None:
            continue
        c = score.cost(weight_w)
        costs[edge] = c
        a, b = edge
        adj[a].append((c, b))
        adj[b].append((c, a))
    for nbrs in adj:
        nbrs.sort()
    return adj, costs


def _solution(
    path: tuple[int, ...],
    scores: dict[tuple[int, int], EdgeScore],
    weight_w: float,
    approximate: bool,
) -> ChainSolution:
    edges = [normalize_edge(a, b) for a, b in zip(path, path[1:])]
    cost = math.fsum(scores[e].cost(weight_w) for e in edges)
    mean_f = math.fsum(scores[e].fidelity for e in edges) / len(edges)
    mean_s = math.fsum(scores[e].s_ij for e in edges) / len(edges)
    return ChainSolution(
        qubits=path, cost=cost, mean_fidelity=mean_f, mean_entropy=mean_s, approximate=approximate
    )


def _walk_bounds(
    adj: list[list[tuple[float, int]]], steps: int
) -> list[list[tuple[float, int, float]]]:
    """``walk[r][v] = (best, via, second)`` for the non-backtracking walks of r edges from v.

    ``best`` is the cheapest such walk, ``via`` the neighbor it starts
    through, and ``second`` the cheapest one that does not start through
    ``via``; ``inf`` where no such walk exists.  The cheapest walk from v
    that never steps straight back to u is ``second if via == u else best``,
    and a root, which has no predecessor, reads ``best``.
    """
    walk = [[(0.0, -1, 0.0)] * len(adj)]
    for _ in range(steps):
        last = walk[-1]
        row = []
        for v, nbrs in enumerate(adj):
            # Only the two cheapest continuations from v matter: a walk that
            # arrived from u takes the cheapest unless it steps back to u.
            best = second = math.inf
            via = -1
            for c, w in nbrs:
                w_best, w_via, w_second = last[w]
                value = c + (w_second if w_via == v else w_best)
                if value < best:
                    best, via, second = value, w, best
                elif value < second:
                    second = value
            row.append((best, via, second))
        walk.append(row)
    return walk


def best_chain(
    layout: DeviceLayout,
    scores: dict[tuple[int, int], EdgeScore],
    length_L: int,
    weight_w: float = 1.0,
    node_budget: int = 10**8,
) -> ChainSolution:
    """Minimum-cost simple path of exactly ``length_L`` vertices.

    ``scores`` maps each sorted qubit pair to its ``EdgeScore``, as
    ``edge_scores_from_report`` returns them; unscored edges are not used.
    One depth-first branch and bound over all roots, starting from an
    infinite bound and pruned by the ``(best, via, second)`` table of
    ``_walk_bounds``: a root reads ``best``, a step u -> v reads ``second``
    if ``via`` is u.  Every expanded node costs one unit of ``node_budget``.
    If the budget runs out, the cheapest chain found so far is returned with
    ``approximate=True``; if none was found yet, ``SearchBudgetError`` is
    raised.
    """
    if not math.isfinite(weight_w):
        raise ConfigError(f"entropy weight must be finite, got {weight_w}")
    if length_L < 2:
        raise PathError(f"chain length must be >= 2, got {length_L}")
    adj, costs = _scored_adjacency(layout, scores, weight_w)
    if not costs:
        raise PathError("no scored edges to route over")

    if len(costs) < length_L - 1:
        raise PathError(f"not enough scored edges for a {length_L}-qubit chain")
    walk = _walk_bounds(adj, length_L - 1)

    # Every length-L path that survives the bound, as (cost, path).
    found: list[tuple[float, tuple[int, ...]]] = []
    bound = limit = math.inf
    budget = node_budget
    path: list[int] = []
    visited = bytearray(len(adj))

    def extend(vertex: int, cost: float, remaining: int) -> None:
        """Expand the chain ``path`` ending at ``vertex``; ``remaining`` vertices still to add."""
        nonlocal bound, limit, budget
        if not remaining:
            if cost <= limit:
                found.append((cost, tuple(path)))
                if cost < bound:
                    bound = cost
                    limit = bound + _EPS
            return
        budget -= 1
        if budget < 0:
            raise SearchBudgetError
        tail = walk[remaining - 1]
        for ecost, nxt in adj[vertex]:
            if visited[nxt]:
                continue
            step = cost + ecost
            best, via, second = tail[nxt]
            if step + (second if via == vertex else best) > limit:
                continue
            visited[nxt] = 1
            path.append(nxt)
            extend(nxt, step, remaining - 1)
            path.pop()
            visited[nxt] = 0

    approximate = False
    try:
        for root, (best, _, _) in enumerate(walk[length_L - 1]):
            if adj[root] and best <= limit:
                path = [root]
                visited[root] = 1
                extend(root, 0.0, length_L - 1)
                visited[root] = 0
    except SearchBudgetError:
        if not found:
            raise SearchBudgetError(
                f"node budget {node_budget} exhausted before any {length_L}-qubit chain was found"
            ) from None
        approximate = True

    if not found:
        raise PathError(f"no simple path of {length_L} qubits exists")
    best_cost = min(c for c, _ in found)
    winners = [p for c, p in found if c <= best_cost + _EPS]
    return _solution(min(winners), scores, weight_w, approximate)

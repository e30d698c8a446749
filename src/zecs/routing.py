"""Select the best simple qubit chain on a device graph from per-edge scores.

Every scored edge carries a fidelity and an entanglement-entropy annotation;
a chain's cost is ``sum over its edges of (1 - fidelity) + w * s_ij``.
``best_chain`` is exact: depth-first branch and bound with a sorted-prefix
lower bound, seeded by a beam-search incumbent.  Above the node-expansion
budget it degrades to the beam result and marks the solution approximate.
Ties are broken by the lexicographically smallest qubit sequence, so results
do not depend on traversal order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .diagnostics import PAIR, DiagnosticReport
from .errors import PathError, SearchBudgetError, UnscoredEdgeError
from .layout import DeviceLayout, normalize_edge

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
        if self.s_ij < 0.0:
            raise ValueError(f"s_ij {self.s_ij} must be non-negative")

    def cost(self, weight_w: float) -> float:
        return (1.0 - self.fidelity) + weight_w * self.s_ij


@dataclass(frozen=True)
class ChainSolution:
    qubits: tuple[int, ...]
    cost: float
    mean_fidelity: float
    mean_entropy: float
    approximate: bool = False


ScoreMap = Mapping[tuple[int, int], EdgeScore]


def score_map(scores: Iterable[EdgeScore] | ScoreMap) -> dict[tuple[int, int], EdgeScore]:
    """Normalize a score collection into a dict keyed by sorted qubit pair."""
    if isinstance(scores, Mapping):
        items = scores.values()
    else:
        items = scores
    out = {}
    for s in items:
        out[s.pair] = s
    return out


def _boundary_edges(
    layout: DeviceLayout, block_a: Sequence[int], block_b: Sequence[int]
) -> list[tuple[int, int]]:
    """Layout edges with one endpoint in each block."""
    edges = []
    set_b = set(block_b)
    for a in block_a:
        for v in layout.neighbors(a):
            if v in set_b:
                edges.append(normalize_edge(a, v))
    return sorted(set(edges))


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
            edges = [normalize_edge(row.qubits[0], row.qubits[1])]
            edges = [e for e in edges if layout.has_edge(*e)]
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


def score_chain(
    chain: Sequence[int], scores: Iterable[EdgeScore] | ScoreMap, weight_w: float = 1.0
) -> float:
    """Cost of a given chain; lower is better."""
    smap = score_map(scores)
    qubits = list(chain)
    if len(qubits) < 2 or len(set(qubits)) != len(qubits):
        raise PathError(f"chain {qubits} is not a simple path of >= 2 qubits")
    terms = []
    for a, b in zip(qubits, qubits[1:]):
        edge = normalize_edge(a, b)
        if edge not in smap:
            raise UnscoredEdgeError(f"edge {edge} carries no score")
        terms.append(smap[edge].cost(weight_w))
    return math.fsum(terms)


def _scored_adjacency(
    layout: DeviceLayout, smap: dict[tuple[int, int], EdgeScore], weight_w: float
) -> tuple[dict[int, list[tuple[float, int]]], dict[tuple[int, int], float]]:
    """Adjacency over scored layout edges, neighbor lists sorted by (cost, vertex)."""
    costs: dict[tuple[int, int], float] = {}
    adj: dict[int, list[tuple[float, int]]] = {q: [] for q in range(layout.num_qubits)}
    for edge in layout.edges:
        score = smap.get(edge)
        if score is None:
            continue
        c = score.cost(weight_w)
        costs[edge] = c
        a, b = edge
        adj[a].append((c, b))
        adj[b].append((c, a))
    for q in adj:
        adj[q].sort()
    return adj, costs


def _solution(
    path: tuple[int, ...],
    smap: dict[tuple[int, int], EdgeScore],
    weight_w: float,
    approximate: bool,
) -> ChainSolution:
    edges = [normalize_edge(a, b) for a, b in zip(path, path[1:])]
    cost = math.fsum(smap[e].cost(weight_w) for e in edges)
    mean_f = math.fsum(smap[e].fidelity for e in edges) / len(edges)
    mean_s = math.fsum(smap[e].s_ij for e in edges) / len(edges)
    return ChainSolution(
        qubits=path, cost=cost, mean_fidelity=mean_f, mean_entropy=mean_s, approximate=approximate
    )


def _beam_search(
    adj: dict[int, list[tuple[float, int]]], length: int, width: int
) -> tuple[float, tuple[int, ...]] | None:
    frontier = [(0.0, (v,)) for v in sorted(adj) if adj[v]]
    for _ in range(length - 1):
        extended = []
        for cost, path in frontier:
            tail = path[-1]
            for ecost, nxt in adj[tail]:
                if nxt in path:
                    continue
                extended.append((cost + ecost, path + (nxt,)))
        extended.sort()
        frontier = extended[:width]
        if not frontier:
            return None
    return min(frontier) if frontier else None


def _dfs_root(
    root: int,
    adj: dict[int, list[tuple[float, int]]],
    length: int,
    prefix: list[float],
    bound: float,
    budget: int,
) -> tuple[list[tuple[float, tuple[int, ...]]], float, int]:
    """Bound-surviving length-L paths from one root (cost, path).

    Returns those paths with the tightened bound and the remaining budget.
    """
    found: list[tuple[float, tuple[int, ...]]] = []
    path = [root]
    visited = 1 << root

    def extend(vertex: int, cost: float) -> None:
        nonlocal visited, bound, budget
        depth = len(path)
        if depth == length:
            if cost <= bound + _EPS:
                found.append((cost, tuple(path)))
                bound = min(bound, cost)
            return
        remaining = length - depth
        if cost + prefix[remaining] > bound + _EPS:
            return
        budget -= 1
        if budget < 0:
            raise SearchBudgetError("node-expansion budget exhausted")
        for ecost, nxt in adj[vertex]:
            if visited >> nxt & 1:
                continue
            if cost + ecost + prefix[remaining - 1] > bound + _EPS:
                continue
            visited |= 1 << nxt
            path.append(nxt)
            extend(nxt, cost + ecost)
            path.pop()
            visited &= ~(1 << nxt)

    extend(root, 0.0)
    return found, bound, budget


def best_chain(
    layout: DeviceLayout,
    scores: Iterable[EdgeScore] | ScoreMap,
    length_L: int,
    weight_w: float = 1.0,
    node_budget: int = 10**8,
    beam_width: int = 4096,
) -> ChainSolution:
    """Minimum-cost simple path of exactly ``length_L`` vertices.

    Exact unless the expansion budget is exhausted, in which case the beam
    incumbent is returned with ``approximate=True``.
    """
    if length_L < 2:
        raise PathError(f"chain length must be >= 2, got {length_L}")
    smap = score_map(scores)
    adj, costs = _scored_adjacency(layout, smap, weight_w)
    if not costs:
        raise PathError("no scored edges to route over")

    sorted_costs = sorted(costs.values())
    needed = length_L - 1
    if len(sorted_costs) < needed:
        raise PathError(f"not enough scored edges for a {length_L}-qubit chain")
    prefix = [0.0]
    for c in sorted_costs[:needed]:
        prefix.append(prefix[-1] + c)

    beam = _beam_search(adj, length_L, beam_width)
    bound = beam[0] if beam is not None else math.inf
    budget = node_budget
    candidates: list[tuple[float, tuple[int, ...]]] = []
    try:
        for root in sorted(adj):
            if adj[root]:
                found, bound, budget = _dfs_root(root, adj, length_L, prefix, bound, budget)
                candidates.extend(found)
    except SearchBudgetError:
        if beam is None:
            raise PathError(f"no simple path of {length_L} qubits exists")
        return _solution(beam[1], smap, weight_w, approximate=True)

    if not candidates:
        raise PathError(f"no simple path of {length_L} qubits exists")
    best_cost = min(c for c, _ in candidates)
    winners = [p for c, p in candidates if c <= best_cost + _EPS]
    return _solution(min(winners), smap, weight_w, approximate=False)

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
from typing import NamedTuple

from .errors import ConfigError, PathError, SearchBudgetError, ValidationError
from .layout import DeviceLayout, normalize_edge
from .report import PAIR, DiagnosticReport, ValueRecord

_EPS = 1e-12


class EdgeScore(ValueRecord):
    """Quality annotations of the edge keying it; out-of-range values raise ``ValidationError``."""

    __slots__ = ("fidelity", "s_ij")

    def __init__(self, fidelity: float, s_ij: float = 0.0):
        if not 0.0 <= fidelity <= 1.0:
            raise ValidationError(f"fidelity {fidelity} outside [0, 1]")
        if not (math.isfinite(s_ij) and s_ij >= 0.0):
            raise ValidationError(f"s_ij {s_ij} must be finite and non-negative")
        object.__setattr__(self, "fidelity", fidelity)
        object.__setattr__(self, "s_ij", s_ij)

    def cost(self, weight_w: float) -> float:
        return (1.0 - self.fidelity) + weight_w * self.s_ij


class ChainSolution(NamedTuple):
    qubits: tuple[int, ...]
    cost: float
    mean_fidelity: float
    mean_entropy: float
    approximate: bool = False


def edge_scores_from_report(
    report: DiagnosticReport, layout: DeviceLayout
) -> dict[tuple[int, int], EdgeScore]:
    """Derive per-edge scores from a diagnostic report.

    A row scores the ``layout.edges_between`` its first qubit and the rest (a pair),
    or its first two qubits and the rest (3 and 4 qubits).  When several rows touch the same
    edge the lowest fidelity wins, and the edge's entropy annotation is the
    maximum entropy among the boundary-crossing rows.  Edges no row reaches
    stay unscored and are excluded from routing.
    """
    fidelity_by_edge: dict[tuple[int, int], float] = {}
    entropy_by_edge: dict[tuple[int, int], float] = {}
    for row in report.subsystems:
        split = 1 if row.kind == PAIR else 2
        edges = layout.edges_between(row.qubits[:split], row.qubits[split:])
        if row.infidelity_zecs is not None:
            f = min(1.0, max(0.0, 1.0 - row.infidelity_zecs))
            for e in edges:
                fidelity_by_edge[e] = min(f, fidelity_by_edge.get(e, 1.0))
        if row.s_ab is not None and row.kind != PAIR:
            for e in edges:
                entropy_by_edge[e] = max(row.s_ab, entropy_by_edge.get(e, 0.0))
    return {
        e: EdgeScore(fidelity=f, s_ij=entropy_by_edge.get(e, 0.0))
        for e, f in fidelity_by_edge.items()
    }


def _scored_adjacency(
    layout: DeviceLayout, scores: dict[tuple[int, int], EdgeScore], weight_w: float
) -> tuple[list[int], list[list[tuple[float, int]]]]:
    """The qubits on a scored layout edge, sorted, and adjacency lists over their
    positions in that list, each sorted by (cost, position).

    The tables of the search are sized by these qubits, not by
    ``layout.num_qubits``; the relabelling keeps the qubit order, so every tie
    and the root order go as they would by qubit number.
    """
    scored = [(edge, scores[edge].cost(weight_w)) for edge in layout.edges if edge in scores]
    qubits = sorted({q for edge, _ in scored for q in edge})
    position = {q: i for i, q in enumerate(qubits)}
    adj: list[list[tuple[float, int]]] = [[] for _ in qubits]
    for (a, b), c in scored:
        adj[position[a]].append((c, position[b]))
        adj[position[b]].append((c, position[a]))
    for nbrs in adj:
        nbrs.sort()
    return qubits, adj


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
    If it runs out, the cheapest chain found so far is returned with
    ``approximate=True``, or ``SearchBudgetError`` is raised if there is none.
    Fewer than L scored qubits, or L - 1 scored edges, raise ``PathError`` first.
    """
    if not math.isfinite(weight_w):
        raise ConfigError(f"entropy weight must be finite, got {weight_w}")
    if length_L < 2:
        raise PathError(f"chain length must be >= 2, got {length_L}")
    qubits, adj = _scored_adjacency(layout, scores, weight_w)
    n_edges = sum(map(len, adj)) // 2
    if not n_edges:
        raise PathError("no scored edges to route over")
    if n_edges < length_L - 1:
        raise PathError(f"not enough scored edges for a {length_L}-qubit chain")
    if len(adj) < length_L:
        raise PathError(f"no simple path of {length_L} qubits exists")
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
            if best <= limit:
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
    return _solution(tuple(qubits[i] for i in min(winners)), scores, weight_w, approximate)

"""Minimum spanning trees over neighbor closures (ACE Phase 2), the reference.

The paper builds, at every peer, "a minimum spanning tree among each peer and
its immediate logical neighbors ... by simply using an algorithm like PRIM".
This heap-based Prim returns the whole rooted tree; production keeps only
the root's tree neighbors (:func:`repro.core.turn.prim_flooding`) and is
tested against it, and this against scipy's solver.

Trees are deterministic: ties are broken by ``(cost, node id, parent id)`` so
that independent re-computations at different peers (and across test runs)
agree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Set, Tuple

__all__ = ["SpanningTree", "prim_mst_heap"]

Adjacency = Mapping[int, Mapping[int, float]]


@dataclass(frozen=True)
class SpanningTree:
    """A rooted spanning tree of a closure subgraph.

    Attributes
    ----------
    root:
        The source peer the tree was built for.
    parent:
        Mapping child -> parent (the root maps to itself).
    adjacency:
        Undirected tree adjacency: node -> frozenset of tree neighbors.
    total_cost:
        Sum of tree edge costs.
    """

    root: int
    parent: Mapping[int, int]
    adjacency: Mapping[int, FrozenSet[int]]
    total_cost: float

    def tree_neighbors(self, node: int) -> FrozenSet[int]:
        """Direct tree neighbors of *node* (empty when absent)."""
        return self.adjacency.get(node, frozenset())


def _validate(graph: Adjacency, root: int) -> None:
    if root not in graph:
        raise ValueError(f"root {root} not in graph")
    for u, nbrs in graph.items():
        for v, c in nbrs.items():
            if v not in graph:
                raise ValueError(f"edge ({u}, {v}) leaves the node set")
            if c < 0:
                raise ValueError(f"negative edge cost on ({u}, {v})")


def _build_tree(root: int, parent: Dict[int, int], graph: Adjacency) -> SpanningTree:
    if len(parent) != len(graph):
        missing = set(graph) - set(parent)
        raise ValueError(
            f"graph is not connected from root {root}: unreached {sorted(missing)[:5]}"
        )
    adjacency: Dict[int, Set[int]] = {n: set() for n in graph}
    total = 0.0
    for child, par in parent.items():
        if child == par:
            continue
        adjacency[child].add(par)
        adjacency[par].add(child)
        total += graph[child][par]
    return SpanningTree(
        root=root,
        parent=dict(parent),
        adjacency={n: frozenset(s) for n, s in adjacency.items()},
        total_cost=total,
    )


def prim_mst_heap(graph: Adjacency, root: int) -> SpanningTree:
    """Heap-based Prim, O(m log n).

    *graph* maps node -> {neighbor: cost} and must be symmetric and
    connected; otherwise ``ValueError`` is raised.
    """
    _validate(graph, root)
    parent: Dict[int, int] = {root: root}
    in_tree: Set[int] = {root}
    heap: List[Tuple[float, int, int]] = []
    for v, c in graph[root].items():
        heapq.heappush(heap, (c, v, root))
    while heap and len(in_tree) < len(graph):
        c, v, par = heapq.heappop(heap)
        if v in in_tree:
            continue
        in_tree.add(v)
        parent[v] = par
        for w, cw in graph[v].items():
            if w not in in_tree:
                heapq.heappush(heap, (cw, w, v))
    return _build_tree(root, parent, graph)

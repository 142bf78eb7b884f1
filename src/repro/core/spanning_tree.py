"""Minimum spanning trees over neighbor closures (ACE Phase 2).

The paper builds, at every peer, "a minimum spanning tree among each peer and
its immediate logical neighbors ... by simply using an algorithm like PRIM
which has a computation complexity of O(m^2)".  We provide both that
array-based Prim (faithful to the paper's complexity statement) and a
heap-based variant, verified equivalent by the test suite.

Trees are deterministic: ties are broken by ``(cost, node id, parent id)`` so
that independent re-computations at different peers (and across test runs)
agree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

__all__ = ["SpanningTree", "prim_mst", "prim_mst_heap"]

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

    def nodes(self) -> Set[int]:
        """All nodes spanned by the tree."""
        return set(self.adjacency)

    def tree_neighbors(self, node: int) -> FrozenSet[int]:
        """Direct tree neighbors of *node* (empty when absent)."""
        return self.adjacency.get(node, frozenset())

    def children(self, node: int) -> Set[int]:
        """Children of *node* in the rooted orientation."""
        return {c for c in self.adjacency.get(node, ()) if self.parent.get(c) == node}

    def edges(self) -> Set[Tuple[int, int]]:
        """Tree edges as ``(min, max)`` pairs."""
        out: Set[Tuple[int, int]] = set()
        for child, par in self.parent.items():
            if child != par:
                out.add((child, par) if child < par else (par, child))
        return out

    def depth_of(self, node: int) -> int:
        """Hop distance from *node* up to the root."""
        depth = 0
        cur = node
        while cur != self.root:
            cur = self.parent[cur]
            depth += 1
            if depth > len(self.parent):
                raise RuntimeError("cycle detected in parent map")
        return depth


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


def prim_mst(graph: Adjacency, root: int) -> SpanningTree:
    """Array-based Prim — the paper's O(m^2) formulation.

    *graph* maps node -> {neighbor: cost} and must be symmetric and
    connected; otherwise ``ValueError`` is raised.
    """
    _validate(graph, root)
    nodes = sorted(graph)
    in_tree: Set[int] = {root}
    best_cost: Dict[int, float] = {}
    best_parent: Dict[int, int] = {}
    for v, c in graph[root].items():
        best_cost[v] = c
        best_parent[v] = root
    parent: Dict[int, int] = {root: root}
    while len(in_tree) < len(nodes):
        chosen: Optional[int] = None
        chosen_key: Optional[Tuple[float, int, int]] = None
        for v in nodes:
            if v in in_tree or v not in best_cost:
                continue
            key = (best_cost[v], v, best_parent[v])
            if chosen_key is None or key < chosen_key:
                chosen, chosen_key = v, key
        if chosen is None:
            break  # disconnected; _build_tree reports it
        in_tree.add(chosen)
        parent[chosen] = best_parent[chosen]
        for v, c in graph[chosen].items():
            if v in in_tree:
                continue
            old = best_cost.get(v)
            # Lexicographic (cost, parent) update matches the heap variant's
            # tie-breaking exactly, so both Prims return identical trees.
            if old is None or (c, chosen) < (old, best_parent[v]):
                best_cost[v] = c
                best_parent[v] = chosen
    return _build_tree(root, parent, graph)


def prim_mst_heap(graph: Adjacency, root: int) -> SpanningTree:
    """Heap-based Prim, O(m log n); identical output to :func:`prim_mst`."""
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

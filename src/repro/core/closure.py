"""h-neighbor closures (paper Section 3.4).

"We define h-neighbor closure of a source peer as the set of peers within h
hops from the source peer."  ACE builds its per-source spanning tree over the
subgraph induced by the closure: the closure members plus every logical link
between two members, weighted by the probed link costs that peers learn from
exchanged neighbor cost tables.

A :class:`ClosureView` is an immutable snapshot; it does not track later
overlay mutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Set

from ..topology.overlay import Overlay

__all__ = ["ClosureView", "neighbor_closure"]


@dataclass(frozen=True)
class ClosureView:
    """The h-neighbor closure of a source peer, with its known subgraph.

    Attributes
    ----------
    source:
        The peer the closure is centered on.
    depth:
        The *h* parameter.
    members:
        All peers within *depth* overlay hops of *source* (inclusive).
    hop_distance:
        Hop distance from the source for every member.
    edges:
        Induced subgraph with link costs: node -> {neighbor: cost}, covering
        exactly the overlay links between closure members.
    """

    source: int
    depth: int
    members: FrozenSet[int]
    hop_distance: Mapping[int, int]
    edges: Mapping[int, Mapping[int, float]]

    @property
    def size(self) -> int:
        """Number of peers in the closure (including the source)."""
        return len(self.members)

    def num_edges(self) -> int:
        """Number of logical links inside the closure."""
        return sum(len(nbrs) for nbrs in self.edges.values()) // 2

    def frontier(self) -> Set[int]:
        """Members at exactly *depth* hops (the closure boundary)."""
        return {p for p, d in self.hop_distance.items() if d == self.depth}


def neighbor_closure(overlay: Overlay, source: int, depth: int) -> ClosureView:
    """Compute the *depth*-neighbor closure of *source*.

    Raises ``KeyError`` if the source is not a live peer and ``ValueError``
    for non-positive depth.
    """
    if depth < 1:
        raise ValueError(f"closure depth must be >= 1, got {depth}")
    if not overlay.has_peer(source):
        raise KeyError(f"peer {source} not in overlay")

    hop: Dict[int, int] = {source: 0}
    frontier: List[int] = [source]
    d = 0
    while frontier and d < depth:
        d += 1
        nxt: List[int] = []
        for u in frontier:
            # Sorted expansion keeps the hop/edge dict orders canonical, so
            # every overlay engine (object or array) yields the same float
            # summation order downstream (overhead sums are order-sensitive).
            for v in sorted(overlay.neighbors(u)):
                if v not in hop:
                    hop[v] = d
                    nxt.append(v)
        frontier = nxt

    members = frozenset(hop)
    edges: Dict[int, Dict[int, float]] = {m: {} for m in sorted(members)}
    for u in sorted(members):
        # Batch all of u's in-closure edge costs in one sweep (symmetric
        # entries filled from the other endpoint are skipped up front).
        targets = [
            v
            for v in sorted(overlay.neighbors(u))
            if v in members and v not in edges[u]
        ]
        if not targets:
            continue
        row = overlay.costs_from(u, targets)
        for v in targets:
            c = row[v]
            edges[u][v] = c
            edges[v][u] = c
    return ClosureView(
        source=source,
        depth=depth,
        members=members,
        hop_distance=dict(hop),
        edges={u: dict(nbrs) for u, nbrs in edges.items()},
    )

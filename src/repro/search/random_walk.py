"""Random-walk search (Lv et al. [10], the paper's related work).

The first family of flooding alternatives the paper's Section 2 surveys
"routes queries to peers ... by some heuristics"; k-walker random walks are
the canonical representative: the source launches *k* walkers, each walker
steps to a uniformly random neighbor, and walkers terminate after a hop
budget or when enough results were found (checking back with the source is
abstracted away here).

Random walks trade response time for traffic: they touch few peers per unit
traffic but take long, meandering paths.  They are orthogonal to the
topology-mismatch problem — a walker over a mismatched overlay still pays
the full underlay cost per hop — which is exactly the paper's argument that
"the performance gains of both approaches are seriously limited by the
topology mismatching problem".  The benches combine them with ACE to show
the mismatch repair also benefits walk-based search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..topology.overlay import Overlay

__all__ = ["WalkResult", "random_walk_query"]


@dataclass(frozen=True)
class WalkResult:
    """Outcome of a k-walker random-walk query."""

    source: int
    walkers: int
    reached: Set[int]
    arrival_time: Dict[int, float]
    traffic_cost: float
    messages: int
    holders_reached: Tuple[int, ...]
    first_response_time: Optional[float]

    @property
    def search_scope(self) -> int:
        """Number of distinct peers visited by any walker."""
        return len(self.reached)

    @property
    def success(self) -> bool:
        """Whether any holder was found."""
        return self.first_response_time is not None


def random_walk_query(
    overlay: Overlay,
    source: int,
    holders: Iterable[int],
    rng: np.random.Generator,
    walkers: int = 4,
    max_hops: int = 64,
    stop_on_hit: bool = True,
) -> WalkResult:
    """Run a k-walker random walk from *source*.

    Each walker performs up to *max_hops* uniform steps (avoiding immediate
    backtracking when the degree allows).  A walker that lands on a holder
    reports back along its path (response time = elapsed walk time + the
    same path back); with *stop_on_hit* the walker then terminates.
    """
    if not overlay.has_peer(source):
        raise KeyError(f"peer {source} not in overlay")
    if walkers < 1:
        raise ValueError("walkers must be >= 1")
    holder_set = {h for h in holders if h != source}

    arrival: Dict[int, float] = {source: 0.0}
    traffic = 0.0
    messages = 0
    responses: List[float] = []
    found: Set[int] = set()

    for _ in range(walkers):
        current = source
        previous: Optional[int] = None
        elapsed = 0.0
        for _hop in range(max_hops):
            nbrs = list(overlay.neighbors(current))
            if not nbrs:
                break
            if previous is not None and len(nbrs) > 1 and previous in nbrs:
                nbrs.remove(previous)
            nxt = nbrs[int(rng.integers(len(nbrs)))]
            # replint: disable=REP004 — one edge per hop, chosen by the walk
            # itself: inherently sequential, served from the edge cache.
            cost = overlay.cost(current, nxt)
            traffic += cost
            messages += 1
            elapsed += cost
            previous, current = current, nxt
            if current not in arrival or elapsed < arrival[current]:
                arrival[current] = min(arrival.get(current, elapsed), elapsed)
            if current in holder_set:
                found.add(current)
                responses.append(2.0 * elapsed)
                if stop_on_hit:
                    break
    return WalkResult(
        source=source,
        walkers=walkers,
        reached=set(arrival),
        arrival_time=arrival,
        traffic_cost=traffic,
        messages=messages,
        holders_reached=tuple(sorted(found)),
        first_response_time=min(responses) if responses else None,
    )

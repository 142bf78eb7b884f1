"""Query propagation: blind flooding and the generic forwarding engine.

The paper's baseline (Section 3.1) is Gnutella's "blind flooding": a query is
broadcast and rebroadcast; a peer forwards the query to all logical neighbors
except the one it came from, and drops copies it has already seen.  Every
transmission — including one into a peer that drops it as a duplicate —
consumes the underlay resources of that logical hop, which is exactly the
redundant traffic the paper sets out to remove.

:func:`propagate` is the heap engine: it takes a *forwarding strategy*
(blind flooding, ACE tree routing, HPF, ...) and simulates one query's
spread in arrival-time order, charging

* ``traffic_cost`` — Σ over transmissions of the logical hop cost (the
  underlay shortest-path delay, the unit of the paper's Tables 1-2), and
* per-peer ``arrival_time`` — earliest delivery time along overlay paths,

so that search scope, traffic cost and response time (Section 4.2's metrics)
all fall out of one simulation.  Queries are answered by the compiled kernel
(:mod:`repro.search.batch`); :func:`propagate` is its reference and HPF's
engine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..perf import counters
from ..topology.soa import ArrayOverlay

__all__ = [
    "ForwardingStrategy",
    "QueryPropagation",
    "propagate",
    "blind_flooding_strategy",
    "GNUTELLA_TTL",
]

#: Default Gnutella time-to-live for queries.
GNUTELLA_TTL = 7

# A strategy maps (peer, came_from) -> neighbors to forward to.  ``came_from``
# is None at the query source.  The engine never forwards back to
# ``came_from`` regardless of what the strategy returns.
ForwardingStrategy = Callable[[int, Optional[int]], Iterable[int]]


@dataclass
class QueryPropagation:
    """Full record of one query's spread through the overlay."""

    source: int
    arrival_time: Dict[int, float] = field(default_factory=dict)
    parent: Dict[int, int] = field(default_factory=dict)
    hops: Dict[int, int] = field(default_factory=dict)
    traffic_cost: float = 0.0
    messages: int = 0
    duplicate_messages: int = 0

    @property
    def reached(self) -> Set[int]:
        """All peers the query visited (the *search scope*)."""
        return set(self.arrival_time)

    @property
    def search_scope(self) -> int:
        """Number of peers reached, the paper's search-scope metric."""
        return len(self.arrival_time)

    def path_to(self, peer: int) -> List[int]:
        """The delivery path source -> peer taken by the first copy."""
        if peer not in self.arrival_time:
            raise KeyError(f"peer {peer} was not reached")
        out = [peer]
        while out[-1] != self.source:
            out.append(self.parent[out[-1]])
        out.reverse()
        return out


def propagate(
    overlay: ArrayOverlay,
    source: int,
    strategy: ForwardingStrategy,
    ttl: Optional[int] = GNUTELLA_TTL,
) -> QueryPropagation:
    """Simulate one query spreading from *source* with a Python heap.

    The compiled kernel (:func:`repro.search.batch.propagate_many`) answers
    every query of the experiments; this engine stays for two reasons.  It
    is the reference every kernel-equivalence test compares against, field
    for field.  And it is HPF's engine: HPF draws each relay's neighbor
    subset when the relay settles, so its strategy has no graph to compile.

    Parameters
    ----------
    strategy:
        Which neighbors each peer forwards to (see module docstring).
    ttl:
        Maximum number of overlay hops; ``None`` means unlimited (used when
        measuring full-coverage scope, as in the paper's Figure 7 where "the
        search scope is all peers"); a negative value raises ``ValueError``.
    """
    if not overlay.has_peer(source):
        raise KeyError(f"peer {source} not in overlay")
    if ttl is not None and ttl < 0:
        raise ValueError(f"ttl must be None or >= 0, not {ttl}")
    started = perf_counter()
    prop = QueryPropagation(source=source)
    prop.arrival_time[source] = 0.0
    prop.hops[source] = 0
    # Heap entries: (arrival_time, target, sender, hops_used)
    heap: List[Tuple[float, int, int, int]] = []

    def forward_from(peer: int, came_from: Optional[int], t: float, hops: int) -> None:
        if ttl is not None and hops >= ttl:
            return
        live = overlay.neighbors(peer)
        for nbr in strategy(peer, came_from):
            if nbr == came_from or nbr == peer or nbr not in live:
                continue
            # (peer, nbr) is a live logical edge:
            # on warmed overlays this is a per-edge-cache dict hit (tier-1
            # asserts zero Dijkstras here; see docs/PERFORMANCE.md).
            cost = overlay.cost(peer, nbr)
            prop.traffic_cost += cost
            prop.messages += 1
            heapq.heappush(heap, (t + cost, nbr, peer, hops + 1))

    forward_from(source, None, 0.0, 0)
    while heap:
        t, peer, sender, hops = heapq.heappop(heap)
        if peer in prop.arrival_time:
            prop.duplicate_messages += 1
            continue
        prop.arrival_time[peer] = t
        prop.parent[peer] = sender
        prop.hops[peer] = hops
        forward_from(peer, sender, t, hops)
    counters.queries += 1
    counters.query_seconds += perf_counter() - started
    return prop


def blind_flooding_strategy(overlay: ArrayOverlay) -> ForwardingStrategy:
    """The Gnutella baseline: forward to every neighbor except the sender."""

    def strategy(peer: int, came_from: Optional[int]) -> Iterable[int]:
        # Canonical (sorted) forwarding order: traffic sums are float
        # accumulations, so the iteration order must not depend on which
        # overlay engine produced the neighbor set.
        return sorted(overlay.neighbors(peer))

    # Declare the closure compilable: the batched engine can lower it to a
    # CSR forwarding graph memoized per overlay epoch (repro.search.batch).
    strategy.compiled_spec = ("flooding", overlay)  # type: ignore[attr-defined]
    return strategy

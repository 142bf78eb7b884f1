"""Response index caching combined with ACE (paper Section 5.2).

"In a dynamic P2P environment, we simulate ACE employed together with other
approaches, such as response index caching ... using a 100-item size cache at
each peer, ACE with index cache will reduce 75% of the traffic cost and 70%
of the response time."

The scheme is the transparent query/index caching of the related work
([14, 22] in the paper): when a response (QueryHit) travels back along the
inverse query path, every relay caches the (object -> holder) index; a later
query arriving at a peer with a cache hit is answered from the cache and not
forwarded further, cutting both traffic and response time.

The query itself runs on the compiled kernel: the peers that will answer
from their caches are known before it starts, so they are the compiled
graph with their rows emptied (:meth:`CompiledGraph.stopped_at
<repro.search.batch.CompiledGraph.stopped_at>`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Optional

from ..topology.soa import ArrayOverlay
from .batch import QueryStats, compile_strategy, propagate_many
from .flooding import ForwardingStrategy

__all__ = ["IndexCache", "IndexCacheStore", "cached_query"]


class IndexCache:
    """Per-peer LRU cache of object indices (object id -> holder peer)."""

    def __init__(self, capacity: int = 100) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self._entries: "OrderedDict[object, int]" = OrderedDict()

    @property
    def capacity(self) -> int:
        """Maximum number of cached indices."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, obj: object) -> bool:
        return obj in self._entries

    def peek(self, obj: object) -> Optional[int]:
        """Return the cached holder for *obj*, leaving recency untouched."""
        return self._entries.get(obj)

    def lookup(self, obj: object) -> Optional[int]:
        """Return the cached holder for *obj* (refreshing recency)."""
        holder = self._entries.get(obj)
        if holder is not None:
            self._entries.move_to_end(obj)
        return holder

    def insert(self, obj: object, holder: int) -> None:
        """Cache an index, evicting the least recently used entry if full."""
        if obj in self._entries:
            self._entries.move_to_end(obj)
        self._entries[obj] = holder
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)

    def invalidate(self, holder: int) -> int:
        """Drop all entries pointing at *holder* (e.g. it left the system)."""
        stale = [k for k, v in self._entries.items() if v == holder]
        for k in stale:
            del self._entries[k]
        return len(stale)


class IndexCacheStore:
    """All peers' index caches, with lazy per-peer construction."""

    def __init__(self, capacity: int = 100) -> None:
        self._capacity = capacity
        self._caches: Dict[int, IndexCache] = {}

    def cache_of(self, peer: int) -> IndexCache:
        """The peer's cache (created on first use)."""
        cache = self._caches.get(peer)
        if cache is None:
            cache = IndexCache(self._capacity)
            self._caches[peer] = cache
        return cache

    def cached_holders(self, obj: object) -> Dict[int, int]:
        """Peer -> cached holder of *obj*, over every cache; recency untouched."""
        peeked = ((peer, cache.peek(obj)) for peer, cache in self._caches.items())
        return {peer: holder for peer, holder in peeked if holder is not None}

    def drop_peer(self, peer: int) -> None:
        """Forget a departed peer's cache."""
        self._caches.pop(peer, None)

    def invalidate_holder(self, holder: int) -> None:
        """Remove indices pointing at a departed holder from every cache."""
        for cache in self._caches.values():
            cache.invalidate(holder)


def cached_query(
    overlay: ArrayOverlay,
    source: int,
    obj: object,
    holders: Iterable[int],
    strategy: ForwardingStrategy,
    caches: IndexCacheStore,
    ttl: Optional[int] = None,
) -> QueryStats:
    """Run one query with transparent index caching.

    A peer other than the source whose cache holds a *live* index for *obj*
    answers the query and stops forwarding it.  After the query, every
    relay on the first responder's reverse path learns the index.  Raises
    as :func:`~repro.search.batch.propagate_many` does.
    """
    holder_set = {h for h in holders if overlay.has_peer(h)}
    hits = {
        peer: cached
        for peer, cached in caches.cached_holders(obj).items()
        if overlay.has_peer(peer) and overlay.has_peer(cached)
    }
    graph = compile_strategy(overlay, strategy).stopped_at(
        [peer for peer in hits if peer != source]
    )
    prop = propagate_many(overlay, [source], strategy, ttl=ttl, graph=graph).result(0)

    # A responder is a real holder or a peer with a live cached index.
    responses = []  # (response_time, holder, responder)
    for peer, t in prop.arrival_time.items():
        if peer == source:
            continue
        # The lookups a per-peer query makes, replayed so every cache keeps
        # its LRU order: one where the peer would forward (under the TTL),
        # one where a non-holder is asked for a response.
        if peer not in holder_set or ttl is None or prop.hops[peer] < ttl:
            caches.cache_of(peer).lookup(obj)
        if peer in holder_set:
            responses.append((2.0 * t, peer, peer))
        elif peer in hits:
            responses.append((2.0 * t, hits[peer], peer))
    first = None
    if responses:
        # A tie on (time, holder) goes to the responder that settled first:
        # equal arrivals settle by peer id.
        first, holder, responder = min(responses)
        # Index dissemination: relays on the first response's reverse path
        # cache the holder (including the source, which may re-query later).
        for relay in prop.path_to(responder):
            if relay != holder:
                caches.cache_of(relay).insert(obj, holder)

    return QueryStats(
        source=source,
        traffic_cost=prop.traffic_cost,
        search_scope=prop.search_scope,
        holders_reached=tuple(
            sorted(h for h in holder_set if h in prop.arrival_time and h != source)
        ),
        first_response_time=first,
    )

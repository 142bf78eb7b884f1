"""Index caching on the heap engine: the reference of ``cached_query``.

Production (:func:`repro.search.caching.cached_query`) peeks at every cache
before the query, stops the hit peers in a copy of the compiled graph and
replays the cache lookups afterwards.  The reference asks each cache as the
query reaches it: :func:`repro.search.flooding.propagate` runs a wrapping
strategy (:func:`stopping_at`) under which a peer whose cache holds a live
index forwards to nobody.  The heap engine calls the wrapper once per
settled peer, after its TTL gate, so every lookup — and with it every
cache's LRU order — happens exactly where the query touches the cache.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.search.batch import QueryStats
from repro.search.caching import IndexCacheStore
from repro.search.flooding import ForwardingStrategy, propagate
from tests.reference.overlay import Overlay

__all__ = ["cached_query", "stopping_at"]


def stopping_at(
    strategy: ForwardingStrategy, stop: Callable[[int], bool]
) -> ForwardingStrategy:
    """*strategy*, except that a peer other than the source for which
    ``stop(peer)`` holds receives the query and forwards it to nobody."""

    def wrapped(peer: int, came_from: Optional[int]) -> Iterable[int]:
        if came_from is not None and stop(peer):
            return ()
        return strategy(peer, came_from)

    return wrapped


def cached_query(
    overlay: Overlay,
    source: int,
    obj: object,
    holders: Iterable[int],
    strategy: ForwardingStrategy,
    caches: IndexCacheStore,
    ttl: Optional[int] = None,
) -> QueryStats:
    """One index-cached query on the heap engine, on either overlay class."""
    holder_set = {h for h in holders if overlay.has_peer(h)}

    def cache_hit(peer: int) -> bool:
        cached = caches.cache_of(peer).lookup(obj)
        return cached is not None and overlay.has_peer(cached)

    prop = propagate(overlay, source, stopping_at(strategy, cache_hit), ttl=ttl)

    # A responder is a real holder or a peer with a live cached index.
    responses = []  # (response_time, holder, responder), in settle order
    for peer, t in prop.arrival_time.items():
        if peer == source:
            continue
        if peer in holder_set:
            responses.append((2.0 * t, peer, peer))
        else:
            cached = caches.cache_of(peer).lookup(obj)
            if cached is not None and overlay.has_peer(cached):
                responses.append((2.0 * t, cached, peer))
    first = None
    if responses:
        # A tie on (time, holder) keeps the earliest responder to arrive.
        first, holder, responder = min(responses, key=lambda r: r[:2])
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

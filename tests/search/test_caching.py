"""Unit tests for response index caching."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ace import AceConfig, AceProtocol
from repro.search import caching
from repro.search.caching import IndexCache, IndexCacheStore
from repro.search.flooding import blind_flooding_strategy
from repro.search.tree_routing import ace_strategy
from repro.topology.generators import barabasi_albert
from repro.topology.overlay import small_world_overlay
from repro.topology.soa import ArrayOverlay
from tests.reference import caching as reference
from tests.reference.search import run_query


@pytest.fixture
def chain(make_overlay_from_weighted_edges):
    return make_overlay_from_weighted_edges(
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]
    )


@pytest.fixture
def cached_query(overlay_class):
    """Index caching on the overlay class's engine: the kernel on arrays,
    the heap reference on the object model."""
    if overlay_class is ArrayOverlay:
        return caching.cached_query
    return reference.cached_query


class TestIndexCache:
    def test_insert_and_lookup(self):
        cache = IndexCache(capacity=2)
        cache.insert("song.mp3", 7)
        assert cache.lookup("song.mp3") == 7
        assert "song.mp3" in cache

    def test_miss_returns_none(self):
        assert IndexCache().lookup("nope") is None

    def test_lru_eviction(self):
        cache = IndexCache(capacity=2)
        cache.insert("a", 1)
        cache.insert("b", 2)
        cache.insert("c", 3)
        assert cache.lookup("a") is None
        assert cache.lookup("b") == 2
        assert cache.lookup("c") == 3

    def test_peek_leaves_recency(self):
        cache = IndexCache(capacity=2)
        cache.insert("a", 1)
        cache.insert("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("c") is None
        cache.insert("c", 3)
        assert "a" not in cache and cache.peek("b") == 2

    def test_lookup_refreshes_recency(self):
        cache = IndexCache(capacity=2)
        cache.insert("a", 1)
        cache.insert("b", 2)
        cache.lookup("a")
        cache.insert("c", 3)
        assert cache.lookup("a") == 1
        assert cache.lookup("b") is None

    def test_reinsert_updates(self):
        cache = IndexCache(capacity=2)
        cache.insert("a", 1)
        cache.insert("a", 9)
        assert cache.lookup("a") == 9
        assert len(cache) == 1

    def test_invalidate_holder(self):
        cache = IndexCache(capacity=4)
        cache.insert("a", 1)
        cache.insert("b", 1)
        cache.insert("c", 2)
        assert cache.invalidate(1) == 2
        assert cache.lookup("a") is None
        assert cache.lookup("c") == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            IndexCache(capacity=0)

    def test_paper_default_capacity(self):
        # "using a 100-item size cache at each peer"
        assert IndexCache(100).capacity == 100


class TestIndexCacheStore:
    def test_lazy_per_peer(self):
        store = IndexCacheStore(capacity=5)
        a = store.cache_of(1)
        assert store.cache_of(1) is a
        assert store.cache_of(2) is not a

    def test_drop_peer(self):
        store = IndexCacheStore()
        store.cache_of(1).insert("a", 2)
        store.drop_peer(1)
        assert store.cache_of(1).lookup("a") is None

    def test_cached_holders_peeks_every_cache(self):
        store = IndexCacheStore(capacity=2)
        store.cache_of(1).insert("a", 9)
        store.cache_of(1).insert("b", 8)
        store.cache_of(2).insert("b", 7)
        store.cache_of(3)
        assert store.cached_holders("a") == {1: 9}
        assert store.cached_holders("b") == {1: 8, 2: 7}
        store.cache_of(1).insert("c", 6)  # "a" is still the LRU entry
        assert store.cached_holders("a") == {}

    def test_invalidate_holder_across_caches(self):
        store = IndexCacheStore()
        store.cache_of(1).insert("a", 9)
        store.cache_of(2).insert("a", 9)
        store.invalidate_holder(9)
        assert store.cache_of(1).lookup("a") is None
        assert store.cache_of(2).lookup("a") is None


class TestCachedQuery:
    def test_first_query_populates_reverse_path(self, chain, cached_query):
        caches = IndexCacheStore(capacity=10)
        result = cached_query(
            chain, 0, "obj", [4], blind_flooding_strategy(chain), caches,
        )
        assert result.success
        # Every relay on the reverse path 4-3-2-1-0 caches the index.
        for relay in (0, 1, 2, 3):
            assert caches.cache_of(relay).lookup("obj") == 4

    def test_second_query_stops_at_cache(self, chain, cached_query):
        caches = IndexCacheStore(capacity=10)
        cached_query(chain, 0, "obj", [4], blind_flooding_strategy(chain), caches)
        second = cached_query(
            chain, 1, "obj", [4], blind_flooding_strategy(chain), caches,
        )
        # Peer 1 itself holds the cached index... its neighbors answer; the
        # query never needs to reach peer 4's end of the chain again.
        assert second.success
        assert second.first_response_time is not None

    def test_cache_hit_reduces_traffic(self, chain, cached_query):
        caches = IndexCacheStore(capacity=10)
        cold = cached_query(
            chain, 0, "obj", [4], blind_flooding_strategy(chain), caches,
        )
        warm = cached_query(
            chain, 0, "obj", [4], blind_flooding_strategy(chain), caches,
        )
        assert warm.traffic_cost < cold.traffic_cost
        assert warm.first_response_time <= cold.first_response_time

    def test_tied_arrival_caches_along_the_responders_path(
        self, make_overlay_from_weighted_edges, cached_query
    ):
        # Peers 1 and 2 hear the query at the same time; only 2 holds the
        # object, so the response travels 2 -> 0 and never passes peer 1.
        star = make_overlay_from_weighted_edges([(0, 1, 5.0), (0, 2, 5.0)])
        caches = IndexCacheStore(capacity=10)
        result = cached_query(
            star, 0, "obj", [2], blind_flooding_strategy(star), caches,
        )
        assert result.first_response_time == 10.0
        assert caches.cache_of(0).lookup("obj") == 2
        assert caches.cache_of(1).lookup("obj") is None

    def test_stale_cache_entry_ignored(self, chain, cached_query):
        caches = IndexCacheStore(capacity=10)
        caches.cache_of(1).insert("obj", 99)  # 99 is not in the overlay
        result = cached_query(
            chain, 0, "obj", [4], blind_flooding_strategy(chain), caches,
        )
        # The stale index neither answers nor stops the query.
        assert result.success
        assert result.holders_reached == (4,)

    def test_cache_miss_equals_plain_query(self, chain, cached_query):
        caches = IndexCacheStore(capacity=10)
        cached = cached_query(
            chain, 0, "obj", [4], blind_flooding_strategy(chain), caches,
        )
        plain = run_query(
            chain, 0, blind_flooding_strategy(chain), [4], ttl=None
        )
        assert cached.traffic_cost == pytest.approx(plain.traffic_cost)
        assert cached.first_response_time == pytest.approx(
            plain.first_response_time
        )


def cache_world(seed, kind):
    """A warmed 20-peer world and its strategy; equal seeds, equal worlds."""
    rng = np.random.default_rng(seed)
    physical = barabasi_albert(100, m=2, rng=rng)
    overlay = small_world_overlay(physical, 20, avg_degree=4, rng=rng)
    overlay.warm_edge_costs()
    if kind == "flooding":
        return overlay, None, blind_flooding_strategy(overlay)
    protocol = AceProtocol(overlay, AceConfig(depth=2), rng=rng)
    protocol.rebuild_all_trees()
    return overlay, protocol, ace_strategy(protocol)


def cache_entries(store):
    """Every non-empty cache, its entries in LRU order (least recent first)."""
    return {
        peer: list(cache._entries.items())
        for peer, cache in store._caches.items()
        if len(cache)
    }


OBJECTS = 4


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(["flooding", "ace"]),
    ttl=st.sampled_from([None, 2, 7]),
    capacity=st.sampled_from([2, 3]),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["query"] * 4 + ["depart", "step"]),
            st.integers(0, 10_000),
            st.integers(0, 10_000),
        ),
        min_size=1,
        max_size=24,
    ),
)
def test_random_cached_query_sequences_equal_reference(seed, kind, ttl, capacity, ops):
    """Production ``cached_query`` (kernel, peek, lookup replay) against the
    heap reference, on twin worlds: every stat and every cache in LRU order
    after every query, with departures and ACE steps in between."""
    worlds = [cache_world(seed, kind) for _ in range(2)]
    stores = [IndexCacheStore(capacity) for _ in worlds]
    engines = (caching.cached_query, reference.cached_query)
    peers = worlds[0][0].peers()
    holders = {
        obj: peers[(seed + 7 * obj) % len(peers)::9] for obj in range(OBJECTS)
    }
    for op, a, b in ops:
        live = worlds[0][0].peers()
        if op == "query":
            source, obj = live[a % len(live)], b % OBJECTS
            got, want = (
                query(overlay, source, obj, holders[obj], strategy, store, ttl=ttl)
                for query, (overlay, _protocol, strategy), store in zip(
                    engines, worlds, stores
                )
            )
            assert got == want
            assert cache_entries(stores[0]) == cache_entries(stores[1])
        elif op == "depart" and len(live) > 4:
            # A departing peer takes its cache; b decides whether the
            # indices pointing at it are invalidated or left stale.
            peer = live[a % len(live)]
            for (overlay, _protocol, _strategy), store in zip(worlds, stores):
                overlay.remove_peer(peer)
                store.drop_peer(peer)
                if b % 2:
                    store.invalidate_holder(peer)
        elif op == "step":
            for overlay, protocol, _strategy in worlds:
                if protocol is not None:
                    protocol.step()
                    overlay.warm_edge_costs()

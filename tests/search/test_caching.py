"""Unit tests for response index caching."""

import pytest

from repro.search.caching import IndexCache, IndexCacheStore, cached_query
from repro.search.flooding import blind_flooding_strategy


@pytest.fixture
def chain(make_overlay_from_weighted_edges):
    return make_overlay_from_weighted_edges(
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]
    )


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

    def test_invalidate_holder_across_caches(self):
        store = IndexCacheStore()
        store.cache_of(1).insert("a", 9)
        store.cache_of(2).insert("a", 9)
        store.invalidate_holder(9)
        assert store.cache_of(1).lookup("a") is None
        assert store.cache_of(2).lookup("a") is None


class TestCachedQuery:
    def test_first_query_populates_reverse_path(self, chain):
        caches = IndexCacheStore(capacity=10)
        result = cached_query(
            chain, 0, "obj", [4], blind_flooding_strategy(chain), caches,
        )
        assert result.success
        # Every relay on the reverse path 4-3-2-1-0 caches the index.
        for relay in (0, 1, 2, 3):
            assert caches.cache_of(relay).lookup("obj") == 4

    def test_second_query_stops_at_cache(self, chain):
        caches = IndexCacheStore(capacity=10)
        cached_query(chain, 0, "obj", [4], blind_flooding_strategy(chain), caches)
        second = cached_query(
            chain, 1, "obj", [4], blind_flooding_strategy(chain), caches,
        )
        # Peer 1 itself holds the cached index... its neighbors answer; the
        # query never needs to reach peer 4's end of the chain again.
        assert second.success
        assert second.first_response_time is not None

    def test_cache_hit_reduces_traffic(self, chain):
        caches = IndexCacheStore(capacity=10)
        cold = cached_query(
            chain, 0, "obj", [4], blind_flooding_strategy(chain), caches,
        )
        warm = cached_query(
            chain, 0, "obj", [4], blind_flooding_strategy(chain), caches,
        )
        assert warm.traffic_cost < cold.traffic_cost
        assert warm.first_response_time <= cold.first_response_time

    def test_stale_cache_entry_ignored(self, chain):
        caches = IndexCacheStore(capacity=10)
        caches.cache_of(1).insert("obj", 99)  # 99 is not in the overlay
        result = cached_query(
            chain, 0, "obj", [4], blind_flooding_strategy(chain), caches,
        )
        # The stale index neither answers nor stops the query.
        assert result.success
        assert result.holders_reached == (4,)

    def test_cache_miss_equals_plain_query(self, chain):
        from repro.search.flooding import run_query

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

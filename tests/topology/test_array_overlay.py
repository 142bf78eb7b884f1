"""Equivalence suite: ArrayOverlay must behave exactly like Overlay.

Every test drives the struct-of-arrays engine and the dict-of-sets reference
implementation through the same operation sequence and asserts identical
observable state — adjacency, costs, epochs, counters-relevant cache
behaviour — including across edit-buffer compaction boundaries forced by a
tiny ``compact_threshold``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oracle.landmark import LandmarkOracle
from repro.perf import counters
from repro.topology.generators import barabasi_albert, grid
from repro.topology.overlay import Overlay, random_overlay
from repro.topology.soa import ArrayOverlay
from tests.reference import object_twin


def assert_equivalent(obj: Overlay, arr: ArrayOverlay) -> None:
    """Full observable-state comparison between the two engines."""
    assert arr.num_peers == obj.num_peers
    assert arr.num_edges == obj.num_edges
    assert arr.peers() == obj.peers()
    assert arr.epoch == obj.epoch
    assert arr.average_degree() == pytest.approx(obj.average_degree())
    for p in obj.peers():
        assert arr.has_peer(p)
        assert arr.host_of(p) == obj.host_of(p)
        assert arr.neighbors(p) == obj.neighbors(p)
        assert arr.degree(p) == obj.degree(p)
    assert sorted(arr.edges()) == sorted(obj.edges())
    assert arr.is_connected() == obj.is_connected()
    assert sorted(map(sorted, arr.components())) == sorted(
        map(sorted, obj.components())
    )


#: Scalar-path buffer view -> the array it must alias.
_VIEWS = {
    "_vpeer": "_slot_peer",
    "_vhost": "_slot_host",
    "_vdeg": "_slot_degree",
    "_vptr": "_indptr",
    "_vnbr": "_nbr",
    "_vcost": "_ncost",
    "_vdead": "_dead",
}


def assert_views_alias(arr: ArrayOverlay) -> None:
    """Every view exports the *current* array object, zero-copy."""
    for view_name, array_name in _VIEWS.items():
        view, array = getattr(arr, view_name), getattr(arr, array_name)
        assert view.obj is array, view_name
        assert len(view) == len(array)
        assert not len(array) or np.shares_memory(np.asarray(view), array)


@functools.lru_cache(maxsize=None)
def _physical():
    return barabasi_albert(150, m=2, rng=np.random.default_rng(42))


@pytest.fixture
def physical():
    return _physical()


@pytest.fixture
def pair(physical):
    """An object overlay and its array conversion (aggressive compaction)."""
    obj = random_overlay(physical, 36, avg_degree=5, rng=np.random.default_rng(9))
    arr = ArrayOverlay.from_overlay(obj, compact_threshold=3)
    return obj, arr


class TestConversion:
    def test_from_overlay_matches(self, pair):
        obj, arr = pair
        assert_equivalent(obj, arr)

    def test_from_overlay_carries_known_costs(self, physical):
        obj = random_overlay(
            physical, 20, avg_degree=4, rng=np.random.default_rng(3)
        )
        obj.warm_edge_costs()
        arr = ArrayOverlay.from_overlay(obj)
        assert arr.cached_edge_costs == obj.cached_edge_costs == obj.num_edges
        for u, v in obj.edges():
            assert arr.cost(u, v) == obj.cost(u, v)

    def test_from_array_roundtrip(self, pair):
        _, arr = pair
        again = ArrayOverlay.from_overlay(arr)
        assert_equivalent(arr, again)

    def test_empty_overlay(self, physical):
        arr = ArrayOverlay.from_overlay(Overlay(physical))
        assert arr.num_peers == 0
        assert arr.num_edges == 0
        assert arr.peers() == []
        assert arr.average_degree() == 0.0
        assert arr.is_connected()


#: Twelve peers on six hosts, so same-host pairs (cost 0, never an oracle
#: query) are common; a ring plus chords keeps every peer at degree >= 2.
_HOSTS = {p: (7 * p) % 6 for p in range(12)}
_EDGES = [(p, (p + 1) % 12) for p in range(12)] + [(0, 5), (2, 9), (3, 7)]
_UNKNOWN = 10**6

_OP = st.tuples(
    st.sampled_from(
        ["remove", "add", "connect", "disconnect", "cost", "invalidate", "warm"]
    ),
    st.integers(0, 10**4),
    st.integers(0, 10**4),
)


def _counted(call):
    """``(result or exception type, edge-cost hits, edge-cost misses)``."""
    hits, misses = counters.edge_cost_hits, counters.edge_cost_misses
    try:
        result = call()
    except (KeyError, ValueError) as err:
        result = type(err)
    return (
        result,
        counters.edge_cost_hits - hits,
        counters.edge_cost_misses - misses,
    )


def assert_reads_match(obj: Overlay, arr: ArrayOverlay, pick: int) -> None:
    """Every scalar read, and what it does to the caches, on both engines."""
    peers = obj.peers()
    assert arr.peers() == peers and arr.num_edges == obj.num_edges
    for p in peers:
        assert arr.neighbors(p) == obj.neighbors(p)
        assert arr.degree(p) == obj.degree(p)
        assert arr.host_of(p) == obj.host_of(p)
    u = peers[pick % len(peers)]
    # Neighbors, non-neighbors, same-host peers and u itself, two of them
    # twice; then the same list ending in a peer that does not exist.
    targets = peers + peers[:2]
    for v in targets + [_UNKNOWN]:
        assert arr.has_edge(u, v) == obj.has_edge(u, v)
    for v in peers[pick % 3 :: 3] + [_UNKNOWN]:
        assert _counted(lambda: arr.cost(u, v)) == _counted(lambda: obj.cost(u, v))
    w = peers[(pick + 1) % len(peers)]
    assert _counted(lambda: arr.costs_from(w, targets)) == _counted(
        lambda: obj.costs_from(w, targets)
    )
    assert _counted(lambda: arr.costs_from(u, targets + [_UNKNOWN])) == _counted(
        lambda: obj.costs_from(u, targets + [_UNKNOWN])
    )
    assert arr.cached_edge_costs == obj.cached_edge_costs


class TestMutationEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        threshold=st.sampled_from([0, 3, None]),
        ops=st.lists(_OP, max_size=30),
    )
    def test_churn_sequence_across_compactions(self, threshold, ops):
        arr = ArrayOverlay(_physical(), _HOSTS, compact_threshold=threshold)
        for u, v in _EDGES:
            arr.connect(u, v)
        obj = object_twin(arr)
        assert type(obj) is Overlay
        epoch_gap = obj.epoch - arr.epoch
        next_peer = len(_HOSTS)
        for op, a, b in ops:
            peers = obj.peers()
            u, v = peers[a % len(peers)], peers[b % len(peers)]
            if op == "remove" and len(peers) > 4:
                obj.remove_peer(u)
                arr.remove_peer(u)
            elif op == "add":
                obj.add_peer(next_peer, b % 6)
                arr.add_peer(next_peer, b % 6)
                next_peer += 1
            elif op == "connect":
                assert _counted(lambda: arr.connect(u, v)) == _counted(
                    lambda: obj.connect(u, v)
                )
            elif op == "disconnect":
                if obj.degree(u):
                    v = sorted(obj.neighbors(u))[b % obj.degree(u)]
                assert arr.disconnect(u, v) == obj.disconnect(u, v)
            elif op == "cost":
                assert _counted(lambda: arr.cost(u, v)) == _counted(
                    lambda: obj.cost(u, v)
                )
            elif op == "invalidate":
                obj.invalidate_edge_costs()
                arr.invalidate_edge_costs()
            elif op == "warm":
                assert _counted(arr.warm_edge_costs) == _counted(
                    obj.warm_edge_costs
                )
            assert obj.epoch - arr.epoch == epoch_gap
            assert_views_alias(arr)
            assert_reads_match(obj, arr, a)

    def test_reconnect_after_tombstone(self, pair):
        obj, arr = pair
        u, v = sorted(obj.edges())[0]
        for engine in (obj, arr):
            assert engine.disconnect(u, v)
            assert engine.connect(u, v)
            assert not engine.connect(u, v)
        assert_equivalent(obj, arr)

    def test_connect_errors_match(self, pair):
        obj, arr = pair
        p = obj.peers()[0]
        for engine in (obj, arr):
            with pytest.raises(ValueError):
                engine.connect(p, p)
            with pytest.raises(KeyError):
                engine.connect(p, 10**9)
            with pytest.raises(KeyError):
                engine.disconnect(p, 10**9)
            with pytest.raises(KeyError):
                engine.neighbors(10**9)
            with pytest.raises(ValueError):
                engine.add_peer(p, 0)
            with pytest.raises(ValueError):
                engine.add_peer(10**9, 10**9)

    def test_slot_reuse_after_removal(self, physical):
        arr = ArrayOverlay(physical)
        for p in range(6):
            arr.add_peer(p, p)
        arr.connect(0, 1)
        arr.connect(1, 2)
        arr.remove_peer(1)
        # New peer reuses the freed slot; stale tombstones must not leak.
        arr.add_peer(99, 7)
        assert arr.neighbors(0) == set()
        assert arr.neighbors(99) == set()
        arr.connect(0, 99)
        assert arr.neighbors(0) == {99}
        assert arr.degree(99) == 1


class TestBufferViews:
    """The scalar path reads the arrays through ``memoryview``s; they must
    follow every array replacement and share every write, both ways."""

    def test_views_follow_slot_growth_and_reuse(self, physical):
        arr = ArrayOverlay(physical)
        assert_views_alias(arr)
        for p in range(20):  # capacity 0 -> 8 -> 16 -> 32
            arr.add_peer(p, p % 7)
            assert_views_alias(arr)
            assert arr.host_of(p) == p % 7 and arr.degree(p) == 0
        arr.connect(0, 1)
        arr.remove_peer(1)
        arr.add_peer(99, 3)  # reuses the freed slot, no array replaced
        assert_views_alias(arr)
        assert arr.host_of(99) == 3 and arr.neighbors(0) == set()

    def test_views_follow_compaction_copy_and_conversion(self, pair):
        obj, arr = pair
        assert_views_alias(arr)
        u, v = sorted(obj.edges())[0]
        arr.disconnect(u, v)
        arr.adjacency_csr()  # compacts: every base array is replaced
        assert_views_alias(arr)
        assert not arr.has_edge(u, v)
        for other in (arr.copy(), ArrayOverlay.from_overlay(arr)):
            assert_views_alias(other)
            assert other._vnbr.obj is not arr._nbr
            assert_equivalent(arr, other)

    def test_scalar_writes_reach_the_bulk_kernels(self, pair):
        obj, arr = pair
        u, v = sorted(obj.edges())[0]
        d = arr.cost(u, v)  # _fill_edge_cost through the view
        assert arr.disconnect(*sorted(obj.edges())[1])
        misses = counters.edge_cost_misses
        peers, indptr, nbr, cost = arr.adjacency_csr()
        # The warm pass skipped the edge cost() filled and the one cut ...
        assert counters.edge_cost_misses - misses == obj.num_edges - 2
        # ... and the re-packed CSR has the first and not the second.
        peers = peers.tolist()
        row = slice(indptr[peers.index(u)], indptr[peers.index(u) + 1])
        assert cost[row][nbr[row].tolist().index(peers.index(v))] == d
        assert len(nbr) == 2 * (obj.num_edges - 1)

    def test_bulk_writes_reach_the_scalar_path(self, pair):
        obj, arr = pair
        arr.warm_edge_costs()
        u, v = sorted(obj.edges())[0]
        exact = arr.cost(u, v)
        arr.invalidate_edge_costs()  # in place: _ncost[:] = nan
        assert _counted(lambda: arr.cost(u, v)) == (exact, 0, 1)
        landmark = LandmarkOracle(
            arr.physical, n_landmarks=4, rng=np.random.default_rng(1)
        )
        arr.use_oracle(landmark)  # in place again
        want = landmark.delay(arr.host_of(u), arr.host_of(v))
        assert _counted(lambda: arr.cost(u, v)) == (want, 0, 1)
        assert _counted(lambda: arr.costs_from(u, [v])) == ({v: want}, 1, 0)

    def test_mutating_a_copy_leaves_the_original_untouched(self, pair):
        obj, arr = pair
        clone = arr.copy()
        u, v = sorted(obj.edges())[0]
        clone.cost(u, v)
        assert (arr.cached_edge_costs, clone.cached_edge_costs) == (0, 1)
        clone.disconnect(u, v)
        clone.add_peer(10**5, 0)
        clone.connect(10**5, u)
        assert not clone.has_edge(u, v) and clone.neighbors(10**5) == {u}
        assert arr.has_edge(u, v) and not arr.has_peer(10**5)
        assert_equivalent(obj, arr)


class TestComponents:
    """``component_of`` is a frontier sweep over the live rows: base CSR,
    tombstones and edit buffer, without compacting any of it."""

    @staticmethod
    def assert_components_match(arr):
        twin = object_twin(arr)
        compactions = counters.soa_compactions
        for p in arr.peers():
            assert arr.component_of(p) == twin.component_of(p)
        assert arr.is_connected() == twin.is_connected()
        assert counters.soa_compactions == compactions
        return len(twin.components())

    def test_split_overlay_mid_edit_buffer_and_after_removal(self, physical):
        arr = ArrayOverlay(physical, {p: p for p in range(14)})
        for ring in (range(0, 7), range(7, 14)):  # two components
            for p in ring:
                arr.connect(p, ring[(p - ring[0] + 1) % 7])
        arr.adjacency_csr()  # everything in the base CSR
        assert self.assert_components_match(arr) == 2
        # Tombstones split the first ring in two, a buffered edge bridges
        # one half to the second ring, a buffered peer hangs off the other.
        arr.disconnect(0, 1)
        arr.disconnect(3, 4)
        arr.connect(2, 9)
        arr.add_peer(50, 3)
        arr.connect(50, 5)
        assert arr.component_of(50) == {0, 4, 5, 6, 50}
        assert self.assert_components_match(arr) == 2
        arr.remove_peer(9)  # the bridge's far end: three components again
        assert arr.component_of(2) == {1, 2, 3}
        assert self.assert_components_match(arr) == 3
        with pytest.raises(KeyError):
            arr.component_of(9)


class TestCostEquivalence:
    def test_warm_and_cost_values(self, pair):
        obj, arr = pair
        assert arr.warm_edge_costs() == obj.warm_edge_costs()
        for u, v in obj.edges():
            assert arr.cost(u, v) == obj.cost(u, v)
        assert arr.cached_edge_costs == obj.cached_edge_costs

    def test_warm_is_noop_when_warm(self, pair):
        obj, arr = pair
        arr.warm_edge_costs()
        runs_before = counters.dijkstra_runs
        assert arr.warm_edge_costs() == 0
        assert counters.dijkstra_runs == runs_before

    def test_costs_from_mixed_targets(self, pair):
        obj, arr = pair
        peers = obj.peers()
        for source in peers[:8]:
            targets = peers[::4] + sorted(obj.neighbors(source))
            assert arr.costs_from(source, targets) == obj.costs_from(
                source, targets
            )

    def test_cost_of_non_edge_and_self(self, pair):
        obj, arr = pair
        peers = obj.peers()
        u = peers[0]
        assert arr.cost(u, u) == obj.cost(u, u) == 0.0
        non_neighbor = next(
            p for p in peers if p != u and p not in obj.neighbors(u)
        )
        assert arr.cost(u, non_neighbor) == obj.cost(u, non_neighbor)

    def test_connect_seeds_cost_from_host_cache(self, pair):
        obj, arr = pair
        obj.warm_edge_costs()
        arr.warm_edge_costs()
        peers = obj.peers()
        u = peers[0]
        candidates = [p for p in peers[1:] if not obj.has_edge(u, p)]
        v = candidates[0]
        obj.costs_from(u, [v])  # populate the host-pair cache in both
        arr.costs_from(u, [v])
        obj.connect(u, v)
        arr.connect(u, v)
        hits_before = counters.edge_cost_hits
        d_obj = obj.cost(u, v)
        d_arr = arr.cost(u, v)
        assert d_obj == d_arr
        assert counters.edge_cost_hits == hits_before + 2

    def test_invalidate_edge_costs(self, pair):
        obj, arr = pair
        obj.warm_edge_costs()
        arr.warm_edge_costs()
        obj.invalidate_edge_costs()
        arr.invalidate_edge_costs()
        assert arr.cached_edge_costs == obj.cached_edge_costs == 0
        assert arr.epoch == obj.epoch
        assert arr.warm_edge_costs() == obj.warm_edge_costs()

    def test_same_host_edges_cost_zero(self, physical):
        arr = ArrayOverlay(physical)
        arr.add_peer(1, 5)
        arr.add_peer(2, 5)
        arr.connect(1, 2)
        assert arr.cost(1, 2) == 0.0
        assert arr.cached_edge_costs == 1


class TestCopySemantics:
    def test_copy_isolated_structure(self, pair):
        _, arr = pair
        clone = arr.copy()
        victim = arr.peers()[0]
        clone.remove_peer(victim)
        assert arr.has_peer(victim)
        assert clone.num_peers == arr.num_peers - 1

    def test_copy_shares_host_cache_but_not_edge_costs(self, pair):
        _, arr = pair
        clone = arr.copy()
        clone.warm_edge_costs()
        # The host-pair cache is shared (object-engine contract), so the
        # original can fill its per-edge costs without new underlay solves.
        runs_before = counters.dijkstra_runs
        arr.warm_edge_costs()
        assert counters.dijkstra_runs == runs_before

    def test_copy_preserves_epoch(self, pair):
        _, arr = pair
        assert arr.copy().epoch == arr.epoch


class TestFloodingCsr:
    def test_rows_sorted_and_complete(self, pair):
        obj, arr = pair
        peers, indptr, targets, costs = arr.flooding_csr()
        assert peers == obj.peers()
        assert not np.isnan(costs).any()
        for i, p in enumerate(peers):
            row = [peers[t] for t in targets[indptr[i] : indptr[i + 1]]]
            assert row == sorted(obj.neighbors(p))

    def test_csr_after_churn(self, pair):
        obj, arr = pair
        u, v = sorted(obj.edges())[0]
        obj.disconnect(u, v)
        arr.disconnect(u, v)
        peers, indptr, targets, _ = arr.flooding_csr()
        i = peers.index(u)
        row = [peers[t] for t in targets[indptr[i] : indptr[i + 1]]]
        assert row == sorted(obj.neighbors(u))

    def test_costs_match_object_engine(self, pair):
        obj, arr = pair
        obj.warm_edge_costs()
        peers, indptr, targets, costs = arr.flooding_csr()
        for i, p in enumerate(peers):
            for k in range(int(indptr[i]), int(indptr[i + 1])):
                q = peers[int(targets[k])]
                assert costs[k] == obj.cost(p, q)


class TestUseOracle:
    def test_use_oracle_resets_costs(self, pair):
        from repro.oracle.exact import ExactOracle

        obj, arr = pair
        obj.warm_edge_costs()
        arr.warm_edge_costs()
        obj.use_oracle(ExactOracle(obj.physical))
        arr.use_oracle(ExactOracle(arr.physical))
        assert arr.cached_edge_costs == obj.cached_edge_costs == 0
        assert arr.epoch == obj.epoch
        assert arr.warm_edge_costs() == obj.warm_edge_costs()
        for u, v in obj.edges():
            assert arr.cost(u, v) == obj.cost(u, v)

    def test_use_oracle_wrong_underlay_raises(self, pair):
        from repro.oracle.exact import ExactOracle

        _, arr = pair
        other = grid(3, 3, delay=1.0)
        with pytest.raises(ValueError):
            arr.use_oracle(ExactOracle(other))

"""ExactOracle: the batched underlay engine behind one lookup rule, and the
host-pair store every oracle owns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import run_trials
from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.oracle.exact import ExactOracle
from repro.perf import counters, reset_counters
from repro.topology.overlay import small_world_overlay
from repro.topology.physical import PhysicalTopology
from repro.topology.soa import ArrayOverlay


class TestDelegation:
    def test_delay_matches_engine(self, ba_physical):
        oracle = ExactOracle(ba_physical)
        hosts = ba_physical.largest_component_nodes()
        for u, v in [(hosts[0], hosts[1]), (hosts[2], hosts[7])]:
            assert oracle.delays_from(u, [v])[0] == ba_physical.delay(u, v)

    def test_delays_from_full_vector(self, ba_physical):
        oracle = ExactOracle(ba_physical)
        src = ba_physical.largest_component_nodes()[0]
        every = range(ba_physical.num_nodes)
        assert np.array_equal(
            oracle.delays_from(src, every), ba_physical.delays_from(src)
        )

    def test_delays_from_target_slice_aligns_with_targets(self, ba_physical):
        oracle = ExactOracle(ba_physical)
        hosts = ba_physical.largest_component_nodes()
        targets = [hosts[5], hosts[1], hosts[9]]
        sliced = oracle.delays_from(hosts[0], targets)
        full = ba_physical.delays_from(hosts[0])
        assert sliced.shape == (3,)
        assert list(sliced) == [full[t] for t in targets]

    def test_delays_from_many_delegates_batched(self, ba_physical):
        oracle = ExactOracle(ba_physical)
        hosts = ba_physical.largest_component_nodes()[:4]
        reset_counters()
        rows = oracle.delays_from_many(hosts)
        assert counters.dijkstra_runs == 1  # one batched solve
        assert counters.dijkstra_sources == len(hosts)
        assert sorted(rows) == sorted(hosts)

    def test_physical_property(self, ba_physical):
        assert ExactOracle(ba_physical).physical is ba_physical


class TestOverlaySeamIsTransparent:
    """Routing overlay costs through ExactOracle must not change a bit —
    same answers AND the same counter traffic as the direct engine calls
    the overlay historically made."""

    def test_default_overlay_oracle_is_exact(self, ba_physical):
        ov = ArrayOverlay(ba_physical, {0: 0, 1: 1})
        assert isinstance(ov.oracle, ExactOracle)
        assert ov.oracle.physical is ba_physical

    def test_costs_and_counters_match_direct_engine(self, rng, ba_physical):
        ov = small_world_overlay(ba_physical, 30, avg_degree=4, rng=rng)
        reset_counters()
        via_overlay = {(u, v): ov.cost(u, v) for u, v in ov.edges()}
        overlay_counters = counters.snapshot()
        reset_counters()
        direct = {
            (u, v): ba_physical.delay(ov.host_of(u), ov.host_of(v))
            if ov.host_of(u) != ov.host_of(v)
            else 0.0
            for u, v in via_overlay
        }
        assert via_overlay == direct
        # The seam adds no Dijkstra work and no oracle-counter noise.
        assert overlay_counters["oracle_estimates"] == 0
        assert overlay_counters["landmark_embed_sources"] == 0

    def test_copy_shares_the_oracle(self, rng, ba_physical):
        ov = small_world_overlay(ba_physical, 20, avg_degree=4, rng=rng)
        assert ov.copy().oracle is ov.oracle

    def test_foreign_oracle_rejected(self, grid_physical, ba_physical):
        with pytest.raises(ValueError):
            ArrayOverlay(ba_physical, oracle=ExactOracle(grid_physical))


class TestDelayPairsDefault:
    """The bulk fill, solved from a cover: the vector entries, bit for bit."""

    def test_matches_vector_entries_exactly(self, rng, ba_physical):
        oracle = ExactOracle(ba_physical)
        hosts = ba_physical.largest_component_nodes()
        idx = rng.integers(0, len(hosts), size=(30, 2))
        us = [hosts[int(i)] for i, _ in idx]
        vs = [hosts[int(j)] for _, j in idx]
        got = oracle.delay_pairs(us, vs)
        want = np.array([ba_physical.delays_from(u)[v] for u, v in zip(us, vs)])
        assert np.array_equal(got, want)


def _world_store(config):
    """A trial's view of its oracle: store and partial rows, before and after
    the world's first fill (module-level, so a worker can run it)."""
    overlay = build_scenario(config).overlay
    oracle = overlay.oracle
    before = (len(oracle._store), len(oracle._partial))
    overlay.warm_edge_costs()
    return before, len(oracle._store) > 0


class TestStoreLifetime:
    """The host-pair store lives and dies with its oracle."""

    def world(self, ba_physical, rng):
        overlay = small_world_overlay(ba_physical, 30, avg_degree=4, rng=rng)
        overlay.warm_edge_costs()
        u, v = next(iter(overlay.edges()))
        return overlay, (overlay.host_of(u), overlay.host_of(v))

    def test_copy_shares_the_store(self, ba_physical, rng):
        overlay, (hu, hv) = self.world(ba_physical, rng)
        clone = overlay.copy()
        assert clone.oracle is overlay.oracle
        assert clone.oracle.known(hu, hv) == overlay.oracle.known(hu, hv)
        # A pair one copy asks is known to the other without a lookup.
        peers = clone.peers()
        far = max(peers, key=lambda p: clone.host_of(p))
        got = clone.costs_from(peers[0], [far])[far]
        pair = (clone.host_of(peers[0]), clone.host_of(far))
        assert overlay.oracle.known(*pair) == got

    def test_use_oracle_starts_empty(self, ba_physical, rng):
        overlay, (hu, hv) = self.world(ba_physical, rng)
        overlay.use_oracle(ExactOracle(ba_physical))
        assert overlay.oracle._store == {} and overlay.oracle._partial == {}
        assert overlay.oracle.known(hu, hv) is None
        assert overlay.warm_edge_costs() == overlay.num_edges

    def test_a_workers_oracle_starts_empty(self):
        # A parallel trial builds its own world, oracle included.
        configs = [
            ScenarioConfig(physical_nodes=200, peers=40, avg_degree=4, seed=s)
            for s in (1, 2)
        ]
        assert run_trials(_world_store, configs, max_workers=2) == [
            ((0, 0), True), ((0, 0), True)
        ]


class TestEmptyPool:
    """A keep that names no host leaves no partial row, so no read of the
    rows ever meets an empty pool."""

    NONE = np.empty(0, dtype=np.int64)

    def test_a_probe_solve_with_an_empty_pool_keeps_no_row(self):
        oracle = ExactOracle(_path_with_chords(6, 2, [1.0] * 8))
        assert oracle.delays_from(0, [2], lambda: self.NONE).tolist() == [2.0]
        assert oracle._partial == {}
        assert oracle._read_partial(0, [4]) is None

    def test_a_fill_with_an_empty_pool_keeps_no_row(self):
        oracle = ExactOracle(_path_with_chords(6, 2, [1.0] * 8))
        got = oracle.delay_pairs([0, 4], [2, 2], keep=lambda first, at: {2: self.NONE})
        assert got.tolist() == [2.0, 2.0]
        assert oracle._partial == {}
        assert oracle._read_partial(2, [0]) is None


def _path_with_chords(n, cache_size, delays):
    """A path of *n* hosts with two chords, its LRU *cache_size* rows."""
    links = [(i, i + 1) for i in range(n - 1)] + [(0, n // 2), (1, n - 1)]
    return PhysicalTopology(n, links, delays[: len(links)], cache_size=cache_size)


def _random_pool(pick, n):
    """A random sorted pool of hosts, empty at times."""
    return np.unique(pick.integers(0, n, size=pick.integers(n)))


def _random_keep(pairs, n, seed):
    """A ``keep`` callback naming a random pool per host it is asked about,
    and the dict of the pools it named."""
    pick = np.random.default_rng(seed)
    pools = {}

    def keep(first, at):
        read = {pairs[i][0] if first[i] else pairs[i][1] for i in at.tolist()}
        named = {h: _random_pool(pick, n) for h in sorted(read)}
        pools.update(named)
        return named

    return keep, pools


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(4, 9),
    cache_size=st.integers(0, 3),
    delays=st.lists(st.integers(1, 4096), min_size=10, max_size=10),
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("fill"),
                st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=6),
                st.integers(0, 2**32 - 1),
            ),
            st.tuples(
                st.just("query"),
                st.integers(0, 8),
                st.lists(st.integers(0, 8), min_size=1, max_size=4),
                st.booleans(),
                st.one_of(st.none(), st.integers(0, 2**32 - 1)),
            ),
        ),
        max_size=25,
    ),
)
def test_every_tier_answers_the_fresh_solve(n, cache_size, delays, ops):
    """Cover fills with random keep-pools interleaved with single-source
    queries, some with a keep-pool of their own: every answer is a fresh
    solve's float, a query solves only when neither the store nor the
    partial rows hold what it asks, and every partial row holds exactly the
    hosts last named for it by a non-empty pool, at a fresh solve's
    floats.  The underlay's
    LRU plays no part."""
    physical = _path_with_chords(n, cache_size, [d / 1024 for d in delays])
    fresh = PhysicalTopology(
        n, [(u, v) for u, v, _ in physical.edges()],
        [d for *_, d in physical.edges()],
    )
    oracle = ExactOracle(physical)
    named = {}  # host -> the last non-empty pool named for its row

    def truth(s, t):
        return fresh.delays_from(s)[t].hex()

    def partial(s, t):
        for a, b in ((s, t), (t, s)):
            pool = oracle._partial.get(a)
            if pool is not None and b in pool[0].tolist():
                return True
        return False

    for op in ops:
        if op[0] == "fill":
            pairs = [(u % n, v % n) for u, v in op[1]]
            keep, pools = _random_keep(pairs, n, op[2])
            got = oracle.delay_pairs([u for u, _ in pairs], [v for _, v in pairs], keep=keep)
            assert [d.hex() for d in got.tolist()] == [truth(u, v) for u, v in pairs]
            named.update((h, pool.tolist()) for h, pool in pools.items() if len(pool))
        else:
            _, s, targets, far, seed = op
            s, targets = s % n, [t % n for t in targets]
            if far and oracle._partial:
                # Ask from a host inside some row for that row's host, so the
                # far end's row holds the pair.
                rows = sorted(oracle._partial)
                h = rows[s % len(rows)]
                near = oracle._partial[h][0].tolist()
                s, targets = near[targets[0] % len(near)], [h] + targets[1:]
            rest = [t for t in targets if oracle.known(s, t) is None]
            held = not rest or all(partial(s, t) for t in rest)
            pool = None if seed is None else _random_pool(np.random.default_rng(seed), n)
            keep = None if pool is None else (lambda: pool)
            before = counters.copy()
            got = oracle.delays_from(s, targets, keep)
            solved = counters.delta(before)["dijkstra_sources"]
            assert [d.hex() for d in got.tolist()] == [truth(s, t) for t in targets]
            assert solved == (0 if held else 1)
            if solved and pool is not None and len(pool):
                named[s] = pool.tolist()
        assert sorted(oracle._partial) == sorted(named)
        for h, (kept, values) in oracle._partial.items():
            assert kept.tolist() == named[h]
            assert [d.hex() for d in values.tolist()] == [truth(h, t) for t in kept.tolist()]
        assert physical.cached_sources() == []

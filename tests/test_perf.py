"""Perf-counter and hot-path regression tests.

These pin the performance architecture of the delay/cost pipeline (see
``docs/PERFORMANCE.md``): batched Dijkstra solves, the per-overlay edge-cost
cache, and — the headline regression — **zero Dijkstra runs during query
propagation on a warmed static overlay**.

The ``perf_smoke`` marker selects the fast subset that keeps the batch APIs
and counters exercised in every tier-1 run (``pytest -m perf_smoke``).
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.core.ace import AceConfig, AceProtocol
from repro.experiments.dynamic_env import DynamicConfig, run_dynamic_experiment
from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.experiments.static_env import run_static_experiment
from repro.oracle.exact import ExactOracle
from repro.perf import PerfCounters, counters, get_counters, reset_counters
from repro.search import batch
from repro.search.batch import propagate_many, run_queries
from repro.search.flooding import blind_flooding_strategy, propagate
from repro.topology.overlay import small_world_overlay
from repro.topology.physical import PhysicalTopology
from repro.topology.soa import ArrayOverlay
from tests.reference import production_and_reference
from tests.reference.ace import ReferenceAce, reference_drivers
from tests.reference.overlay import Overlay


def traced_peak(call):
    """``call()`` and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(autouse=True)
def _clean_counters():
    """Each test observes its own counter deltas from zero."""
    reset_counters()
    yield
    reset_counters()


class TestPerfCounters:
    def test_global_instance_identity(self):
        assert get_counters() is counters

    def test_reset_zeroes_everything(self):
        counters.dijkstra_runs = 7
        counters.query_seconds = 1.5
        counters.reset()
        assert counters.dijkstra_runs == 0
        assert counters.query_seconds == 0.0

    def test_snapshot_includes_derived_throughput(self):
        counters.queries = 10
        counters.query_seconds = 2.0
        snap = counters.snapshot()
        assert snap["queries"] == 10
        assert snap["queries_per_second"] == pytest.approx(5.0)

    def test_queries_per_second_zero_when_idle(self):
        assert PerfCounters().queries_per_second == 0.0

    def test_delta_between_snapshots(self):
        before = counters.copy()
        counters.dijkstra_runs += 3
        counters.largest_batch = 12
        delta = counters.delta(before)
        assert delta["dijkstra_runs"] == 3
        assert delta["largest_batch"] == 12  # high-water mark, not a diff

    def test_format_is_human_readable(self):
        text = counters.format()
        assert "dijkstra" in text and "queries" in text


@pytest.mark.perf_smoke
class TestBatchingCounters:
    def test_batched_solve_counts_one_run_many_sources(self, line_physical):
        line_physical.delays_from_many([0, 1, 2, 3])
        assert counters.dijkstra_runs == 1
        assert counters.dijkstra_sources == 4
        assert counters.largest_batch == 4

    def test_warm_then_lookup_is_all_hits(self, line_physical):
        for s in range(5):
            line_physical.delays_from(s)  # each row kept in the LRU
        before = counters.copy()
        for u in range(5):
            for v in range(5):
                line_physical.delay(u, v)
        delta = counters.delta(before)
        assert delta["dijkstra_runs"] == 0
        assert delta["delay_cache_misses"] == 0
        assert delta["delay_cache_hits"] > 0

    def test_single_source_path_still_counted(self, line_physical):
        line_physical.delays_from(0)
        assert counters.dijkstra_runs == 1
        assert counters.dijkstra_sources == 1

    def test_overlay_warm_uses_batched_runs(self, ba_physical, rng):
        ov = small_world_overlay(ba_physical, 30, avg_degree=6, rng=rng)
        reset_counters()
        ov.warm_edge_costs()
        # One batched call (well under the chunk size) for all edge sources.
        assert counters.dijkstra_runs == 1
        assert counters.dijkstra_sources > 1


@pytest.mark.perf_smoke
class TestWarmedPropagationIsDijkstraFree:
    def test_propagate_runs_zero_dijkstras_on_warmed_overlay(
        self, ba_physical, rng
    ):
        ov = small_world_overlay(ba_physical, 40, avg_degree=6, rng=rng)
        ov.warm_edge_costs()
        strategy = blind_flooding_strategy(ov)
        before = counters.copy()
        for source in ov.peers()[:5]:
            prop = propagate(ov, source, strategy, ttl=None)
            assert prop.search_scope == ov.num_peers
        delta = counters.delta(before)
        assert delta["dijkstra_runs"] == 0
        assert delta["delay_cache_misses"] == 0
        assert delta["edge_cost_misses"] == 0
        assert delta["edge_cost_hits"] > 0
        assert delta["queries"] == 5
        assert delta["query_seconds"] > 0.0

    def test_warmed_ace_routing_is_dijkstra_free(self, ba_physical, rng):
        ov = small_world_overlay(ba_physical, 30, avg_degree=6, rng=rng)
        protocol = AceProtocol(ov, AceConfig(depth=1), rng=np.random.default_rng(7))
        protocol.step()
        from repro.search.tree_routing import ace_strategy

        ov.warm_edge_costs()
        before = counters.copy()
        prop = propagate(ov, ov.peers()[0], ace_strategy(protocol), ttl=None)
        delta = counters.delta(before)
        assert prop.search_scope == ov.num_peers
        assert delta["dijkstra_runs"] == 0


class TestInvalidationUnderMutation:
    def test_churn_rejoin_recomputes_not_reuses(self, grid_physical):
        # A peer leaves host 3 and rejoins on host 15; the first cost lookup
        # of the re-established edge must be a miss (stale entry evicted),
        # and the value must reflect the *new* host's underlay delay.
        ov = Overlay(grid_physical, {0: 0, 1: 3})
        ov.connect(0, 1)
        ov.warm_edge_costs()
        ov.remove_peer(1)
        ov.add_peer(1, 15)
        ov.connect(0, 1)
        before = counters.copy()
        cost = ov.cost(0, 1)
        delta = counters.delta(before)
        assert cost == pytest.approx(grid_physical.delay(0, 15))
        assert delta["edge_cost_hits"] == 0
        assert delta["edge_cost_misses"] == 1

    def test_ace_rewiring_keeps_cache_consistent(self, ba_physical, rng):
        ov = small_world_overlay(ba_physical, 30, avg_degree=6, rng=rng)
        protocol = AceProtocol(ov, AceConfig(depth=1), rng=np.random.default_rng(3))
        protocol.run(2)  # cuts and establishes connections
        ov.warm_edge_costs()
        # Every cached entry must match a live edge and its underlay delay.
        assert ov.cached_edge_costs == ov.num_edges
        for u, v in ov.edges():
            hu, hv = ov.host_of(u), ov.host_of(v)
            assert ov.cost(u, v) == pytest.approx(ba_physical.delay(hu, hv))

    def test_stale_entries_dropped_on_disconnect(self, grid_physical):
        ov = Overlay(grid_physical, {0: 0, 1: 3, 2: 12})
        ov.connect(0, 1)
        ov.connect(1, 2)
        ov.warm_edge_costs()
        assert ov.cached_edge_costs == 2
        ov.disconnect(0, 1)
        ov.disconnect(1, 2)
        assert ov.cached_edge_costs == 0


class TestExperimentDijkstraBudgets:
    """Counter-driven regression gate for the experiment drivers.

    With fixed seeds the Dijkstra workload of an experiment is exactly
    reproducible (observed: static 32 runs / 63 sources, dynamic 56 runs /
    81 sources on this scenario).  The budgets below carry ~25-35% headroom
    so legitimate small reworks fit, while a regression to per-pair scalar
    lookups — tens of *thousands* of sources at this scale — fails loudly.
    The same drivers must solve nothing beyond the landmark embedding under
    a landmark oracle, and answer every query in the batch kernel.
    """

    SCENARIO = ScenarioConfig(physical_nodes=200, peers=40, avg_degree=6, seed=5)

    def test_static_experiment_stays_within_budget(self):
        scenario = build_scenario(self.SCENARIO)
        reset_counters()
        run_static_experiment(scenario, steps=3, query_samples=8)
        assert counters.dijkstra_runs <= 40
        assert counters.dijkstra_sources <= 85

    def test_dynamic_experiment_stays_within_budget(self):
        scenario = build_scenario(self.SCENARIO)
        reset_counters()
        run_dynamic_experiment(
            scenario, DynamicConfig(total_queries=120, window=40)
        )
        assert counters.dijkstra_runs <= 75
        assert counters.dijkstra_sources <= 110

    def test_budgets_are_run_to_run_stable(self):
        # The gate only works because the counts are deterministic: two
        # identically-seeded runs must spend the identical Dijkstra workload.
        scenario = build_scenario(self.SCENARIO)
        reset_counters()
        run_static_experiment(scenario, steps=3, query_samples=8)
        first = (counters.dijkstra_runs, counters.dijkstra_sources)
        reset_counters()
        run_static_experiment(build_scenario(self.SCENARIO), steps=3,
                              query_samples=8)
        assert (counters.dijkstra_runs, counters.dijkstra_sources) == first

    def test_landmark_run_solves_only_the_embedding(self):
        # Every delay above the underlay goes through the oracle seam: a
        # landmark-oracle run's only Dijkstra solves are the embedding's.
        config = dataclasses.replace(self.SCENARIO, oracle="landmark:8")
        reset_counters()
        run_static_experiment(build_scenario(config), steps=3, query_samples=8)
        assert counters.landmark_embed_sources == 8
        assert counters.dijkstra_sources == counters.landmark_embed_sources

    @pytest.mark.parametrize("arm", ["static", "dynamic", "dynamic-no-ace"])
    def test_experiments_answer_every_query_in_the_batch_kernel(self, arm):
        scenario = build_scenario(self.SCENARIO)
        reset_counters()
        if arm == "static":
            run_static_experiment(scenario, steps=3, query_samples=8)
        else:
            run_dynamic_experiment(scenario, DynamicConfig(
                total_queries=120, window=40, enable_ace=arm == "dynamic",
            ))
        assert counters.queries > 0
        assert counters.queries - counters.batched_queries == 0


@pytest.mark.perf_smoke
class TestPerfSmoke:
    """Fast end-to-end smoke of the batch APIs + counters (tier-1)."""

    def test_batch_warm_query_cycle(self):
        phys = PhysicalTopology(
            16,
            [(i, i + 1) for i in range(15)] + [(0, 15)],
            [1.0] * 16,
            cache_size=4,
        )
        ov = Overlay(phys, {i: i for i in range(8)})
        for i in range(7):
            ov.connect(i, i + 1)
        solved = ov.warm_edge_costs()
        assert solved == ov.num_edges
        before = counters.copy()
        prop = propagate(ov, 0, blind_flooding_strategy(ov), ttl=None)
        delta = counters.delta(before)
        assert prop.search_scope == 8
        assert delta["dijkstra_runs"] == 0
        snap = counters.snapshot()
        assert snap["queries"] >= 1


@pytest.mark.perf_smoke
class TestExactOracleSolvesEachSourceOnce:
    """Count gates for the engines' call pattern under the exact oracle.

    ``warm_edge_costs`` has the oracle stream a cover of the missing host
    pairs and keep each source's three-hop probe pool out of the vector it
    already holds, and the ACE step prefetches nothing: a source is solved
    during the step only when a peer there probes a host that is in neither
    the oracle's host-pair store nor either end's partial row, and that
    solve keeps the prober's pool, not the row.  The counts repeat exactly
    per seed, so the gates need no timing and no tolerance.
    """

    def test_step_solves_only_the_probes_that_missed_both_caches(
        self, monkeypatch
    ):
        config = ScenarioConfig(
            physical_nodes=1000, peers=300, avg_degree=6, seed=5
        )
        overlay = build_scenario(config).fresh_overlay()
        protocol = AceProtocol(overlay, rng=np.random.default_rng(3))
        overlay.warm_edge_costs()
        served = ExactOracle._read_partial
        missed = []

        def spy(self, hu, hosts):
            # Reached only after the host-pair store missed.
            values = served(self, hu, hosts)
            if values is None:
                missed.append(hu)
            return values

        monkeypatch.setattr(ExactOracle, "_read_partial", spy)
        before = counters.copy()
        report = protocol.step()
        solved = counters.delta(before)["dijkstra_sources"]
        assert report.peers_optimized == 300
        assert 0 < solved <= len(missed)
        # The block prefetch this replaced solved one source per scheduled
        # peer; measured here: 111 of 300.
        assert solved < report.peers_optimized // 2

    def test_static_run_streams_once_then_faults_outside_the_pools(
        self, monkeypatch
    ):
        config = ScenarioConfig(physical_nodes=200, peers=40, avg_degree=6, seed=5)
        per_step = []

        def counting(step):
            def counted(self, peers=None):
                before = counters.copy()
                report = step(self, peers)
                per_step.append(counters.delta(before)["dijkstra_sources"])
                return report

            return counted

        for engine in (AceProtocol, ReferenceAce):
            monkeypatch.setattr(engine, "step", counting(engine.step))
        series = {}
        production, reference = production_and_reference(config)
        reset_counters()
        with reference_drivers():
            series["object"] = run_static_experiment(
                reference, steps=3, query_samples=8
            )
        reset_counters()
        series["array"] = run_static_experiment(
            production, steps=3, query_samples=8
        )
        assert series["array"] == series["object"]
        # Both engines fill the edge costs through the oracle, from 23
        # sources (a cover of the links), and hand it the same probe pools,
        # so each then solves again only the hosts whose peers probe
        # outside both ends' pools.
        assert per_step == [8, 4, 1, 8, 4, 1]
        assert counters.dijkstra_sources == 23 + 8 + 4 + 1

    def test_step_keeps_partial_rows_and_no_underlay_row(self):
        config = ScenarioConfig(
            physical_nodes=1000, peers=300, avg_degree=6, seed=5
        )
        overlay = build_scenario(config).fresh_overlay()
        protocol = AceProtocol(overlay, rng=np.random.default_rng(3))
        overlay.warm_edge_costs()
        before = counters.copy()
        protocol.step()
        assert counters.delta(before)["dijkstra_sources"] > 0
        assert overlay.physical.cached_sources() == []
        rows = overlay.oracle._partial
        hosts = {overlay.host_of(p) for p in overlay.peers()}
        assert set(rows) <= hosts
        for kept, values in rows.values():
            # One sorted run of distinct hosts per row, each with its delay.
            assert np.all(np.diff(kept.astype(np.int64)) > 0)
            assert len(values) == len(kept)


@pytest.mark.perf_smoke
class TestStepCompactsOnTheEditThreshold:
    """The ACE step re-packs the CSR when its edits force it, not per block.

    Closure extraction reads tombstones and buffered links in place, so
    inside a step only ``ArrayOverlay._maybe_compact``'s edit threshold
    (``max(64, edges // 4)`` buffered edits) and the one flush before the
    end-of-step rebuild compact.  The counts repeat exactly per seed.
    """

    def test_depth_1_step_and_rebuild(self, monkeypatch):
        config = ScenarioConfig(
            physical_nodes=4000, peers=2000, avg_degree=6, seed=5,
            oracle="landmark:8",
        )
        overlay = build_scenario(config).fresh_overlay()
        protocol = AceProtocol(overlay, rng=np.random.default_rng(3))
        compact = ArrayOverlay._compact
        forced = []

        def spy(self):
            forced.append(self._edits > max(64, self._nedges // 4))
            compact(self)

        monkeypatch.setattr(ArrayOverlay, "_compact", spy)
        protocol.step()
        # Measured here: the threshold forces four and the rebuild flushes
        # once.  Compacting per 256-peer extraction block, as the step did
        # before, made eight, none of them forced.
        assert forced == [True, True, True, True, False]
        forced.clear()
        before = counters.copy()
        protocol.rebuild_all_trees()
        assert forced == []
        assert counters.delta(before)["closure_batch_peers"] == 2000


class TestStepHoldsOneBlock:
    """An ACE step holds one block's closures at a time, not the step's."""

    def test_one_step_peaks_at_a_few_mb(self):
        config = ScenarioConfig(
            physical_nodes=5000, peers=2000, avg_degree=6, seed=61,
            oracle="landmark:16",
        )
        overlay = build_scenario(config).fresh_overlay()
        overlay.warm_edge_costs()
        protocol = AceProtocol(overlay, rng=np.random.default_rng(61))
        report, peak = traced_peak(protocol.step)
        assert report.peers_optimized == 2000
        # Measured 3.4 MB; holding every 64-peer block's closures until the
        # end-of-step rebuild, as the step once did, read 8.5 MB.
        assert peak < 5_000_000


class TestQueryKernelWorksInBlocks:
    """``run_queries`` holds a block of labels, never the ``(queries, peers)`` lot."""

    QUERIES = 192

    @pytest.fixture(scope="class")
    def world(self):
        scenario = build_scenario(
            ScenarioConfig(
                physical_nodes=4000, peers=2000, avg_degree=6, seed=3,
                oracle="landmark:8",
            )
        )
        overlay = scenario.overlay
        strategy = blind_flooding_strategy(overlay)
        peers = overlay.peers()
        # The compiled graph and its two CSR views are built once per
        # overlay epoch, not per batch: keep them out of the traced peaks.
        run_queries(overlay, strategy, [(peers[0], ())], ttl=None)
        draws = np.random.default_rng(5).integers(0, len(peers), size=self.QUERIES)
        return overlay, strategy, [peers[int(i)] for i in draws]

    @pytest.mark.parametrize("ttl", [None, 3])
    def test_run_queries_peaks_below_one_label_array(self, world, ttl):
        overlay, strategy, sources = world
        one_array = self.QUERIES * overlay.num_peers * 8
        queries = [(s, ()) for s in sources]
        stats, peak = traced_peak(
            lambda: run_queries(overlay, strategy, queries, ttl=ttl)
        )
        assert len(stats) == self.QUERIES
        # The allowance is the block's own working set: a few (rows, edges)
        # temporaries, whatever the number of queries.
        assert peak < one_array + 4 * batch._BLOCK_BYTES
        whole, whole_peak = traced_peak(
            lambda: propagate_many(overlay, sources, strategy, ttl=ttl)
        )
        for labels in (whole.dist, whole.parent, whole.hops):
            assert labels.shape == (self.QUERIES, overlay.num_peers)
        assert whole_peak > 3 * one_array
        assert [s.traffic_cost for s in stats] == whole.traffic.tolist()

    @pytest.mark.parametrize("ttl", [None, 3])
    def test_both_entry_points_count_the_same(self, world, ttl):
        overlay, strategy, sources = world
        deltas = []
        for call in (
            lambda: run_queries(overlay, strategy, [(s, ()) for s in sources], ttl=ttl),
            lambda: propagate_many(overlay, sources, strategy, ttl=ttl),
        ):
            before = counters.copy()
            call()
            deltas.append(counters.delta(before))
        for delta in deltas:
            assert delta["queries"] == delta["batched_queries"] == self.QUERIES
            assert delta["query_seconds"] > 0
            assert delta["compiled_strategies"] == 0
        assert deltas[0]["frontier_rounds"] == deltas[1]["frontier_rounds"]
        assert (deltas[0]["frontier_rounds"] > 0) == (ttl is not None)

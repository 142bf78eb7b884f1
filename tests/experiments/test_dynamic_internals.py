"""Tests for dynamic-environment internals (churn wiring, series types)."""

import numpy as np
import pytest

from repro.experiments import dynamic_env

# replint: disable=REP003 — white-box test of the churn-wiring internals
from repro.experiments.dynamic_env import (
    DynamicConfig,
    DynamicSeries,
    _build_churn,
    run_dynamic_experiment,
)
from repro.experiments.setup import ScenarioConfig, build_scenario


@pytest.fixture
def scenario():
    return build_scenario(
        ScenarioConfig(physical_nodes=250, peers=30, avg_degree=6, seed=8)
    )


class TestBuildChurn:
    def test_offline_pool_sized_by_fraction(self, scenario):
        config = DynamicConfig(total_queries=10, window=5, offline_fraction=0.5)
        churn = _build_churn(scenario, config, np.random.default_rng(0))
        assert churn.offline_count == 15
        assert churn.online_count == 30

    def test_offline_hosts_disjoint_from_online(self, scenario):
        config = DynamicConfig(total_queries=10, window=5)
        churn = _build_churn(scenario, config, np.random.default_rng(0))
        online_hosts = {
            scenario.overlay.host_of(p) for p in scenario.overlay.peers()
        }
        offline_hosts = {
            rec.host
            for pid, rec in churn.records.items()
            if not scenario.overlay.has_peer(pid)
        }
        assert not online_hosts & offline_hosts

    def test_offline_ids_fresh(self, scenario):
        config = DynamicConfig(total_queries=10, window=5)
        churn = _build_churn(scenario, config, np.random.default_rng(0))
        online = set(scenario.overlay.peers())
        offline = set(churn.records) - online
        assert offline
        assert min(offline) > max(online)


class TestDynamicSeries:
    def test_mean_helpers(self):
        s = DynamicSeries(window=10)
        s.traffic_points = [10.0, 20.0]
        s.response_points = [1.0, 3.0]
        assert s.mean_traffic == pytest.approx(15.0)
        assert s.mean_response == pytest.approx(2.0)

    def test_empty_means(self):
        s = DynamicSeries(window=10)
        assert s.mean_traffic == 0.0
        assert s.mean_response == 0.0


class TestPopulationInvariant:
    def test_population_constant_through_run(self, scenario):
        before = scenario.overlay.num_peers
        run_dynamic_experiment(
            scenario, DynamicConfig(total_queries=150, window=50)
        )
        assert scenario.overlay.num_peers == before

    def test_overlay_stays_connected_enough(self, scenario):
        run_dynamic_experiment(
            scenario, DynamicConfig(total_queries=150, window=50)
        )
        overlay = scenario.overlay
        if overlay.is_connected():
            return
        # The giant component holds (almost) everyone; stragglers are
        # repaired at the next bootstrap tick.
        seen, giant = set(), 0
        for peer in overlay.peers():
            if peer not in seen:
                component = overlay.component_of(peer)
                seen |= component
                giant = max(giant, len(component))
        assert giant >= 0.9 * overlay.num_peers

    def test_ttl_limited_run(self, scenario):
        series = run_dynamic_experiment(
            scenario,
            DynamicConfig(total_queries=100, window=50, ttl=3),
        )
        # TTL caps the scope below full coverage on a 30-peer overlay only
        # if the overlay is deep enough; the scope must never exceed n.
        assert all(p <= 30 for p in series.scope_points)

    def test_cache_arm_runs(self, scenario):
        series = run_dynamic_experiment(
            scenario,
            DynamicConfig(
                total_queries=100, window=50, enable_cache=True,
                cache_capacity=10,
            ),
        )
        assert series.total_queries == 100


class TestDeferredQueries:
    """Queries between two mutations are answered together, on their own graph."""

    #: ``float.hex`` of each arm's series, recorded when every query was
    #: answered by its own kernel call the moment it was issued, and
    #: re-recorded once when link delays moved onto the 2**-10 grid.
    PINNED = {
        False: {
            "traffic_points": [
                "0x1.227f844444444p+16", "0x1.45fb334222222p+16",
                "0x1.05b4dc5333333p+16", "0x1.e520924000000p+15",
                "0x1.d19129a666666p+15",
            ],
            "response_points": [
                "0x1.c46f9dddddddep+11", "0x1.696fb5ddddddep+11",
                "0x1.bb7754ccccccdp+11", "0x1.c700e9999999ap+11",
                "0x1.c5e5291111111p+11",
            ],
            "success_points": ["0x1.0000000000000p+0"] * 5,
            "scope_points": [
                "0x1.6dddddddddddep+4", "0x1.9088888888889p+4",
                "0x1.6aaaaaaaaaaabp+4", "0x1.6888888888889p+4",
                "0x1.6111111111111p+4",
            ],
            "total_overhead": "0x0.0p+0",
            "duration": "0x1.ce5a406066f1ep+9",
        },
        True: {
            "traffic_points": [
                "0x1.b1a67cca2d0e5p+17", "0x1.291ca3a733334p+18",
                "0x1.1ac2b64ee978ep+17", "0x1.6d27ff82015d9p+17",
                "0x1.e92c1bebbbbbbp+17",
            ],
            "response_points": [
                "0x1.59d874ccccccdp+11", "0x1.57c69dddddddep+11",
                "0x1.7d8ee3bbbbbbcp+11", "0x1.71c45bbbbbbbcp+11",
                "0x1.242d433333333p+11",
            ],
            "success_points": [
                "0x1.ddddddddddddep-1", "0x1.ccccccccccccdp-1",
                "0x1.999999999999ap-1", "0x1.8888888888889p-1",
                "0x1.ddddddddddddep-1",
            ],
            "scope_points": [
                "0x1.abbbbbbbbbbbcp+3", "0x1.699999999999ap+3",
                "0x1.7111111111111p+3", "0x1.7444444444444p+3",
                "0x1.5888888888889p+3",
            ],
            "total_overhead": "0x1.de2d4692f999bp+24",
            "duration": "0x1.f3231ca238725p+9",
        },
    }

    @pytest.mark.parametrize("enable_ace", [False, True], ids=["gnutella", "ace"])
    def test_each_query_is_answered_on_the_graph_it_was_issued_on(
        self, scenario, enable_ace, monkeypatch
    ):
        overlay = scenario.overlay
        protocols = []

        class RecordedAce(dynamic_env.AceProtocol):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                protocols.append(self)

        def graph_key():
            version = protocols[0].state_version if protocols else None
            return (overlay.epoch, version)

        issued, answered, calls = [], [], []
        next_query = dynamic_env.QueryWorkload.next_query
        run_queries = dynamic_env.run_queries

        def issue(workload, *args, **kwargs):
            issued.append(graph_key())
            return next_query(workload, *args, **kwargs)

        def answer(overlay, strategy, queries, ttl):
            queries = list(queries)
            calls.append(len(queries))
            answered.extend([graph_key()] * len(queries))
            return run_queries(overlay, strategy, queries, ttl=ttl)

        monkeypatch.setattr(dynamic_env, "AceProtocol", RecordedAce)
        monkeypatch.setattr(dynamic_env.QueryWorkload, "next_query", issue)
        monkeypatch.setattr(dynamic_env, "run_queries", answer)
        series = run_dynamic_experiment(
            scenario,
            DynamicConfig(total_queries=150, window=30, enable_ace=enable_ace, ttl=2),
        )

        assert len(protocols) == int(enable_ace)
        assert series.total_queries == len(issued) == 150
        assert answered == issued
        assert sum(calls) == 150 and len(calls) < 150
        got = {
            name: [float.hex(x) for x in getattr(series, name)]
            for name in ("traffic_points", "response_points", "success_points", "scope_points")
        }
        got["total_overhead"] = float.hex(series.total_overhead)
        got["duration"] = float.hex(series.duration)
        assert got == self.PINNED[enable_ace]

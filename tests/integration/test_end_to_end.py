"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

import repro
from repro import (
    AceConfig,
    AceProtocol,
    ObjectCatalog,
    WorkloadConfig,
    ace_strategy,
    barabasi_albert,
    blind_flooding_strategy,
    run_queries,
    small_world_overlay,
)
from repro.search.batch import propagate_many
from repro.sim.churn import ChurnModel


class TestQuickstartFlow:
    """The README quickstart must work exactly as documented."""

    def test_quickstart(self):
        rng = np.random.default_rng(7)
        physical = barabasi_albert(400, m=2, rng=rng)
        overlay = small_world_overlay(physical, 64, avg_degree=6, rng=rng)

        query = [(0, ())]
        (before,) = run_queries(overlay, blind_flooding_strategy(overlay), query, ttl=None)
        protocol = AceProtocol(overlay, AceConfig(depth=1), rng=rng)
        protocol.run(10)
        (after,) = run_queries(overlay, ace_strategy(protocol), query, ttl=None)

        assert after.search_scope == before.search_scope
        assert after.traffic_cost < before.traffic_cost

    def test_public_api_surface(self):
        """Everything advertised in __all__ resolves."""
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestFullPipeline:
    def test_search_quality_improves_under_ace(self):
        rng = np.random.default_rng(11)
        physical = barabasi_albert(500, m=2, rng=rng)
        overlay = small_world_overlay(physical, 80, avg_degree=8, rng=rng)
        catalog = ObjectCatalog(
            overlay.peers(),
            WorkloadConfig(num_objects=60, replicas_per_object=6),
            rng,
        )
        sources = overlay.peers()[:10]

        def measure(strategy):
            traffic, responses = 0.0, []
            queries = [
                (src, catalog.holders_of(i % catalog.num_objects))
                for i, src in enumerate(sources)
            ]
            for result in run_queries(overlay, strategy, queries, ttl=None):
                traffic += result.traffic_cost
                if result.first_response_time:
                    responses.append(result.first_response_time)
            return traffic, sum(responses) / len(responses)

        blind_traffic, blind_response = measure(blind_flooding_strategy(overlay))
        protocol = AceProtocol(overlay, rng=np.random.default_rng(11))
        protocol.run(8)
        ace_traffic, ace_response = measure(ace_strategy(protocol))

        assert ace_traffic < 0.7 * blind_traffic
        assert ace_response < blind_response

    def test_churn_with_protocol_round_trip(self, ba_physical):
        """Churn + ACE interleaved keeps the system consistent."""
        rng = np.random.default_rng(13)
        overlay = small_world_overlay(ba_physical, 30, avg_degree=6, rng=rng)
        used = {overlay.host_of(p) for p in overlay.peers()}
        pool = [
            h for h in ba_physical.largest_component_nodes() if h not in used
        ]
        churn = ChurnModel(overlay, {100 + i: pool[i] for i in range(10)}, rng)
        churn.start_initial_sessions(0.0)
        protocol = AceProtocol(overlay, rng=rng)

        for round_idx in range(6):
            protocol.step()
            victim = overlay.peers()[int(rng.integers(overlay.num_peers))]
            churn.depart(victim, now=float(round_idx))
            churn.repair_isolated()

        assert overlay.num_peers == 30
        assert overlay.is_connected()
        # Query from any peer still reaches everyone.
        src = overlay.peers()[0]
        reached = propagate_many(
            overlay, [src], ace_strategy(protocol), ttl=None
        ).result(0).reached
        assert reached == set(overlay.peers())

    def test_ace_query_on_trace_snapshot(self, ba_physical):
        """The Clip2-style snapshot flows through the same pipeline."""
        from repro.topology.overlay import synthesize_gnutella_snapshot

        rng = np.random.default_rng(17)
        overlay = synthesize_gnutella_snapshot(ba_physical, n_peers=60, rng=rng)
        protocol = AceProtocol(overlay, rng=rng)
        protocol.run(3)
        peers = overlay.peers()
        (result,) = run_queries(
            overlay, ace_strategy(protocol), [(peers[0], peers[-5:])], ttl=None
        )
        assert result.success
        assert result.search_scope == 60

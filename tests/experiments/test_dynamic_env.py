"""Tests for the dynamic-environment experiment (Figures 9-10)."""

import pytest

from repro.experiments.dynamic_env import DynamicConfig, run_dynamic_experiment
from repro.experiments.setup import ScenarioConfig, build_scenario

SMALL = ScenarioConfig(physical_nodes=250, peers=40, avg_degree=6, seed=4)


def run(
    enable_ace,
    enable_cache=False,
    total=300,
    window=100,
    seed=4,
    peers=40,
    avg_degree=6,
):
    sc = build_scenario(
        ScenarioConfig(
            physical_nodes=600, peers=peers, avg_degree=avg_degree, seed=seed
        )
    )
    cfg = DynamicConfig(
        total_queries=total,
        window=window,
        enable_ace=enable_ace,
        enable_cache=enable_cache,
    )
    return run_dynamic_experiment(sc, cfg)


class TestConfigValidation:
    def test_rejects_zero_queries(self):
        with pytest.raises(ValueError):
            DynamicConfig(total_queries=0)

    def test_rejects_window_larger_than_total(self):
        with pytest.raises(ValueError):
            DynamicConfig(total_queries=10, window=20)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            DynamicConfig(optimization_interval=0.0)

    def test_rejects_negative_ttl(self):
        with pytest.raises(ValueError, match="ttl"):
            DynamicConfig(ttl=-1)
        assert DynamicConfig(ttl=0).ttl == 0


class TestRunShape:
    def test_window_points(self):
        series = run(enable_ace=False)
        assert series.total_queries == 300
        assert len(series.traffic_points) == 3
        assert series.duration > 0

    def test_churn_happened(self):
        series = run(enable_ace=False)
        assert series.departures > 0

    def test_gnutella_arm_has_no_overhead(self):
        series = run(enable_ace=False)
        assert series.total_overhead == 0.0

    def test_ace_arm_accumulates_overhead(self):
        series = run(enable_ace=True)
        assert series.total_overhead > 0.0

    def test_success_rate_high(self):
        series = run(enable_ace=True)
        assert all(p > 0.85 for p in series.success_points)


class TestPaperClaims:
    """Figure 9/10 claims.

    Protocol overhead is per-peer while query traffic grows with the
    population, so ACE's advantage (overhead included) needs a reasonably
    sized network — the paper uses 8000 peers; 120 suffices for the sign of
    the effect.
    """

    @pytest.fixture(scope="class")
    def arms(self):
        kwargs = dict(total=400, window=100, peers=120, avg_degree=8)
        return {
            "gnutella": run(enable_ace=False, **kwargs),
            "ace": run(enable_ace=True, **kwargs),
            "cached": run(enable_ace=True, enable_cache=True, **kwargs),
        }

    def test_ace_cheaper_than_gnutella_like(self, arms):
        """Figure 9: ACE (overhead included) beats blind flooding."""
        g = sum(arms["gnutella"].traffic_points[2:]) / 2
        a = sum(arms["ace"].traffic_points[2:]) / 2
        assert a < g

    def test_ace_response_time_not_worse(self, arms):
        """Figure 10: response times improve under ACE."""
        assert (
            arms["ace"].response_points[-1]
            < arms["gnutella"].response_points[-1] * 1.1
        )

    def test_cache_reduces_traffic_further(self, arms):
        """Section 5.2: ACE + index cache beats plain ACE."""
        assert arms["cached"].mean_traffic <= arms["ace"].mean_traffic

"""Tests for the static-environment experiment (Figures 7-8)."""

import pytest

from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.experiments.static_env import run_static_experiment


@pytest.fixture(scope="module")
def series():
    sc = build_scenario(
        ScenarioConfig(physical_nodes=300, peers=48, avg_degree=8, seed=2)
    )
    return run_static_experiment(sc, steps=5, query_samples=12)


class TestSeriesShape:
    def test_one_point_per_step_plus_baseline(self, series):
        assert series.steps == [0, 1, 2, 3, 4, 5]
        assert len(series.traffic_per_query) == 6
        assert len(series.response_time) == 6
        assert len(series.search_scope) == 6

    def test_baseline_has_no_overhead(self, series):
        assert series.step_overhead[0] == 0.0
        assert all(o > 0 for o in series.step_overhead[1:])


class TestPaperClaims:
    def test_traffic_reduced(self, series):
        assert series.traffic_per_query[-1] < series.traffic_per_query[0]
        assert series.traffic_reduction_percent > 10.0

    def test_response_time_reduced(self, series):
        assert series.response_time[-1] < series.response_time[0]
        assert series.response_reduction_percent > 0.0

    def test_search_scope_retained(self, series):
        # "while retaining the same search scope": full coverage throughout.
        assert all(s == series.search_scope[0] for s in series.search_scope)

    def test_reductions_computed_from_endpoints(self, series):
        first, last = series.traffic_per_query[0], series.traffic_per_query[-1]
        expected = 100.0 * (first - last) / first
        assert series.traffic_reduction_percent == pytest.approx(expected)

    def test_static_reductions_positive_on_average(self):
        # Figures 7-8 across seeds: both reductions positive in the mean,
        # traffic reduction substantial, robust to seed noise.
        runs = [
            run_static_experiment(build_scenario(ScenarioConfig(
                physical_nodes=300, peers=48, avg_degree=8, seed=seed
            )), steps=4, query_samples=10)
            for seed in (1, 2, 3, 4)
        ]
        traffic = [s.traffic_reduction_percent for s in runs]
        response = [s.response_reduction_percent for s in runs]
        assert sum(traffic) / len(traffic) > 20.0
        assert sum(response) / len(response) > 0.0
        assert min(traffic) > 0.0


class TestDeterminism:
    def test_same_seed_same_series(self):
        cfg = ScenarioConfig(physical_nodes=200, peers=32, avg_degree=6, seed=11)
        a = run_static_experiment(build_scenario(cfg), steps=2, query_samples=6)
        b = run_static_experiment(build_scenario(cfg), steps=2, query_samples=6)
        assert a.traffic_per_query == b.traffic_per_query
        assert a.response_time == b.response_time

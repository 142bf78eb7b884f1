"""Unit tests for topology property analysis."""

import math

import numpy as np
import pytest

from repro.topology.generators import barabasi_albert, grid, watts_strogatz
from repro.topology.properties import (
    TopologyReport,
    analyze,
    characteristic_path_length,
    clustering_coefficient,
    degree_histogram,
    power_law_exponent,
    small_world_sigma,
)
from tests.reference.overlay import Overlay


def overlay_from_edges(physical, edges, n):
    ov = Overlay(physical, {i: i for i in range(n)})
    for u, v in edges:
        ov.connect(u, v)
    return ov


class TestDegreeHistogram:
    def test_grid(self):
        hist = degree_histogram(grid(3, 3))
        assert hist == {2: 4, 3: 4, 4: 1}

    def test_overlay_counts(self, grid_physical):
        ov = overlay_from_edges(grid_physical, [(0, 1), (1, 2)], 3)
        assert degree_histogram(ov) == {1: 2, 2: 1}


class TestPowerLawExponent:
    def test_known_sequence(self):
        # alpha = 1 + n / sum(ln(d / (dmin - 0.5))) with dmin = 1.
        degrees = [1, 2, 4, 8]
        expected = 1 + 4 / sum(math.log(d / 0.5) for d in degrees)
        assert power_law_exponent(degrees, d_min=1) == pytest.approx(expected)

    def test_respects_dmin(self):
        degrees = [1, 1, 1, 4, 8]
        alpha = power_law_exponent(degrees, d_min=4)
        expected = 1 + 2 / (math.log(4 / 3.5) + math.log(8 / 3.5))
        assert alpha == pytest.approx(expected)

    def test_too_few_samples_nan(self):
        assert math.isnan(power_law_exponent([5]))

    def test_degenerate_sequence_nan(self):
        assert math.isnan(power_law_exponent([], d_min=1))

    def test_ba_exponent_in_plausible_range(self):
        topo = barabasi_albert(400, m=2, rng=np.random.default_rng(0))
        alpha = power_law_exponent(topo.degrees(), d_min=2)
        assert 1.5 < alpha < 4.0


class TestClustering:
    def test_triangle_is_one(self, grid_physical):
        ov = overlay_from_edges(grid_physical, [(0, 1), (1, 2), (0, 2)], 3)
        assert clustering_coefficient(ov) == pytest.approx(1.0)

    def test_star_is_zero(self, grid_physical):
        ov = overlay_from_edges(grid_physical, [(0, 1), (0, 2), (0, 3)], 4)
        assert clustering_coefficient(ov) == 0.0

    def test_grid_is_zero(self):
        assert clustering_coefficient(grid(3, 3)) == 0.0

    def test_triangle_plus_pendant(self, grid_physical):
        ov = overlay_from_edges(
            grid_physical, [(0, 1), (1, 2), (0, 2), (2, 3)], 4
        )
        # Nodes 0, 1 have coefficient 1; node 2 has 1/3; node 3 has 0.
        assert clustering_coefficient(ov) == pytest.approx((1 + 1 + 1 / 3 + 0) / 4)


class TestPathLength:
    def test_path_graph_exact(self, grid_physical):
        ov = overlay_from_edges(grid_physical, [(0, 1), (1, 2)], 3)
        # Pairs: (0,1)=1 (0,2)=2 (1,2)=1 in both directions -> mean 4/3.
        assert characteristic_path_length(ov, samples=3) == pytest.approx(4 / 3)

    def test_complete_graph_is_one(self, grid_physical):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        ov = overlay_from_edges(grid_physical, edges, 4)
        assert characteristic_path_length(ov, samples=4) == pytest.approx(1.0)

    def test_sampling_close_to_exact(self):
        topo = barabasi_albert(150, m=2, rng=np.random.default_rng(2))
        exact = characteristic_path_length(topo, samples=150)
        sampled = characteristic_path_length(
            topo, samples=40, rng=np.random.default_rng(0)
        )
        assert sampled == pytest.approx(exact, rel=0.15)

    def test_single_node(self, grid_physical):
        ov = Overlay(grid_physical, {0: 0})
        assert characteristic_path_length(ov) == 0.0


class TestSmallWorldSigma:
    def test_small_world_beats_lattice(self):
        rng = np.random.default_rng(3)
        sw = watts_strogatz(120, k=6, rewire_p=0.1, rng=rng)
        sigma = small_world_sigma(sw, samples=60)
        assert sigma > 1.5

    def test_tiny_graph_nan(self, grid_physical):
        ov = overlay_from_edges(grid_physical, [(0, 1)], 2)
        assert math.isnan(small_world_sigma(ov))


class TestAnalyze:
    def test_report_fields(self):
        topo = grid(3, 3)
        report = analyze(topo, samples=9)
        assert report.num_nodes == 9
        assert report.num_edges == 12
        assert report.average_degree == pytest.approx(24 / 9)
        assert report.max_degree == 4
        assert report.clustering == 0.0

    def test_summary_renders(self):
        report = analyze(grid(3, 3), samples=9)
        text = report.summary()
        assert "n=9" in text and "alpha=" in text

    def test_generated_topology_is_power_law_and_small_world(self):
        """The Section 4.1 validation claim on our default underlay."""
        from repro.topology.overlay import small_world_overlay

        phys = barabasi_albert(300, m=2, rng=np.random.default_rng(1))
        ov = small_world_overlay(phys, 150, avg_degree=6, rng=np.random.default_rng(1))
        report = analyze(ov, samples=80)
        assert 1.5 < report.power_law_alpha < 4.0
        assert report.clustering > 0.1
        assert report.small_world_sigma > 1.5

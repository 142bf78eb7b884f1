"""Unit tests for neighbor cost tables and Phase-1 overhead accounting."""

import pytest

from repro.core.closure import neighbor_closure
from repro.core.cost_table import (
    NeighborCostTable,
    build_cost_table,
    exchange_overhead,
    probe_overhead,
    run_phase1,
)


@pytest.fixture
def overlay(make_overlay_from_weighted_edges):
    """Triangle 0-1-2 with a tail 2-3-4."""
    return make_overlay_from_weighted_edges(
        [(0, 1, 5.0), (1, 2, 6.0), (0, 2, 4.0), (2, 3, 7.0), (3, 4, 8.0)]
    )


class TestBuildCostTable:
    def test_entries_match_neighbors(self, overlay):
        table = build_cost_table(overlay, 2)
        assert set(table.costs) == {0, 1, 3}
        assert table.owner == 2
        assert table.size == 3

    def test_costs_are_link_costs(self, overlay):
        table = build_cost_table(overlay, 0)
        assert table.cost_to(1) == pytest.approx(5.0)
        assert table.cost_to(2) == pytest.approx(4.0)

    def test_missing_neighbor_raises(self, overlay):
        table = build_cost_table(overlay, 0)
        with pytest.raises(KeyError):
            table.cost_to(4)

    def test_isolated_peer_empty_table(self, grid_physical):
        from repro.topology.overlay import Overlay

        ov = Overlay(grid_physical, {0: 0})
        table = build_cost_table(ov, 0)
        assert table.size == 0


class TestProbeOverhead:
    def test_round_trip_charging(self):
        table = NeighborCostTable(owner=0, costs={1: 5.0, 2: 4.0})
        assert probe_overhead(table) == pytest.approx(2 * 9.0)
        assert probe_overhead(table, round_trip_factor=3.0) == pytest.approx(27.0)

    def test_empty_table_zero(self):
        assert probe_overhead(NeighborCostTable(owner=0, costs={})) == 0.0


class TestExchangeOverhead:
    def test_depth_one_formula(self, overlay):
        closure = neighbor_closure(overlay, 0, 1)
        tables = {m: build_cost_table(overlay, m) for m in closure.members}
        # One aggregated message per incident link, sized by closure edges.
        entries = closure.num_edges()
        expected = (1.0 + 0.02 * entries) * (5.0 + 4.0)
        assert exchange_overhead(closure, tables) == pytest.approx(expected)

    def test_grows_with_depth(self, overlay):
        t = {m: build_cost_table(overlay, m) for m in overlay.peers()}
        shallow = exchange_overhead(neighbor_closure(overlay, 0, 1), t)
        deep = exchange_overhead(neighbor_closure(overlay, 0, 3), t)
        assert deep > shallow

    def test_entry_factor_scales(self, overlay):
        closure = neighbor_closure(overlay, 0, 2)
        tables = {m: build_cost_table(overlay, m) for m in closure.members}
        cheap = exchange_overhead(closure, tables, entry_cost_factor=0.01)
        costly = exchange_overhead(closure, tables, entry_cost_factor=1.0)
        assert costly > cheap

    def test_isolated_source_zero(self, grid_physical):
        from repro.topology.overlay import Overlay

        ov = Overlay(grid_physical, {0: 0})
        closure = neighbor_closure(ov, 0, 1)
        assert exchange_overhead(closure, {}) == 0.0


class TestRunPhase1:
    def test_tables_for_all_members(self, overlay):
        closure = neighbor_closure(overlay, 0, 2)
        report = run_phase1(overlay, closure)
        assert set(report.tables) == closure.members

    def test_overhead_components(self, overlay):
        closure = neighbor_closure(overlay, 0, 1)
        report = run_phase1(overlay, closure)
        assert report.probe_cost == pytest.approx(2 * 9.0)
        assert report.exchange_cost > 0
        assert report.total_overhead == pytest.approx(
            report.probe_cost + report.exchange_cost
        )

    def test_source_recorded(self, overlay):
        closure = neighbor_closure(overlay, 2, 1)
        assert run_phase1(overlay, closure).source == 2

    def test_deeper_closure_more_overhead(self, overlay):
        shallow = run_phase1(overlay, neighbor_closure(overlay, 0, 1))
        deep = run_phase1(overlay, neighbor_closure(overlay, 0, 3))
        assert deep.total_overhead > shallow.total_overhead

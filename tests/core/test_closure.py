"""Unit tests for the reference h-neighbor closures."""

import pytest

from tests.reference.closure import neighbor_closure


@pytest.fixture
def chain_overlay(make_overlay_from_weighted_edges):
    """0-1-2-3-4 logical chain (each link delay 10)."""
    return make_overlay_from_weighted_edges(
        [(0, 1, 10.0), (1, 2, 10.0), (2, 3, 10.0), (3, 4, 10.0)]
    )


@pytest.fixture
def clustered_overlay(make_overlay_from_weighted_edges):
    """Triangle 0-1-2 plus pendant 3 on 2, pendant 4 on 3."""
    return make_overlay_from_weighted_edges(
        [(0, 1, 5.0), (1, 2, 6.0), (0, 2, 4.0), (2, 3, 7.0), (3, 4, 8.0)]
    )


class TestMembership:
    def test_depth_one_members(self, chain_overlay):
        c = neighbor_closure(chain_overlay, 2, 1)
        assert c.members == {1, 2, 3}

    def test_depth_two_members(self, chain_overlay):
        c = neighbor_closure(chain_overlay, 2, 2)
        assert c.members == {0, 1, 2, 3, 4}

    def test_depth_covers_whole_overlay(self, chain_overlay):
        c = neighbor_closure(chain_overlay, 0, 10)
        assert c.members == {0, 1, 2, 3, 4}

    def test_hop_distances(self, chain_overlay):
        c = neighbor_closure(chain_overlay, 0, 3)
        assert c.hop_distance == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_frontier(self, chain_overlay):
        c = neighbor_closure(chain_overlay, 0, 2)
        assert c.frontier() == {2}

    def test_size(self, clustered_overlay):
        assert neighbor_closure(clustered_overlay, 0, 1).size == 3


class TestInducedEdges:
    def test_depth_one_includes_neighbor_links(self, clustered_overlay):
        c = neighbor_closure(clustered_overlay, 0, 1)
        # The triangle edges are all inside the 1-closure of 0.
        assert c.edges[1][2] == pytest.approx(6.0)
        assert c.edges[0][1] == pytest.approx(5.0)
        assert c.edges[0][2] == pytest.approx(4.0)

    def test_excludes_outside_edges(self, clustered_overlay):
        c = neighbor_closure(clustered_overlay, 0, 1)
        assert 3 not in c.members
        assert 3 not in c.edges[2]

    def test_edge_symmetry(self, clustered_overlay):
        c = neighbor_closure(clustered_overlay, 0, 2)
        for u, nbrs in c.edges.items():
            for v, cost in nbrs.items():
                assert c.edges[v][u] == cost

    def test_num_edges(self, clustered_overlay):
        assert neighbor_closure(clustered_overlay, 0, 1).num_edges() == 3
        assert neighbor_closure(clustered_overlay, 0, 2).num_edges() == 4

    def test_costs_are_underlay_shortest_paths(self, make_overlay_from_weighted_edges):
        # Long drawn link 0-2 (20) undercut by 0-1-2 (5 + 5).
        ov = make_overlay_from_weighted_edges(
            [(0, 1, 5.0), (1, 2, 5.0), (0, 2, 20.0)]
        )
        c = neighbor_closure(ov, 0, 1)
        assert c.edges[0][2] == pytest.approx(10.0)


class TestValidation:
    def test_depth_zero_raises(self, chain_overlay):
        with pytest.raises(ValueError, match="depth"):
            neighbor_closure(chain_overlay, 0, 0)

    def test_unknown_peer_raises(self, chain_overlay):
        with pytest.raises(KeyError):
            neighbor_closure(chain_overlay, 99, 1)

    def test_isolated_peer_closure(self, grid_physical):
        from tests.reference.overlay import Overlay

        ov = Overlay(grid_physical, {0: 0})
        c = neighbor_closure(ov, 0, 1)
        assert c.members == {0}
        assert c.num_edges() == 0


class TestSnapshotSemantics:
    def test_closure_not_live(self, chain_overlay):
        c = neighbor_closure(chain_overlay, 2, 1)
        chain_overlay.disconnect(2, 3)
        # The snapshot still remembers the old link.
        assert 3 in c.members
        assert 3 in c.edges[2]

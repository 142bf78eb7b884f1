"""Prim spanning trees (ACE Phase 2): the reference against a definition.

The reference heap Prim (``tests.reference.spanning_tree``) is checked on
hand cases and against scipy's ``minimum_spanning_tree``, which shares no
code with the repo; production's root-only Prim
(:func:`repro.core.turn.prim_flooding`) against the reference on ties.
"""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.core.turn import prim_flooding
from tests.reference.spanning_tree import prim_mst_heap


def graph_from_edges(edges):
    """Symmetric adjacency {u: {v: cost}} from (u, v, cost) triples."""
    nodes = set()
    for u, v, _ in edges:
        nodes.add(u)
        nodes.add(v)
    g = {n: {} for n in nodes}
    for u, v, c in edges:
        g[u][v] = c
        g[v][u] = c
    return g


def edges_of(tree):
    """Tree edges as ``(min, max)`` pairs."""
    return {
        (min(child, par), max(child, par))
        for child, par in tree.parent.items()
        if child != par
    }


def scipy_mst_weight(graph):
    """Total weight of scipy's minimum spanning tree of *graph*."""
    index = {node: i for i, node in enumerate(sorted(graph))}
    rows, cols, data = [], [], []
    for u, nbrs in graph.items():
        for v, c in nbrs.items():
            rows.append(index[u])
            cols.append(index[v])
            data.append(c)
    matrix = csr_matrix((data, (rows, cols)), shape=(len(index), len(index)))
    return float(minimum_spanning_tree(matrix).sum())


SIMPLE = graph_from_edges(
    [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.0), (2, 3, 1.0), (1, 3, 4.0)]
)


@pytest.mark.parametrize("algo", [prim_mst_heap], ids=["heap"])
class TestPrimVariants:
    def test_spans_all_nodes(self, algo):
        tree = algo(SIMPLE, 0)
        assert set(tree.adjacency) == {0, 1, 2, 3}

    def test_minimum_weight(self, algo):
        tree = algo(SIMPLE, 0)
        # MST: 0-1 (1), 1-2 (2), 2-3 (1) = 4.
        assert tree.total_cost == pytest.approx(4.0)
        assert edges_of(tree) == {(0, 1), (1, 2), (2, 3)}

    def test_root_is_own_parent(self, algo):
        tree = algo(SIMPLE, 2)
        assert tree.parent[2] == 2
        assert tree.root == 2

    def test_same_mst_any_root(self, algo):
        costs = {algo(SIMPLE, r).total_cost for r in SIMPLE}
        assert costs == {4.0}

    def test_single_node(self, algo):
        tree = algo({7: {}}, 7)
        assert set(tree.adjacency) == {7}
        assert tree.total_cost == 0.0
        assert tree.tree_neighbors(7) == frozenset()

    def test_two_nodes(self, algo):
        tree = algo(graph_from_edges([(0, 1, 3.0)]), 0)
        assert edges_of(tree) == {(0, 1)}
        assert tree.total_cost == 3.0

    def test_disconnected_raises(self, algo):
        g = graph_from_edges([(0, 1, 1.0)])
        g[2] = {}
        with pytest.raises(ValueError, match="not connected"):
            algo(g, 0)

    def test_missing_root_raises(self, algo):
        with pytest.raises(ValueError, match="root"):
            algo(SIMPLE, 99)

    def test_negative_cost_raises(self, algo):
        with pytest.raises(ValueError, match="negative"):
            algo(graph_from_edges([(0, 1, -1.0)]), 0)

    def test_dangling_edge_raises(self, algo):
        g = {0: {1: 1.0}}
        with pytest.raises(ValueError, match="leaves"):
            algo(g, 0)

    def test_matches_networkx_weight(self, algo):
        import networkx as nx

        rng = np.random.default_rng(7)
        g_nx = nx.gnm_random_graph(15, 40, seed=3)
        # Ensure connectivity.
        nodes = list(g_nx.nodes())
        for a, b in zip(nodes, nodes[1:]):
            g_nx.add_edge(a, b)
        for u, v in g_nx.edges():
            g_nx[u][v]["weight"] = float(rng.uniform(1, 100))
        g = graph_from_edges(
            [(u, v, g_nx[u][v]["weight"]) for u, v in g_nx.edges()]
        )
        expected = sum(
            d["weight"] for _u, _v, d in nx.minimum_spanning_edges(g_nx, data=True)
        )
        assert algo(g, 0).total_cost == pytest.approx(expected)


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(6))
    def test_total_cost_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        edges = []
        for i in range(1, n):
            edges.append((i, int(rng.integers(i)), float(rng.uniform(1, 50))))
        for _ in range(20):
            u, v = rng.integers(n, size=2)
            if u != v:
                edges.append((int(u), int(v), float(rng.uniform(1, 50))))
        g = graph_from_edges(edges)
        expected = scipy_mst_weight(g)
        for root in (0, n - 1):
            assert prim_mst_heap(g, root).total_cost == pytest.approx(expected)


class TestTieBreaks:
    """Equal costs break on ``(cost, node, parent)``, in both Prims."""

    # A unit-cost square 0-1-2-3 with both diagonals at cost 1 too.
    SQUARE = graph_from_edges(
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0), (0, 2, 1.0), (1, 3, 1.0)]
    )

    def test_reference_takes_the_lowest_node_then_parent(self):
        # From 0 every edge ties: pop (1, 1, 0), (1, 2, 0), (1, 3, 0).
        tree = prim_mst_heap(self.SQUARE, 0)
        assert tree.parent == {0: 0, 1: 0, 2: 0, 3: 0}
        # From 3: (1, 0, 3) first, then node 1 ties on parents 0 and 3.
        tree = prim_mst_heap(self.SQUARE, 3)
        assert tree.parent == {3: 3, 0: 3, 1: 0, 2: 0}

    @pytest.mark.parametrize("root", range(4))
    def test_production_keeps_the_references_root_neighbors(self, root):
        nodes = sorted(self.SQUARE)
        indptr, nbrs, costs = [0], [], []
        for u in nodes:
            row = sorted(self.SQUARE[u].items())
            nbrs += [v for v, _ in row]
            costs += [c for _, c in row]
            indptr.append(len(nbrs))
        tree = prim_mst_heap(self.SQUARE, root)
        assert prim_flooding(indptr, nbrs, costs, root) == sorted(
            tree.tree_neighbors(root)
        )


class TestSpanningTreeApi:
    def test_tree_neighbors_absent_node(self):
        tree = prim_mst_heap(SIMPLE, 0)
        assert tree.tree_neighbors(42) == frozenset()

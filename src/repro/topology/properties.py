"""Topology property analysis: power-law and small-world checks.

Section 4.1 of the paper requires that generated topologies "accurately
reflect the topological properties of real networks": power-law degree
distributions (node degree) and small-world characteristics (short
characteristic path length together with high clustering coefficient).

This module provides the statistics used to validate our generators against
those requirements: a maximum-likelihood power-law exponent fit (Clauset,
Shalizi & Newman), the average local clustering coefficient, a sampled
characteristic path length, and the small-world coefficient sigma relative to
an Erdős–Rényi null model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..metrics.collector import left_fold
from .physical import PhysicalTopology
from .soa import ArrayOverlay

__all__ = [
    "degree_histogram",
    "power_law_exponent",
    "clustering_coefficient",
    "characteristic_path_length",
    "small_world_sigma",
    "TopologyReport",
    "analyze",
]

GraphLike = Union[PhysicalTopology, ArrayOverlay]


def _adjacency(graph: GraphLike) -> Dict[int, Tuple[int, ...]]:
    if isinstance(graph, PhysicalTopology):
        return {n: graph.neighbors(n) for n in graph.nodes()}
    return {p: tuple(graph.neighbors(p)) for p in graph.peers()}


def degree_histogram(graph: GraphLike) -> Dict[int, int]:
    """Map degree -> number of nodes with that degree."""
    hist: Dict[int, int] = {}
    for nbrs in _adjacency(graph).values():
        d = len(nbrs)
        hist[d] = hist.get(d, 0) + 1
    return hist


def power_law_exponent(
    degrees: Iterable[int], d_min: int = 1
) -> float:
    """MLE estimate of the power-law exponent alpha of a degree sequence.

    Uses the discrete approximation of Clauset et al.:
    ``alpha = 1 + n / sum(ln(d / (d_min - 0.5)))`` over degrees >= d_min.
    Returns ``nan`` when fewer than two qualifying degrees exist.
    """
    ds = [d for d in degrees if d >= d_min]
    if len(ds) < 2:
        return float("nan")
    denom = left_fold(math.log(d / (d_min - 0.5)) for d in ds)
    if denom <= 0:
        return float("nan")
    return 1.0 + len(ds) / denom


def clustering_coefficient(graph: GraphLike) -> float:
    """Average local clustering coefficient.

    For each node with degree >= 2, the fraction of neighbor pairs that are
    themselves connected; averaged over all nodes, a node of degree < 2
    contributing 0.
    """
    adj = _adjacency(graph)
    adj_sets = {n: set(nbrs) for n, nbrs in adj.items()}
    total = 0.0
    count = 0
    for node, nbrs in adj.items():
        k = len(nbrs)
        count += 1
        if k < 2:
            continue
        links = 0
        nlist = list(nbrs)
        for i in range(k):
            si = adj_sets[nlist[i]]
            for j in range(i + 1, k):
                if nlist[j] in si:
                    links += 1
        total += 2.0 * links / (k * (k - 1))
    return total / count if count else 0.0


def characteristic_path_length(
    graph: GraphLike,
    samples: int = 64,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Average hop distance between reachable node pairs, by sampled BFS.

    Runs BFS from at most *samples* random sources and averages the hop
    counts to every reachable node.  Exact when ``samples >= n``.
    """
    rng = rng or np.random.default_rng(0)
    adj = _adjacency(graph)
    nodes = list(adj)
    if len(nodes) < 2:
        return 0.0
    if samples >= len(nodes):
        sources = nodes
    else:
        idx = rng.choice(len(nodes), size=samples, replace=False)
        sources = [nodes[int(i)] for i in idx]
    total = 0.0
    pairs = 0
    for s in sources:
        dist = {s: 0}
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt: List[int] = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        total += sum(dist.values())
        pairs += len(dist) - 1
    return total / pairs if pairs else 0.0


def small_world_sigma(
    graph: GraphLike,
    samples: int = 64,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Small-world coefficient sigma = (C/C_rand) / (L/L_rand).

    *C_rand* and *L_rand* are analytic Erdős–Rényi expectations for a graph
    with the same node and edge counts.  sigma >> 1 indicates a small world.
    """
    rng = rng or np.random.default_rng(0)
    adj = _adjacency(graph)
    n = len(adj)
    if n < 3:
        return float("nan")
    m = sum(len(v) for v in adj.values()) / 2.0
    k = 2.0 * m / n
    if k <= 1.0:
        return float("nan")
    c_rand = k / n
    l_rand = math.log(n) / math.log(k)
    c = clustering_coefficient(graph)
    l = characteristic_path_length(graph, samples=samples, rng=rng)
    if c_rand <= 0 or l_rand <= 0 or l <= 0:
        return float("nan")
    return (c / c_rand) / (l / l_rand)


@dataclass(frozen=True)
class TopologyReport:
    """Summary statistics of a topology's shape."""

    num_nodes: int
    num_edges: int
    average_degree: float
    max_degree: int
    power_law_alpha: float
    clustering: float
    path_length: float
    small_world_sigma: float

    def summary(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"n={self.num_nodes} m={self.num_edges} "
            f"<k>={self.average_degree:.2f} kmax={self.max_degree} "
            f"alpha={self.power_law_alpha:.2f} C={self.clustering:.4f} "
            f"L={self.path_length:.2f} sigma={self.small_world_sigma:.2f}"
        )


def analyze(
    graph: GraphLike,
    samples: int = 64,
    power_law_dmin: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> TopologyReport:
    """Compute a :class:`TopologyReport` for a physical or overlay graph."""
    rng = rng or np.random.default_rng(0)
    adj = _adjacency(graph)
    degrees = [len(v) for v in adj.values()]
    n = len(adj)
    m = sum(degrees) // 2
    return TopologyReport(
        num_nodes=n,
        num_edges=m,
        average_degree=(2.0 * m / n) if n else 0.0,
        max_degree=max(degrees) if degrees else 0,
        power_law_alpha=power_law_exponent(degrees, d_min=power_law_dmin),
        clustering=clustering_coefficient(graph),
        path_length=characteristic_path_length(graph, samples=samples, rng=rng),
        small_world_sigma=small_world_sigma(graph, samples=samples, rng=rng),
    )

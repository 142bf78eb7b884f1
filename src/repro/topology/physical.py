"""Physical (underlay) network topology.

The paper simulates Gnutella-like overlays on top of Internet-like physical
topologies generated with BRITE.  :class:`PhysicalTopology` is our equivalent
substrate: an undirected weighted graph whose edge weights are link delays
(Euclidean distances in a BRITE-style coordinate plane, see
:mod:`repro.topology.generators`).

The quantity every other layer needs from the underlay is the *shortest-path
delay* between two hosts: the cost of one logical-overlay transmission is the
underlay shortest-path delay between the two endpoints (paper Section 3.3,
Tables 1 and 2).  Shortest-path delays are computed with scipy's sparse
Dijkstra, and rows are cached per source node with an LRU, which keeps
20,000-node underlays tractable on a laptop.

Two access patterns are supported:

* **single source** (:meth:`delays_from` / :meth:`delays_to` /
  :meth:`delay`) — one Dijkstra run per LRU miss, kept in the LRU;
* **batched** (:meth:`delays_from_many`) — every source of a known working
  set is solved by *one* vectorized scipy call (``indices=[...]``), and
  the LRU is neither read nor written: a bulk fill streams more rows than
  the LRU could hold.  Given the hosts each source is asked for, it reads
  them off the solve without building a full row.

Which pairs are worth remembering is the delay oracle's business
(:mod:`repro.oracle.exact`), not the underlay's: the oracle solves only
through :meth:`delays_from_many`, so the LRU serves :meth:`delay` alone.

All paths update the shared :data:`repro.perf.counters` so experiments can
assert cache behavior (e.g. "zero Dijkstra runs during query propagation on
a warmed overlay").

Link delays sit on a grid (:data:`DELAY_GRID`), so every delay sum is exact
and a shorter graph gives the same floats.  Once an overlay names its hosts
(:meth:`PhysicalTopology.reduce_series`), distance solves run on the
*series-reduced* underlay: each degree-2 node that hosts no peer is folded
into the link between the two ends of its chain, and a folded node's delay
is read off the nearer end afterwards.  A topology nobody reduced keeps the
full graph.

A topology never crosses a process boundary: a parallel trial rebuilds its
underlay from the seeded config (see :mod:`repro.experiments.parallel`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from ..perf import counters

__all__ = ["DELAY_GRID", "PhysicalTopology"]

#: Every link delay is a whole multiple of this step.  A sum of such delays
#: is exact in float64 while it stays below 2**43, so a path delay does not
#: depend on the order its links are added in: d(u, v) == d(v, u) bit for
#: bit, and any two solves that reach the same node agree on its delay.
DELAY_GRID = 2.0**-10


def _links(
    num_nodes: int, edges: Union[Iterable[Tuple[int, int]], np.ndarray],
    delays: Union[Iterable[float], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct links as ``(lo, hi, delay)`` arrays in arrival order, delays
    on :data:`DELAY_GRID` and the cheaper of duplicates kept; a bad link raises."""
    ends = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    if ends.size and (ends.ndim != 2 or ends.shape[1] != 2):
        raise ValueError("edges must be (u, v) pairs")
    ends = ends.reshape(-1, 2)
    raw = np.array(delays if isinstance(delays, np.ndarray) else list(delays), dtype=float)
    if len(ends) != len(raw):
        raise ValueError("edges and delays must have the same length")
    u, v = ends[:, 0], ends[:, 1]
    snapped = np.round(raw / DELAY_GRID) * DELAY_GRID
    outside = (u < 0) | (u >= num_nodes) | (v < 0) | (v >= num_nodes)
    bad = np.flatnonzero(outside | (u == v) | (snapped <= 0))
    if len(bad):
        i = int(bad[0])
        a, b = int(u[i]), int(v[i])
        if outside[i]:
            raise ValueError(f"edge ({a}, {b}) out of range for {num_nodes} nodes")
        if a == b:
            raise ValueError(f"self-loop at node {a} is not allowed")
        raise ValueError(
            f"link delay must be positive on the {DELAY_GRID} grid, "
            f"got {float(raw[i])} on ({a}, {b})"
        )
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys, first, link = np.unique(lo * num_nodes + hi, return_index=True, return_inverse=True)
    cheapest = np.full(len(keys), np.inf)
    np.minimum.at(cheapest, link, snapped)
    by_arrival = np.argsort(first)
    return lo[first[by_arrival]], hi[first[by_arrival]], cheapest[by_arrival]


class PhysicalTopology:
    """An undirected weighted graph modelling the physical Internet.

    Parameters
    ----------
    num_nodes:
        Number of hosts/routers in the underlay.
    edges:
        ``(u, v)`` pairs with ``0 <= u, v < num_nodes``, or an ``(m, 2)`` array.
    delays:
        Per-edge link delays, aligned with *edges*.  Must be positive; each
        is rounded to the nearest multiple of :data:`DELAY_GRID`, and one
        that rounds to 0 is refused.
    coordinates:
        Optional ``(num_nodes, 2)`` array of plane coordinates (kept for
        inspection and for generators that derive delays from geometry).
    cache_size:
        Maximum number of single-source Dijkstra results kept in the LRU;
        0 keeps none (every lookup solves), and a negative size is refused.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Union[Iterable[Tuple[int, int]], np.ndarray],
        delays: Union[Iterable[float], np.ndarray],
        coordinates: Optional[np.ndarray] = None,
        cache_size: int = 128,
    ) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if cache_size < 0:
            raise ValueError(f"cache_size must be non-negative, got {cache_size}")
        self._num_nodes = int(num_nodes)
        lo, hi, link_delays = _links(num_nodes, edges, delays)
        # Both directions of every link, sorted by (row, column).
        rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        order = np.argsort(rows * num_nodes + cols)
        cols = cols[order]
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
        # One int object per node, shared by adjacency tuples and link keys.
        node: Callable[[int], int] = list(range(num_nodes)).__getitem__
        flat, at = list(map(node, cols.tolist())), indptr.tolist()
        self._adjacency = [tuple(flat[at[i] : at[i + 1]]) for i in range(num_nodes)]
        del flat  # freed before the link keys are built: a lower peak
        links = zip(list(map(node, lo.tolist())), map(node, hi.tolist()))
        delay_list: List[float] = link_delays.tolist()
        self._edge_delays = dict(zip(links, delay_list))

        if coordinates is not None:
            coordinates = np.asarray(coordinates, dtype=float)
            if coordinates.shape != (num_nodes, 2):
                raise ValueError(
                    f"coordinates must have shape ({num_nodes}, 2), got {coordinates.shape}"
                )
        self._coordinates = coordinates

        data = np.concatenate([link_delays, link_delays])[order]
        self._matrix = csr_matrix((data, cols, indptr), shape=(num_nodes, num_nodes))
        self._series: Optional[_SeriesReduction] = None
        self._cache_size = int(cache_size)
        self._dist_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of hosts in the underlay."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of physical links."""
        return len(self._edge_delays)

    @property
    def coordinates(self) -> Optional[np.ndarray]:
        """Plane coordinates of the hosts, if the generator provided them."""
        return self._coordinates

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids."""
        return iter(range(self._num_nodes))

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over ``(u, v, delay)`` triples with ``u < v``."""
        for (u, v), d in self._edge_delays.items():
            yield u, v, d

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Physical neighbors of *node* (sorted, immutable)."""
        return self._adjacency[node]

    def degree(self, node: int) -> int:
        """Number of physical links attached to *node*."""
        return len(self._adjacency[node])

    def degrees(self) -> np.ndarray:
        """Degree of every node as an array."""
        return np.array([len(a) for a in self._adjacency], dtype=np.int64)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether a direct physical link u-v exists."""
        key = (u, v) if u < v else (v, u)
        return key in self._edge_delays

    def link_delay(self, u: int, v: int) -> float:
        """Delay of the direct physical link u-v.

        Raises ``KeyError`` if the link does not exist.
        """
        key = (u, v) if u < v else (v, u)
        return self._edge_delays[key]

    # ------------------------------------------------------------------
    # Shortest paths
    # ------------------------------------------------------------------

    def reduce_series(self, keep: Iterable[int]) -> None:
        """Let later distance solves run on the series-reduced underlay.

        Every degree-2 node outside *keep* (the hosts of an overlay's
        peers) is contracted into the link between its chain's ends.  Only
        the first call builds anything; an overlay makes it just before its
        first exact solve.  No answer changes by a bit: a source outside the
        reduced graph is solved on the full one, and a contracted node's
        delay is the smaller of its two chain ends' delays plus its offset
        to that end, exact on the delay grid.
        """
        if self._series is None:
            self._series = _SeriesReduction(self, np.fromiter(keep, dtype=np.int64))

    def _solve(self, sources: List[int], targets: List[np.ndarray]) -> List[np.ndarray]:
        """Each source's delays to its hosts ``targets[i]``, solved on the
        smallest graph.

        The CSR stores both directions of every link, so ``directed=True``
        walks the same graph as the undirected mode without scanning each
        edge twice — distances are bit-identical (pinned by
        ``tests/topology/test_physical.py``).
        """
        series = self._series
        kept = [i for i, s in enumerate(sources) if series is not None and series.kept[s]]
        rest = [i for i, s in enumerate(sources) if series is None or not series.kept[s]]
        out: List[np.ndarray] = [np.empty(0)] * len(sources)
        if kept and series is not None:
            solved = series.solve([sources[i] for i in kept], [targets[i] for i in kept])
            for i, got in zip(kept, solved):
                out[i] = got
        if rest:
            block = np.atleast_2d(
                dijkstra(self._matrix, directed=True, indices=[sources[i] for i in rest])
            )
            for i, row in zip(rest, block):
                out[i] = row[targets[i]]
        return out

    def delays_from(self, source: int) -> np.ndarray:
        """Shortest-path delay from *source* to every node.

        Unreachable nodes get ``inf``.  The returned array is cached and must
        not be mutated by the caller.
        """
        if not (0 <= source < self._num_nodes):
            raise ValueError(f"source {source} out of range")
        cache = self._dist_cache
        row = cache.get(source)
        if row is None:
            counters.delay_cache_misses += 1
            counters.dijkstra_runs += 1
            counters.dijkstra_sources += 1
            row = cache[source] = self._solve([source], [np.arange(self._num_nodes)])[0]
            while len(cache) > self._cache_size:
                cache.popitem(last=False)  # the oldest row, this one at size 0
        else:
            counters.delay_cache_hits += 1
            cache.move_to_end(source)
        return row

    def delays_to(self, source: int, targets: Sequence[int]) -> np.ndarray:
        """Delays from *source* to *targets*, read from the resident row of
        *source*, else from every target's (on the delay grid both hold the
        same float), else from a fresh solve of *source*.  Any target outside
        the underlay is refused before a row is read."""
        if not (0 <= source < self._num_nodes):
            raise ValueError(f"source {source} out of range")
        if targets and (min(targets) < 0 or max(targets) >= self._num_nodes):
            raise ValueError("host id out of range")
        cache = self._dist_cache
        if targets and source not in cache and all(t in cache for t in targets):
            counters.delay_cache_hits += len(targets)
            for t in targets:
                cache.move_to_end(t)
            return np.array([cache[t][source] for t in targets])
        return np.array(self.delays_from(source)[list(targets)])

    def delays_from_many(
        self,
        sources: Iterable[int],
        targets: Optional[Sequence[Sequence[int]]] = None,
    ) -> Dict[int, np.ndarray]:
        """Shortest-path delays from several sources at once.

        Every distinct source is solved by **one** vectorized scipy Dijkstra
        call (``indices=[...]``); the LRU is neither read nor written, which
        bounds memory when streaming a large source set only to extract a
        few scalars per row (see
        :meth:`ExactOracle.delay_pairs <repro.oracle.exact.ExactOracle.delay_pairs>`).
        Returns ``{source: delays}``, which the caller must not mutate: each
        source's full row, or, given *targets* (one host list per source,
        aligned with *sources*, which must then be distinct), its delays to
        those hosts alone, read off the series-reduced solve without
        building the full row.  Any id outside the underlay is refused
        before anything is solved.
        """
        distinct = list(dict.fromkeys(int(s) for s in sources))
        for s in distinct:
            if not (0 <= s < self._num_nodes):
                raise ValueError(f"source {s} out of range")
        if targets is None:
            reads = [np.arange(self._num_nodes)] * len(distinct)
        else:
            reads = [np.asarray(t, dtype=np.int64) for t in targets]
            if len(reads) != len(distinct):
                raise ValueError("targets must hold one host list per distinct source")
            for at in reads:
                if len(at) and (at.min() < 0 or at.max() >= self._num_nodes):
                    raise ValueError("host id out of range")
        if not distinct:
            return {}
        counters.dijkstra_runs += 1
        counters.dijkstra_sources += len(distinct)
        counters.largest_batch = max(counters.largest_batch, len(distinct))
        return dict(zip(distinct, self._solve(distinct, reads)))

    def cached_sources(self) -> List[int]:
        """Sources whose delay vectors are currently resident (LRU order)."""
        return list(self._dist_cache)

    def delay(self, u: int, v: int) -> float:
        """Shortest-path delay between hosts *u* and *v* (0 when ``u == v``)."""
        if not (0 <= u < self._num_nodes and 0 <= v < self._num_nodes):
            raise ValueError("host id out of range")
        if u == v:
            return 0.0
        return float(self.delays_to(u, [v])[0])

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------

    def is_connected(self) -> bool:
        """Whether the underlay is a single connected component."""
        n, _ = connected_components(self._matrix, directed=False)
        return n == 1

    def component_labels(self) -> np.ndarray:
        """Connected-component label of every node."""
        _, labels = connected_components(self._matrix, directed=False)
        return labels

    def largest_component_nodes(self) -> List[int]:
        """Node ids of the largest connected component (sorted)."""
        labels = self.component_labels()
        counts = np.bincount(labels)
        best = int(np.argmax(counts))
        return [int(i) for i in np.flatnonzero(labels == best)]

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PhysicalTopology(num_nodes={self._num_nodes}, "
            f"num_edges={self.num_edges})"
        )


class _SeriesReduction:
    """An underlay with its unkept degree-2 chains folded into single links.

    A chain ``a - c1 - ... - ck - b`` of contracted nodes between kept ends
    becomes one link ``a - b`` weighing the chain's total delay.  Where
    several chains, or a chain and a direct link, join the same two ends,
    the reduced link keeps the cheapest (a sparse matrix built from
    duplicate entries would *sum* them); a chain that closes on its own end
    adds no link.  A ring of contracted nodes with no kept node on it keeps
    its lowest node.
    """

    def __init__(self, physical: PhysicalTopology, keep: np.ndarray) -> None:
        kept = physical.degrees() != 2
        kept[keep] = True
        walked = kept.copy()
        members: List[int] = []
        member_chain: List[int] = []
        offsets: List[float] = []
        chains: List[Tuple[int, int, float]] = []

        def fold_chains(a: int) -> None:
            for first in physical.neighbors(a):
                if walked[first]:
                    continue
                prev, node, total = a, first, physical.link_delay(a, first)
                while not kept[node]:
                    walked[node] = True
                    members.append(node)
                    member_chain.append(len(chains))
                    offsets.append(total)
                    x, y = physical.neighbors(node)
                    prev, node = node, (y if x == prev else x)
                    total += physical.link_delay(prev, node)
                chains.append((a, node, total))

        for a in np.flatnonzero(kept).tolist():
            fold_chains(a)
        for v in np.flatnonzero(~walked).tolist():
            if not walked[v]:
                kept[v] = walked[v] = True
                fold_chains(v)

        #: Which nodes of the full graph the reduced graph holds.
        self.kept = kept
        nodes = np.flatnonzero(kept)
        index = np.full(physical.num_nodes, -1, dtype=np.int64)
        index[nodes] = np.arange(len(nodes))
        self._index = index

        # Per contracted node: its chain's two ends, as columns of a reduced
        # row, and its delay to each (a difference of two grid sums, so
        # exact).
        chain_a, chain_b = (
            np.array([c[i] for c in chains], dtype=np.int64) for i in (0, 1)
        )
        length = np.array([c[2] for c in chains], dtype=float)
        on = np.array(member_chain, dtype=np.int64)
        self._member_of = np.full(physical.num_nodes, -1, dtype=np.int64)
        self._member_of[np.array(members, dtype=np.int64)] = np.arange(len(members))
        self._end_a, self._end_b = index[chain_a[on]], index[chain_b[on]]
        self._off_a = np.array(offsets, dtype=float)
        self._off_b = length[on] - self._off_a

        full = physical._matrix.tocoo()
        direct = kept[full.row] & kept[full.col]
        link = chain_a != chain_b
        rows = index[np.concatenate([full.row[direct], chain_a[link], chain_b[link]])]
        cols = index[np.concatenate([full.col[direct], chain_b[link], chain_a[link]])]
        weights = np.concatenate([full.data[direct], length[link], length[link]])
        order = np.lexsort((weights, cols, rows))
        rows, cols, weights = rows[order], cols[order], weights[order]
        cheapest = np.ones(len(rows), dtype=bool)
        cheapest[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        size = len(nodes)
        self._matrix = csr_matrix(
            (weights[cheapest], (rows[cheapest], cols[cheapest])), shape=(size, size)
        )

    def solve(self, sources: List[int], targets: List[np.ndarray]) -> List[np.ndarray]:
        """Each kept source's delays to its hosts ``targets[i]``, read off
        its reduced row: a kept host directly, a contracted one as the
        smaller of (end's delay + offset to that end) over its two chain
        ends."""
        block = np.atleast_2d(
            dijkstra(self._matrix, directed=True, indices=self._index[sources])
        )
        rows = []
        for reduced, hosts in zip(block, targets):
            at = self._index[hosts]
            row = reduced[at]
            folded = np.flatnonzero(at < 0)
            if len(folded):
                m = self._member_of[hosts[folded]]
                row[folded] = np.minimum(
                    reduced[self._end_a[m]] + self._off_a[m],
                    reduced[self._end_b[m]] + self._off_b[m],
                )
            rows.append(row)
        return rows

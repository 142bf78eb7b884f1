"""Physical (underlay) network topology.

The paper simulates Gnutella-like overlays on top of Internet-like physical
topologies generated with BRITE.  :class:`PhysicalTopology` is our equivalent
substrate: an undirected weighted graph whose edge weights are link delays
(Euclidean distances in a BRITE-style coordinate plane, see
:mod:`repro.topology.generators`).

The quantity every other layer needs from the underlay is the *shortest-path
delay* between two hosts: the cost of one logical-overlay transmission is the
underlay shortest-path delay between the two endpoints (paper Section 3.3,
Tables 1 and 2).  Shortest paths are computed with scipy's sparse Dijkstra and
cached per source node with an LRU, which keeps 20,000-node underlays
tractable on a laptop.

Two access patterns are supported:

* **single source** (:meth:`delays_from` / :meth:`delay`) — one Dijkstra run
  per LRU miss, the original on-demand path;
* **batched** (:meth:`delays_from_many` / :meth:`warm`) — all uncached
  sources of a known working set are solved by *one* vectorized scipy call
  (``indices=[...]``), amortizing the python/scipy dispatch overhead and
  letting callers prefetch exactly the source set they are about to touch
  instead of faulting one run at a time.

All paths update the shared :data:`repro.perf.counters` so experiments can
assert cache behavior (e.g. "zero Dijkstra runs during query propagation on
a warmed overlay").

The topology is immutable once built, which enables a third construction
path: :meth:`export_shared` places the CSR arrays and coordinates into named
shared-memory segments, and :meth:`attach_shared` rebuilds a fully
functional topology around **zero-copy read-only views** of those segments
in another process — no per-worker graph regeneration, no pickling of
megabyte-scale arrays (see :mod:`repro.topology.shm`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from ..perf import counters
from .shm import SharedTopologyHandle, SharedUnderlay, attach_array, export_arrays

__all__ = ["PhysicalTopology"]


class PhysicalTopology:
    """An undirected weighted graph modelling the physical Internet.

    Parameters
    ----------
    num_nodes:
        Number of hosts/routers in the underlay.
    edges:
        Iterable of ``(u, v)`` pairs with ``0 <= u, v < num_nodes``.
    delays:
        Per-edge link delays, aligned with *edges*.  Must be positive.
    coordinates:
        Optional ``(num_nodes, 2)`` array of plane coordinates (kept for
        inspection and for generators that derive delays from geometry).
    cache_size:
        Maximum number of single-source Dijkstra results kept in the LRU.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        delays: Iterable[float],
        coordinates: Optional[np.ndarray] = None,
        cache_size: int = 128,
    ) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        edge_list = [(int(u), int(v)) for u, v in edges]
        delay_list = [float(d) for d in delays]
        if len(edge_list) != len(delay_list):
            raise ValueError("edges and delays must have the same length")
        for (u, v), d in zip(edge_list, delay_list):
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
            if u == v:
                raise ValueError(f"self-loop at node {u} is not allowed")
            if d <= 0:
                raise ValueError(f"link delay must be positive, got {d} on ({u}, {v})")

        self._num_nodes = int(num_nodes)
        edge_delays: Dict[Tuple[int, int], float] = {}
        adjacency: List[List[int]] = [[] for _ in range(num_nodes)]
        for (u, v), d in zip(edge_list, delay_list):
            key = (u, v) if u < v else (v, u)
            if key in edge_delays:
                # Keep the cheaper of duplicate links (multigraphs collapse).
                edge_delays[key] = min(edge_delays[key], d)
                continue
            edge_delays[key] = d
            adjacency[u].append(v)
            adjacency[v].append(u)
        self._edge_delays: Optional[Dict[Tuple[int, int], float]] = edge_delays
        self._adjacency: Optional[List[Tuple[int, ...]]] = [
            tuple(sorted(a)) for a in adjacency
        ]

        if coordinates is not None:
            coordinates = np.asarray(coordinates, dtype=float)
            if coordinates.shape != (num_nodes, 2):
                raise ValueError(
                    f"coordinates must have shape ({num_nodes}, 2), got {coordinates.shape}"
                )
        self._coordinates = coordinates

        self._matrix = self._build_matrix()
        self._cache_size = int(cache_size)
        self._dist_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._pred_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        #: Shared-memory segments an attached instance borrows its CSR
        #: buffers from; empty for locally-built topologies.
        self._attached_segments: List[object] = []

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _build_matrix(self) -> csr_matrix:
        edge_delays = self._edge_map()
        m = len(edge_delays)
        rows = np.empty(2 * m, dtype=np.int64)
        cols = np.empty(2 * m, dtype=np.int64)
        data = np.empty(2 * m, dtype=float)
        for i, ((u, v), d) in enumerate(edge_delays.items()):
            rows[2 * i], cols[2 * i], data[2 * i] = u, v, d
            rows[2 * i + 1], cols[2 * i + 1], data[2 * i + 1] = v, u, d
        return csr_matrix((data, (rows, cols)), shape=(self._num_nodes, self._num_nodes))

    def _edge_map(self) -> Dict[Tuple[int, int], float]:
        """The ``{(u < v): delay}`` map, derived lazily when attached."""
        if self._edge_delays is None:
            self._materialize_edge_structures()
            assert self._edge_delays is not None
        return self._edge_delays

    def _adjacency_lists(self) -> List[Tuple[int, ...]]:
        """Per-node sorted neighbor tuples, derived lazily when attached."""
        if self._adjacency is None:
            self._materialize_edge_structures()
            assert self._adjacency is not None
        return self._adjacency

    def _materialize_edge_structures(self) -> None:
        """Derive the python-level edge map and adjacency from the CSR.

        Attached instances start with only the (shared) CSR arrays; the
        dict/tuple mirrors are rebuilt on first use.  CSR rows are sorted,
        so adjacency tuples come out identical to the eager constructor's.
        """
        m = self._matrix
        indptr, indices, data = m.indptr, m.indices, m.data
        n = self._num_nodes
        self._adjacency = [
            tuple(int(j) for j in indices[indptr[i] : indptr[i + 1]])
            for i in range(n)
        ]
        rows = np.repeat(np.arange(n), np.diff(indptr))
        upper = rows < indices
        self._edge_delays = {
            (int(u), int(v)): float(d)
            for u, v, d in zip(rows[upper], indices[upper], data[upper])
        }

    # ------------------------------------------------------------------
    # Shared-memory export / attach
    # ------------------------------------------------------------------

    def export_shared(self) -> SharedUnderlay:
        """Copy the CSR arrays (and coordinates) into shared memory.

        Returns a :class:`~repro.topology.shm.SharedUnderlay` that owns the
        segments; its picklable ``.handle`` is what worker processes pass to
        :meth:`attach_shared`.  The exporter must :meth:`unlink
        <repro.topology.shm.SharedUnderlay.unlink>` when the fleet is done
        (context manager / ``finally``); attached workers only unmap.
        """
        self._matrix.sort_indices()
        arrays: Dict[str, np.ndarray] = {
            "indptr": self._matrix.indptr,
            "indices": self._matrix.indices,
            "data": self._matrix.data,
        }
        if self._coordinates is not None:
            arrays["coordinates"] = self._coordinates
        segments, specs = export_arrays(arrays)
        handle = SharedTopologyHandle(
            num_nodes=self._num_nodes,
            cache_size=self._cache_size,
            indptr=specs["indptr"],
            indices=specs["indices"],
            data=specs["data"],
            coordinates=specs.get("coordinates"),
        )
        return SharedUnderlay(handle, segments)

    @classmethod
    def attach_shared(cls, handle: SharedTopologyHandle) -> "PhysicalTopology":
        """Rebuild a topology around an exported underlay, zero-copy.

        The CSR arrays are read-only views into the shared segments (no
        regeneration, no copying); the python-level edge map and adjacency
        are derived lazily on first structural access.  Delay/path caches
        start empty and are private to this process.  The attached instance
        keeps the segment mappings alive for its own lifetime and never
        unlinks them — the exporting process owns the segments.
        """
        self = cls.__new__(cls)
        self._num_nodes = int(handle.num_nodes)
        segments: List[object] = []
        arrays: Dict[str, np.ndarray] = {}
        specs = {
            "indptr": handle.indptr,
            "indices": handle.indices,
            "data": handle.data,
        }
        if handle.coordinates is not None:
            specs["coordinates"] = handle.coordinates
        try:
            for name, spec in specs.items():
                seg, view = attach_array(spec)
                segments.append(seg)
                arrays[name] = view
        except BaseException:
            for seg in segments:
                seg.close()  # type: ignore[attr-defined]
            raise
        matrix = csr_matrix(
            (arrays["data"], arrays["indices"], arrays["indptr"]),
            shape=(self._num_nodes, self._num_nodes),
            copy=False,
        )
        matrix.has_sorted_indices = True
        self._matrix = matrix
        self._coordinates = arrays.get("coordinates")
        self._edge_delays = None
        self._adjacency = None
        self._cache_size = int(handle.cache_size)
        self._dist_cache = OrderedDict()
        self._pred_cache = OrderedDict()
        self._attached_segments = segments
        counters.underlay_attaches += 1
        return self

    @property
    def is_attached(self) -> bool:
        """Whether this instance borrows its CSR buffers from shared memory."""
        return bool(self._attached_segments)

    @classmethod
    def from_networkx(cls, graph, weight: str = "delay", **kwargs) -> "PhysicalTopology":
        """Build from a networkx graph whose nodes are ``0..n-1``.

        Missing edge weights default to 1.0.
        """
        n = graph.number_of_nodes()
        nodes = sorted(graph.nodes())
        if nodes != list(range(n)):
            raise ValueError("graph nodes must be exactly 0..n-1; relabel first")
        edges = []
        delays = []
        for u, v, data in graph.edges(data=True):
            edges.append((u, v))
            delays.append(float(data.get(weight, 1.0)))
        return cls(n, edges, delays, **kwargs)

    def to_networkx(self):
        """Export as a :class:`networkx.Graph` with ``delay`` edge attributes."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._num_nodes))
        for (u, v), d in self._edge_map().items():
            g.add_edge(u, v, delay=d)
        return g

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
        return len(self._edge_map())

    @property
    def coordinates(self) -> Optional[np.ndarray]:
        """Plane coordinates of the hosts, if the generator provided them."""
        return self._coordinates

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids."""
        return iter(range(self._num_nodes))

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over ``(u, v, delay)`` triples with ``u < v``."""
        for (u, v), d in self._edge_map().items():
            yield u, v, d

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Physical neighbors of *node* (sorted, immutable)."""
        return self._adjacency_lists()[node]

    def degree(self, node: int) -> int:
        """Number of physical links attached to *node*."""
        return len(self._adjacency_lists()[node])

    def degrees(self) -> np.ndarray:
        """Degree of every node as an array."""
        return np.array([len(a) for a in self._adjacency_lists()], dtype=np.int64)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether a direct physical link u-v exists."""
        key = (u, v) if u < v else (v, u)
        return key in self._edge_map()

    def link_delay(self, u: int, v: int) -> float:
        """Delay of the direct physical link u-v.

        Raises ``KeyError`` if the link does not exist.
        """
        key = (u, v) if u < v else (v, u)
        return self._edge_map()[key]

    # ------------------------------------------------------------------
    # Shortest paths
    # ------------------------------------------------------------------

    def _evict(self) -> None:
        """Shrink both LRU caches to capacity, oldest sources first.

        The predecessor cache holds a subset of the distance cache's keys
        (only :meth:`path` asks for predecessors), so eviction is driven by
        the distance cache and mirrored into the predecessor cache — the
        single place both are trimmed, so the two can never drift.
        """
        while len(self._dist_cache) > self._cache_size:
            old, _ = self._dist_cache.popitem(last=False)
            self._pred_cache.pop(old, None)

    def _run_dijkstra(self, source: int, predecessors: bool = False) -> None:
        """Solve one source into the LRU; predecessors only for :meth:`path`.

        The CSR stores both directions of every link, so ``directed=True``
        walks the same graph as the undirected mode without scanning each
        edge twice — distances are bit-identical (pinned by
        ``tests/topology/test_physical.py``).
        """
        counters.dijkstra_runs += 1
        counters.dijkstra_sources += 1
        solved = dijkstra(
            self._matrix,
            directed=True,
            indices=source,
            return_predecessors=predecessors,
        )
        if predecessors:
            self._dist_cache[source], self._pred_cache[source] = solved
        else:
            self._dist_cache[source] = solved
        self._evict()

    def delays_from(self, source: int) -> np.ndarray:
        """Shortest-path delay from *source* to every node.

        Unreachable nodes get ``inf``.  The returned array is cached and must
        not be mutated by the caller.
        """
        if not (0 <= source < self._num_nodes):
            raise ValueError(f"source {source} out of range")
        if source not in self._dist_cache:
            counters.delay_cache_misses += 1
            self._run_dijkstra(source)
        else:
            counters.delay_cache_hits += 1
            self._dist_cache.move_to_end(source)
        return self._dist_cache[source]

    def delays_from_many(
        self, sources: Iterable[int], cache: bool = True
    ) -> Dict[int, np.ndarray]:
        """Shortest-path delay vectors for several sources at once.

        All sources missing from the LRU are solved by **one** vectorized
        scipy Dijkstra call (``indices=[...]``) instead of one call per
        source.  Returns ``{source: delay_vector}`` for every distinct
        source; vectors are cached (subject to the normal LRU capacity —
        use :meth:`warm` to also grow the cache around a working set) and
        must not be mutated by the caller.

        With ``cache=False`` the freshly solved vectors are returned but not
        retained, which bounds memory when streaming a large source set only
        to extract a few scalars per vector (see
        :meth:`Overlay.warm_edge_costs <repro.topology.overlay.Overlay.warm_edge_costs>`).
        """
        out: Dict[int, np.ndarray] = {}
        missing: List[int] = []
        for raw in sources:
            s = int(raw)
            if not (0 <= s < self._num_nodes):
                raise ValueError(f"source {s} out of range")
            if s in out or s in missing:
                continue
            vec = self._dist_cache.get(s)
            if vec is not None:
                counters.delay_cache_hits += 1
                self._dist_cache.move_to_end(s)
                out[s] = vec
            else:
                counters.delay_cache_misses += 1
                missing.append(s)
        if missing:
            counters.dijkstra_runs += 1
            counters.dijkstra_sources += len(missing)
            counters.largest_batch = max(counters.largest_batch, len(missing))
            dist = dijkstra(self._matrix, directed=True, indices=missing)
            dist = np.atleast_2d(dist)
            for i, s in enumerate(missing):
                # Copy each row out so the (k, n) solve block can be freed.
                vec = np.array(dist[i], copy=True)
                out[s] = vec
                if cache:
                    self._dist_cache[s] = vec
            if cache:
                self._evict()
        return out

    def warm(self, sources: Iterable[int], chunk_size: int = 512) -> int:
        """Prefetch delay vectors for a working set of sources.

        Grows the LRU capacity so the whole set stays resident, then solves
        all uncached sources in batched Dijkstra calls of at most
        *chunk_size* sources each (bounding the transient ``(k, n)`` scipy
        output).  Returns the number of sources actually solved; warming an
        already-resident set is free.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        wanted: List[int] = []
        seen = set()
        for raw in sources:
            s = int(raw)
            if not (0 <= s < self._num_nodes):
                raise ValueError(f"source {s} out of range")
            if s not in seen:
                seen.add(s)
                wanted.append(s)
        if len(wanted) > self._cache_size:
            self._cache_size = len(wanted)
        computed = 0
        pending = [s for s in wanted if s not in self._dist_cache]
        for start in range(0, len(pending), chunk_size):
            chunk = pending[start : start + chunk_size]
            computed += len(chunk)
            self.delays_from_many(chunk, cache=True)
        return computed

    def cached_sources(self) -> List[int]:
        """Sources whose delay vectors are currently resident (LRU order)."""
        return list(self._dist_cache)

    @property
    def dijkstra_cache_size(self) -> int:
        """Current LRU capacity (grows when :meth:`warm` needs room)."""
        return self._cache_size

    def delay(self, u: int, v: int) -> float:
        """Shortest-path delay between hosts *u* and *v* (0 when ``u == v``)."""
        if u == v:
            return 0.0
        # Serve from whichever endpoint is already cached to avoid extra
        # runs, refreshing LRU recency so hot sources stay resident.
        if u in self._dist_cache:
            counters.delay_cache_hits += 1
            self._dist_cache.move_to_end(u)
            return float(self._dist_cache[u][v])
        if v in self._dist_cache:
            counters.delay_cache_hits += 1
            self._dist_cache.move_to_end(v)
            return float(self._dist_cache[v][u])
        counters.delay_cache_misses += 1
        self._run_dijkstra(u)
        return float(self._dist_cache[u][v])

    def path(self, u: int, v: int) -> List[int]:
        """One shortest path from *u* to *v* as a node list (inclusive).

        Raises ``ValueError`` if *v* is unreachable from *u*.
        """
        if u == v:
            return [u]
        if u not in self._pred_cache:
            self._run_dijkstra(u, predecessors=True)
        pred = self._pred_cache[u]
        if pred[v] < 0:
            raise ValueError(f"node {v} is unreachable from {u}")
        out = [v]
        node = v
        while node != u:
            node = int(pred[node])
            out.append(node)
        out.reverse()
        return out

    def path_delay(self, path: Sequence[int]) -> float:
        """Total delay along an explicit node path."""
        return sum(self.link_delay(a, b) for a, b in zip(path, path[1:]))

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

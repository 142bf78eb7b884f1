"""Compiled forwarding graphs + vectorized multi-source query propagation.

This module is the query engine: every query the experiments, the figures
and the examples issue is answered here.  The heap engine
(:func:`repro.search.flooding.propagate`) is the reference it is tested
against, and the engine of the one strategy that cannot compile (HPF).

1. A **strategy compiler** (:func:`compile_strategy`) lowers a
   :data:`~repro.search.flooding.ForwardingStrategy` into a
   :class:`CompiledGraph`: a CSR adjacency over the live peers whose row
   order *is* the strategy's iteration order.  Blind flooding compiles the
   overlay edge set once per :attr:`ArrayOverlay.epoch
   <repro.topology.soa.ArrayOverlay.epoch>`; ACE tree routing compiles the
   edges every relay forwards on into a *directed* CSR keyed by
   ``(overlay.epoch, protocol.state_version)``.  Both kinds lower an
   :class:`~repro.topology.soa.ArrayOverlay` — what every scenario builds —
   through :func:`_lower_arrays`: the overlay's compacted CSR is the
   flooding graph, and the ACE graph is that CSR with the routing rule
   (:func:`repro.core.turn.forwards`) applied to all entries at once, as
   one mask over the overlay's link labels.  Any other overlay raises
   ``TypeError``.  :func:`ace_graph_by_rows` walks the peers row by row,
   ``protocol.flooding_neighbors(p)`` each, and is what the array lowering
   is tested (and, under ``REPRO_SANITIZE=1``, rechecked at run time)
   against.  Compilation is memoized in per-owner weak caches, so
   churn/ACE mutations invalidate for free and a static overlay compiles
   exactly once.

2. A **vectorized multi-source kernel** (:func:`propagate_many`) solves the
   source batch a block of rows at a time, the block sized so that one
   ``(rows, edges)`` temporary is a few megabytes.  Each block takes its
   arrival times from one batched :func:`scipy.sparse.csgraph.dijkstra`,
   unbounded; a TTL then re-settles, row by row, only the peers whose
   winning path is longer than it allows (:func:`_gate_row`).  Parents,
   hop counts (derived on demand when no TTL reads them), traffic cost and
   message/duplicate counts are reconstructed vectorially —
   **bit-identical** to the heap engine (same floats, same counts), which
   the equivalence suite pins.  :func:`run_queries` keeps
   only the per-query stats of each block, so the figure path never holds
   a ``(queries, peers)`` array.  A peer that answers from its index cache
   and forwards nobody (:func:`repro.search.caching.cached_query`) is a
   graph with that peer's row emptied (:meth:`CompiledGraph.stopped_at`),
   not a kernel parameter.

Exactness contract: identical results require edge costs that are strictly
positive, on the 2^-11 grid, and total below 2^42.  Every generated overlay
has them: peers are placed on distinct hosts, exact delays sit on the
underlay's 2^-10 grid and a landmark estimate is half a sum of two of
them.  :func:`propagate_many` and :func:`run_queries` raise ``ValueError``
for a graph that breaks the contract (:attr:`CompiledGraph.has_zero_cost`,
:attr:`CompiledGraph.off_grid`) and for a strategy that does not compile;
there is no fallback, so every call here is answered by the kernel.

How equivalence is preserved, briefly:

* *Arrival times* — with positive costs, the heap engine's never-forward-
  back rule cannot affect first arrivals, so they equal single-source
  Dijkstra distances over the compiled graph; both engines sum the winning
  path left-to-right in IEEE doubles.
* *Parents* — the heap's winner among equal-time arrivals is the minimum
  sender id (heap entries tie-break on ``(time, target, sender)``); the
  kernel reproduces it as the min sender over tight edges.
* *Traffic* — the heap engine adds the cost of every message it sends, in
  settle order.  Those are the costs of the forwarders' edges minus each
  forwarder's edge back to its parent.  On the grid every partial sum of
  them is exact, so the order of addition cannot move the float: the
  kernel masks the sent edges of a whole block at once and sums each row.
* *Messages / duplicates* — every transmission is eventually popped exactly
  once, so ``duplicates = messages - (search_scope - 1)``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from time import perf_counter
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)
from weakref import WeakKeyDictionary

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ..core.turn import forwards
from ..perf import counters
from ..topology.soa import ArrayOverlay
from .flooding import GNUTELLA_TTL, ForwardingStrategy, QueryPropagation

__all__ = [
    "CompiledGraph",
    "BatchPropagation",
    "QueryStats",
    "compile_strategy",
    "ace_graph_by_rows",
    "propagate_many",
    "run_queries",
]

# ---------------------------------------------------------------------------
# Strategy compilation
# ---------------------------------------------------------------------------


#: Link costs are multiples of 2^-11 (exact delays sit on 2^-10, a landmark
#: estimate is half a sum of two of them) and a graph's total stays below
#: 2^42, so any sum of its costs is exact in a double, in any order.
_COST_STEPS = 2.0**11
_COST_BOUND = 2.0**42


@dataclass
class CompiledGraph:
    """A forwarding strategy lowered to CSR arrays over the live peer set.

    ``targets[indptr[i]:indptr[i+1]]`` lists the forwarding targets of peer
    ``peer_ids[i]`` in the strategy's own iteration order; no result
    depends on that order, since every sum of costs on the grid is exact.
    ``costs`` are the matching logical-link costs.
    """

    kind: str
    peer_ids: np.ndarray
    indptr: np.ndarray
    targets: np.ndarray
    costs: np.ndarray
    index: Dict[int, int]
    directed: bool

    def __post_init__(self) -> None:
        self.degrees = np.diff(self.indptr)
        #: Source index of every CSR entry.
        self.edge_src = np.repeat(
            np.arange(self.num_peers, dtype=np.int64), self.degrees
        )
        self.has_zero_cost = bool(self.costs.size) and bool(
            (self.costs <= 0.0).any()
        )
        #: Whether a cost is off the 2^-11 grid or they total 2^42 or more:
        #: then a sum of costs may round, and its order matters.
        steps = self.costs * _COST_STEPS  # exact: a power-of-two scale
        self.off_grid = not (
            np.array_equal(steps, np.floor(steps)) and self.costs.sum() < _COST_BOUND
        )
        self._matrix: Optional[csr_matrix] = None
        self._reverse: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._receivers: Optional[np.ndarray] = None

    @property
    def num_peers(self) -> int:
        """Number of live peers the graph was compiled over."""
        return int(self.peer_ids.size)

    @property
    def matrix(self) -> csr_matrix:
        """The scipy CSR matrix view (built lazily, shared across queries)."""
        if self._matrix is None:
            n = self.num_peers
            self._matrix = csr_matrix(
                (self.costs, self.targets, self.indptr), shape=(n, n)
            )
        return self._matrix

    @property
    def reverse(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """In-edge CSR ``(indptr, senders, costs)``, built lazily.

        An undirected graph is its own reverse: its rows are sorted and
        each link carries one cost both ways, so its in-edges are its
        out-edges, in the same order, bit for bit.
        """
        if not self.directed:
            return self.indptr, self.targets, self.costs
        if self._reverse is None:
            n = self.num_peers
            # Narrowed to 8 or 16 bits, a stable sort is numpy's radix sort.
            order = np.argsort(self.targets.astype(np.min_scalar_type(n - 1)), kind="stable")
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.targets, minlength=n), out=indptr[1:])
            self._reverse = (indptr, self.edge_src[order], self.costs[order])
        return self._reverse

    @property
    def receivers(self) -> np.ndarray:
        """Receiver index of every in-edge of :attr:`reverse`, built lazily."""
        if not self.directed:
            return self.edge_src
        if self._receivers is None:
            self._receivers = np.repeat(
                np.arange(self.num_peers, dtype=np.int64), np.diff(self.reverse[0])
            )
        return self._receivers

    def index_of(self, peers: Sequence[int]) -> np.ndarray:
        """Map peer ids to row indices (raises ``KeyError`` on unknowns)."""
        return np.array([self.index[p] for p in peers], dtype=np.int64)

    def stopped_at(self, peers: Iterable[int]) -> "CompiledGraph":
        """This graph with the rows of *peers* emptied: they forward to nobody.

        A stopped peer still receives, so its in-edges stay.  Returns
        ``self`` when no row changes; otherwise a directed copy, uncached.
        """
        stop = np.zeros(self.num_peers, dtype=bool)
        stop[self.index_of(peers)] = True
        if not self.degrees[stop].any():
            return self
        keep = ~stop[self.edge_src]
        indptr = np.zeros_like(self.indptr)
        np.cumsum(np.where(stop, 0, self.degrees), out=indptr[1:])
        return CompiledGraph(
            kind=self.kind,
            peer_ids=self.peer_ids,
            indptr=indptr,
            targets=self.targets[keep],
            costs=self.costs[keep],
            index=self.index,
            directed=True,
        )


# Weak per-owner memo caches: a compiled graph lives exactly as long as the
# overlay/protocol it describes, and is invalidated by version-key mismatch.
_FLOODING_CACHE: "WeakKeyDictionary[ArrayOverlay, Tuple[int, CompiledGraph]]" = (
    WeakKeyDictionary()
)
_ACE_CACHE: "WeakKeyDictionary[object, Tuple[Tuple[int, int], CompiledGraph]]" = (
    WeakKeyDictionary()
)


def _lower_arrays(
    overlay: ArrayOverlay, kind: str, protocol: Optional[object] = None
) -> CompiledGraph:
    """Array-engine lowering of both kinds, straight from the overlay's CSR.

    :meth:`ArrayOverlay.flooding_csr` hands over views of the compacted live
    adjacency — rows ascending by peer id, each row sorted, costs warmed —
    which already *is* the flooding graph; the ACE graph is the same rows
    with the edges the routing rule drops masked out: one
    :func:`~repro.core.turn.forwards` over the label column and each row's
    tree-broken bit (:meth:`ArrayOverlay.label_csr`).  The views alias the
    overlay's storage, so whatever the mask does not rebuild is copied,
    once.  The ACE result equals :func:`ace_graph_by_rows` field for field.
    """
    peers, indptr, targets, costs = overlay.flooding_csr()
    peer_ids = np.array(peers, dtype=np.int64)
    if protocol is None:
        indptr, targets, costs = indptr.copy(), targets.copy(), costs.copy()
    else:
        n = peer_ids.size
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        labels, broken = overlay.label_csr()
        keep = forwards(broken[src], labels)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src[keep], minlength=n), out=indptr[1:])
        targets, costs = targets[keep], costs[keep]
    counters.compiled_strategies += 1
    return CompiledGraph(
        kind=kind,
        peer_ids=peer_ids,
        indptr=indptr,
        targets=targets,
        costs=costs,
        index={p: i for i, p in enumerate(peers)},
        directed=protocol is not None,
    )


def _flooding_graph(overlay: ArrayOverlay) -> CompiledGraph:
    cached = _FLOODING_CACHE.get(overlay)
    if cached is not None and cached[0] == overlay.epoch:
        return cached[1]
    epoch = overlay.epoch
    graph = _lower_arrays(overlay, "flooding")
    _FLOODING_CACHE[overlay] = (epoch, graph)
    return graph


def ace_graph_by_rows(overlay: ArrayOverlay, protocol: object) -> CompiledGraph:
    """Compile *protocol*'s ACE forwarding graph row by row, uncached.

    The reference for the array lowering: each live peer's row is
    ``sorted(protocol.flooding_neighbors(peer))`` — ``ace_strategy`` sorts
    at forward time, so the rows sort the same way.  Reads only the public
    overlay surface, so the tests' dict-of-sets reference compiles here
    too; counts one compile and probes the cost cache once per edge.
    """
    peers = overlay.peers()
    index = {p: i for i, p in enumerate(peers)}
    indptr = np.zeros(len(peers) + 1, dtype=np.int64)
    targets: List[int] = []
    costs: List[float] = []
    for i, peer in enumerate(peers):
        row = sorted(protocol.flooding_neighbors(peer))  # type: ignore[attr-defined]
        cost_map = overlay.costs_from(peer, row)
        targets.extend(index[t] for t in row)
        costs.extend(cost_map[t] for t in row)
        indptr[i + 1] = indptr[i] + len(row)
    counters.compiled_strategies += 1
    return CompiledGraph(
        kind="ace",
        peer_ids=np.array(peers, dtype=np.int64),
        indptr=indptr,
        targets=np.array(targets, dtype=np.int64),
        costs=np.array(costs, dtype=np.float64),
        index=index,
        directed=True,
    )


def _ace_graph(overlay: ArrayOverlay, protocol: object) -> CompiledGraph:
    key = (overlay.epoch, protocol.state_version)  # type: ignore[attr-defined]
    cached = _ACE_CACHE.get(protocol)
    if cached is not None and cached[0] == key:
        return cached[1]
    graph = _lower_arrays(overlay, "ace", protocol)
    _ACE_CACHE[protocol] = (key, graph)
    return graph


def compile_strategy(
    overlay: ArrayOverlay, strategy: ForwardingStrategy
) -> CompiledGraph:
    """Lower *strategy* over *overlay* to a :class:`CompiledGraph`.

    Only strategies that declare a ``compiled_spec`` attribute — the
    closures returned by :func:`~repro.search.flooding.blind_flooding_strategy`
    and :func:`~repro.search.tree_routing.ace_strategy` — compile, and only
    against the overlay they were built for; any other raises
    ``ValueError``.  An overlay that is not an
    :class:`~repro.topology.soa.ArrayOverlay` raises ``TypeError``.
    Results are memoized per owner and invalidated by epoch/state-version
    mismatch.
    """
    if not isinstance(overlay, ArrayOverlay):
        raise TypeError(
            f"queries compile on an ArrayOverlay, not {type(overlay).__name__}"
        )
    kind, owner = getattr(strategy, "compiled_spec", (None, None))
    if kind == "flooding" and owner is overlay:
        return _flooding_graph(overlay)
    if kind == "ace" and getattr(owner, "overlay", None) is overlay:
        return _ace_graph(overlay, owner)
    raise ValueError(
        "strategy does not compile over this overlay; only the heap "
        "propagate() answers it"
    )


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


#: Bytes of one ``(rows, edges)`` float temporary of the block solver.  The
#: kernels hold three or four of them at a time; at this size the allocator
#: hands the same pages back block after block, so the working set is faulted
#: in once and stays near the cache (docs/PERFORMANCE.md, "Steady runs").
_BLOCK_BYTES = 4 << 20


def _block_rows(graph: CompiledGraph) -> int:
    """Source rows solved at a time: ten over the paper-scale graph."""
    return max(1, _BLOCK_BYTES // (8 * max(1, int(graph.targets.size))))


def _labels(
    graph: CompiledGraph, src_idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Unlimited-TTL labels of one block of sources via scipy's Dijkstra.

    Returns ``(dist, parent)`` with shape ``(len(src_idx), n)``; ``parent``
    is ``-1`` off the reached set and at the source.
    """
    n = graph.num_peers
    dist = np.atleast_2d(dijkstra(graph.matrix, directed=True, indices=src_idx))
    reached = np.isfinite(dist)

    # Parent = minimum sender over tight in-edges (dist[u] + c == dist[v]),
    # matching the heap engine's (time, target, sender) pop order.  The
    # in-edge list is ordered by (receiver, sender), so in the flattened
    # block the first tight edge of each (row, receiver) slot is the one.
    # Unreached peers look tight (inf + c == inf) and are masked after.
    _, senders, costs = graph.reverse
    receivers = graph.receivers
    arrival = np.take(dist, senders, axis=1, mode="clip")
    arrival += costs
    tight = arrival == np.take(dist, receivers, axis=1, mode="clip")
    row, edge = np.divmod(np.flatnonzero(tight), senders.size)
    slot = row * n + receivers[edge]
    first = np.ones(slot.size, dtype=bool)
    np.not_equal(slot[1:], slot[:-1], out=first[1:])
    parent = np.full(dist.shape, -1, dtype=np.int64)
    parent.reshape(-1)[slot[first]] = senders[edge[first]]
    parent[~reached] = -1
    return dist, parent


def _hop_counts(parent: np.ndarray, reached: np.ndarray) -> np.ndarray:
    """Depth of every peer in its row's parent forest; ``-1`` off *reached*.

    Pointer doubling (roots self-loop); jump holds positions in the
    flattened block.
    """
    rows, n = parent.shape
    has_parent = parent >= 0
    jump = np.where(has_parent, parent, np.arange(n, dtype=np.int64))
    jump += n * np.arange(rows, dtype=np.int64)[:, None]
    hops = has_parent.astype(np.int64)
    while True:
        nxt = jump.take(jump)
        if np.array_equal(nxt, jump):
            break
        hops += hops.take(jump)
        jump = nxt
    hops[~reached] = -1
    return hops


def _gate_row(
    graph: CompiledGraph,
    dist_row: np.ndarray,
    parent_row: np.ndarray,
    hops_row: np.ndarray,
    ttl: int,
) -> None:
    """Repair one row of unbounded labels into exact hop-bounded labels.

    The TTL gate only suppresses forwarding by peers whose *winning* arrival
    used ``ttl`` hops, so (by induction in settle order) every peer whose
    unbounded hop count is ``<= ttl`` keeps its unbounded label unchanged.
    Only the *fringe* — peers with unbounded hops ``> ttl`` — can move: they
    are re-settled by a small exact heap simulation seeded with the messages
    the frozen interior forwards across the boundary, forwarding onward
    among fringe peers only.  The fringe is empty for well-connected
    overlays at Gnutella TTLs, and the simulation visits only delivered
    messages, so this costs far less than a full heap propagate.
    """
    finite = np.isfinite(dist_row)
    fringe = finite & (hops_row > ttl)
    if not fringe.any():
        return
    rev_indptr, rev_src, rev_cost = graph.reverse
    fringe_idx = np.flatnonzero(fringe)
    lengths = rev_indptr[fringe_idx + 1] - rev_indptr[fringe_idx]
    total = int(lengths.sum())
    heap: List[Tuple[float, int, int, int]] = []
    if total:
        starts = rev_indptr[fringe_idx]
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        flat = np.repeat(starts, lengths) + offsets
        senders = rev_src[flat]
        vv = np.repeat(fringe_idx, lengths)
        # Boundary messages: reached interior peers within the gate forward
        # into the fringe, never back to their own parent.
        ok = (
            finite[senders]
            & ~fringe[senders]
            & (hops_row[senders] < ttl)
            & (parent_row[senders] != vv)
        )
        senders, vv = senders[ok], vv[ok]
        times = dist_row[senders] + rev_cost[flat][ok]
        heap = list(
            zip(
                times.tolist(),
                vv.tolist(),
                senders.tolist(),
                (hops_row[senders] + 1).tolist(),
            )
        )
        heapq.heapify(heap)
    dist_row[fringe_idx] = np.inf
    parent_row[fringe_idx] = -1
    hops_row[fringe_idx] = -1
    indptr, targets, costs = graph.indptr, graph.targets, graph.costs
    while heap:
        t, v, sender, h = heapq.heappop(heap)
        if np.isfinite(dist_row[v]):
            continue  # duplicate; counts are recomputed from final labels
        dist_row[v] = t
        parent_row[v] = sender
        hops_row[v] = h
        counters.frontier_rounds += 1
        if h >= ttl:
            continue
        for k in range(int(indptr[v]), int(indptr[v + 1])):
            w = int(targets[k])
            if w == sender or not fringe[w] or np.isfinite(dist_row[w]):
                continue
            heapq.heappush(heap, (t + float(costs[k]), w, v, h + 1))


def _account(
    graph: CompiledGraph,
    dist: np.ndarray,
    parent: np.ndarray,
    hops: Optional[np.ndarray],
    ttl: Optional[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(messages, traffic, duplicates) per row of a block, as the heap counts them.

    Every reached peer forwards — under a TTL only below it — on each edge
    of its row but the one back to its parent; one mask over the block's
    edges marks what was sent.  The costs sit on the 2^-11 grid and total
    below 2^42 (:func:`_kernel_graph` checks), so every partial sum of any
    subset of them is exact and the masked row sums are the heap engine's
    settle-order floats, in whatever order they add.
    """
    reached = np.isfinite(dist)
    scope = reached.sum(axis=1)
    fwd = reached if hops is None else reached & (hops < ttl)
    sent = np.take(fwd, graph.edge_src, axis=1, mode="clip")
    sent &= np.take(parent, graph.edge_src, axis=1, mode="clip") != graph.targets
    messages = np.count_nonzero(sent, axis=1)
    traffic = (sent * graph.costs).sum(axis=1)  # costs are finite: 0 * c == 0.0
    # Every pushed message pops exactly once: either it settles a peer
    # (scope - 1 of those) or it is counted as a duplicate.
    return messages, traffic, messages - (scope - 1)


def _solve_block(
    graph: CompiledGraph, src_idx: np.ndarray, ttl: Optional[int]
) -> Tuple[Optional[np.ndarray], ...]:
    """Solve one block of sources: unbounded labels, the TTL gate, the accounts.

    Returns ``(dist, parent, hops, messages, traffic, duplicates)``.  Only
    the gate reads hop counts, so without a TTL ``hops`` is ``None`` and
    :attr:`BatchPropagation.hops` derives it on demand.
    """
    dist, parent = _labels(graph, src_idx)
    hops = None
    if ttl is not None:
        hops = _hop_counts(parent, np.isfinite(dist))
        for r in range(dist.shape[0]):
            _gate_row(graph, dist[r], parent[r], hops[r], ttl)
    return (dist, parent, hops) + _account(graph, dist, parent, hops, ttl)


# ---------------------------------------------------------------------------
# Batched propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryStats:
    """Search-quality summary of one query: the metrics of Section 4.2.

    Response time follows the paper's definition: "the time period from
    when the query is issued until when the source peer received a response
    result from the first responder" — the response travels back along the
    inverse of the query path, so a responder reached at time *t* answers
    at ``2 t``.
    """

    source: int
    traffic_cost: float
    search_scope: int
    holders_reached: Tuple[int, ...]
    first_response_time: Optional[float]

    @property
    def success(self) -> bool:
        """Whether any object holder was reached."""
        return self.first_response_time is not None


class BatchPropagation:
    """Column-oriented record of a whole batch of query propagations.

    Per-query views are materialized lazily: :meth:`stats` answers the
    experiment metrics straight from the arrays, :meth:`result` rebuilds the
    full :class:`~repro.search.flooding.QueryPropagation` the heap engine
    would have produced.
    """

    def __init__(
        self,
        graph: CompiledGraph,
        sources: List[int],
        ttl: Optional[int],
        dist: np.ndarray,
        parent: np.ndarray,
        hops: Optional[np.ndarray],
        messages: np.ndarray,
        traffic: np.ndarray,
        duplicates: np.ndarray,
    ) -> None:
        self.graph = graph
        self.sources = sources
        self.ttl = ttl
        self.dist = dist
        self.parent = parent
        self._hops = hops
        self.messages = messages
        self.traffic = traffic
        self.duplicates = duplicates

    @property
    def hops(self) -> np.ndarray:
        """Hop count of every label: 0 at the source, ``-1`` off the reached set.

        A TTL-gated batch computes them in the kernel; an unbounded one
        derives them from ``parent`` on first access.
        """
        if self._hops is None:
            self._hops = _hop_counts(self.parent, np.isfinite(self.dist))
        return self._hops

    def __len__(self) -> int:
        return len(self.sources)

    def search_scope(self, i: int) -> int:
        """Number of peers reached by query *i*."""
        return int(np.isfinite(self.dist[i]).sum())

    def stats(self, i: int, holders: Iterable[int]) -> QueryStats:
        """Evaluate query *i* against an object's holders (no dict build)."""
        source = self.sources[i]
        dist_row = self.dist[i]
        index = self.graph.index
        reached_holders: List[int] = []
        first: Optional[float] = None
        for h in holders:
            if h == source:
                continue
            j = index.get(h)
            if j is None:
                continue
            t = dist_row[j]
            if not np.isfinite(t):
                continue
            reached_holders.append(h)
            response = 2.0 * float(t)
            if first is None or response < first:
                first = response
        return QueryStats(
            source=source,
            traffic_cost=float(self.traffic[i]),
            search_scope=self.search_scope(i),
            holders_reached=tuple(sorted(reached_holders)),
            first_response_time=first,
        )

    def result(self, i: int) -> QueryPropagation:
        """Materialize query *i* as a heap-identical ``QueryPropagation``."""
        prop = QueryPropagation(source=self.sources[i])
        ids = self.graph.peer_ids
        dist_row, parent_row, hops_row = (
            self.dist[i],
            self.parent[i],
            self.hops[i],
        )
        for j in np.flatnonzero(np.isfinite(dist_row)):
            peer = int(ids[j])
            prop.arrival_time[peer] = float(dist_row[j])
            prop.hops[peer] = int(hops_row[j])
            if parent_row[j] >= 0:
                prop.parent[peer] = int(ids[parent_row[j]])
        prop.traffic_cost = float(self.traffic[i])
        prop.messages = int(self.messages[i])
        prop.duplicate_messages = int(self.duplicates[i])
        return prop


def _kernel_graph(
    overlay: ArrayOverlay,
    strategy: ForwardingStrategy,
    ttl: Optional[int],
    graph: Optional[CompiledGraph] = None,
) -> CompiledGraph:
    """*graph*, or the compiled *strategy*; a negative TTL, a zero-cost edge
    or costs whose sums can round (:attr:`CompiledGraph.off_grid`) raise."""
    if ttl is not None and ttl < 0:
        raise ValueError(f"ttl must be None or >= 0, not {ttl}")
    if graph is None:
        graph = compile_strategy(overlay, strategy)
    if graph.has_zero_cost:
        # Two peers on one host (never generated): the heap's pop order among
        # zero-delay arrivals is not recoverable from the labels.
        raise ValueError("graph has a zero-cost edge; the kernel is not exact")
    if graph.off_grid:
        raise ValueError(
            "graph costs are off the 2^-11 grid or total 2^42 or more; "
            "the kernel's sums are not exact"
        )
    return graph


def propagate_many(
    overlay: ArrayOverlay,
    sources: Sequence[int],
    strategy: ForwardingStrategy,
    ttl: Optional[int] = GNUTELLA_TTL,
    graph: Optional[CompiledGraph] = None,
) -> BatchPropagation:
    """Propagate one query per source through the compiled strategy graph.

    The batch shares one compiled CSR graph — *graph* if given, e.g. a
    :meth:`CompiledGraph.stopped_at` copy — and is solved
    :func:`_block_rows` source rows at a time, which keeps every ``(rows,
    edges)`` temporary of the kernels at a few megabytes whatever the batch
    size.  Rows are solved independently, so the labels do not depend on
    the blocking.  Each block takes its distances from one batched scipy
    Dijkstra; an integer TTL then repairs them row by row
    (:func:`_gate_row`).  Raises ``ValueError`` for a negative *ttl*, for
    strategies :func:`compile_strategy` cannot lower and for graphs with a
    zero-cost edge, ``TypeError`` for an overlay that is not an
    ``ArrayOverlay`` and ``KeyError`` for unknown sources.

    Results are bit-identical to the heap engine.
    """
    graph = _kernel_graph(overlay, strategy, ttl, graph)
    for s in sources:
        if not overlay.has_peer(s):
            raise KeyError(f"peer {s} not in overlay")
    started = perf_counter()
    source_list = [int(s) for s in sources]
    src_idx = graph.index_of(source_list)
    n = graph.num_peers
    S = src_idx.size

    dist = np.empty((S, n))
    parent = np.empty((S, n), dtype=np.int64)
    hops = None if ttl is None else np.empty((S, n), dtype=np.int64)
    messages = np.empty(S, dtype=np.int64)
    traffic = np.empty(S)
    duplicates = np.empty(S, dtype=np.int64)
    outputs = (dist, parent, hops, messages, traffic, duplicates)
    rows = _block_rows(graph)
    for start in range(0, S, rows):
        block = slice(start, start + rows)
        for out, part in zip(outputs, _solve_block(graph, src_idx[block], ttl)):
            if out is not None:
                out[block] = part

    counters.batched_queries += S
    counters.queries += S
    counters.query_seconds += perf_counter() - started
    return BatchPropagation(
        graph=graph,
        sources=source_list,
        ttl=ttl,
        dist=dist,
        parent=parent,
        hops=hops,
        messages=messages,
        traffic=traffic,
        duplicates=duplicates,
    )


def run_queries(
    overlay: ArrayOverlay,
    strategy: ForwardingStrategy,
    queries: Sequence[Tuple[int, Iterable[int]]],
    ttl: Optional[int] = GNUTELLA_TTL,
) -> List[QueryStats]:
    """Evaluate a batch of ``(source, holders)`` queries in one shot.

    The experiment drivers' entry point: one compiled graph, the vectorized
    kernel a block of sources at a time, light per-query stats (no per-peer
    dicts, no ``(queries, peers)`` labels).  Raises as
    :func:`propagate_many` does.
    """
    query_list = list(queries)
    graph = _kernel_graph(overlay, strategy, ttl)
    # A block at a time, keeping only the stats: no (queries, peers) array.
    rows = _block_rows(graph)
    stats: List[QueryStats] = []
    for start in range(0, len(query_list), rows):
        block = query_list[start : start + rows]
        batch = propagate_many(
            overlay, [source for source, _ in block], strategy, ttl=ttl, graph=graph
        )
        stats.extend(
            batch.stats(i, holders) for i, (_, holders) in enumerate(block)
        )
    return stats

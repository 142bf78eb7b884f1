"""Compiled forwarding graphs + vectorized multi-source query propagation.

The scalar engine (:func:`repro.search.flooding.propagate`) simulates one
query at a time with a Python heap — exact, general, and the dominant cost of
every evaluation arm once the delay hot path is warm.  This module removes
that last scalar loop for the two strategies the figures actually measure:

1. A **strategy compiler** (:func:`compile_strategy`) lowers a
   :data:`~repro.search.flooding.ForwardingStrategy` into a
   :class:`CompiledGraph`: a CSR adjacency over the live peers whose row
   order *is* the strategy's iteration order.  Blind flooding compiles the
   overlay edge set once per :attr:`Overlay.epoch
   <repro.topology.overlay.Overlay.epoch>`; ACE tree routing compiles the
   edges every relay forwards on into a *directed* CSR keyed by
   ``(overlay.epoch, protocol.state_version)``.  Which lowering runs
   follows the overlay handed in.  On an
   :class:`~repro.topology.soa.ArrayOverlay` — what every scenario builds —
   both kinds go through :func:`_lower_arrays`: the overlay's compacted CSR
   is the flooding graph, and the ACE graph is that CSR with the routing
   rule (:func:`repro.core.turn.forwarding_set`) applied to all peers at
   once against one bulk read of the flat state store.  On the reference
   :class:`~repro.topology.overlay.Overlay`, which tests build by hand,
   :func:`_build_graph` walks the peers row by row — the neighbor sets for
   flooding, ``protocol.flooding_neighbors(p)`` for ACE — and is what
   the array lowering is tested (and, under ``REPRO_SANITIZE=1``,
   rechecked at run time) against.  Compilation is memoized in per-owner
   weak caches, so churn/ACE mutations invalidate for free and a static
   overlay compiles exactly once.

2. A **vectorized multi-source kernel** (:func:`propagate_many`) solves the
   source batch a block of rows at a time, the block sized so that one
   ``(rows, edges)`` temporary is a few megabytes.  Each block takes its
   arrival times from one batched :func:`scipy.sparse.csgraph.dijkstra`,
   unbounded; a TTL then re-settles, row by row, only the peers whose
   winning path is longer than it allows (:func:`_gate_row`).  Parents,
   hop counts, traffic cost and message/duplicate counts are reconstructed
   vectorially — **bit-identical** to the scalar engine (same floats, same
   counts), which the equivalence suite pins.  :func:`run_queries` keeps
   only the per-query stats of each block, so the figure path never holds
   a ``(queries, peers)`` array.

Exactness contract: identical results require strictly positive edge costs
(true for every generated overlay — peers are placed on distinct hosts).  A
graph containing a zero-cost edge, a non-compilable strategy, or a
``stop_at`` predicate (index caching) falls back to the scalar engine, which
remains the reference implementation.  That fallback is the only way the
high-level helpers reach the scalar engine: there is no switch, and a test
that wants the reference calls :func:`~repro.search.flooding.propagate` /
:func:`~repro.search.flooding.run_query` directly.

How equivalence is preserved, briefly:

* *Arrival times* — with positive costs, the scalar engine's never-forward-
  back rule cannot affect first arrivals, so they equal single-source
  Dijkstra distances over the compiled graph; both engines sum the winning
  path left-to-right in IEEE doubles.
* *Parents* — the scalar winner among equal-time arrivals is the minimum
  sender id (heap entries tie-break on ``(time, target, sender)``); the
  kernel reproduces it as the min sender over tight edges.
* *Traffic* — the scalar engine accumulates edge costs in settle order
  (source first, then reached peers by ``(arrival, peer id)``), iterating
  each peer's strategy set in Python iteration order with the parent edge
  skipped in place.  The kernel gathers CSR cost slices in exactly that
  order, the parent edge's cost replaced by ``0.0`` (adding it changes no
  partial sum), and reduces with a sequential ``cumsum``, matching the
  float sum term for term.
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

from ..core.flat_state import FlatAceStore
from ..perf import counters
from ..topology.overlay import Overlay
from ..topology.soa import ArrayOverlay
from .flooding import (
    GNUTELLA_TTL,
    ForwardingStrategy,
    QueryPropagation,
    propagate,
    run_query,
)

__all__ = [
    "CompiledGraph",
    "BatchPropagation",
    "QueryStats",
    "RingPropagator",
    "compile_strategy",
    "ace_graph_by_rows",
    "propagate_many",
    "propagate_single",
    "run_queries",
]

# ---------------------------------------------------------------------------
# Strategy compilation
# ---------------------------------------------------------------------------


@dataclass
class CompiledGraph:
    """A forwarding strategy lowered to CSR arrays over the live peer set.

    ``targets[indptr[i]:indptr[i+1]]`` lists the forwarding targets of peer
    ``peer_ids[i]`` *in the strategy's own iteration order* (that order is
    load-bearing: traffic accounting must add edge costs exactly as the
    scalar engine does).  ``costs`` are the matching logical-link costs.
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
        self._matrix: Optional[csr_matrix] = None
        self._reverse: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    @property
    def num_peers(self) -> int:
        """Number of live peers the graph was compiled over."""
        return int(self.peer_ids.size)

    @property
    def supports_exact(self) -> bool:
        """Whether the kernels guarantee bit-identity with the scalar engine.

        Requires strictly positive edge costs; a zero-cost edge (two peers
        on one physical host — never produced by the generators) makes the
        scalar heap's pop order unrecoverable, so exact callers fall back.
        """
        return not self.has_zero_cost

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
        """In-edge CSR ``(indptr, senders, costs)``, built lazily."""
        if self._reverse is None:
            n = self.num_peers
            order = np.argsort(self.targets, kind="stable")
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.targets, minlength=n), out=indptr[1:])
            self._reverse = (indptr, self.edge_src[order], self.costs[order])
        return self._reverse

    def index_of(self, peers: Sequence[int]) -> np.ndarray:
        """Map peer ids to row indices (raises ``KeyError`` on unknowns)."""
        return np.array([self.index[p] for p in peers], dtype=np.int64)


# Weak per-owner memo caches: a compiled graph lives exactly as long as the
# overlay/protocol it describes, and is invalidated by version-key mismatch.
_FLOODING_CACHE: "WeakKeyDictionary[Overlay, Tuple[int, CompiledGraph]]" = (
    WeakKeyDictionary()
)
_ACE_CACHE: "WeakKeyDictionary[object, Tuple[Tuple[int, int], CompiledGraph]]" = (
    WeakKeyDictionary()
)


def _build_graph(
    overlay: Overlay,
    forward_sets: Iterable[Tuple[int, Iterable[int]]],
    kind: str,
    directed: bool,
) -> CompiledGraph:
    peers = overlay.peers()
    index = {p: i for i, p in enumerate(peers)}
    indptr = np.zeros(len(peers) + 1, dtype=np.int64)
    targets: List[int] = []
    costs: List[float] = []
    for i, (peer, fwd) in enumerate(forward_sets):
        fwd_list = list(fwd)
        # One batched cost lookup per row (dict hits on a warmed overlay).
        cost_map = overlay.costs_from(peer, fwd_list)
        targets.extend(index[t] for t in fwd_list)
        costs.extend(cost_map[t] for t in fwd_list)
        indptr[i + 1] = indptr[i] + len(fwd_list)
    counters.compiled_strategies += 1
    return CompiledGraph(
        kind=kind,
        peer_ids=np.array(peers, dtype=np.int64),
        indptr=indptr,
        targets=np.array(targets, dtype=np.int64),
        costs=np.array(costs, dtype=np.float64),
        index=index,
        directed=directed,
    )


def _lower_arrays(
    overlay: ArrayOverlay, kind: str, protocol: Optional[object] = None
) -> CompiledGraph:
    """Array-engine lowering of both kinds, straight from the overlay's CSR.

    :meth:`ArrayOverlay.flooding_csr` hands over views of the compacted live
    adjacency — rows ascending by peer id, each row sorted, costs warmed —
    which already *is* the flooding graph; the ACE graph is the same rows
    with the edges the routing rule drops masked out (:func:`_ace_keep`).
    The views alias the overlay's storage, so whatever the mask does not
    rebuild is copied, once.  The result equals :func:`_build_graph` over
    the same rows field for field.
    """
    peers, indptr, targets, costs = overlay.flooding_csr()
    peer_ids = np.array(peers, dtype=np.int64)
    if protocol is None:
        indptr, targets, costs = indptr.copy(), targets.copy(), costs.copy()
    else:
        n = peer_ids.size
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        keep = _ace_keep(
            peer_ids, src, targets,
            protocol.flat_store,  # type: ignore[attr-defined]
        )
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


def _ace_keep(
    peer_ids: np.ndarray,
    src: np.ndarray,
    targets: np.ndarray,
    store: FlatAceStore,
) -> np.ndarray:
    """Mask of the live directed edges ``src -> targets`` ACE forwards on.

    :func:`repro.core.turn.forwarding_set` evaluated for every peer at once:
    a peer with no stored state, or with a stored flooding neighbor that is
    no longer a live neighbor, keeps all its edges; any other keeps those in
    ``flooding`` or not in ``known``.  Edges and stored pairs are matched as
    ``u * stride + v`` keys in peer-id space — the live keys ascend, rows
    being sorted — so ids of departed peers, which have no row, need no
    special case.
    """
    if not targets.size:
        return np.zeros(0, dtype=bool)
    peer, f_indptr, f_data, k_indptr, k_data = store.rows()
    n = peer_ids.size
    stride = 1 + max(int(a.max()) for a in (peer_ids, f_data, k_data) if a.size)
    live_keys = peer_ids[src] * stride + peer_ids[targets]
    f_pos, f_live = _find_sorted(
        live_keys, np.repeat(peer, np.diff(f_indptr)) * stride + f_data
    )
    k_pos, k_live = _find_sorted(
        live_keys, np.repeat(peer, np.diff(k_indptr)) * stride + k_data
    )
    # routed[i]: row i forwards by its stored tree.  State the store still
    # holds for a peer that is not live lands on the spare row n.
    row, live = _find_sorted(peer_ids, peer)
    row[~live] = n
    routed = np.zeros(n + 1, dtype=bool)
    routed[row] = True
    routed[np.repeat(row, np.diff(f_indptr))[~f_live]] = False
    in_flooding = np.zeros(targets.size, dtype=bool)
    in_flooding[f_pos[f_live]] = True
    in_known = np.zeros(targets.size, dtype=bool)
    in_known[k_pos[k_live]] = True
    return ~routed[src] | in_flooding | ~in_known


def _find_sorted(
    haystack: np.ndarray, keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Where each key sits in the ascending, non-empty *haystack*, and whether."""
    pos = np.searchsorted(haystack, keys)
    pos[pos == haystack.size] = 0
    return pos, haystack[pos] == keys


def _flooding_graph(overlay: Overlay) -> CompiledGraph:
    cached = _FLOODING_CACHE.get(overlay)
    if cached is not None and cached[0] == overlay.epoch:
        return cached[1]
    epoch = overlay.epoch
    if isinstance(overlay, ArrayOverlay):
        graph = _lower_arrays(overlay, "flooding")
    else:
        # CSR row order must equal the (sorted) order the scalar engine's
        # strategy yields at forward time — blind_flooding_strategy sorts,
        # so the compiled rows sort too.
        graph = _build_graph(
            overlay,
            ((p, sorted(overlay.neighbors(p))) for p in overlay.peers()),
            kind="flooding",
            directed=False,
        )
    _FLOODING_CACHE[overlay] = (epoch, graph)
    return graph


def ace_graph_by_rows(overlay: Overlay, protocol: object) -> CompiledGraph:
    """Compile *protocol*'s ACE forwarding graph row by row, uncached.

    The lowering a reference ``Overlay`` gets, and the reference for the
    array lowering: each live peer's row is
    ``sorted(protocol.flooding_neighbors(peer))``.  Works on either overlay
    class; counts one compile and probes the cost cache once per edge.
    """
    # Sorted rows: ace_strategy sorts flooding_neighbors() at forward time,
    # so the compiled CSR rows must sort the same way.
    flooding_neighbors = protocol.flooding_neighbors  # type: ignore[attr-defined]
    return _build_graph(
        overlay,
        ((p, sorted(flooding_neighbors(p))) for p in overlay.peers()),
        kind="ace",
        directed=True,
    )


def _ace_graph(overlay: Overlay, protocol: object) -> CompiledGraph:
    key = (overlay.epoch, protocol.state_version)  # type: ignore[attr-defined]
    cached = _ACE_CACHE.get(protocol)
    if cached is not None and cached[0] == key:
        return cached[1]
    if protocol.flat_store is not None:  # type: ignore[attr-defined]
        assert isinstance(overlay, ArrayOverlay)  # the flat store's engine
        graph = _lower_arrays(overlay, "ace", protocol)
    else:
        graph = ace_graph_by_rows(overlay, protocol)
    _ACE_CACHE[protocol] = (key, graph)
    return graph


def compile_strategy(
    overlay: Overlay, strategy: ForwardingStrategy
) -> Optional[CompiledGraph]:
    """Lower *strategy* to a :class:`CompiledGraph`, or ``None``.

    Only strategies that declare a ``compiled_spec`` attribute — the
    closures returned by :func:`~repro.search.flooding.blind_flooding_strategy`
    and :func:`~repro.search.tree_routing.ace_strategy` — are compilable,
    and only against the overlay they were built for.  Results are memoized
    per owner and invalidated by epoch/state-version mismatch.
    """
    spec = getattr(strategy, "compiled_spec", None)
    if spec is None:
        return None
    kind, owner = spec
    if kind == "flooding":
        if owner is not overlay:
            return None
        return _flooding_graph(overlay)
    if kind == "ace":
        if getattr(owner, "overlay", None) is not overlay:
            return None
        return _ace_graph(overlay, owner)
    return None


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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unlimited-TTL labels of one block of sources via scipy's Dijkstra.

    Returns ``(dist, parent, hops)`` with shape ``(len(src_idx), n)``;
    ``parent``/``hops`` are ``-1`` off the reached set and at the source
    (``hops`` is 0 there).
    """
    n = graph.num_peers
    dist = np.atleast_2d(dijkstra(graph.matrix, directed=True, indices=src_idx))
    reached = np.isfinite(dist)

    # Parent = minimum sender over tight in-edges (dist[u] + c == dist[v]),
    # matching the scalar heap's (time, target, sender) pop order.  The
    # in-edge list is ordered by (receiver, sender), so in the flattened
    # block the first tight edge of each (row, receiver) slot is the one.
    # Unreached peers look tight (inf + c == inf) and are masked after.
    rev_indptr, senders, costs = graph.reverse
    receivers = np.repeat(np.arange(n, dtype=np.int64), np.diff(rev_indptr))
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

    # Hops by pointer doubling over the parent forest (roots self-loop);
    # jump holds positions in the flattened block.
    has_parent = parent >= 0
    jump = np.where(has_parent, parent, np.arange(n, dtype=np.int64))
    jump += n * np.arange(dist.shape[0], dtype=np.int64)[:, None]
    hops = has_parent.astype(np.int64)
    while True:
        nxt = jump.take(jump)
        if np.array_equal(nxt, jump):
            break
        hops += hops.take(jump)
        jump = nxt
    hops[~reached] = -1
    return dist, parent, hops


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
    messages, so this costs far less than a full scalar propagate.
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


def _settle_order(dist: np.ndarray) -> np.ndarray:
    """Per row, peer indices by ``(arrival, index)``; the unreached come last.

    An unstable sort leaves equal arrivals in any order, and they occur in
    every row at paper scale (landmark costs repeat), so the tied runs alone
    are sorted again, by run and then by index.
    """
    order = np.argsort(dist, axis=1)
    arrival = np.take_along_axis(dist, order, axis=1)
    follows = np.zeros(dist.shape, dtype=bool)  # ties with its left neighbour
    np.equal(arrival[:, 1:], arrival[:, :-1], out=follows[:, 1:])
    follows &= np.isfinite(arrival)
    in_run = follows.copy()
    in_run[:, :-1] |= follows[:, 1:]
    at = np.flatnonzero(in_run)
    if at.size:
        flat = order.reshape(-1)
        run = np.cumsum(~follows.reshape(-1)[at])
        peers = flat[at]
        flat[at] = peers[np.argsort(run * dist.shape[1] + peers)]
    return order


def _account(
    graph: CompiledGraph,
    dist: np.ndarray,
    parent: np.ndarray,
    hops: np.ndarray,
    ttl: Optional[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(messages, traffic, duplicates) per row of a block, in scalar float order.

    Forwarders are visited in settle order — the source first (arrival 0 is
    the unique minimum), then by ``(arrival, peer id)`` — each contributing
    its CSR cost slice.  The edge back to a forwarder's parent is not sent
    on; its cost is multiplied by zero in place, and since ``x + 0.0 == x``
    the sequential ``cumsum`` reproduces the scalar engine's left-to-right
    float accumulation exactly.  Costs are positive, so the nonzero terms
    count the messages.
    """
    rows = dist.shape[0]
    messages = np.zeros(rows, dtype=np.int64)
    traffic = np.zeros(rows)
    order = _settle_order(dist)
    scope = np.isfinite(dist).sum(axis=1)
    sent = np.take(parent, graph.edge_src, axis=1, mode="clip") != graph.targets
    charged = graph.costs * sent
    indptr, degrees = graph.indptr, graph.degrees
    for r in range(rows):
        forwarders = order[r, : scope[r]]
        if ttl is not None:
            forwarders = forwarders[hops[r, forwarders] < ttl]
        lengths = degrees[forwarders]
        if not lengths.any():
            continue
        ends = np.cumsum(lengths)
        flat = np.repeat(indptr[forwarders] - (ends - lengths), lengths)
        flat += np.arange(ends[-1])
        terms = charged[r][flat]
        messages[r] = np.count_nonzero(terms)
        traffic[r] = np.cumsum(terms)[-1]
    # Every pushed message pops exactly once: either it settles a peer
    # (scope - 1 of those) or it is counted as a duplicate.
    return messages, traffic, messages - (scope - 1)


def _solve_block(
    graph: CompiledGraph,
    labels: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ttl: Optional[int],
) -> Tuple[np.ndarray, ...]:
    """Finish one block from its unbounded *labels*, which it overwrites.

    A TTL repairs them row by row (:func:`_gate_row`); then the accounts.
    Returns ``(dist, parent, hops, messages, traffic, duplicates)``.
    """
    dist, parent, hops = labels
    if ttl is not None:
        for r in range(dist.shape[0]):
            _gate_row(graph, dist[r], parent[r], hops[r], ttl)
    return (dist, parent, hops) + _account(graph, dist, parent, hops, ttl)


# ---------------------------------------------------------------------------
# Batched propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryStats:
    """Search-quality summary of one batched query (cf. ``QueryResult``)."""

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
    experiment metrics straight from the arrays, :meth:`result` rebuilds a
    full scalar-compatible :class:`~repro.search.flooding.QueryPropagation`.
    """

    def __init__(
        self,
        graph: CompiledGraph,
        sources: List[int],
        ttl: Optional[int],
        dist: np.ndarray,
        parent: np.ndarray,
        hops: np.ndarray,
        messages: np.ndarray,
        traffic: np.ndarray,
        duplicates: np.ndarray,
    ) -> None:
        self.graph = graph
        self.sources = sources
        self.ttl = ttl
        self.dist = dist
        self.parent = parent
        self.hops = hops
        self.messages = messages
        self.traffic = traffic
        self.duplicates = duplicates

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
        """Materialize query *i* as a scalar-identical ``QueryPropagation``."""
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


def propagate_many(
    overlay: Overlay,
    sources: Sequence[int],
    strategy: ForwardingStrategy,
    ttl: Optional[int] = GNUTELLA_TTL,
    graph: Optional[CompiledGraph] = None,
) -> BatchPropagation:
    """Propagate one query per source through the compiled strategy graph.

    The batch shares one compiled CSR graph and is solved
    :func:`_block_rows` source rows at a time, which keeps every ``(rows,
    edges)`` temporary of the kernels at a few megabytes whatever the batch
    size.  Rows are solved independently, so the labels do not depend on
    the blocking.  Each block takes its distances from one batched scipy
    Dijkstra; an integer TTL then repairs them row by row
    (:func:`_gate_row`).  Raises ``ValueError`` for strategies
    :func:`compile_strategy` cannot lower and for graphs with a zero-cost
    edge (use the scalar engine for those, as :func:`run_queries` and
    :func:`propagate_single` do) and ``KeyError`` for unknown sources.

    Results are bit-identical to the scalar engine.
    """
    if graph is None:
        graph = compile_strategy(overlay, strategy)
        if graph is None:
            raise ValueError(
                "strategy is not compilable; use the scalar propagate()"
            )
    if graph.has_zero_cost:
        raise ValueError(
            "graph has a zero-cost edge; use the scalar propagate()"
        )
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
    hops = np.empty((S, n), dtype=np.int64)
    messages = np.empty(S, dtype=np.int64)
    traffic = np.empty(S)
    duplicates = np.empty(S, dtype=np.int64)
    rows = _block_rows(graph)
    for start in range(0, S, rows):
        block = slice(start, start + rows)
        (
            dist[block],
            parent[block],
            hops[block],
            messages[block],
            traffic[block],
            duplicates[block],
        ) = _solve_block(graph, _labels(graph, src_idx[block]), ttl)

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


# ---------------------------------------------------------------------------
# High-level helpers (scalar fallback built in)
# ---------------------------------------------------------------------------


def _exact_graph(
    overlay: Overlay, strategy: ForwardingStrategy
) -> Optional[CompiledGraph]:
    """The compiled graph when batching may replace the scalar engine."""
    graph = compile_strategy(overlay, strategy)
    if graph is None or not graph.supports_exact:
        return None
    return graph


def propagate_single(
    overlay: Overlay,
    source: int,
    strategy: ForwardingStrategy,
    ttl: Optional[int] = GNUTELLA_TTL,
    graph: Optional[CompiledGraph] = None,
) -> QueryPropagation:
    """Drop-in :func:`~repro.search.flooding.propagate` on the fast path.

    Uses the batched kernel (sharing the epoch-memoized compiled graph)
    when the strategy compiles and exactness holds; falls back to the
    scalar engine otherwise.  Always returns a full ``QueryPropagation``.
    """
    if graph is None:
        graph = _exact_graph(overlay, strategy)
    if graph is None:
        return propagate(overlay, source, strategy, ttl=ttl)
    return propagate_many(
        overlay, [source], strategy, ttl=ttl, graph=graph
    ).result(0)


class RingPropagator:
    """Shared propagation state for expanding-ring (iterative deepening).

    The rings of one expanding-ring search differ only in TTL, so the
    compiled graph *and* the batched unbounded-label solve are computed once
    and each ring merely re-runs the cheap fringe repair
    (:func:`_gate_row`) plus accounting against its own TTL.  Falls back to
    the scalar engine per ring when the strategy does not compile exactly.
    """

    def __init__(
        self, overlay: Overlay, source: int, strategy: ForwardingStrategy
    ) -> None:
        self._overlay = overlay
        self._source = source
        self._strategy = strategy
        self._graph = _exact_graph(overlay, strategy)
        self._base: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def propagate(self, ttl: Optional[int]) -> QueryPropagation:
        """One ring's full propagation record at the given TTL."""
        graph = self._graph
        if graph is None:
            return propagate(self._overlay, self._source, self._strategy, ttl=ttl)
        if not self._overlay.has_peer(self._source):
            raise KeyError(f"peer {self._source} not in overlay")
        started = perf_counter()
        if self._base is None:
            self._base = _labels(graph, graph.index_of([self._source]))
        solved = _solve_block(graph, tuple(a.copy() for a in self._base), ttl)
        counters.batched_queries += 1
        counters.queries += 1
        counters.query_seconds += perf_counter() - started
        return BatchPropagation(graph, [self._source], ttl, *solved).result(0)


def run_queries(
    overlay: Overlay,
    strategy: ForwardingStrategy,
    queries: Sequence[Tuple[int, Iterable[int]]],
    ttl: Optional[int] = GNUTELLA_TTL,
) -> List[QueryStats]:
    """Evaluate a batch of ``(source, holders)`` queries in one shot.

    The experiment drivers' entry point: one compiled graph, the vectorized
    kernel a block of sources at a time, light per-query stats (no per-peer
    dicts, no ``(queries, peers)`` labels).  Strategies the compiler cannot
    lower — custom closures, ``stop_at`` flows — are answered by looping the
    scalar :func:`~repro.search.flooding.run_query`, with identical numbers.
    """
    query_list = list(queries)
    graph = _exact_graph(overlay, strategy)
    if graph is None:
        out: List[QueryStats] = []
        for source, holders in query_list:
            result = run_query(overlay, source, strategy, holders, ttl=ttl)
            out.append(
                QueryStats(
                    source=source,
                    traffic_cost=result.traffic_cost,
                    search_scope=result.search_scope,
                    holders_reached=result.holders_reached,
                    first_response_time=result.first_response_time,
                )
            )
        return out
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

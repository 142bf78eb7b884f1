"""Vectorized ACE step kernel: what an ACE step runs on every scenario.

PR 6 made the ACE *state* flat (:class:`~repro.topology.soa.ArrayOverlay` +
:class:`~repro.core.flat_state.FlatAceStore`) but left the optimization
inner loop — closure build, Phase-1 accounting, Prim MST, end-of-step tree
rebuild — as per-peer Python over dict-of-dict closures.  This module
replaces that loop on an ``ArrayOverlay``:

1. **Batched closure extraction** (:func:`extract_closures`): all scheduled
   peers' depth-``h`` closures are computed in one shared CSR frontier sweep
   over :meth:`ArrayOverlay.adjacency_csr` — one ``visited`` matrix, one
   vectorized neighbor gather per BFS level — instead of one dict-building
   BFS per peer.  Everything the per-source tail needs (member ids, local
   edge indices, row pointers, roots) is lowered for the whole sweep with
   numpy; the per-source loop slices those arrays, crosses into Python one
   closure at a time (``.tolist()``, so at most one closure's edges are
   boxed at once) and runs Prim on lists.  Nothing here is buffer-backed:
   the lists are copies of one CSR snapshot, and it is the dirty log below,
   not the arrays, that decides how long a :class:`ClosureBatch` entry
   stays valid.
2. **Flat Phase-1 accounting**: a peer's probe and exchange overheads reduce
   to the sequential IEEE sum of its direct-edge costs in ascending-neighbor
   order (exactly the order :func:`~repro.core.cost_table.run_phase1`'s
   dicts iterate), read straight off the peer's CSR row — no
   ``NeighborCostTable`` dicts for closure members that Phase 3 never reads.
3. **Segmented MST kernel**: Prim over each closure's packed local-index
   segment, tie-broken ``(cost, node, parent)`` exactly like
   :func:`~repro.core.spanning_tree.prim_mst_heap` (member segments are
   sorted by peer id, so local-index order is order-isomorphic to peer-id
   order), writing flooding/known memberships straight into the flat store
   without materializing ``PeerAceState`` or ``SpanningTree`` objects.
4. **A vectorized churn driver** (:func:`churn_refresh`): one churn event's
   whole mutation batch is applied to the overlay edit buffer first, the
   touched cost rows are re-warmed in a single bulk call, and the joiner
   plus all affected ex/new neighbors are re-extracted in one sweep —
   replacing the per-peer ``refresh_peer``/``recompute_tree`` chain in
   :mod:`repro.experiments.dynamic_env`.

Mid-step mutations (Phase-3 replacements, redundant-link sheds) are handled
with an exact staleness rule: a mutation can only change a peer's closure if
one of its endpoints is a closure *member* (every path of ``<= h`` hops from
the source runs through members, so an edge with both endpoints outside the
member set can neither add nor remove members or induced edges).  The kernel
tracks mutation endpoints in a dirty list; a scheduled peer whose
pre-extracted closure intersects the dirty set falls back to the scalar
reference path for that turn.  RNG draws happen peer-by-peer in the same
order as the reference loop, so the random streams — and therefore every
figure — are byte-identical.

The kernel is what :meth:`AceProtocol.step` runs whenever the protocol sits
on an ``ArrayOverlay`` — always, for a built scenario; the object-model loop
is the reference, and the equivalence suites pin the two byte-for-byte.  Phase 3
and the report fold are not restated here — they are
:func:`repro.core.turn.phase3` / :func:`repro.core.turn.fold`, the same
code the object loop and the live runtime run.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence

import numpy as np

from ..perf import counters
from ..topology.soa import ArrayOverlay
from .closure import neighbor_closure
from .cost_table import ENTRY_COST_FACTOR, ROUND_TRIP_FACTOR
from .turn import Turn, fold, phase3

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from .ace import AceProtocol, StepReport

__all__ = [
    "ClosureBatch",
    "extract_closures",
    "batched_step",
    "churn_refresh",
]

# ---------------------------------------------------------------------------
# Batched closure extraction
# ---------------------------------------------------------------------------


class ClosureBatch:
    """Depth-``h`` closures of a batch of sources, extracted in one sweep.

    Everything is computed eagerly against a single
    :meth:`ArrayOverlay.adjacency_csr` snapshot, in **peer-id space** (slot
    numbering is stable between peer additions/removals, but peer ids are
    what mutations report), so entries stay valid across mid-step edge
    mutations — validity is decided by the caller's dirty-set test, not by
    the arrays going stale.
    """

    __slots__ = (
        "sources",
        "index",
        "members",
        "member_sets",
        "direct",
        "direct_costs",
        "probe_sum",
        "closure_edges",
        "flooding",
    )

    def __init__(self) -> None:
        #: Sources in extraction order.
        self.sources: List[int] = []
        #: peer id -> position of its entry in the per-source lists.
        self.index: Dict[int, int] = {}
        #: Closure members per source (ascending peer ids).
        self.members: List[List[int]] = []
        #: Same memberships as sets, for the dirty-intersection test.
        self.member_sets: List[frozenset] = []
        #: Direct logical neighbors per source (ascending peer ids).
        self.direct: List[List[int]] = []
        #: Matching direct-edge costs (the Phase-1 probe values).
        self.direct_costs: List[List[float]] = []
        #: Sequential left-to-right IEEE sum of ``direct_costs`` — the float
        #: both Phase-1 overhead formulas scale (same order as the dict sums
        #: in the reference, so the totals match bit for bit).
        self.probe_sum: List[float] = []
        #: Undirected edge count of each closure's induced subgraph.
        self.closure_edges: List[int] = []
        #: MST tree-neighbors of each source (ascending peer ids).
        self.flooding: List[List[int]] = []

    def row(self, pos: int) -> tuple:
        """Entry *pos* as a flat-store row: flooding, known, size, edges."""
        return (
            self.flooding[pos],
            self.direct[pos],
            len(self.members[pos]),
            self.closure_edges[pos],
        )


def _prim_flooding(
    indptr: List[int], nbrs: List[int], costs: List[float], root: int
) -> List[int]:
    """Root's tree-neighbor set of Prim's MST over one local-CSR segment.

    Mirrors :func:`~repro.core.spanning_tree.prim_mst_heap` exactly: heap
    entries are ``(cost, node, parent)``, popped in global ascending order.
    Local indices are assigned in ascending-peer-id order, so every
    tie-break compares the same way it would on raw peer ids, and the
    returned set equals ``tree.tree_neighbors(root)`` of the reference.
    """
    nloc = len(indptr) - 1
    if nloc <= 1:
        return []
    in_tree = bytearray(nloc)
    in_tree[root] = 1
    heap = [
        (costs[j], nbrs[j], root) for j in range(indptr[root], indptr[root + 1])
    ]
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop
    flooding: List[int] = []
    added = 1
    while heap and added < nloc:
        c, v, par = pop(heap)
        if in_tree[v]:
            continue
        in_tree[v] = 1
        added += 1
        if par == root:
            flooding.append(v)
        for j in range(indptr[v], indptr[v + 1]):
            w = nbrs[j]
            if not in_tree[w]:
                push(heap, (costs[j], w, v))
    flooding.sort()
    return flooding


#: Sources swept per shared ``visited`` matrix (bounds its memory to
#: ``_SWEEP x num_peers`` bools regardless of how many peers are scheduled).
_SWEEP = 256


def extract_closures(
    overlay: ArrayOverlay, sources: Sequence[int], depth: int
) -> ClosureBatch:
    """Extract the depth-``h`` closures of *sources* in CSR frontier sweeps.

    All sources must be live peers.  Costs are read from the warmed CSR
    (``adjacency_csr`` bulk-fills any stragglers first), so the floats are
    the exact cached values the scalar reference reads through its dicts.
    """
    if depth < 1:
        raise ValueError(f"closure depth must be >= 1, got {depth}")
    batch = ClosureBatch()
    if not sources:
        return batch
    peer_arr, indptr, nbr, cost = overlay.adjacency_csr()
    n = len(peer_arr)
    src_arr = np.asarray(sources, dtype=np.int64)
    slots = np.searchsorted(peer_arr, src_arr)
    for start in range(0, len(sources), _SWEEP):
        _extract_sweep(
            batch,
            peer_arr,
            indptr,
            nbr,
            cost,
            n,
            slots[start : start + _SWEEP],
            depth,
        )
    return batch


def _extract_sweep(
    batch: ClosureBatch,
    peer_arr: np.ndarray,
    indptr: np.ndarray,
    nbr: np.ndarray,
    cost: np.ndarray,
    n: int,
    src_slots: np.ndarray,
    depth: int,
) -> None:
    nsrc = len(src_slots)
    stride = np.int64(n)
    visited = np.zeros((nsrc, n), dtype=bool)
    rows = np.arange(nsrc)
    visited[rows, src_slots] = True
    f_src = rows
    f_node = src_slots
    # Members as ``source * n + slot`` keys, one array per BFS level.
    levels = [rows * stride + src_slots]
    for _ in range(depth):
        deg = indptr[f_node + 1] - indptr[f_node]
        total = int(deg.sum())
        if not total:
            break
        # Flat gather of every frontier node's CSR row in one shot.
        ends = np.cumsum(deg)
        eidx = np.repeat(indptr[f_node] - (ends - deg), deg) + np.arange(total)
        cand_src = np.repeat(f_src, deg)
        cand_node = nbr[eidx]
        fresh = ~visited[cand_src, cand_node]
        # Dedup (source, node) pairs discovered via several frontier nodes
        # in the same level, or the expansion grows multiplicatively.
        key = np.unique(cand_src[fresh] * stride + cand_node[fresh])
        if not len(key):
            break
        f_src, f_node = np.divmod(key, stride)
        visited[f_src, f_node] = True
        levels.append(key)

    # Sorted keys group the members by source, ascending in slot (==
    # ascending peer id) within each group.
    m_key = np.sort(np.concatenate(levels))
    m_src, m_slot = np.divmod(m_key, stride)
    m_off = np.zeros(nsrc + 1, dtype=np.int64)
    np.cumsum(np.bincount(m_src, minlength=nsrc), out=m_off[1:])

    # Induced edges: every member's full CSR row, filtered to members of the
    # same source.  Rows are gathered in member order, so the kept entries
    # form one CSR over the sweep's member rows (``e_ptr``), ascending v
    # inside a row.
    first = indptr[m_slot]
    deg = indptr[m_slot + 1] - first
    ends = np.cumsum(deg)
    eidx = np.repeat(first - (ends - deg), deg) + np.arange(int(deg.sum()))
    e_row = np.repeat(np.arange(len(m_key)), deg)
    e_src = m_src[e_row]
    e_v = nbr[eidx]
    keep = visited[e_src, e_v]
    e_row, e_src, e_v, eidx = e_row[keep], e_src[keep], e_v[keep], eidx[keep]
    e_ptr = np.zeros(len(m_key) + 1, dtype=np.int64)
    np.cumsum(np.bincount(e_row, minlength=len(m_key)), out=e_ptr[1:])
    # One lookup ranks every edge head and every source among the sweep's
    # members; minus the segment start, that is the Prim kernel's local index.
    at = np.searchsorted(m_key, np.concatenate([e_src * stride + e_v, levels[0]]))
    local_v = at[:-nsrc] - m_off[e_src]
    roots = (at[-nsrc:] - m_off[:-1]).tolist()
    e_cost = cost[eidx]
    e_off = e_ptr[m_off].tolist()
    m_off = m_off.tolist()
    m_peer = peer_arr[m_slot]

    # The arrays cross into Python one closure at a time: sweep-wide lists
    # would box every edge of 256 closures at once (hundreds of MB at h = 3).
    for b, root in enumerate(roots):
        members = m_peer[m_off[b] : m_off[b + 1]].tolist()
        lptr = (e_ptr[m_off[b] : m_off[b + 1] + 1] - e_off[b]).tolist()
        nbrs = local_v[e_off[b] : e_off[b + 1]].tolist()
        costs = e_cost[e_off[b] : e_off[b + 1]].tolist()
        # Direct neighbors are the source's own row (always closure members
        # at depth >= 1), already ascending.
        r0, r1 = lptr[root], lptr[root + 1]
        direct_costs = costs[r0:r1]
        probe_sum = 0.0
        for c in direct_costs:
            probe_sum += c
        flooding_local = _prim_flooding(lptr, nbrs, costs, root)
        batch.index[members[root]] = len(batch.sources)
        batch.sources.append(members[root])
        batch.members.append(members)
        batch.member_sets.append(frozenset(members))
        batch.direct.append([members[i] for i in nbrs[r0:r1]])
        batch.direct_costs.append(direct_costs)
        batch.probe_sum.append(probe_sum)
        batch.closure_edges.append(len(nbrs) // 2)
        batch.flooding.append([members[i] for i in flooding_local])


# ---------------------------------------------------------------------------
# Batched optimization step
# ---------------------------------------------------------------------------


def _is_stale(
    member_set: frozenset,
    members: List[int],
    dirty: List[int],
    start: int,
    stamps: Dict[int, int],
) -> bool:
    """Did any mutation endpoint since *start* land inside the closure?

    Exactness: a mutation with both endpoints outside the member set cannot
    change the closure — every ``<= h``-hop path from the source runs
    through members, so neither membership nor induced edges move.  By
    induction over the mutation sequence the pre-extracted entry stays
    exact until the first dirty endpoint that is a member.

    Two equivalent indexes over the same mutation log: *dirty* is the
    endpoint list in order, *stamps* maps an endpoint to the log length
    when it was last appended.  Scanning whichever side is shorter keeps
    the test O(min(closure, mutations-since-extraction)).
    """
    pending = len(dirty) - start
    if pending <= 0:
        return False
    if len(members) < pending:
        for m in members:
            if stamps.get(m, 0) > start:
                return True
        return False
    for i in range(start, len(dirty)):
        if dirty[i] in member_set:
            return True
    return False


def _mark_dirty(dirty: List[int], stamps: Dict[int, int], peer: int) -> None:
    """Append one mutation endpoint to the log (and its stamp index)."""
    dirty.append(peer)
    stamps[peer] = len(dirty)


def _refresh_stale(protocol: "AceProtocol", peer: int) -> tuple:
    """Scalar Phases 1-2 for a peer whose pre-extracted closure went stale.

    Equivalent to :meth:`AceProtocol.refresh_peer` minus the
    ``NeighborCostTable`` dicts :func:`~repro.core.cost_table.run_phase1`
    builds for closure members Phase 3 never reads: the probe/exchange
    overheads are the same flat formulas the fresh path uses (both dict
    sums iterate ascending neighbor ids — the closure row's insertion
    order — so the sequential IEEE totals match bit for bit), and state
    storage goes through the reference :meth:`AceProtocol._store_state`.
    """
    config = protocol.config
    closure = neighbor_closure(protocol.overlay, peer, config.depth)
    state = protocol._store_state(peer, closure)
    s = 0.0
    for c in closure.edges[peer].values():
        s += c
    probe = ROUND_TRIP_FACTOR * s
    exchange = (1.0 + ENTRY_COST_FACTOR * closure.num_edges()) * s
    return probe, exchange, sorted(state.non_flooding)


def _optimize_one(
    protocol: "AceProtocol",
    peer: int,
    batch: ClosureBatch,
    dirty: List[int],
    dirty_start: int,
    stamps: Dict[int, int],
    report: "StepReport",
) -> None:
    """Phases 1-3 for one peer, from the batch when still exact.

    Phases 1-2 are served from the pre-extracted arrays when no mid-step
    mutation touched the peer's closure; Phase 3 and the fold are the
    shared turn, whose sheds and actions then extend the dirty log.
    """
    config = protocol.config
    pos = batch.index[peer]
    if _is_stale(
        batch.member_sets[pos], batch.members[pos], dirty, dirty_start, stamps
    ):
        # A mutation invalidated the pre-extracted closure: recompute it
        # through the scalar path (identical by construction).
        probe, exchange, non_flooding = _refresh_stale(protocol, peer)
    else:
        protocol._put_flat(peer, *batch.row(pos))
        s = batch.probe_sum[pos]
        probe = ROUND_TRIP_FACTOR * s
        exchange = (1.0 + ENTRY_COST_FACTOR * batch.closure_edges[pos]) * s
        in_tree = set(batch.flooding[pos])
        non_flooding = [t for t in batch.direct[pos] if t not in in_tree]

    sheds, actions = phase3(
        protocol.overlay,
        peer,
        non_flooding,
        config,
        protocol._shed_floor,
        protocol.policy,
        protocol.rng,
    )
    fold(report, Turn(probe, exchange, sheds, actions))
    protocol.last_actions.extend(actions)
    touched = list(sheds)
    for action in actions:
        if action.kind == "replace":
            touched += (action.target, action.candidate)
        elif action.kind == "keep_both":
            touched.append(action.candidate)
    if touched:
        for endpoint in (peer, *touched):
            _mark_dirty(dirty, stamps, endpoint)


def batched_step(
    protocol: "AceProtocol", order: Sequence[int], report: "StepReport"
) -> None:
    """The per-peer loops of one optimization step, through the kernel.

    Called by :meth:`AceProtocol.step` with the step's shuffled *order*
    and its fresh *report*.  Byte-identical to the object loops there:
    peers processed in the same order with the same RNG stream, and the
    same end-of-step tree rebuild — only Phase 1-2 extraction is batched
    (and the rebuild reuses the optimize-phase state wherever no later
    mutation touched a closure).

    Nothing is prefetched from the underlay: a Phase-3 probe reads the
    host-pair cache, then the probe memo left by the ``warm_edge_costs``
    pass that streamed its source, and otherwise faults that source's
    vector through ``costs_from`` — one solve per peer that probes
    outside its pool, instead of one per scheduled peer.
    """
    overlay = protocol.overlay
    assert isinstance(overlay, ArrayOverlay)
    counters.ace_batched_steps += 1
    # Peer-id endpoints of every mid-step edge mutation, in order (plus a
    # last-stamp index per endpoint); slices of this log decide whether a
    # pre-extracted closure is still exact.
    dirty: List[int] = []
    stamps: Dict[int, int] = {}
    batches: List[tuple] = []
    block_size = 256
    for start in range(0, len(order), block_size):
        block = order[start : start + block_size]
        live = [p for p in block if overlay.has_peer(p)]
        batch = extract_closures(overlay, live, protocol.config.depth)
        counters.closure_batch_peers += len(live)
        dirty_start = len(dirty)
        batches.append((batch, dirty_start))
        for peer in live:
            _optimize_one(
                protocol, peer, batch, dirty, dirty_start, stamps, report
            )
    _rebuild_trees(protocol, batches, dirty)


def _rebuild_trees(
    protocol: "AceProtocol", batches: List[tuple], dirty: List[int]
) -> None:
    """End-of-step Phase 2 at every peer, against the final topology.

    A peer whose optimize-phase closure was never touched by a later
    mutation already stores exactly the state a recompute would produce
    (same closure, same costs, same live neighbor set), so only the state
    version advances for it; everyone else is re-extracted in bulk sweeps.
    The blocks partition the step's shuffled order, so per-peer version
    bumps happen once each, like the reference loop.
    """
    overlay = protocol.overlay
    config = protocol.config
    stale: List[int] = []
    for batch, dirty_start in batches:
        recent = set(dirty[dirty_start:])
        for peer in batch.sources:
            pos = batch.index[peer]
            if recent and not recent.isdisjoint(batch.member_sets[pos]):
                stale.append(peer)
            else:
                counters.closure_reuses += 1
                protocol._bump_state_version()
    if not stale:
        return
    rebuilt = extract_closures(overlay, stale, config.depth)
    counters.closure_batch_peers += len(stale)
    for peer in stale:
        protocol._put_flat(peer, *rebuilt.row(rebuilt.index[peer]))


# ---------------------------------------------------------------------------
# Vectorized churn driver
# ---------------------------------------------------------------------------


def churn_refresh(
    protocol: "AceProtocol", replacement: int, affected: Iterable[int]
) -> float:
    """Batched state rebuild after one churn event's mutation batch.

    The caller has already applied the whole join/leave mutation batch to
    the overlay's edit buffer (departure, replacement arrival, bootstrap
    links, isolation repairs).  This re-warms exactly the touched cost rows
    in one bulk call — every fill uses the canonical lower-peer-endpoint
    direction, the same direction the reference's closure extraction and
    trailing ``warm_edge_costs`` use, so the cached floats are identical —
    then re-extracts the joiner plus all affected peers in one sweep.

    Returns the joiner's Phase-1 overhead (its new links must be probed);
    the affected peers merely rebuild trees from information they already
    hold, exactly like the reference's ``recompute_tree`` chain.
    """
    overlay = protocol.overlay
    assert isinstance(overlay, ArrayOverlay)
    config = protocol.config
    overlay.warm_edge_costs()
    targets = [replacement] + [
        p for p in sorted(affected) if overlay.has_peer(p)
    ]
    batch = extract_closures(overlay, targets, config.depth)
    counters.closure_batch_peers += len(targets)
    for peer in targets:
        protocol._put_flat(peer, *batch.row(batch.index[peer]))
    pos = batch.index[replacement]
    s = batch.probe_sum[pos]
    probe = ROUND_TRIP_FACTOR * s
    exchange = (1.0 + ENTRY_COST_FACTOR * batch.closure_edges[pos]) * s
    return probe + exchange

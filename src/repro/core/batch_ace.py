"""Vectorized ACE step kernel: what every ACE step runs.

:meth:`AceProtocol.step <repro.core.ace.AceProtocol.step>` hands this
module the step's shuffled order on an
:class:`~repro.topology.soa.ArrayOverlay`, which also carries the routing
state (its per-link labels):

1. **Batched closure extraction** (:func:`extract_closures`): all scheduled
   peers' depth-``h`` closures are computed in one shared frontier sweep
   over the overlay as it stands — base CSR, tombstones and edit buffer
   merged row by row (:meth:`ArrayOverlay.live_rows`), so a mid-step
   extraction costs no compaction — with one ``visited`` matrix and one
   vectorized neighbor gather per BFS level, instead of one dict-building
   BFS per peer.  Everything the per-source tail needs (member ids, local
   edge indices, row pointers, roots) is lowered for the whole sweep with
   numpy; the per-source loop slices those arrays, crosses into Python one
   closure at a time (``.tolist()``, so at most one closure's edges are
   boxed at once) and runs the shared Phases 1-2 on lists
   (:func:`~repro.core.turn.local_phases12`).  Nothing here is
   buffer-backed: the lists are copies of one read, and it is the stamp
   rule below, not the arrays, that decides how long a :class:`ClosureBatch`
   entry stays valid.
2. **Flat Phase-1 accounting**: a peer's probe and exchange overheads reduce
   to the sequential IEEE sum of its direct-edge costs in ascending-neighbor
   order, read straight off the peer's CSR row and scaled by
   :func:`~repro.core.turn.phase1_charges`.
3. **Label writes**: each peer's Phase 2 labels its live links flooding or
   non-flooding on the overlay (:meth:`ArrayOverlay.label_links
   <repro.topology.soa.ArrayOverlay.label_links>`), one write per peer.
4. **A vectorized churn driver** (:func:`churn_refresh`): one churn event's
   whole mutation batch is applied to the overlay edit buffer first, the
   touched cost rows are re-warmed in a single bulk call, and the joiner
   plus all affected ex/new neighbors are re-extracted in bulk sweeps.

Mid-step mutations (Phase-3 replacements, redundant-link sheds) are handled
with an exact staleness rule: a mutation can only change a peer's closure if
one of its endpoints is a closure *member* (every path of ``<= h`` hops from
the source runs through members, so an edge with both endpoints outside the
member set can neither add nor remove members or induced edges).  The kernel
logs mutation endpoints as one stamp per peer, the log's length at the
peer's last append, so a closure extracted at log position ``start`` is
stale iff a member's stamp exceeds ``start`` (:func:`_stale`).  A stale
turn re-derives its closure with :func:`~repro.core.turn.phases12` over
the overlay's live rows — the live runtime's Phases 1-2 too; steps extract
in blocks of :data:`_BLOCK` peers to keep such turns few.  A step holds one
block's lists at a time: after its turns a block keeps only its sources and
flat member array, which the end-of-step rebuild tests again before it
re-extracts the stale peers one :data:`_SWEEP` at a time.  RNG draws happen
peer by peer in the step's order, so the random streams — and therefore
every figure — equal those of a one-peer-at-a-time loop (the reference in
``tests/reference`` pins them byte for byte).  Phase 3 and the report fold
are not restated here — they are :func:`repro.core.turn.phase3` /
:func:`repro.core.turn.fold`, the same code the live runtime runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..perf import counters
from ..topology.soa import ArrayOverlay
from .turn import Turn, fold, local_phases12, phase1_charges, phase3, phases12

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from .ace import AceProtocol, StepReport

__all__ = [
    "ClosureBatch",
    "extract_closures",
    "batched_step",
    "store_closures",
    "churn_refresh",
]

# ---------------------------------------------------------------------------
# Batched closure extraction
# ---------------------------------------------------------------------------


class ClosureBatch:
    """Depth-``h`` closures of a batch of sources, extracted together.

    Everything is computed eagerly against one read of the overlay
    (:meth:`ArrayOverlay.live_rows`), in **peer-id space** (slot
    numbering is stable between peer additions/removals, but peer ids are
    what mutations report), so entries stay valid across mid-step edge
    mutations — validity is decided by the caller's stamp rule
    (:func:`_stale`), not by the arrays going stale.
    """

    __slots__ = (
        "sources",
        "members",
        "offsets",
        "direct",
        "direct_costs",
        "probe_sum",
        "closure_edges",
        "flooding",
    )

    def __init__(self) -> None:
        #: Sources in extraction order.
        self.sources: List[int] = []
        #: Closure members of every source in one flat array: source
        #: ``i``'s are ``members[offsets[i]:offsets[i + 1]]``, ascending.
        self.members = np.zeros(0, dtype=np.int64)
        self.offsets = np.zeros(1, dtype=np.int64)
        #: Direct logical neighbors per source (ascending peer ids).
        self.direct: List[List[int]] = []
        #: Matching direct-edge costs (the Phase-1 probe values).
        self.direct_costs: List[List[float]] = []
        #: Sequential left-to-right IEEE sum of ``direct_costs`` — the float
        #: both Phase-1 overhead formulas scale
        #: (:func:`~repro.core.turn.phase1_charges`).
        self.probe_sum: List[float] = []
        #: Undirected edge count of each closure's induced subgraph.
        self.closure_edges: List[int] = []
        #: MST tree-neighbors of each source (ascending peer ids).
        self.flooding: List[List[int]] = []


#: Sources swept per shared ``visited`` matrix (bounds its memory to
#: ``_SWEEP x num_peers`` bools regardless of how many peers are scheduled).
_SWEEP = 256


def extract_closures(
    overlay: ArrayOverlay, sources: Sequence[int], depth: int
) -> ClosureBatch:
    """Extract the depth-``h`` closures of *sources* in CSR frontier sweeps.

    All sources must be live peers.  The sweeps read the overlay as it
    stands — base CSR, tombstones and edit buffer merged row by row
    (:meth:`ArrayOverlay.live_rows`) — after the costs are warmed, so the
    floats are the exact cached values a scalar read returns.  Only a moved peer set costs a compaction
    (:meth:`ArrayOverlay.canonical_slots`).
    """
    if depth < 1:
        raise ValueError(f"closure depth must be >= 1, got {depth}")
    batch = ClosureBatch()
    if not sources:
        return batch
    peer_arr = overlay.canonical_slots()
    src_arr = np.asarray(sources, dtype=np.int64)
    slots = np.searchsorted(peer_arr, src_arr)
    members, sizes = zip(
        *(
            _extract_sweep(
                batch, overlay, peer_arr, slots[start : start + _SWEEP], depth
            )
            for start in range(0, len(sources), _SWEEP)
        )
    )
    batch.members = np.concatenate(members)
    batch.offsets = np.concatenate(([0], np.cumsum(np.concatenate(sizes))))
    return batch


def _extract_sweep(
    batch: ClosureBatch,
    overlay: ArrayOverlay,
    peer_arr: np.ndarray,
    src_slots: np.ndarray,
    depth: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """One sweep's entries onto *batch*; returns its members and their counts."""
    nsrc = len(src_slots)
    n = len(peer_arr)
    stride = np.int64(n)
    visited = np.zeros((nsrc, n), dtype=bool)
    rows = np.arange(nsrc)
    visited[rows, src_slots] = True
    f_src = rows
    f_node = src_slots
    # Members as ``source * n + slot`` keys, one array per BFS level.
    levels = [rows * stride + src_slots]
    for _ in range(depth):
        # Every frontier node's live row in one gather.
        at, cand_node, _ = overlay.live_rows(f_node)
        cand_src = f_src[at]
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
    m_count = np.bincount(m_src, minlength=nsrc)
    m_off = np.zeros(nsrc + 1, dtype=np.int64)
    np.cumsum(m_count, out=m_off[1:])

    # Induced edges: every member's live row, filtered to members of the
    # same source.  Rows come back in member order, so the kept entries form
    # one CSR over the sweep's member rows (``e_ptr``), ascending v inside a
    # row.
    e_row, e_v, e_cost = overlay.live_rows(m_slot)
    e_src = m_src[e_row]
    keep = visited[e_src, e_v]
    e_row, e_src, e_v, e_cost = e_row[keep], e_src[keep], e_v[keep], e_cost[keep]
    e_ptr = np.zeros(len(m_key) + 1, dtype=np.int64)
    np.cumsum(np.bincount(e_row, minlength=len(m_key)), out=e_ptr[1:])
    # One lookup ranks every edge head and every source among the sweep's
    # members; minus the segment start, that is the Prim kernel's local index.
    at = np.searchsorted(m_key, np.concatenate([e_src * stride + e_v, levels[0]]))
    local_v = at[:-nsrc] - m_off[e_src]
    roots = (at[-nsrc:] - m_off[:-1]).tolist()
    e_off = e_ptr[m_off].tolist()
    m_off = m_off.tolist()
    m_peer = peer_arr[m_slot]

    # The arrays cross into Python one closure at a time: sweep-wide lists
    # would box every edge of 256 closures at once (hundreds of MB at h = 3).
    for b, root in enumerate(roots):
        members = m_peer[m_off[b] : m_off[b + 1]].tolist()
        flooding, direct, direct_costs, probe_sum, _, edges = local_phases12(
            members,
            (e_ptr[m_off[b] : m_off[b + 1] + 1] - e_off[b]).tolist(),
            local_v[e_off[b] : e_off[b + 1]].tolist(),
            e_cost[e_off[b] : e_off[b + 1]].tolist(),
            root,
        )
        batch.sources.append(members[root])
        batch.direct.append(direct)
        batch.direct_costs.append(direct_costs)
        batch.probe_sum.append(probe_sum)
        batch.closure_edges.append(edges)
        batch.flooding.append(flooding)
    return m_peer, m_count


# ---------------------------------------------------------------------------
# Batched optimization step
# ---------------------------------------------------------------------------


def _stale(
    stamps: np.ndarray, members: np.ndarray, starts: Sequence[int], since: int
) -> np.ndarray:
    """Which closures did a mutation logged after log position *since* touch?

    Closure ``i`` is ``members[starts[i]:starts[i + 1]]`` (the last runs to
    the end), never empty; ``stamps[m]`` is the log's length at ``m``'s last
    append, so a stamp above *since* is exactly "``m`` was logged since
    *since*".  Exactness: a mutation with both endpoints outside the member
    set cannot change the closure — every ``<= h``-hop path from the source
    runs through members, so neither membership nor induced edges move.  By
    induction over the mutation sequence an entry extracted at *since* stays
    exact until the first logged endpoint that is a member.
    """
    return np.maximum.reduceat(stamps[members], starts) > since


def _optimize_one(
    protocol: "AceProtocol",
    batch: ClosureBatch,
    i: int,
    stale: bool,
    report: "StepReport",
) -> List[int]:
    """Phases 1-3 for the batch's *i*-th source, from the batch when exact.

    Phases 1-2 are served from the pre-extracted entry unless the caller
    found it *stale*, and then re-derived from the overlay's live rows;
    Phase 3 and the fold are the shared turn.  Returns the mutation
    endpoints the turn logs: none, or the peer and everyone its sheds and
    actions touched.
    """
    config = protocol.config
    peer = batch.sources[i]
    if stale:
        # One closure costs less in plain Python over the live rows than a
        # one-source sweep's fixed numpy overhead; the warm is O(1) on a
        # warm overlay.
        protocol.overlay.warm_edge_costs()
        flooding, direct, _, s, _, edges = phases12(
            protocol.overlay, peer, config.depth
        )
    else:
        flooding, direct = batch.flooding[i], batch.direct[i]
        s, edges = batch.probe_sum[i], batch.closure_edges[i]
    protocol._write_labels(peer, flooding)
    probe, exchange = phase1_charges(s, edges)
    in_tree = set(flooding)
    non_flooding = [t for t in direct if t not in in_tree]

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
    return [peer, *touched] if touched else []


#: Peers per extraction block of a step.  A turn whose closure an earlier
#: turn of its block touched is re-derived on its own
#: (:func:`~repro.core.turn.phases12`),
#: so smaller blocks mean fewer stale turns and more, smaller sweeps;
#: ``static_8k`` measured 64 against 32 and 128 (docs/PERFORMANCE.md).
_BLOCK = 64


def batched_step(
    protocol: "AceProtocol", order: Sequence[int], report: "StepReport"
) -> None:
    """The per-peer loops of one optimization step, through the kernel.

    Called by :meth:`AceProtocol.step` with the step's shuffled *order*
    and its fresh *report*.  Byte-identical to running Phases 1-3 peer by
    peer in that order and then Phase 2 everywhere: the same RNG stream and
    the same end-of-step tree rebuild — only Phase 1-2 extraction is
    batched (and the rebuild reuses the optimize-phase state wherever no
    later mutation touched a closure).

    Nothing is prefetched from the underlay: a Phase-3 probe goes through
    ``costs_from`` to the oracle's lookup rule (:mod:`repro.oracle.exact`)
    — one solve per peer that probes outside every tier, instead of one
    per scheduled peer.
    """
    overlay = protocol.overlay
    counters.ace_batched_steps += 1
    # The log of every mid-step mutation endpoint, as its length and one
    # stamp per peer id (the length at the peer's last append); Phase 3
    # adds no peers, so the ids live now cover every endpoint.
    peers = overlay.peers()
    stamps = np.zeros(peers[-1] + 1 if peers else 0, dtype=np.int64)
    logged = 0
    blocks: List[tuple] = []
    for start in range(0, len(order), _BLOCK):
        block = order[start : start + _BLOCK]
        live = [p for p in block if overlay.has_peer(p)]
        batch = extract_closures(overlay, live, protocol.config.depth)
        counters.closure_batch_peers += len(live)
        since = logged
        members, offsets = batch.members, batch.offsets
        for i in range(len(live)):
            stale = logged > since and _stale(
                stamps, members[offsets[i] : offsets[i + 1]], [0], since
            )[0]
            for endpoint in _optimize_one(protocol, batch, i, stale, report):
                logged += 1
                stamps[endpoint] = logged
        # The rebuild needs only who was extracted, and from what, when:
        # the block's lists go before the next block is extracted.
        blocks.append((batch.sources, members, offsets, since))
        del batch
    _rebuild_trees(protocol, blocks, stamps)


def _rebuild_trees(
    protocol: "AceProtocol", blocks: List[tuple], stamps: np.ndarray
) -> None:
    """End-of-step Phase 2 at every peer, against the final topology.

    A peer whose optimize-phase closure was never touched by a later
    mutation already carries exactly the labels a recompute would write
    (same closure, same costs, same live links), so only the state
    version advances for it; everyone else is re-extracted in bulk sweeps.
    The blocks partition the step's shuffled order, so per-peer version
    bumps happen once each, as a per-peer rebuild loop would.
    """
    stale: List[int] = []
    for sources, members, offsets, since in blocks:
        touched = _stale(stamps, members, offsets[:-1], since)
        for peer, redo in zip(sources, touched.tolist()):
            if redo:
                stale.append(peer)
            else:
                counters.closure_reuses += 1
                protocol._bump_state_version()
    if not stale:
        return
    # The step's one deliberate compaction: the bulk sweeps then read a
    # clean CSR, and the query compile that follows a step finds it packed.
    protocol.overlay.flush_edits()
    store_closures(protocol, stale)


def store_closures(
    protocol: "AceProtocol", peers: Sequence[int]
) -> Optional[Tuple[float, float]]:
    """Phase 2 at *peers*, one :data:`_SWEEP` at a time, each writing its labels.

    One label write (one version bump) per listed peer, in list order; a
    sweep's batch is dropped before the next one is extracted.  Returns the
    first listed peer's Phase-1 charges ``(probe, exchange)``
    (:func:`~repro.core.turn.phase1_charges`), or ``None`` for no peers.
    """
    charges = [
        _store_sweep(protocol, peers[start : start + _SWEEP])
        for start in range(0, len(peers), _SWEEP)
    ]
    return charges[0] if charges else None


def _store_sweep(
    protocol: "AceProtocol", peers: Sequence[int]
) -> Tuple[float, float]:
    """One :func:`store_closures` sweep; the Phase-1 charges of its first peer."""
    batch = extract_closures(protocol.overlay, peers, protocol.config.depth)
    counters.closure_batch_peers += len(peers)
    for peer, flooding in zip(peers, batch.flooding):
        protocol._write_labels(peer, flooding)
    return phase1_charges(batch.probe_sum[0], batch.closure_edges[0])


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
    in one bulk call — the oracle solves a cover of the missing host pairs,
    and on the delay grid a pair's float does not depend on which end was
    solved — then re-extracts the joiner plus all affected peers, one
    sweep at a time (:func:`store_closures`; the joiner is listed first, so
    its Phase-1 facts come out of the first sweep).

    Returns the joiner's Phase-1 overhead (its new links must be probed);
    the affected peers merely rebuild trees from information they already
    hold, which costs no traffic.
    """
    overlay = protocol.overlay
    overlay.warm_edge_costs()
    targets = [replacement] + [
        p for p in sorted(affected) if overlay.has_peer(p)
    ]
    probe, exchange = store_closures(protocol, targets)
    return probe + exchange

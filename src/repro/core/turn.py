"""One peer's ACE turn, written once for every runner (sans-IO).

The paper's ACE is a single per-peer procedure — probe and exchange cost
tables (Phase 1), build a minimum spanning tree over the h-closure
(Phase 2), then replace or shed non-flooding links per Figure 4 (Phase 3)
— run independently at every peer.  Two runners execute it here:

* :mod:`repro.core.batch_ace` — the kernel every scenario runs, Phases 1-2
  read off a pre-extracted closure batch, or re-derived by :func:`phases12`
  when a mutation staled it;
* :meth:`repro.net.peer.LivePeer.run_turn` — live sockets: the peer gathers
  probes and neighbor tables concurrently, then
  :func:`~repro.net.snapshot.plan_turn` runs :func:`phases12` and Phase 3
  on its event loop over a :class:`~repro.net.snapshot.SnapshotView` of the
  answers.

Both share everything from the closure on: :func:`phases12` reads a view's
rows through ``live_row(u)`` — ``(neighbors, costs)``, one reading per link
— and :func:`local_phases12` / :func:`prim_flooding` do the rest in
local-CSR form, which the kernel's bulk sweep feeds directly.  Phase 3 is
written against a duck-typed overlay surface, so the float evaluation order
is the same whichever runner supplies the view, and it reads each row once:

* per turn, ``neighbors(peer)`` and one ``costs_from(peer, neighbors)``,
  shared by shedding, target order and every attempt;
* per shed check, ``degree(target)``, ``neighbors(target)`` and
  ``costs_from(target, mutual neighbors)``;
* per replacement attempt, ``neighbors(target)`` (the candidate pool, the
  degree guard and the candidate's link to the target), one
  ``costs_from(peer, probed)`` and, on the keep-both branch, one
  ``costs_from(target, probed)``; the naive policy's pool reads
  ``peers()``;
* ``connect`` / ``disconnect`` for each change, mirrored in the turn's
  neighbor set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Set, Tuple

import numpy as np

from ..topology.soa import NON_FLOODING
from .policies import CandidatePolicy
from .replacement import (
    MIN_DEGREE,
    ROUND_TRIP_FACTOR,
    ReplacementAction,
    attempt_replacement,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from .ace import AceConfig, StepReport

__all__ = [
    "ENTRY_COST_FACTOR",
    "MAX_SHEDS_PER_STEP",
    "Turn",
    "shed_floor_of",
    "forwards",
    "phase1_charges",
    "prim_flooding",
    "local_phases12",
    "phases12",
    "shed_redundant",
    "phase3",
    "fold",
]

#: Per-link-record cost factor of a cost-table exchange message.
ENTRY_COST_FACTOR = 0.02
#: Redundant-link cuts per peer per step: the topology changes gradually,
#: one connection re-examined per periodic round.
MAX_SHEDS_PER_STEP = 1


@dataclass
class Turn:
    """What one peer's Phases 1-3 produced — the unit :func:`fold` consumes.

    ``actions`` stays a list of per-attempt records rather than a pre-summed
    total: the step report folds every action's probe cost into one
    step-wide accumulator left to right, and float addition is not
    associative — summing per turn first would lose the last ulp.
    """

    probe_cost: float
    exchange_cost: float
    sheds: List[int]
    actions: List[ReplacementAction]


def shed_floor_of(overlay) -> int:
    """The logical degree redundant-link shedding never cuts below.

    The overlay's average degree at protocol construction (a servent
    maintains its configured connection count), never under
    :data:`~repro.core.replacement.MIN_DEGREE`.
    """
    avg = overlay.average_degree() if overlay.num_peers else 0.0
    return max(MIN_DEGREE, int(round(avg)))


def forwards(broken, label):
    """Whether a peer forwards queries on a link — the routing rule (§3.3).

    *label* is the link's :data:`~repro.topology.soa.FLOODING` /
    :data:`~repro.topology.soa.NON_FLOODING` /
    :data:`~repro.topology.soa.UNLABELLED` label from the peer's side,
    *broken* the peer's tree-broken bit.  A peer whose tree lost a link
    since its last Phase 2 floods every link until the next one (a servent
    notices the dropped connection at once); any other peer forwards on
    every link its tree did not leave out — tree links, and links made
    since its last Phase 2.  Scalars or numpy arrays alike.
    """
    return broken | (label != NON_FLOODING)


def phase1_charges(probe_sum: float, closure_edges: int) -> Tuple[float, float]:
    """Phase 1's ``(probe, exchange)`` charges at one peer, in cost units.

    *probe_sum* is the sequential left-to-right sum of the peer's direct
    link costs in ascending-neighbor order, *closure_edges* the link count
    of its h-closure.  A probe is a ping/pong over each direct link
    (:data:`~repro.core.replacement.ROUND_TRIP_FACTOR` per cost unit).
    Tables are exchanged aggregated: once per period each neighbor sends
    one routing message bundling every closure link record it knows, so
    the peer's share is one message per direct link, sized by the
    closure's information content — ``d(S, N) * (1 + ENTRY_COST_FACTOR *
    E(h))`` summed over neighbors N.  At depth 1 that is each neighbor
    sending its own table (the base protocol); deeper closures grow it
    with their link count (Figure 12).
    """
    return (
        ROUND_TRIP_FACTOR * probe_sum,
        (1.0 + ENTRY_COST_FACTOR * closure_edges) * probe_sum,
    )


def prim_flooding(
    indptr: List[int], nbrs: List[int], costs: List[float], root: int
) -> List[int]:
    """Root's tree-neighbor set of Prim's MST over one local-CSR segment.

    Heap entries are ``(cost, node, parent)``, popped in global ascending
    order, so ties break on node then parent id and independent
    re-computations agree.  Local indices are assigned in ascending peer-id
    order, so every tie-break compares the same way it would on raw peer
    ids.  Returns local indices, ascending.
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


def local_phases12(
    members: List[int],
    indptr: List[int],
    nbrs: List[int],
    costs: List[float],
    root: int,
) -> tuple:
    """Phases 1-2 of one closure in local-CSR form (members ascending).

    Returns ``(flooding, direct, direct_costs, probe_sum, closure_size,
    closure_edges)`` in peer-id space.  Direct neighbors are the root's own
    row (always closure members at depth >= 1), ascending, and
    ``probe_sum`` is their sequential left-to-right IEEE cost sum — what
    :func:`phase1_charges` scales.
    """
    r0, r1 = indptr[root], indptr[root + 1]
    direct_costs = costs[r0:r1]
    probe_sum = 0.0
    for c in direct_costs:
        probe_sum += c
    flooding = prim_flooding(indptr, nbrs, costs, root)
    return (
        [members[i] for i in flooding],
        [members[i] for i in nbrs[r0:r1]],
        direct_costs,
        probe_sum,
        len(members),
        len(nbrs) // 2,
    )


def phases12(view, peer: int, depth: int) -> tuple:
    """Phases 1-2 at *peer* over its depth-h closure, read from *view*.

    The closure is a BFS over ``view.live_row(u)``; the induced rows are
    then lowered in peer-id order and handed to :func:`local_phases12`,
    whose tuple this returns.  The view's costs must be known: an
    ``ArrayOverlay`` warmed first, or a
    :class:`~repro.net.snapshot.SnapshotView`, whose rows read the gathered
    tables.
    """
    rows: Dict[int, tuple] = {}
    seen = {peer}
    frontier = [peer]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            rows[u] = row = view.live_row(u)
            for v in row[0]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    for u in frontier:
        rows[u] = view.live_row(u)
    members = sorted(seen)
    local = {p: i for i, p in enumerate(members)}
    indptr = [0]
    nbrs: List[int] = []
    costs: List[float] = []
    for u in members:
        row = sorted((local[v], c) for v, c in zip(*rows[u]) if v in local)
        nbrs += [i for i, _ in row]
        costs += [c for _, c in row]
        indptr.append(len(nbrs))
    return local_phases12(members, indptr, nbrs, costs, local[peer])


def shed_redundant(
    view,
    peer: int,
    non_flooding: Sequence[int],
    shed_floor: int,
    mine: Set[int],
    d_peer: Dict[int, float],
) -> List[int]:
    """Cut non-flooding links a logical triangle makes redundant.

    A link (peer, H) is shed when some mutual neighbor W makes it strictly
    the longest side of the triangle peer-W-H: both endpoints keep the W
    route, so connectivity and search scope are preserved while the most
    expensive redundant connection disappears (the Figure 1 L-M situation,
    and the eventual fate of C-H in Figure 4(c)).  Neither endpoint drops
    to *shed_floor* or below, and at most :data:`MAX_SHEDS_PER_STEP`
    links go per call.  *mine* is the peer's neighbor set (a superset of
    *non_flooding*), edited here on every cut, and *d_peer* its link costs
    (:func:`phase3` reads both once per turn; a cut only removes links, so
    the costs stay valid).
    Returns the cut targets, in cut order.
    """
    sheds: List[int] = []
    # Most expensive candidates first: with a per-step cap, the worst
    # redundant connection goes first.
    for target in sorted(non_flooding, key=lambda t: (-d_peer[t], t)):
        if len(sheds) >= MAX_SHEDS_PER_STEP or len(mine) <= shed_floor:
            break
        if view.degree(target) <= shed_floor:
            continue
        mutual = mine & view.neighbors(target)
        if not mutual:
            continue
        d_pt = d_peer[target]
        d_target = view.costs_from(target, sorted(mutual))
        for w in mutual:
            if d_peer[w] < d_pt and d_target[w] < d_pt:
                view.disconnect(peer, target)
                mine.discard(target)
                sheds.append(target)
                break
    return sheds


def phase3(
    view,
    peer: int,
    non_flooding: Sequence[int],
    config: "AceConfig",
    shed_floor: int,
    policy: CandidatePolicy,
    rng: np.random.Generator,
) -> Tuple[List[int], List[ReplacementAction]]:
    """Phase 3 at one peer: shed, pick targets, attempt replacements.

    *non_flooding* is the peer's ascending non-flooding neighbor list from
    Phase 2; *rng* is the shared protocol stream (every runner draws from
    it peer by peer in the same order).  The turn reads the peer's own row
    once — its neighbor set and one cost sweep over it — and shedding,
    target order and every attempt share that read, the set edited in
    place as links are cut and made.  Returns the shed targets and one
    :class:`ReplacementAction` per attempted target — all a runner needs
    to fold the turn and to track which endpoints mutated.
    """
    mine = set(view.neighbors(peer))
    non_flooding = [t for t in non_flooding if t in mine]
    if not non_flooding:
        return [], []
    d_peer = view.costs_from(peer, sorted(mine))
    sheds: List[int] = []
    if config.shed_redundant:
        sheds = shed_redundant(view, peer, non_flooding, shed_floor, mine, d_peer)
        if sheds:
            non_flooding = [t for t in non_flooding if t in mine]

    actions: List[ReplacementAction] = []
    for target in policy.targets(non_flooding, d_peer):
        actions.append(
            attempt_replacement(
                view,
                peer,
                target,
                mine,
                d_peer[target],
                policy,
                rng,
                allow_keep_both=config.allow_keep_both,
            )
        )
    return sheds, actions


def fold(report: "StepReport", turn: Turn) -> None:
    """Accumulate one finished turn into the step report.

    The single left-to-right fold: every runner feeds turns in step order,
    and each float accumulator grows term by term, so the totals are the
    same bits whether the turns ran in one loop or arrived over the wire.
    """
    report.peers_optimized += 1
    report.probe_overhead += turn.probe_cost
    report.exchange_overhead += turn.exchange_cost
    report.redundant_sheds += len(turn.sheds)
    for action in turn.actions:
        report.probes += action.probes
        report.replacement_probe_overhead += action.probe_cost
        if action.kind == "replace":
            report.replacements += 1
        elif action.kind == "keep_both":
            report.keep_both_adds += 1

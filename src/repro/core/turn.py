"""One peer's ACE turn, written once for every runner (sans-IO).

The paper's ACE is a single per-peer procedure — probe and exchange cost
tables (Phase 1), build a minimum spanning tree over the h-closure
(Phase 2), then replace or shed non-flooding links per Figure 4 (Phase 3)
— run independently at every peer.  Three runners execute it here:

* :meth:`repro.core.ace.AceProtocol.optimize_peer` — the reference loop,
  Phases 1-2 through the protocol's closure cache and state store;
* :mod:`repro.core.batch_ace` — the kernel scenarios run, Phases 1-2 read
  off a pre-extracted closure batch (or recomputed when a mutation staled
  it);
* :meth:`repro.net.peer.LivePeer.run_turn` — live sockets: the peer gathers
  probes and neighbor tables concurrently, then runs Phases 1-3 on its event
  loop over a :class:`~repro.net.snapshot.SnapshotView` of the answers.

Each obtains Phases 1-2 its own way and hands the result to this module,
which holds what they share and nothing else.  Everything is written
against the duck-typed overlay surface (``neighbors`` / ``degree`` /
``has_edge`` / ``costs_from`` / ``connect`` / ``disconnect``), so the
float evaluation order is the same whichever runner supplies the view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from .closure import ClosureView
from .cost_table import Phase1Report, run_phase1
from .policies import CandidatePolicy
from .replacement import MIN_DEGREE, ReplacementAction, attempt_replacement
from .spanning_tree import SpanningTree, prim_mst_heap

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from .ace import AceConfig, StepReport

__all__ = [
    "MAX_SHEDS_PER_STEP",
    "Turn",
    "shed_floor_of",
    "forwarding_set",
    "phase1",
    "phase2",
    "shed_redundant",
    "phase3",
    "fold",
]

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


def forwarding_set(
    live: Set[int],
    flooding: Optional[FrozenSet[int]],
    known: Optional[FrozenSet[int]],
) -> Set[int]:
    """The neighbors a peer forwards queries to *right now*.

    *live* is its current neighbor set, *flooding* / *known* the tree
    neighbors and the neighbor set recorded at its last Phase 2 (``None``
    before the first one).  A peer without a tree floods to all neighbors
    — the Gnutella default.  Routing degrades safely against stale state:

    * a *flooding* neighbor that disappeared breaks the tree, so the peer
      falls back to flooding all live neighbors until its next Phase 2 (in
      the real protocol the peer notices the dropped TCP connection
      immediately);
    * neighbors gained since the tree was built are not covered by it and
      are flooded to in addition to the tree neighbors.
    """
    if flooding is None or not flooding <= live:
        return live
    return set(flooding) | (live - known)


def phase1(view, closure: ClosureView) -> Phase1Report:
    """Phase 1 at the closure's source: probe and exchange accounting."""
    return run_phase1(view, closure)


def phase2(
    view, peer: int, closure: ClosureView
) -> Tuple[SpanningTree, FrozenSet[int], FrozenSet[int]]:
    """Phase 2: the closure's MST and the ``(flooding, known)`` sets it fixes."""
    tree = prim_mst_heap(closure.edges, peer)
    flooding = frozenset(tree.tree_neighbors(peer))
    return tree, flooding, frozenset(view.neighbors(peer))


def shed_redundant(
    view, peer: int, non_flooding: Sequence[int], shed_floor: int
) -> List[int]:
    """Cut non-flooding links a logical triangle makes redundant.

    A link (peer, H) is shed when some mutual neighbor W makes it strictly
    the longest side of the triangle peer-W-H: both endpoints keep the W
    route, so connectivity and search scope are preserved while the most
    expensive redundant connection disappears (the Figure 1 L-M situation,
    and the eventual fate of C-H in Figure 4(c)).  Neither endpoint drops
    to *shed_floor* or below, and at most :data:`MAX_SHEDS_PER_STEP`
    links go per call.  Returns the cut targets, in cut order.
    """
    sheds: List[int] = []
    my_neighbors = view.neighbors(peer)
    # One batched sweep covers every peer-rooted cost this phase needs
    # (targets and mutual witnesses alike); shedding only removes edges,
    # so the precomputed costs stay valid for the whole loop.
    d_peer = view.costs_from(peer, sorted(set(non_flooding) | set(my_neighbors)))
    # Most expensive candidates first: with a per-step cap, the worst
    # redundant connection goes first.
    ordered = sorted(non_flooding, key=lambda t: (-d_peer[t], t))
    for target in ordered:
        if len(sheds) >= MAX_SHEDS_PER_STEP:
            break
        if not view.has_edge(peer, target):
            continue
        if view.degree(peer) <= shed_floor or view.degree(target) <= shed_floor:
            continue
        d_pt = d_peer[target]
        # Re-fetch the peer's neighbor set: earlier sheds in this loop
        # mutate the overlay, and views are free to return snapshots
        # (ArrayOverlay, SnapshotView) rather than a live set (object Overlay).
        mutual = view.neighbors(peer) & view.neighbors(target)
        if not mutual:
            continue
        d_target = view.costs_from(target, sorted(mutual))
        for w in mutual:
            if d_peer[w] < d_pt and d_target[w] < d_pt:
                view.disconnect(peer, target)
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
    it peer by peer in the same order).  Returns the shed targets and one
    :class:`ReplacementAction` per attempted target — all a runner needs
    to fold the turn and to track which endpoints mutated.
    """
    sheds: List[int] = []
    if config.shed_redundant:
        sheds = shed_redundant(view, peer, non_flooding, shed_floor)
        if sheds:
            non_flooding = [t for t in non_flooding if view.has_edge(peer, t)]

    actions: List[ReplacementAction] = []
    for target in policy.targets(view, peer, non_flooding, rng):
        if not view.has_edge(peer, target):
            continue  # cut earlier in this turn, or by another peer since Phase 2
        actions.append(
            attempt_replacement(
                view,
                peer,
                target,
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

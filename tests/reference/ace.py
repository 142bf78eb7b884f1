"""The per-peer ACE loop over an object ``Overlay``: the kernel's reference.

:class:`ReferenceAce` runs each peer's turn on its own — closure by
:func:`~tests.reference.closure.neighbor_closure`, Phase 1 by
:func:`~tests.reference.cost_table.run_phase1`, Phase 2 by
:func:`~tests.reference.spanning_tree.prim_mst_heap` — and keeps one
:class:`ReferenceState` per peer in a dict.  It routes by the rule of
remembered sets (:func:`set_rule`), not by production's link labels: the
two rules differ only for a link cut and re-made before its peer's next
Phase 2, which no driver queries, so every driver-level comparison also
checks that they agree wherever a driver asks.  Phase 3 and the report
fold are production's own (:mod:`repro.core.turn`).  Its surface is the part of
:class:`~repro.core.ace.AceProtocol` the drivers, the strategies and the
tests read, plus the per-peer entry points :meth:`refresh_peer` /
:meth:`recompute_tree` the kernel batches away.

:func:`reference_drivers` swaps it (and :func:`reference_churn_refresh`)
into the experiment drivers' module namespaces, together with the heap
query engine (:func:`~tests.reference.search.reference_queries`), so a
driver-level comparison runs the same driver code over either engine.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest

from repro.core.ace import AceConfig, StepReport
from repro.core.policies import CandidatePolicy, make_policy
from repro.core.replacement import ReplacementAction
from repro.core.turn import Turn, fold, phase3, shed_floor_of
from repro.experiments import dynamic_env, static_env
from repro.perf import counters
from repro.rng import ensure_rng
from repro.topology.soa import ArrayOverlay
from tests.reference.overlay import Overlay

from .closure import ClosureView, neighbor_closure
from .cost_table import Phase1Report, run_phase1
from .search import reference_queries
from .spanning_tree import prim_mst_heap

__all__ = [
    "ReferenceState",
    "set_rule",
    "ReferenceAce",
    "reference_churn_refresh",
    "reference_drivers",
]


@dataclass(frozen=True)
class ReferenceState:
    """One peer's Phase 2 as the reference remembers it.

    ``flooding`` is its tree neighbors, ``known`` the neighbor set the
    tree was built over, and the closure's size and link count.
    """

    flooding: FrozenSet[int]
    known: FrozenSet[int]
    closure_size: int
    closure_edges: int

    @property
    def non_flooding(self) -> FrozenSet[int]:
        return self.known - self.flooding


def set_rule(live: Set[int], state: Optional[ReferenceState]) -> Set[int]:
    """The neighbors a peer forwards to, from its remembered sets.

    No state, or a tree neighbor that is no longer live: every live
    neighbor.  Otherwise the tree neighbors plus every neighbor gained
    since the tree was built.
    """
    if state is None or not state.flooding <= live:
        return live
    return set(state.flooding) | (live - state.known)


class ReferenceAce:
    """ACE one peer at a time over a dict-of-sets ``Overlay``."""

    def __init__(
        self,
        overlay: Overlay,
        config: Optional[AceConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        assert not isinstance(overlay, ArrayOverlay), (
            "the reference runs on the object model"
        )
        self.overlay = overlay
        self.config = config or AceConfig()
        self.rng = ensure_rng(rng)
        self.policy: CandidatePolicy = make_policy(self.config.policy)
        self._states: Dict[int, ReferenceState] = {}
        self.state_version = 0
        self.steps_run = 0
        self.last_actions: List[ReplacementAction] = []
        # Closure reuse cache, keyed on the overlay epoch (depth is frozen
        # per protocol): refresh_peer and recompute_tree on an unmutated
        # overlay share one extraction.
        self._closure_cache: Dict[int, ClosureView] = {}
        self._closure_epoch = -1
        self._shed_floor = shed_floor_of(overlay)

    def state_of(self, peer: int) -> Optional[ReferenceState]:
        return self._states.get(peer)

    def flooding_neighbors(self, peer: int) -> Set[int]:
        return set_rule(set(self.overlay.neighbors(peer)), self._states.get(peer))

    def non_flooding_neighbors(self, peer: int) -> Set[int]:
        return set(self.overlay.neighbors(peer)) - self.flooding_neighbors(peer)

    def _closure_of(self, peer: int) -> ClosureView:
        epoch = self.overlay.epoch
        if epoch != self._closure_epoch:
            self._closure_cache.clear()
            self._closure_epoch = epoch
        cached = self._closure_cache.get(peer)
        if cached is not None:
            counters.closure_reuses += 1
            return cached
        closure = neighbor_closure(self.overlay, peer, self.config.depth)
        self._closure_cache[peer] = closure
        return closure

    def refresh_peer(self, peer: int) -> Tuple[ReferenceState, Phase1Report]:
        """Phases 1-2 for one peer; stores and returns its state."""
        closure = self._closure_of(peer)
        report = run_phase1(self.overlay, closure)
        return self._store_state(peer, closure), report

    def recompute_tree(self, peer: int) -> ReferenceState:
        """Phase 2 only, without Phase-1 charges."""
        return self._store_state(peer, self._closure_of(peer))

    def _store_state(self, peer: int, closure: ClosureView) -> ReferenceState:
        tree = prim_mst_heap(closure.edges, peer)
        state = ReferenceState(
            flooding=frozenset(tree.tree_neighbors(peer)),
            known=frozenset(self.overlay.neighbors(peer)),
            closure_size=closure.size,
            closure_edges=closure.num_edges(),
        )
        self._states[peer] = state
        self.state_version += 1
        return state

    def optimize_peer(self, peer: int, report: StepReport) -> List[ReplacementAction]:
        """Phases 1-3 for one peer, folded into *report*."""
        state, charged = self.refresh_peer(peer)
        sheds, actions = phase3(
            self.overlay,
            peer,
            sorted(state.non_flooding),
            self.config,
            self._shed_floor,
            self.policy,
            self.rng,
        )
        fold(report, Turn(charged.probe_cost, charged.exchange_cost, sheds, actions))
        return actions

    def step(self, peers: Optional[Sequence[int]] = None) -> StepReport:
        """Every (given) live peer's turn in shuffled order, then Phase 2 everywhere."""
        order = list(self.overlay.peers() if peers is None else peers)
        self.rng.shuffle(order)
        self.last_actions = []
        self.overlay.warm_edge_costs()
        report = StepReport(step_index=self.steps_run)
        for peer in order:
            if self.overlay.has_peer(peer):
                self.last_actions.extend(self.optimize_peer(peer, report))
        for peer in order:
            if self.overlay.has_peer(peer):
                self.recompute_tree(peer)
        self.steps_run += 1
        return report

    def run(self, steps: int) -> List[StepReport]:
        return [self.step() for _ in range(steps)]

    def rebuild_all_trees(self) -> None:
        for peer in self.overlay.peers():
            self.recompute_tree(peer)


def reference_churn_refresh(
    protocol: ReferenceAce, replacement: int, affected: Iterable[int]
) -> float:
    """:func:`repro.core.batch_ace.churn_refresh`, one peer at a time.

    The joiner runs Phase 1-2 and is charged; every affected live peer
    rebuilds its tree.
    """
    _state, phase1 = protocol.refresh_peer(replacement)
    for peer in affected:
        if protocol.overlay.has_peer(peer):
            protocol.recompute_tree(peer)
    return phase1.total_overhead


@contextlib.contextmanager
def reference_drivers():
    """Run the static and dynamic drivers on :class:`ReferenceAce` and the
    heap query engine."""
    with pytest.MonkeyPatch.context() as patch, reference_queries():
        for module in (static_env, dynamic_env):
            patch.setattr(module, "AceProtocol", ReferenceAce)
        patch.setattr(dynamic_env, "churn_refresh", reference_churn_refresh)
        yield

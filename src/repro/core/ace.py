"""ACE — Adaptive Connection Establishment (the paper's core contribution).

:class:`AceProtocol` drives the three phases at every peer:

* **Phase 1** (:mod:`repro.core.cost_table`): probe direct-neighbor costs and
  exchange neighbor cost tables across the h-neighbor closure.
* **Phase 2** (:mod:`repro.core.spanning_tree`): build a minimum spanning
  tree over the closure's known subgraph; the source's tree-adjacent peers
  become its *flooding neighbors*, every other direct neighbor becomes
  *non-flooding* (kept connected, tables still exchanged, candidate for
  replacement).
* **Phase 3** (:mod:`repro.core.replacement`): probe candidates from
  non-flooding neighbors' neighbor lists and adaptively establish/cut
  connections per Figure 4.

The protocol is fully distributed in the paper; here one ``step()`` executes
one optimization round at every live peer, in random order, with all
overhead (probes and table exchanges) accounted in cost units so that the
optimization-rate experiments (Figures 11-16) can weigh gain against penalty.

Which step loop runs follows the overlay handed in: on an
:class:`~repro.topology.soa.ArrayOverlay` — every built scenario — state
lives in a :class:`~repro.core.flat_state.FlatAceStore` and the per-peer
loops run through :mod:`repro.core.batch_ace`; on a plain
:class:`~repro.topology.overlay.Overlay` the per-peer loop below runs with
its dict store, and is the reference the kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..perf import counters
from ..rng import ensure_rng
from ..topology.overlay import Overlay
from ..topology.soa import ArrayOverlay
from .batch_ace import batched_step, store_closures
from .closure import ClosureView, neighbor_closure
from .cost_table import Phase1Report
from .flat_state import FlatAceStore
from .policies import CandidatePolicy, make_policy
from .replacement import ReplacementAction
from .spanning_tree import SpanningTree
from .turn import (
    Turn,
    fold,
    forwarding_set,
    phase1,
    phase2,
    phase3,
    shed_floor_of,
    shed_redundant,
)

__all__ = ["AceConfig", "PeerAceState", "StepReport", "AceProtocol"]


@dataclass(frozen=True)
class AceConfig:
    """Tunable parameters of the ACE protocol.

    The Phase-1 overhead factors and the Phase-3 limits are constants
    (:data:`~repro.core.cost_table.ROUND_TRIP_FACTOR` /
    :data:`~repro.core.cost_table.ENTRY_COST_FACTOR`,
    :data:`~repro.core.replacement.MIN_DEGREE` /
    :data:`~repro.core.replacement.MAX_PROBES_PER_TARGET`,
    :data:`~repro.core.turn.MAX_SHEDS_PER_STEP`), and redundant-link
    shedding never cuts below the overlay's average degree at protocol
    construction (:func:`~repro.core.turn.shed_floor_of`).

    Attributes
    ----------
    depth:
        The *h* of the h-neighbor closure (paper Section 3.4).  ``1`` is the
        base protocol; larger values trade overhead for optimization rate.
    policy:
        Name of the Phase-3 candidate policy: ``"random"`` (the paper's
        evaluated choice), ``"closest"`` or ``"naive"``
        (:func:`~repro.core.policies.make_policy`).
    allow_keep_both:
        Enables the Figure 4(c) branch; ``False`` reproduces the AOTO
        precursor (swap-only optimization).
    shed_redundant:
        Enables the cut that closes the Figure 4(c) story: a peer sheds a
        non-flooding link that is strictly the longest side of a logical
        triangle (both endpoints remain connected through the third peer).
        This is how the C-H link of Figure 4(c) eventually disappears —
        "node C will try to find another peer to replace H" once H turns
        non-flooding — keeping the logical degree stable instead of growing
        with every keep-both addition.
    """

    depth: int = 1
    policy: str = "random"
    allow_keep_both: bool = True
    shed_redundant: bool = True

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")


@dataclass(frozen=True)
class PeerAceState:
    """Per-peer protocol state after Phases 1-2.

    ``known_neighbors`` records the direct neighbor set at tree-build time so
    routing can detect staleness: a neighbor gained since then must be
    flooded to (it is not covered by the tree), and a lost *flooding*
    neighbor breaks the tree entirely.

    ``tree`` is ``None`` when the state was materialized from the flat
    array store (:class:`~repro.core.flat_state.FlatAceStore`), which keeps
    only the membership sets the protocol actually routes on.
    """

    peer: int
    tree: Optional[SpanningTree]
    flooding: FrozenSet[int]
    non_flooding: FrozenSet[int]
    known_neighbors: FrozenSet[int]
    closure_size: int
    closure_edges: int


@dataclass
class StepReport:
    """Aggregate outcome of one optimization step across all peers."""

    step_index: int
    peers_optimized: int = 0
    probe_overhead: float = 0.0
    exchange_overhead: float = 0.0
    replacement_probe_overhead: float = 0.0
    replacements: int = 0
    keep_both_adds: int = 0
    redundant_sheds: int = 0
    probes: int = 0

    @property
    def total_overhead(self) -> float:
        """All Phase 1-3 traffic of the step, in cost units."""
        return (
            self.probe_overhead
            + self.exchange_overhead
            + self.replacement_probe_overhead
        )


class AceProtocol:
    """Run ACE over a (mutable) overlay.

    The protocol object owns per-peer state (trees, flooding sets) and keeps
    it consistent across overlay mutations and churn via
    :meth:`handle_peer_joined` / :meth:`handle_peer_left`.
    """

    def __init__(
        self,
        overlay: Overlay,
        config: Optional[AceConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.overlay = overlay
        self.config = config or AceConfig()
        self.rng = ensure_rng(rng)
        self._policy: CandidatePolicy = make_policy(self.config.policy)
        self._states: Dict[int, PeerAceState] = {}
        # Array-backed overlays pair with the flat ACE-state store: the same
        # membership/closure facts in struct-of-arrays form instead of one
        # frozen dataclass per peer.  Routing semantics are identical.
        self._flat: Optional[FlatAceStore] = (
            FlatAceStore() if isinstance(overlay, ArrayOverlay) else None
        )
        self._state_version = 0
        self._steps_run = 0
        #: Phase-3 actions of the most recent step, for diagnostics and the
        #: kernel-equivalence tests (both step paths populate it).
        self.last_actions: List[ReplacementAction] = []
        # Closure reuse cache, keyed on (overlay.epoch, config.depth): depth
        # is frozen per protocol, so one epoch stamp suffices.  refresh_peer
        # and recompute_tree on an unmutated overlay share one extraction.
        self._closure_cache: Dict[int, ClosureView] = {}
        self._closure_epoch = -1
        self._shed_floor = shed_floor_of(overlay)

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    @property
    def policy(self) -> CandidatePolicy:
        """The Phase-3 candidate policy in use."""
        return self._policy

    @property
    def steps_run(self) -> int:
        """Number of completed optimization steps."""
        return self._steps_run

    @property
    def state_version(self) -> int:
        """Monotone version of the per-peer routing state.

        Bumped whenever a peer's Phase-2 state is stored or dropped, so the
        routing decided by :meth:`flooding_neighbors` can only change when
        either this version or the overlay's ``epoch`` moves.  The compiled
        ACE forwarding graph (:mod:`repro.search.batch`) keys its cache on
        the ``(overlay.epoch, state_version)`` pair.
        """
        return self._state_version

    @property
    def flat_store(self) -> Optional[FlatAceStore]:
        """The struct-of-arrays state store (``None`` on a reference ``Overlay``)."""
        return self._flat

    def state_of(self, peer: int) -> Optional[PeerAceState]:
        """The peer's Phase-2 state, or ``None`` if not yet computed.

        In flat-store mode the state is materialized on demand from the
        membership arrays (``tree`` is ``None`` — only the sets survive).
        """
        if self._flat is not None:
            if peer not in self._flat:
                return None
            flooding = self._flat.flooding_of(peer)
            known = self._flat.known_of(peer)
            return PeerAceState(
                peer=peer,
                tree=None,
                flooding=flooding,
                non_flooding=known - flooding,
                known_neighbors=known,
                closure_size=self._flat.closure_size_of(peer),
                closure_edges=self._flat.closure_edges_of(peer),
            )
        return self._states.get(peer)

    def flooding_neighbors(self, peer: int) -> Set[int]:
        """The neighbors a peer forwards queries to *right now*.

        The stored Phase-2 sets pushed through the shared routing rule,
        :func:`~repro.core.turn.forwarding_set` (which see for the rule).
        """
        live = set(self.overlay.neighbors(peer))
        flooding = known = None
        if self._flat is not None:
            if peer in self._flat:
                flooding = self._flat.flooding_of(peer)
                known = self._flat.known_of(peer)
        else:
            state = self._states.get(peer)
            if state is not None:
                flooding, known = state.flooding, state.known_neighbors
        return forwarding_set(live, flooding, known)

    def non_flooding_neighbors(self, peer: int) -> Set[int]:
        """Live direct neighbors currently classified as non-flooding."""
        return set(self.overlay.neighbors(peer)) - self.flooding_neighbors(peer)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _closure_of(self, peer: int) -> ClosureView:
        """The peer's current closure, shared between refresh and recompute.

        Cached per ``(overlay.epoch, depth)`` — depth is frozen, so the
        epoch stamp alone keys it; any structural mutation bumps the epoch
        and flushes the cache.  At a fixed epoch a re-extraction returns an
        identical :class:`ClosureView` (same members, same dict orders,
        same cached cost floats), so reuse cannot change a single byte —
        it only saves the end-of-step ``recompute_tree`` sweep from
        re-deriving every closure ``refresh_peer`` just built.
        """
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

    def refresh_peer(self, peer: int) -> Tuple[PeerAceState, Phase1Report]:
        """Run Phases 1-2 for one peer and store its new state."""
        closure = self._closure_of(peer)
        report = phase1(self.overlay, closure)
        return self._store_state(peer, closure), report

    def _store_state(self, peer: int, closure: ClosureView) -> PeerAceState:
        tree, flooding, known = phase2(self.overlay, peer, closure)
        state = PeerAceState(
            peer=peer,
            tree=tree,
            flooding=flooding,
            non_flooding=known - flooding,
            known_neighbors=known,
            closure_size=closure.size,
            closure_edges=closure.num_edges(),
        )
        if self._flat is not None:
            self._flat.put(
                peer, flooding, known, closure.size, closure.num_edges()
            )
        else:
            self._states[peer] = state
        self._state_version += 1
        return state

    def recompute_tree(self, peer: int) -> PeerAceState:
        """Phase 2 only: rebuild the peer's tree without Phase-1 accounting.

        Used by the simulator to bring routing state up to date after other
        peers mutated the topology; in the real protocol this information
        arrives through the periodic table exchanges already charged.
        """
        closure = self._closure_of(peer)
        return self._store_state(peer, closure)

    def _put_flat(
        self,
        peer: int,
        flooding: Sequence[int],
        known: Sequence[int],
        closure_size: int,
        closure_edges: int,
    ) -> None:
        """Store a kernel-computed peer state straight into the flat store.

        The batched kernel's write seam: no ``PeerAceState`` or tree object
        is materialized, but the version contract is the reference's — one
        bump per stored peer (the sanitizer wraps this like
        ``_store_state``).
        """
        assert self._flat is not None
        self._flat.put(peer, flooding, known, closure_size, closure_edges)
        self._state_version += 1

    def _bump_state_version(self) -> None:
        """Advance the state version without rewriting a row.

        Used by the kernel's rebuild phase when a peer's stored state is
        provably identical to what a recompute would produce — the version
        trajectory still matches the reference loop bump for bump.
        """
        self._state_version += 1

    def shed_redundant_links(self, peer: int, non_flooding: Sequence[int]) -> int:
        """Cut non-flooding links that a logical triangle makes redundant.

        :func:`~repro.core.turn.shed_redundant` over this protocol's overlay,
        cap and degree floor; returns how many links were cut.
        """
        return len(
            shed_redundant(self.overlay, peer, non_flooding, self._shed_floor)
        )

    def optimize_peer(self, peer: int, report: StepReport) -> List[ReplacementAction]:
        """Run Phases 1-3 for one peer, accumulating into *report*."""
        state, charged = self.refresh_peer(peer)
        sheds, actions = phase3(
            self.overlay,
            peer,
            sorted(state.non_flooding),
            self.config,
            self._shed_floor,
            self._policy,
            self.rng,
        )
        fold(report, Turn(charged.probe_cost, charged.exchange_cost, sheds, actions))
        return actions

    def step(self, peers: Optional[Sequence[int]] = None) -> StepReport:
        """One optimization step: every (given) peer runs Phases 1-3 once.

        Peers execute in random order, mirroring the asynchronous
        independent execution of the distributed protocol.  Returns the
        aggregated :class:`StepReport`.

        The shuffle, the cost warm and the report are the same either way;
        on an ``ArrayOverlay`` (every built scenario) the per-peer loops run
        through the vectorized kernel (:mod:`repro.core.batch_ace`), for
        which the object loops below are the byte-identical reference.
        """
        if peers is None:
            peers = self.overlay.peers()
        order = list(peers)
        self.rng.shuffle(order)
        self.last_actions = []
        # Pre-warm the exact cost working set of this step in one batched
        # underlay solve: every Phase-1 probe is a logical-edge cost, so
        # bulk-filling the edge-cost cache up front turns the per-peer inner
        # loops into pure dict lookups (edges created mid-step are filled
        # lazily and swept up by the next step's warm).
        self.overlay.warm_edge_costs()
        report = StepReport(step_index=self._steps_run)
        if self._flat is not None:
            batched_step(self, order, report)
        else:
            for peer in order:
                if self.overlay.has_peer(peer):
                    self.last_actions.extend(self.optimize_peer(peer, report))
            # Re-run Phase 2 everywhere so flooding sets reflect the final
            # post-step topology (peers whose links were changed later in
            # the round would otherwise route on stale trees until their
            # next turn).
            for peer in order:
                if self.overlay.has_peer(peer):
                    self.recompute_tree(peer)
        self._steps_run += 1
        return report

    def run(self, steps: int) -> List[StepReport]:
        """Run several optimization steps; returns one report per step."""
        return [self.step() for _ in range(steps)]

    # ------------------------------------------------------------------
    # Churn hooks
    # ------------------------------------------------------------------

    def handle_peer_joined(self, peer: int) -> None:
        """Invalidate state for a (re)joining peer: it floods until Phase 2."""
        self.handle_peer_left(peer)

    def handle_peer_left(self, peer: int) -> None:
        """Drop protocol state of a departed peer."""
        if self._flat is not None:
            if self._flat.drop(peer):
                self._state_version += 1
            return
        if self._states.pop(peer, None) is not None:
            self._state_version += 1

    def rebuild_all_trees(self) -> None:
        """Recompute Phase 2 at every live peer (no Phase 3 mutations).

        On the flat store every closure comes out of one
        :func:`~repro.core.batch_ace.store_closures` call, as the step's
        end-of-step rebuild does; rows and version bumps are the per-peer
        loop's.
        """
        if self._flat is not None:
            store_closures(self, self.overlay.peers())
            return
        for peer in self.overlay.peers():
            self.recompute_tree(peer)

"""ACE — Adaptive Connection Establishment (the paper's core contribution).

:class:`AceProtocol` drives the three phases at every peer:

* **Phase 1**: probe direct-neighbor costs and exchange neighbor cost
  tables across the h-neighbor closure; charged by
  :func:`~repro.core.turn.phase1_charges`.
* **Phase 2**: build a minimum spanning tree over the closure's known
  subgraph (:func:`~repro.core.turn.phases12`); the source's tree-adjacent
  peers become its *flooding neighbors*, every other direct neighbor
  becomes *non-flooding* (kept connected, tables still exchanged,
  candidate for replacement).
* **Phase 3** (:mod:`repro.core.replacement`): probe candidates from
  non-flooding neighbors' neighbor lists and adaptively establish/cut
  connections per Figure 4.

The protocol is fully distributed in the paper; here one ``step()`` executes
one optimization round at every live peer, in random order, with all
overhead (probes and table exchanges) accounted in cost units so that the
optimization-rate experiments (Figures 11-16) can weigh gain against penalty.

The protocol runs on an :class:`~repro.topology.soa.ArrayOverlay` — what
every built scenario and generator returns — and keeps its routing state on
the overlay's connections, as a servent does (§3.3): one label per directed
link and one tree-broken bit per peer, which the overlay's own mutators keep
through churn (:meth:`ArrayOverlay.label_links
<repro.topology.soa.ArrayOverlay.label_links>`).  The per-peer loops of a
step run through :mod:`repro.core.batch_ace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, List, Optional, Sequence, Set

import numpy as np

from ..rng import ensure_rng
from ..topology.soa import ArrayOverlay
from .batch_ace import batched_step, store_closures
from .policies import CandidatePolicy, make_policy
from .replacement import ReplacementAction
from .turn import forwards, shed_floor_of

__all__ = ["AceConfig", "StepReport", "AceProtocol"]


@dataclass(frozen=True)
class AceConfig:
    """Tunable parameters of the ACE protocol.

    The Phase-1 overhead factors and the Phase-3 limits are constants
    (:data:`~repro.core.replacement.ROUND_TRIP_FACTOR` /
    :data:`~repro.core.turn.ENTRY_COST_FACTOR`,
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
    """Run ACE over a (mutable) array overlay.

    The routing state lives on the overlay's links (module docstring); a
    new protocol clears it, so every peer floods until its first Phase 2.
    One protocol drives one overlay.  Any overlay but an
    :class:`~repro.topology.soa.ArrayOverlay` raises ``TypeError``.
    """

    def __init__(
        self,
        overlay: ArrayOverlay,
        config: Optional[AceConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not isinstance(overlay, ArrayOverlay):
            raise TypeError(
                f"AceProtocol runs on an ArrayOverlay, not {type(overlay).__name__}"
            )
        self.overlay = overlay
        self.config = config or AceConfig()
        self.rng = ensure_rng(rng)
        self._policy: CandidatePolicy = make_policy(self.config.policy)
        overlay.clear_labels()
        self._state_version = 0
        self._steps_run = 0
        #: Phase-3 actions of the most recent step, for diagnostics and the
        #: equivalence tests.
        self.last_actions: List[ReplacementAction] = []
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

        Bumped whenever a peer's Phase 2 labels its links, so the routing
        decided by :meth:`flooding_neighbors` can only change when either
        this version or the overlay's ``epoch`` moves.  The compiled
        ACE forwarding graph (:mod:`repro.search.batch`) keys its cache on
        the ``(overlay.epoch, state_version)`` pair.
        """
        return self._state_version

    def flooding_neighbors(self, peer: int) -> Set[int]:
        """The neighbors a peer forwards queries to *right now*.

        Its live links' labels pushed through the routing rule,
        :func:`~repro.core.turn.forwards` (which see for the rule).
        """
        labels, broken = self.overlay.link_labels(peer)
        return {v for v, label in labels.items() if forwards(broken, label)}

    def non_flooding_neighbors(self, peer: int) -> Set[int]:
        """Live direct neighbors currently classified as non-flooding."""
        return set(self.overlay.neighbors(peer)) - self.flooding_neighbors(peer)

    # ------------------------------------------------------------------
    # State writes (the kernel's seams)
    # ------------------------------------------------------------------

    def _write_labels(self, peer: int, flooding: Collection[int]) -> None:
        """Label one peer's links from its Phase 2; one version bump."""
        self.overlay.label_links(peer, flooding)
        self._state_version += 1

    def _bump_state_version(self) -> None:
        """Advance the state version without rewriting a peer's labels.

        Used by the kernel's rebuild phase when a peer's labels are
        provably identical to what a recompute would write — the version
        trajectory still moves once per peer, as a rewrite would.
        """
        self._state_version += 1

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------

    def step(self, peers: Optional[Sequence[int]] = None) -> StepReport:
        """One optimization step: every (given) peer runs Phases 1-3 once.

        Peers execute in random order, mirroring the asynchronous
        independent execution of the distributed protocol, and then every
        peer rebuilds its tree against the final topology
        (:func:`~repro.core.batch_ace.batched_step`).  Returns the
        aggregated :class:`StepReport`.
        """
        if peers is None:
            peers = self.overlay.peers()
        order = list(peers)
        self.rng.shuffle(order)
        self.last_actions = []
        # Pre-warm the exact cost working set of this step in one batched
        # underlay solve: every Phase-1 probe is a logical-edge cost (edges
        # created mid-step are filled lazily and swept up by the next
        # step's warm).
        self.overlay.warm_edge_costs()
        report = StepReport(step_index=self._steps_run)
        batched_step(self, order, report)
        self._steps_run += 1
        return report

    def run(self, steps: int) -> List[StepReport]:
        """Run several optimization steps; returns one report per step."""
        return [self.step() for _ in range(steps)]

    # ------------------------------------------------------------------
    # Phase 2 only
    # ------------------------------------------------------------------

    def rebuild_all_trees(self) -> None:
        """Recompute Phase 2 at every live peer (no Phase 3 mutations).

        Through :func:`~repro.core.batch_ace.store_closures`, as the step's
        end-of-step rebuild: one sweep of 256 peers at a time, each dropped
        before the next, and one label write and one version bump per peer,
        in peer order.
        """
        store_closures(self, self.overlay.peers())

"""The live ACE turn, sans-IO: a snapshot of protocol answers in, a plan out.

A live peer gathers what its turn reads — ``GetTable`` answers from its
h-closure and ``CostProbe`` costs to its neighbors — and :func:`plan_turn`
runs the shared procedure of :mod:`repro.core.turn` over a
:class:`SnapshotView` of those answers, with no socket and no event loop:
Phases 1-2 through :func:`~repro.core.turn.phases12`, the kernel's own
re-derivation, then Phase 3.
The plan carries the turn's outcome, its mutations in decision order and
the advanced RNG token; :class:`~repro.net.peer.LivePeer` sends the rest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..core.ace import AceConfig
from ..core.policies import CandidatePolicy
from ..core.turn import Turn, phase1_charges, phase3, phases12
from .wire import WireError

__all__ = [
    "NeedProbes",
    "SnapshotView",
    "TurnPlan",
    "plan_turn",
    "serialize_rng",
    "restore_rng",
]


def serialize_rng(rng: np.random.Generator) -> str:
    """JSON form of the generator's bit-generator state (the turn token)."""
    return json.dumps(rng.bit_generator.state)


def restore_rng(state: str) -> np.random.Generator:
    """Rebuild the shared protocol Generator from a turn token.

    A token naming anything but a numpy bit generator is refused before
    the name is called.
    """
    payload = json.loads(state)
    name = payload.get("bit_generator") if isinstance(payload, dict) else None
    bitgen_cls = getattr(np.random, name, None) if isinstance(name, str) else None
    if not (isinstance(bitgen_cls, type) and issubclass(bitgen_cls, np.random.BitGenerator)):
        raise WireError(f"turn token names no bit generator: {name!r}")
    bitgen = bitgen_cls()
    bitgen.state = payload
    return np.random.Generator(bitgen)


class NeedProbes(Exception):
    """A turn read costs to peers it has not probed: probe them, re-run."""

    def __init__(self, peers: Iterable[int]) -> None:
        self.peers = frozenset(peers)
        super().__init__(f"unprobed peers {sorted(self.peers)}")


class SnapshotView:
    """The overlay surface one live turn decides on: gathered answers, no I/O.

    ``tables[p]`` is peer *p*'s ``GetTable`` answer, ``probed[p]`` this
    peer's ``CostProbe`` of *p*.  During a token-serialized turn only this
    peer mutates, and every remote-rooted cost the decision code reads is a
    cost to that remote's own neighbor, which its table carries — so the
    view answers everything the simulator's overlay could, with identical
    floats.  A mutation edits the snapshot as a re-fetch would see it and
    is appended to :attr:`log` as ``("connect" | "disconnect", other)``.
    Costs from this peer to unprobed peers raise :class:`NeedProbes`
    naming all of them.  :meth:`live_row` reads only tables, so Phases 1-2
    never need a probe.
    """

    def __init__(
        self,
        peer: int,
        neighbors: Iterable[int],
        tables: Dict[int, Dict[int, float]],
        probed: Dict[int, float],
    ) -> None:
        self.peer = peer
        self._mine = set(neighbors)
        self._tables = {p: dict(table) for p, table in tables.items()}
        self._probed = probed
        self.log: List[Tuple[str, int]] = []

    def _row(self, peer: int):
        return self._mine if peer == self.peer else self._tables[peer]

    def _other(self, u: int, v: int) -> int:
        if self.peer not in (u, v):
            raise ValueError(f"peer {self.peer} cannot change {u}-{v} remotely")
        return v if u == self.peer else u

    def neighbors(self, peer: int) -> Set[int]:
        return set(self._row(peer))

    def degree(self, peer: int) -> int:
        return len(self._row(peer))

    def costs_from(self, u: int, targets: Iterable[int]) -> Dict[int, float]:
        # Insertion order follows *targets*, matching ArrayOverlay.costs_from —
        # downstream float sums iterate these dicts in insertion order.
        targets = list(targets)
        if u != self.peer:
            table = self._tables[u]
            return {t: table[t] for t in targets}
        missing = [t for t in targets if t not in self._probed]
        if missing:
            raise NeedProbes(missing)
        return {t: self._probed[t] for t in targets}

    def live_row(self, u: int) -> Tuple[List[int], List[float]]:
        """*u*'s neighbors, ascending, and each link's cost.

        Row *u* reads ``tables[u]``; this peer's own row reads each
        neighbor's table entry for it (every neighbor's table is gathered
        at the first level).  Both ends of a link hold the same float — the
        delays sit on a grid and every cost row comes from one overlay — so
        the end a link is read from never changes a bit.
        """
        nbrs = sorted(self._row(u))
        if u == self.peer:
            return nbrs, [self._tables[v][u] for v in nbrs]
        table = self._tables[u]
        return nbrs, [table[v] for v in nbrs]

    def connect(self, u: int, v: int) -> bool:
        other = self._other(u, v)
        if other in self._mine:
            return False
        self._mine.add(other)
        if other in self._tables:  # the candidate now lists this peer
            self._tables[other][self.peer] = self._probed[other]
        self.log.append(("connect", other))
        return True

    def disconnect(self, u: int, v: int) -> bool:
        other = self._other(u, v)
        if other not in self._mine:
            return False
        self._mine.discard(other)
        if other in self._tables:
            del self._tables[other][self.peer]
        self.log.append(("disconnect", other))
        return True


@dataclass
class TurnPlan:
    """What one live turn decided, before any mutation leaves the peer.

    ``flooding`` is the peer's tree neighbors, which its links are labelled
    from; ``turn`` and ``rng_state`` (the advanced token) are ``None`` for
    a recompute; ``log`` holds the mutations in decision order.
    """

    flooding: FrozenSet[int]
    turn: Optional[Turn]
    log: List[Tuple[str, int]]
    rng_state: Optional[str]


def plan_turn(
    view: SnapshotView,
    config: AceConfig,
    shed_floor: int,
    policy: CandidatePolicy,
    rng_state: Optional[str],
) -> TurnPlan:
    """One peer's turn over *view*: Phases 1-2, then Phase 3.

    With no *rng_state* this is the end-of-step recompute: Phase 2 only,
    no charges.  The flooding set is the tree built *before* the turn's
    own mutations, like the simulator's — the seed's recompute pass
    refreshes every peer afterwards.  The generator is restored from
    *rng_state* on every call, so a re-run after :class:`NeedProbes`
    draws exactly what the first run drew.
    """
    me = view.peer
    flooding, direct, _, probe_sum, _, edges = phases12(view, me, config.depth)
    if rng_state is None:
        return TurnPlan(frozenset(flooding), None, view.log, None)
    rng = restore_rng(rng_state)
    in_tree = set(flooding)
    non_flooding = [t for t in direct if t not in in_tree]
    sheds, actions = phase3(view, me, non_flooding, config, shed_floor, policy, rng)
    turn = Turn(*phase1_charges(probe_sum, edges), sheds, actions)
    return TurnPlan(frozenset(flooding), turn, view.log, serialize_rng(rng))

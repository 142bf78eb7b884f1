"""The §3.3 routing rule as a servent states it: per-peer dicts of labels.

Production keeps ACE's routing state on ``ArrayOverlay``'s links — one
label per directed CSR entry and one tree-broken bit per slot — and routes
by :func:`repro.core.turn.forwards`.  This module states the same rule
again, independently, in plain dicts on the object model:

* :class:`LabelledOverlay` is an ``Overlay`` that keeps, per peer, a dict
  ``{neighbor: label}`` and a tree-broken flag.  Its own mutators keep them:
  a cut drops the label on both sides and breaks the tree of a side that
  labelled the link flooding, a departure cuts every link of the leaver,
  and a new link or peer starts with no label and an intact tree;
* :class:`LabelledReferenceAce` is the per-peer reference loop whose
  Phase 2 writes those labels and whose routing reads them.

A link a peer has not labelled since it was made is forwarded on, a
non-flooding link is not, and a peer whose tree broke forwards on every
link until its next Phase 2.
"""

from typing import Dict, Set

from repro.topology.soa import FLOODING, NON_FLOODING
from tests.reference.overlay import Overlay

from . import twin
from .ace import ReferenceAce, ReferenceState

__all__ = ["LabelledOverlay", "LabelledReferenceAce", "labelled_twin"]


class LabelledOverlay(Overlay):
    """An object overlay that keeps ACE link labels in per-peer dicts."""

    def __init__(self, physical, hosts=None, oracle=None) -> None:
        self.labels: Dict[int, Dict[int, int]] = {}
        self.broken: Dict[int, bool] = {}
        super().__init__(physical, hosts, oracle)

    def add_peer(self, peer: int, host: int) -> None:
        super().add_peer(peer, host)
        self.labels[peer] = {}
        self.broken[peer] = False

    def remove_peer(self, peer: int) -> None:
        for other in self.neighbors(peer):
            self._cut(other, peer)
        super().remove_peer(peer)
        del self.labels[peer], self.broken[peer]

    def disconnect(self, u: int, v: int) -> bool:
        cut = super().disconnect(u, v)
        if cut:
            self._cut(u, v)
            self._cut(v, u)
        return cut

    def _cut(self, peer: int, other: int) -> None:
        if self.labels[peer].pop(other, None) == FLOODING:
            self.broken[peer] = True

    def label(self, peer: int, flooding) -> None:
        """*peer*'s Phase 2: every live link flooding or not, tree intact."""
        self.labels[peer] = {
            v: FLOODING if v in flooding else NON_FLOODING
            for v in self.neighbors(peer)
        }
        self.broken[peer] = False

    def clear_labels(self) -> None:
        self.labels = {p: {} for p in self.peers()}
        self.broken = {p: False for p in self.peers()}

    def routes(self, peer: int) -> Set[int]:
        """The neighbors *peer* forwards queries to under the label rule."""
        live = set(self.neighbors(peer))
        if self.broken[peer]:
            return live
        return {v for v in live if self.labels[peer].get(v) != NON_FLOODING}

    def copy(self) -> "LabelledOverlay":
        clone = LabelledOverlay(self.physical, oracle=self.oracle)
        clone.__dict__.update(vars(super().copy()))
        clone.labels = {p: dict(row) for p, row in self.labels.items()}
        clone.broken = dict(self.broken)
        return clone


class LabelledReferenceAce(ReferenceAce):
    """The per-peer reference loop, routing by link labels."""

    def __init__(self, overlay: LabelledOverlay, config=None, rng=None) -> None:
        assert isinstance(overlay, LabelledOverlay)
        super().__init__(overlay, config, rng)
        overlay.clear_labels()

    def _store_state(self, peer: int, closure) -> ReferenceState:
        state = super()._store_state(peer, closure)
        self.overlay.label(peer, state.flooding)
        return state

    def flooding_neighbors(self, peer: int) -> Set[int]:
        return self.overlay.routes(peer)


def labelled_twin(overlay: Overlay) -> LabelledOverlay:
    """*overlay*'s peers, hosts, edges and oracle, no link labelled."""
    return twin(LabelledOverlay, overlay)

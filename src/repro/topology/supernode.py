"""Two-tier (supernode) overlays — the paper's KaZaA configuration.

Section 1: "In unstructured P2P systems, queries are flooded among peers
(such as in Gnutella) or among supernodes (such as in KaZaA)."  ACE applies
unchanged to the supernode tier: the backbone *is* an
:class:`~repro.topology.overlay.Overlay`, so
:class:`~repro.core.ace.AceProtocol` optimizes it directly while leaves
stay attached to their supernodes.

Model
-----
* a capacity is drawn per peer (Zipf-like, as measured by Saroiu et al.);
  the top fraction by capacity becomes supernodes;
* each leaf attaches to one random supernode (the same locality-oblivious
  bootstrap that causes the mismatch) and publishes its object index there;
* a query travels leaf -> supernode, floods the backbone, and every reached
  supernode answers from the indices of its leaves — so the *search scope*
  is the number of peers whose content was searched (supernodes plus
  covered leaves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..rng import ensure_rng
from .overlay import Overlay
from .physical import PhysicalTopology

if TYPE_CHECKING:  # avoid a topology -> search -> core import cycle
    from ..search.flooding import ForwardingStrategy

__all__ = ["TwoTierOverlay", "TwoTierQueryResult", "build_two_tier", "two_tier_query"]


@dataclass
class TwoTierOverlay:
    """A supernode backbone plus leaf attachments."""

    backbone: Overlay
    leaf_parent: Dict[int, int]
    leaf_hosts: Dict[int, int]
    capacities: Dict[int, float]

    @property
    def num_supernodes(self) -> int:
        """Peers on the flooding tier."""
        return self.backbone.num_peers

    @property
    def num_leaves(self) -> int:
        """Peers attached below the flooding tier."""
        return len(self.leaf_parent)

    @property
    def num_peers(self) -> int:
        """All participants."""
        return self.num_supernodes + self.num_leaves

    def is_supernode(self, peer: int) -> bool:
        """Whether *peer* sits on the backbone."""
        return self.backbone.has_peer(peer)

    def supernode_of(self, peer: int) -> int:
        """The supernode responsible for *peer* (itself if a supernode)."""
        if self.backbone.has_peer(peer):
            return peer
        return self.leaf_parent[peer]

    def leaves_of(self, supernode: int) -> List[int]:
        """Leaves attached to a supernode (sorted)."""
        return sorted(
            leaf for leaf, parent in self.leaf_parent.items() if parent == supernode
        )

    def leaf_link_cost(self, leaf: int) -> float:
        """Underlay delay of the leaf's uplink to its supernode."""
        return self.backbone.physical.delay(
            self.leaf_hosts[leaf],
            self.backbone.host_of(self.leaf_parent[leaf]),
        )

    def capacity_degree_correlation(self) -> float:
        """Pearson correlation between supernode capacity and degree.

        The Gia-style health metric: positive values mean high-capacity
        nodes carry the load.
        """
        peers = self.backbone.peers()
        if len(peers) < 3:
            return 0.0
        caps = np.array([self.capacities[p] for p in peers], dtype=float)
        degs = np.array([self.backbone.degree(p) for p in peers], dtype=float)
        if caps.std() == 0 or degs.std() == 0:
            return 0.0
        return float(np.corrcoef(caps, degs)[0, 1])


def build_two_tier(
    physical: PhysicalTopology,
    n_peers: int,
    supernode_fraction: float = 0.25,
    backbone_degree: float = 6.0,
    rng: Optional[np.random.Generator] = None,
    capacity_zipf: float = 1.2,
) -> TwoTierOverlay:
    """Elect supernodes by capacity and wire a two-tier overlay.

    Capacities follow a Zipf-like heavy tail; the top
    ``supernode_fraction`` of peers form a small-world backbone and every
    remaining peer attaches to one uniformly random supernode.
    """
    if not 0.0 < supernode_fraction < 1.0:
        raise ValueError("supernode_fraction must be in (0, 1)")
    rng = ensure_rng(rng)
    n_super = max(3, int(round(supernode_fraction * n_peers)))
    if n_super >= n_peers:
        raise ValueError("need at least one leaf; lower supernode_fraction")

    hosts_pool = physical.largest_component_nodes()
    if n_peers > len(hosts_pool):
        raise ValueError("not enough physical hosts")
    picked = rng.choice(len(hosts_pool), size=n_peers, replace=False)
    hosts = [hosts_pool[int(i)] for i in picked]

    ranks = rng.permutation(n_peers) + 1
    capacities = {p: float(ranks[p] ** (-capacity_zipf)) for p in range(n_peers)}
    by_capacity = sorted(range(n_peers), key=lambda p: -capacities[p])
    supernodes = sorted(by_capacity[:n_super])
    leaves = sorted(by_capacity[n_super:])

    from .overlay import small_world_overlay  # local import to avoid cycles

    # Build the backbone among the elected supernodes: reuse the
    # small-world generator on a sub-mapping, then relabel to peer ids.
    backbone = Overlay(physical, {p: hosts[p] for p in supernodes})
    template = small_world_overlay(
        physical,
        n_super,
        avg_degree=backbone_degree,
        rng=rng,
    )
    # template peers are 0..n_super-1 on random hosts; re-use only its
    # *edge structure* over our supernode ids (hosts stay as elected).
    for u, v in template.edges():
        backbone.connect(supernodes[u], supernodes[v])

    leaf_parent = {
        leaf: supernodes[int(rng.integers(n_super))] for leaf in leaves
    }
    leaf_hosts = {leaf: hosts[leaf] for leaf in leaves}
    return TwoTierOverlay(
        backbone=backbone,
        leaf_parent=leaf_parent,
        leaf_hosts=leaf_hosts,
        capacities=capacities,
    )


@dataclass(frozen=True)
class TwoTierQueryResult:
    """Outcome of one query through the supernode tier."""

    source: int
    entry_supernode: int
    supernodes_reached: FrozenSet[int]
    peers_covered: int
    traffic_cost: float
    uplink_cost: float
    first_response_time: Optional[float]
    holders_found: Tuple[int, ...]

    @property
    def search_scope(self) -> int:
        """Peers whose content was searched."""
        return self.peers_covered

    @property
    def success(self) -> bool:
        """Whether a replica was found."""
        return self.first_response_time is not None


def two_tier_query(
    overlay: TwoTierOverlay,
    source: int,
    holders: Iterable[int],
    strategy: Optional["ForwardingStrategy"] = None,
    ttl: Optional[int] = None,
) -> TwoTierQueryResult:
    """Run one query: uplink, backbone flood, indexed answers.

    *strategy* routes the backbone flood (blind flooding by default; pass
    :func:`repro.search.tree_routing.ace_strategy` of a protocol running on
    ``overlay.backbone`` for the ACE-enabled system).
    """
    from ..search.batch import propagate_single
    from ..search.flooding import blind_flooding_strategy

    backbone = overlay.backbone
    entry = overlay.supernode_of(source)
    physical = backbone.physical

    uplink = 0.0
    if source != entry:
        uplink = physical.delay(
            overlay.leaf_hosts[source], backbone.host_of(entry)
        )

    if strategy is None:
        strategy = blind_flooding_strategy(backbone)
    prop = propagate_single(backbone, entry, strategy, ttl=ttl)

    covered = len(prop.reached) + sum(
        len(overlay.leaves_of(sn)) for sn in prop.reached
    )

    holder_set = {h for h in holders if h != source}
    responses: List[float] = []
    found: Set[int] = set()
    for holder in holder_set:
        responsible = overlay.supernode_of(holder)
        if responsible in prop.arrival_time:
            found.add(holder)
            # Response returns along the reverse path, plus the source
            # uplink both ways.
            responses.append(2.0 * (uplink + prop.arrival_time[responsible]))
    return TwoTierQueryResult(
        source=source,
        entry_supernode=entry,
        supernodes_reached=frozenset(prop.reached),
        peers_covered=covered,
        traffic_cost=prop.traffic_cost + uplink,
        uplink_cost=uplink,
        first_response_time=min(responses) if responses else None,
        holders_found=tuple(sorted(found)),
    )

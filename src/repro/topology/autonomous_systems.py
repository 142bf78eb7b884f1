"""Transit-stub underlays and autonomous-system traffic accounting.

The paper's introduction motivates ACE with AS-level measurements:
"only 2 to 5 percent of Gnutella connections link peers within a single
autonomous system (AS), but more than 40 percent of all Gnutella peers are
located within the top 10 ASes.  This means that most Gnutella-generated
traffic crosses AS borders so as to increase topology mismatching costs."

This module makes that motivation measurable:

* :func:`transit_stub` generates the classic two-tier Internet model — a
  well-connected transit core whose routers each anchor several *stub
  domains* (ASes), with intra-domain links much faster than inter-domain
  links — and records each host's AS id;
* :class:`AsTrafficReport` / :func:`as_traffic_report` classify an
  overlay's logical connections and a query's traffic into intra- vs
  inter-AS shares, so a figure row can show ACE turning border-crossing
  connections into local ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..rng import ensure_rng
from .physical import PhysicalTopology
from .soa import ArrayOverlay

if TYPE_CHECKING:  # avoid a topology -> search -> core import cycle
    from ..search.flooding import QueryPropagation

__all__ = ["transit_stub", "as_of_hosts", "AsTrafficReport", "as_traffic_report"]


def transit_stub(
    transit_nodes: int = 16,
    stubs_per_transit: int = 3,
    stub_size: int = 12,
    rng: Optional[np.random.Generator] = None,
    transit_delay: float = 40.0,
    stub_uplink_delay: float = 120.0,
    intra_stub_delay: float = 4.0,
    extra_transit_links: int = 8,
    cache_size: int = 128,
) -> Tuple[PhysicalTopology, np.ndarray]:
    """Generate a transit-stub underlay.

    Returns ``(topology, as_labels)`` where ``as_labels[host]`` is the
    host's autonomous-system id: transit routers form AS 0 and each stub
    domain gets its own id.  Delays follow the two-tier reality the paper's
    motivation needs: hops inside a stub are cheap, crossing into the core
    is expensive.
    """
    if transit_nodes < 2:
        raise ValueError("need at least 2 transit nodes")
    if stubs_per_transit < 1 or stub_size < 1:
        raise ValueError("stub dimensions must be positive")
    rng = ensure_rng(rng)

    n_stubs = transit_nodes * stubs_per_transit
    total = transit_nodes + n_stubs * stub_size
    labels = np.zeros(total, dtype=np.int64)
    edges: List[Tuple[int, int]] = []
    delays: List[float] = []

    # Transit core: ring + random chords (AS 0).
    for i in range(transit_nodes):
        edges.append((i, (i + 1) % transit_nodes))
        delays.append(transit_delay)
    for _ in range(extra_transit_links):
        u, v = rng.integers(transit_nodes, size=2)
        if u != v:
            edges.append((int(u), int(v)))
            delays.append(transit_delay)

    # Stub domains: a random connected intra-AS graph plus one uplink.
    next_host = transit_nodes
    stub_id = 0
    for transit in range(transit_nodes):
        for _ in range(stubs_per_transit):
            stub_id += 1
            members = list(range(next_host, next_host + stub_size))
            next_host += stub_size
            labels[members] = stub_id
            # Random spanning tree inside the stub.
            for i in range(1, stub_size):
                j = int(rng.integers(i))
                edges.append((members[i], members[j]))
                delays.append(intra_stub_delay)
            # A few extra intra-stub links for redundancy.
            for _ in range(max(1, stub_size // 3)):
                a, b = rng.integers(stub_size, size=2)
                if a != b:
                    edges.append((members[int(a)], members[int(b)]))
                    delays.append(intra_stub_delay)
            # Uplink: the stub's gateway reaches its transit router.
            gateway = members[int(rng.integers(stub_size))]
            edges.append((gateway, transit))
            delays.append(stub_uplink_delay)

    topo = PhysicalTopology(total, edges, delays, cache_size=cache_size)
    return topo, labels


def as_of_hosts(labels: np.ndarray, overlay: ArrayOverlay) -> Dict[int, int]:
    """Map each overlay peer to its autonomous-system id."""
    return {p: int(labels[overlay.host_of(p)]) for p in overlay.peers()}


@dataclass(frozen=True)
class AsTrafficReport:
    """Intra- vs inter-AS composition of connections and traffic."""

    intra_as_links: int
    inter_as_links: int
    intra_as_traffic: float
    inter_as_traffic: float

    @property
    def total_links(self) -> int:
        """All classified logical links."""
        return self.intra_as_links + self.inter_as_links

    @property
    def intra_link_fraction(self) -> float:
        """Share of logical connections staying inside one AS.

        The paper's measured Gnutella value is 0.02-0.05 — almost every
        connection crosses an AS border.
        """
        total = self.total_links
        return self.intra_as_links / total if total else 0.0

    @property
    def inter_traffic_fraction(self) -> float:
        """Share of traffic cost spent crossing AS borders."""
        total = self.intra_as_traffic + self.inter_as_traffic
        return self.inter_as_traffic / total if total else 0.0


def as_traffic_report(
    labels: np.ndarray,
    overlay: ArrayOverlay,
    propagation: Optional["QueryPropagation"] = None,
) -> AsTrafficReport:
    """Classify an overlay's links (and optionally a query) by AS locality.

    Link classification counts every logical connection once.  Traffic
    classification, when a *propagation* is given, attributes each first
    delivery's hop cost to intra or inter AS by its endpoints; without one
    it falls back to link costs (each connection once).
    """
    peer_as = as_of_hosts(labels, overlay)
    intra_links = inter_links = 0
    for u, v in overlay.edges():
        if peer_as[u] == peer_as[v]:
            intra_links += 1
        else:
            inter_links += 1

    intra_traffic = inter_traffic = 0.0
    # Every pair below is a live logical edge: one batched solve up front
    # turns the per-hop cost() probes into dict hits.
    overlay.warm_edge_costs()
    if propagation is not None:
        for peer, parent in propagation.parent.items():
            cost = overlay.cost(parent, peer)
            if peer_as.get(parent) == peer_as.get(peer):
                intra_traffic += cost
            else:
                inter_traffic += cost
    else:
        for u, v in overlay.edges():
            cost = overlay.cost(u, v)
            if peer_as[u] == peer_as[v]:
                intra_traffic += cost
            else:
                inter_traffic += cost
    return AsTrafficReport(
        intra_as_links=intra_links,
        inter_as_links=inter_links,
        intra_as_traffic=intra_traffic,
        inter_as_traffic=inter_traffic,
    )

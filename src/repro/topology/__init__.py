"""Topology substrates: the physical underlay and the logical overlay.

The paper's simulation methodology (Section 4.1) needs both layers:

* :class:`~repro.topology.physical.PhysicalTopology` — BRITE-style Internet
  underlay with link delays and shortest-path queries.
* :class:`~repro.topology.overlay.Overlay` — the Gnutella-like logical
  network whose link costs are underlay shortest-path delays.
* :class:`~repro.topology.soa.ArrayOverlay` — struct-of-arrays overlay
  engine (flat CSR + edit buffer) for 100k+-peer experiments.
* :mod:`~repro.topology.generators` — Waxman / Barabási–Albert / GLP /
  Watts–Strogatz underlay generators.
* :mod:`~repro.topology.properties` — power-law and small-world validation.
* :mod:`~repro.topology.trace` — synthetic Clip2-style crawl snapshots.
"""

from .autonomous_systems import (
    AsTrafficReport,
    as_of_hosts,
    as_traffic_report,
    transit_stub,
)
from .generators import (
    barabasi_albert,
    glp,
    grid,
    paper_underlay,
    watts_strogatz,
    waxman,
)
from .overlay import (
    Overlay,
    power_law_overlay,
    random_overlay,
    small_world_overlay,
)
from .physical import PhysicalTopology
from .soa import ArrayOverlay
from .supernode import (
    TwoTierOverlay,
    TwoTierQueryResult,
    build_two_tier,
    two_tier_query,
)
from .properties import TopologyReport, analyze
from .trace import (
    load_snapshot,
    save_snapshot,
    snapshot_from_adjacency,
    synthesize_gnutella_snapshot,
)

__all__ = [
    "PhysicalTopology",
    "Overlay",
    "ArrayOverlay",
    "random_overlay",
    "power_law_overlay",
    "small_world_overlay",
    "waxman",
    "barabasi_albert",
    "glp",
    "watts_strogatz",
    "grid",
    "paper_underlay",
    "transit_stub",
    "as_of_hosts",
    "as_traffic_report",
    "AsTrafficReport",
    "TwoTierOverlay",
    "TwoTierQueryResult",
    "build_two_tier",
    "two_tier_query",
    "TopologyReport",
    "analyze",
    "synthesize_gnutella_snapshot",
    "snapshot_from_adjacency",
    "save_snapshot",
    "load_snapshot",
]

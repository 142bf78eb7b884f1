"""The paper's worked six-peer example (Figures 5-6, Tables 1-2).

Section 3.4 walks a query from peer F through overlay trees built in
1-neighbor and 2-neighbor closures on a six-peer overlay (A..F), showing that

* blind flooding traverses three paths twice,
* with h = 1 the unnecessary messages drop "from 3 to 1", and
* with h = 2 "no path is traversed twice" and the total cost drops further
  (the paper's Table 2 totals 39 cost units on its link weights).

The scanned source's figures are not fully recoverable, so this module
builds a six-peer instance with the same *structure* — a mismatched overlay
whose logical links have explicit underlay delays — and exposes the
walkthrough programmatically.  The three headline relations above are
asserted by the test suite and reproduced by
``benchmarks/bench_table1_table2.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.ace import AceConfig, AceProtocol
from ..search.batch import propagate_single
from ..search.flooding import blind_flooding_strategy
from ..search.tree_routing import ace_strategy
from ..topology.overlay import Overlay
from ..topology.physical import PhysicalTopology

__all__ = [
    "PEER_NAMES",
    "build_example_overlay",
    "ExampleWalkthrough",
    "run_walkthrough",
]

#: The paper labels its six peers A through F; we map them to ids 0-5.
PEER_NAMES: Tuple[str, ...] = ("A", "B", "C", "D", "E", "F")

# Logical links with their underlay delays.  The A-B link is deliberately
# mismatched: its direct delay (10) exceeds the A-C-B route (4 + 2), the
# Figure 2 situation where one logical hop crosses a long physical path that
# cheaper hops could cover.
_EXAMPLE_LINKS: Tuple[Tuple[str, str, float], ...] = (
    ("A", "B", 10.0),
    ("A", "C", 4.0),
    ("B", "C", 2.0),
    ("B", "D", 7.0),
    ("C", "E", 3.0),
    ("D", "E", 2.0),
    ("D", "F", 8.0),
    ("E", "F", 6.0),
)


def _name_to_id(name: str) -> int:
    return PEER_NAMES.index(name)


def build_example_overlay() -> Overlay:
    """Construct the six-peer example.

    The underlay *is* the drawn weighted graph (each peer on its own host);
    logical link costs are therefore underlay shortest-path delays, which is
    how the measured cost of the mismatched A-B connection (6, via C) ends
    up below its drawn physical length — the mismatch ACE exploits.
    """
    edges = [(_name_to_id(u), _name_to_id(v)) for u, v, _ in _EXAMPLE_LINKS]
    delays = [d for _, _, d in _EXAMPLE_LINKS]
    physical = PhysicalTopology(len(PEER_NAMES), edges, delays)
    overlay = Overlay(physical, {i: i for i in range(len(PEER_NAMES))})
    for (u, v), _d in zip(edges, delays):
        overlay.connect(u, v)
    return overlay


@dataclass(frozen=True)
class ExampleWalkthrough:
    """Result of replaying the Figure 5/6 query for one routing scheme."""

    scheme: str
    source: str
    query_paths: Tuple[Tuple[str, str], ...]
    total_cost: float
    messages: int
    duplicate_messages: int
    reached: Tuple[str, ...]
    trees: Mapping[str, Tuple[str, ...]]

    def rows(self) -> List[Tuple[str, str, float]]:
        """(from, to, cost) rows in the style of the paper's Tables 1-2."""
        overlay = build_example_overlay()
        return [
            (u, v, overlay.cost(_name_to_id(u), _name_to_id(v)))
            for u, v in self.query_paths
        ]


def run_walkthrough(
    depth: Optional[int] = None, source: str = "F"
) -> ExampleWalkthrough:
    """Replay the example query from *source*.

    ``depth=None`` runs blind flooding; ``depth=h`` builds every peer's
    overlay tree in its h-neighbor closure first (Phase 2 only — the
    walkthrough illustrates routing, not Phase-3 rewiring).
    """
    if source not in PEER_NAMES:
        raise ValueError(f"unknown peer {source!r}")
    overlay = build_example_overlay()
    src = _name_to_id(source)

    trees: Dict[str, Tuple[str, ...]] = {}
    if depth is None:
        strategy = blind_flooding_strategy(overlay)
        scheme = "blind-flooding"
        for name in PEER_NAMES:
            nbrs = overlay.neighbors(_name_to_id(name))
            trees[name] = tuple(sorted(PEER_NAMES[n] for n in nbrs))
    else:
        protocol = AceProtocol(
            overlay, AceConfig(depth=depth), rng=np.random.default_rng(0)
        )
        protocol.rebuild_all_trees()
        strategy = ace_strategy(protocol)
        scheme = f"ace-h{depth}"
        for name in PEER_NAMES:
            flooding = protocol.flooding_neighbors(_name_to_id(name))
            trees[name] = tuple(sorted(PEER_NAMES[n] for n in flooding))

    prop = propagate_single(overlay, src, strategy, ttl=None)
    paths = []
    for peer, parent in sorted(prop.parent.items()):
        paths.append((PEER_NAMES[parent], PEER_NAMES[peer]))
    return ExampleWalkthrough(
        scheme=scheme,
        source=source,
        query_paths=tuple(paths),
        total_cost=prop.traffic_cost,
        messages=prop.messages,
        duplicate_messages=prop.duplicate_messages,
        reached=tuple(sorted(PEER_NAMES[p] for p in prop.reached)),
        trees=trees,
    )

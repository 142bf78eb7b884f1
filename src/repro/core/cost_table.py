"""Neighbor cost tables (ACE Phase 1).

"Each peer probes the costs with its immediate logical neighbors and forms a
neighbor cost table.  Two neighboring peers exchange their neighbor cost
tables so that a peer can obtain the cost between any pair of its logical
neighbors."  (Paper Section 3.3, Phase 1.)

The probing traffic and the table-exchange traffic are *overhead* in the
paper's accounting (they appear in Figure 12 and in the dynamic-environment
traffic of Figure 9), so this module also computes the cost-unit overhead of
one Phase-1 round over an h-neighbor closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from ..topology.overlay import Overlay
from .closure import ClosureView

__all__ = [
    "NeighborCostTable",
    "build_cost_table",
    "probe_overhead",
    "exchange_overhead",
    "Phase1Report",
    "run_phase1",
]


@dataclass(frozen=True)
class NeighborCostTable:
    """A peer's probed costs to each of its direct logical neighbors."""

    owner: int
    costs: Mapping[int, float]

    @property
    def size(self) -> int:
        """Number of entries (== the owner's logical degree when probed)."""
        return len(self.costs)

    def cost_to(self, neighbor: int) -> float:
        """Probed cost to a direct neighbor (``KeyError`` if absent)."""
        return self.costs[neighbor]


def build_cost_table(overlay: Overlay, peer: int) -> NeighborCostTable:
    """Probe all direct neighbors of *peer* and form its cost table."""
    # Sorted probe order: probe_overhead() sums the table values in dict
    # (insertion) order, so the order must be canonical across overlay
    # engines for the float totals to be engine-independent.
    costs = overlay.costs_from(peer, sorted(overlay.neighbors(peer)))
    return NeighborCostTable(owner=peer, costs=dict(costs))


def probe_overhead(table: NeighborCostTable, round_trip_factor: float = 2.0) -> float:
    """Traffic cost of probing every entry of a cost table.

    A probe is a ping/pong exchange over the logical link, so each entry
    costs ``round_trip_factor * link_cost`` cost units.
    """
    return round_trip_factor * sum(table.costs.values())


def exchange_overhead(
    closure: ClosureView,
    tables: Mapping[int, NeighborCostTable],
    entry_cost_factor: float = 0.02,
) -> float:
    """Traffic cost of disseminating cost tables across a closure.

    The paper's added routing message type carries neighbor cost tables
    between neighbors.  A deployment exchanges them *aggregated*: once per
    optimization period each peer sends every direct neighbor one routing
    message bundling all the closure link records it knows (its own table
    plus the relayed tables of peers up to ``depth - 1`` hops away).  The
    source's per-period share is therefore one message per incident logical
    link, sized by the closure's information content:

    ``sum_over_neighbors d(S, N) * (1 + entry_cost_factor * E(h))``

    where ``E(h)`` is the number of link records in the source's h-neighbor
    closure.  For ``depth == 1`` this reduces to each neighbor sending its
    own table over its direct link — the paper's base protocol — and for
    larger depths the overhead grows with the closure's edge count
    (geometrically in C, matching Figure 12) while staying entry-dominated
    rather than message-dominated.
    """
    entries = closure.num_edges()
    per_message_factor = 1.0 + entry_cost_factor * entries
    direct = closure.edges.get(closure.source, {})
    return per_message_factor * sum(direct.values())


@dataclass(frozen=True)
class Phase1Report:
    """Outcome of one Phase-1 round at a single peer."""

    source: int
    tables: Mapping[int, NeighborCostTable]
    probe_cost: float
    exchange_cost: float

    @property
    def total_overhead(self) -> float:
        """Probing plus table-exchange traffic, in cost units."""
        return self.probe_cost + self.exchange_cost


def run_phase1(
    overlay: Overlay,
    closure: ClosureView,
    round_trip_factor: float = 2.0,
    entry_cost_factor: float = 0.02,
) -> Phase1Report:
    """Execute Phase 1 for the closure's source peer.

    Builds the cost table of every closure member (they all probe their own
    neighbors) and accounts the overhead the *source's* optimization incurs:
    its own probes plus the dissemination of member tables to it.

    Member probes are exactly logical-edge costs, so the overlay's bulk
    edge-cost warm (one batched underlay solve for everything missing) runs
    first; the per-member table builds below then hit the cache.
    """
    overlay.warm_edge_costs()
    tables: Dict[int, NeighborCostTable] = {
        m: build_cost_table(overlay, m) for m in closure.members
    }
    own_probe = probe_overhead(tables[closure.source], round_trip_factor)
    exch = exchange_overhead(closure, tables, entry_cost_factor)
    return Phase1Report(
        source=closure.source,
        tables=tables,
        probe_cost=own_probe,
        exchange_cost=exch,
    )

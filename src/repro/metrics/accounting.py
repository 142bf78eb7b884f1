"""Traffic accounting (paper Section 4.2).

"We define the traffic cost as network resource used in an information
search process of P2P systems" — in this reproduction, the cost unit of a
message is the underlay shortest-path delay of the logical hop it crosses
(exactly the unit of the paper's Tables 1 and 2).

:class:`TrafficAccount` separates *query* traffic (the search itself) from
*overhead* traffic (ACE probes and cost-table exchanges), because the
optimization-rate analysis (Figures 11-16) weighs one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TrafficAccount", "reduction_rate"]


@dataclass
class TrafficAccount:
    """Running totals of query and overhead traffic, in cost units."""

    query_traffic: float = 0.0
    overhead_traffic: float = 0.0
    queries: int = 0
    query_messages: int = 0
    duplicate_messages: int = 0

    def record_query(
        self,
        traffic_cost: float,
        messages: int = 0,
        duplicates: int = 0,
    ) -> None:
        """Add one query's traffic."""
        self.query_traffic += traffic_cost
        self.queries += 1
        self.query_messages += messages
        self.duplicate_messages += duplicates

    def record_overhead(self, cost: float) -> None:
        """Add protocol overhead traffic (probes, table exchanges)."""
        self.overhead_traffic += cost

    @property
    def total_traffic(self) -> float:
        """Query plus overhead traffic."""
        return self.query_traffic + self.overhead_traffic

    def per_query_traffic(self, include_overhead: bool = False) -> float:
        """Average traffic per query; optionally amortize overhead in.

        Figure 9 reports the ACE curve *including* "the overhead needed by
        each ACE operation", so the dynamic-environment experiments pass
        ``include_overhead=True``.
        """
        if self.queries == 0:
            return 0.0
        total = self.total_traffic if include_overhead else self.query_traffic
        return total / self.queries

    def merged_with(self, other: "TrafficAccount") -> "TrafficAccount":
        """Sum of two accounts (for aggregating across runs)."""
        return TrafficAccount(
            query_traffic=self.query_traffic + other.query_traffic,
            overhead_traffic=self.overhead_traffic + other.overhead_traffic,
            queries=self.queries + other.queries,
            query_messages=self.query_messages + other.query_messages,
            duplicate_messages=self.duplicate_messages + other.duplicate_messages,
        )


def reduction_rate(baseline: float, optimized: float) -> float:
    """Fractional reduction of *optimized* relative to *baseline* (0..1).

    The paper's Figure 11 reports this as a percentage over blind flooding.
    Returns 0 for a non-positive baseline.
    """
    if baseline <= 0:
        return 0.0
    return (baseline - optimized) / baseline

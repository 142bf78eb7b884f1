"""Expanding-ring search (iterative deepening; Lv et al., related work).

Instead of flooding at the full TTL immediately, the source floods at
TTL = 1, waits, and re-floods with a larger TTL until the object is found
or the TTL budget is exhausted.  It saves traffic for popular (nearby)
objects at the price of repeated partial floods for rare ones — and like
every flooding variant it multiplies the cost of a mismatched overlay,
which is why it composes with (rather than substitutes for) ACE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Set, Tuple

from ..topology.soa import ArrayOverlay
from .batch import propagate_many
from .flooding import ForwardingStrategy

__all__ = ["RingResult", "expanding_ring_query", "DEFAULT_TTL_SCHEDULE"]

#: The classic iterative-deepening schedule.
DEFAULT_TTL_SCHEDULE: Tuple[int, ...] = (1, 2, 4, 7)


@dataclass(frozen=True)
class RingResult:
    """Outcome of an expanding-ring query."""

    source: int
    rounds: int
    ttl_used: Optional[int]
    traffic_cost: float
    messages: int
    reached: Set[int]
    holders_reached: Tuple[int, ...]
    first_response_time: Optional[float]

    @property
    def search_scope(self) -> int:
        """Peers reached by the final (largest) ring."""
        return len(self.reached)

    @property
    def success(self) -> bool:
        """Whether any holder was found within the TTL budget."""
        return self.first_response_time is not None


def expanding_ring_query(
    overlay: ArrayOverlay,
    source: int,
    strategy: ForwardingStrategy,
    holders: Iterable[int],
    ttl_schedule: Sequence[int] = DEFAULT_TTL_SCHEDULE,
    round_trip_wait: float = 0.0,
) -> RingResult:
    """Run an expanding-ring search.

    Each round floods with the next TTL of *ttl_schedule*; the search stops
    at the first round that reaches a holder.  Traffic accumulates across
    rounds (early rings are re-flooded).  The response time of the
    successful round is offset by the elapsed wall time of the failed
    rounds: each failed ring costs its own full round-trip diameter plus
    *round_trip_wait* of timer slack.

    Each ring is one query on the compiled kernel
    (:func:`~repro.search.batch.propagate_many`), the rings sharing the
    memoized forwarding graph.  Once a ring *saturates* (no reached peer
    sits exactly at the TTL boundary, so no forwarding was suppressed),
    every deeper ring is provably identical and is reused without
    recomputation.
    """
    if not ttl_schedule:
        raise ValueError("ttl_schedule must not be empty")
    if list(ttl_schedule) != sorted(set(ttl_schedule)):
        raise ValueError("ttl_schedule must be strictly increasing")
    holder_set = {h for h in holders if h != source}

    total_traffic = 0.0
    total_messages = 0
    elapsed = 0.0
    prop = None
    saturated = False
    for round_idx, ttl in enumerate(ttl_schedule, start=1):
        if prop is None or not saturated:
            prop = propagate_many(overlay, [source], strategy, ttl=ttl).result(0)
            # Saturated: every reached peer still had TTL budget left, so a
            # deeper ring delivers the same messages at the same times.
            saturated = all(h < ttl for h in prop.hops.values())
        total_traffic += prop.traffic_cost
        total_messages += prop.messages
        found = [h for h in holder_set if h in prop.arrival_time]
        if found:
            first = min(2.0 * prop.arrival_time[h] for h in found)
            return RingResult(
                source=source,
                rounds=round_idx,
                ttl_used=ttl,
                traffic_cost=total_traffic,
                messages=total_messages,
                reached=prop.reached,
                holders_reached=tuple(sorted(found)),
                first_response_time=elapsed + first,
            )
        # Failed ring: the source waits out the ring's worst-case round
        # trip before deepening.
        ring_diameter = max(prop.arrival_time.values(), default=0.0)
        elapsed += 2.0 * ring_diameter + round_trip_wait
    return RingResult(
        source=source,
        rounds=len(ttl_schedule),
        ttl_used=None,
        traffic_cost=total_traffic,
        messages=total_messages,
        reached=prop.reached if prop is not None else {source},
        holders_reached=(),
        first_response_time=None,
    )

"""Query workload and object placement (paper Section 4.3).

"In our simulation, every node issues 0.3 queries per minute, which is
calculated from the observation data shown in [20], i.e., 25,000 unique IP
addresses issued 1,146,782 queries in 5 hours."

Objects are placed on random peers with a configurable replication degree and
queried with Zipf-like popularity — the standard model for Gnutella content
(Lv et al. [10], cited by the paper).  A query's *source* is a random online
peer and its holders are the object's replicas; the search layer evaluates
success, traffic and response time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence

import numpy as np

__all__ = ["WorkloadConfig", "ObjectCatalog", "QueryWorkload", "QueryEvent"]

#: The paper's measured query rate: 0.3 queries per peer per minute.
PAPER_QUERY_RATE_PER_MIN = 0.3


@dataclass(frozen=True)
class WorkloadConfig:
    """Workload parameters."""

    queries_per_peer_per_min: float = PAPER_QUERY_RATE_PER_MIN
    num_objects: int = 500
    replicas_per_object: int = 10
    zipf_exponent: float = 0.8

    def __post_init__(self) -> None:
        if self.queries_per_peer_per_min <= 0:
            raise ValueError("query rate must be positive")
        if self.num_objects < 1:
            raise ValueError("need at least one object")
        if self.replicas_per_object < 1:
            raise ValueError("need at least one replica per object")


class ObjectCatalog:
    """Objects, their replica placements, and their Zipf popularity."""

    def __init__(
        self,
        peer_ids: Sequence[int],
        config: WorkloadConfig,
        rng: np.random.Generator,
    ) -> None:
        if not peer_ids:
            raise ValueError("cannot place objects on an empty peer set")
        self.config = config
        self._peer_ids = list(peer_ids)
        self._holders: List[FrozenSet[int]] = []
        n = len(self._peer_ids)
        k = min(config.replicas_per_object, n)
        for _ in range(config.num_objects):
            idx = rng.choice(n, size=k, replace=False)
            self._holders.append(frozenset(self._peer_ids[int(i)] for i in idx))
        ranks = np.arange(1, config.num_objects + 1, dtype=float)
        weights = ranks ** (-config.zipf_exponent)
        self._popularity = weights / weights.sum()

    @property
    def num_objects(self) -> int:
        """Catalog size."""
        return len(self._holders)

    def holders_of(self, obj: int) -> FrozenSet[int]:
        """All replica locations of an object (online or not)."""
        return self._holders[obj]

    def sample_object(self, rng: np.random.Generator) -> int:
        """Draw an object id by Zipf popularity."""
        return int(rng.choice(self.num_objects, p=self._popularity))


@dataclass(frozen=True)
class QueryEvent:
    """One issued query: who asks, for what."""

    time: float
    source: int
    object_id: int


class QueryWorkload:
    """Poisson query stream over the online peer population.

    The aggregate rate is ``n_online * queries_per_peer_per_min / 60`` per
    second; each query's source is a uniformly random online peer (every
    peer issues at the same individual rate, so the aggregate thinning is
    exact) and its object is drawn from the catalog's popularity.
    """

    def __init__(
        self,
        catalog: ObjectCatalog,
        rng: np.random.Generator,
        queries_per_peer_per_min: Optional[float] = None,
    ) -> None:
        self.catalog = catalog
        self.rng = rng
        self.rate_per_peer_per_sec = (
            queries_per_peer_per_min
            if queries_per_peer_per_min is not None
            else catalog.config.queries_per_peer_per_min
        ) / 60.0
        if self.rate_per_peer_per_sec <= 0:
            raise ValueError("query rate must be positive")

    def next_interarrival(self, n_online: int) -> float:
        """Seconds until the next query given the current population."""
        if n_online < 1:
            raise ValueError("no online peers")
        aggregate = self.rate_per_peer_per_sec * n_online
        return float(self.rng.exponential(1.0 / aggregate))

    def next_query(self, now: float, online_peers: Sequence[int]) -> QueryEvent:
        """Draw the next query's source and object."""
        if not online_peers:
            raise ValueError("no online peers")
        source = online_peers[int(self.rng.integers(len(online_peers)))]
        return QueryEvent(
            time=now,
            source=source,
            object_id=self.catalog.sample_object(self.rng),
        )

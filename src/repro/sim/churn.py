"""Peer churn: the paper's dynamic P2P environment (Section 4.3).

"We simulate the joining and leaving behavior of peers via turning on/off
logical peers ...  When a peer joins, a lifetime in seconds will be assigned
to the peer ...  The mean of the distribution is chosen to be 10 minutes; the
value of the variance is chosen to be half of the value of the mean ...
During each second, there are a number of peers leaving the system.  We then
randomly pick up (turn on) the same number of peers from the physical network
to join the overlay."

We read "variance half of the mean" as sigma = mean/2 (600 s mean, 300 s
standard deviation) and draw lifetimes from a log-normal with those first two
moments, matching the heavy-tailed session-time measurements of Saroiu et
al. the paper cites.  The population size stays constant: every departure
triggers one join from the offline pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..topology.overlay import Overlay
from .bootstrap import BootstrapService
from .peer import PeerRecord

__all__ = ["LifetimeDistribution", "ChurnConfig", "ChurnModel"]


class LifetimeDistribution:
    """Log-normal session lifetimes parameterized by mean and std."""

    def __init__(self, mean: float = 600.0, std: float = 300.0) -> None:
        if mean <= 0 or std <= 0:
            raise ValueError("mean and std must be positive")
        self.mean = mean
        self.std = std
        # Solve for the underlying normal's mu/sigma from the target moments.
        variance_ratio = (std / mean) ** 2
        self._sigma = math.sqrt(math.log(1.0 + variance_ratio))
        self._mu = math.log(mean) - 0.5 * self._sigma**2

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one lifetime in seconds (always positive)."""
        return float(rng.lognormal(self._mu, self._sigma))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw *n* lifetimes."""
        return rng.lognormal(self._mu, self._sigma, size=n)


@dataclass(frozen=True)
class ChurnConfig:
    """Churn parameters (paper defaults)."""

    mean_lifetime: float = 600.0
    std_lifetime: float = 300.0
    target_degree: int = 6


class ChurnModel:
    """Constant-population on/off churn over an overlay.

    The model owns the peer records: peers currently in the overlay are
    *online*; the rest form the offline pool from which replacements are
    drawn.  Departures and arrivals keep ``overlay.num_peers`` constant.
    """

    def __init__(
        self,
        overlay: Overlay,
        offline_hosts: Dict[int, int],
        rng: np.random.Generator,
        config: Optional[ChurnConfig] = None,
    ) -> None:
        self.overlay = overlay
        self.config = config or ChurnConfig()
        self.rng = rng
        self.lifetimes = LifetimeDistribution(
            self.config.mean_lifetime, self.config.std_lifetime
        )
        self.records: Dict[int, PeerRecord] = {}
        for peer in overlay.peers():
            self.records[peer] = PeerRecord(peer_id=peer, host=overlay.host_of(peer))
        for peer, host in offline_hosts.items():
            if peer in self.records:
                raise ValueError(f"offline peer {peer} collides with an online peer")
            self.records[peer] = PeerRecord(peer_id=peer, host=host)
        self._offline: List[int] = sorted(offline_hosts)
        self.bootstrap = BootstrapService(
            overlay, self.records, rng, target_degree=self.config.target_degree
        )
        self.departures = 0
        self.arrivals = 0

    # ------------------------------------------------------------------

    @property
    def online_count(self) -> int:
        """Number of peers currently in the overlay."""
        return self.overlay.num_peers

    @property
    def offline_count(self) -> int:
        """Size of the offline replacement pool."""
        return len(self._offline)

    def start_initial_sessions(self, now: float = 0.0) -> None:
        """Assign a lifetime to every initially online peer.

        Initial residual lifetimes are drawn from the same distribution;
        each online peer also primes its address cache with its current
        neighbors so a later re-join behaves like the paper describes.
        """
        for peer in self.overlay.peers():
            record = self.records[peer]
            record.begin_session(now, self.lifetimes.sample(self.rng))
            # Sorted: the address cache is ordered (most-recent-first), so
            # the learn order must be canonical across overlay engines.
            record.learn_addresses(sorted(self.overlay.neighbors(peer)))

    def next_departure(self) -> Optional[PeerRecord]:
        """The online peer with the earliest scheduled departure."""
        best: Optional[PeerRecord] = None
        for peer in self.overlay.peers():
            rec = self.records[peer]
            if rec.departs_at is None:
                continue
            if best is None or rec.departs_at < best.departs_at:
                best = rec
        return best

    def depart(self, peer: int, now: float) -> int:
        """Take *peer* offline and bring one replacement online.

        Returns the replacement's peer id.  The departing peer remembers its
        neighbors' addresses for its next session.
        """
        record = self.records[peer]
        # Sorted for the same canonical-order reason as the initial priming.
        record.learn_addresses(sorted(self.overlay.neighbors(peer)))
        self.overlay.remove_peer(peer)
        record.end_session()
        self._offline.append(peer)
        self.departures += 1
        return self._arrive(now, exclude=peer)

    def _arrive(self, now: float, exclude: Optional[int] = None) -> int:
        pool = self._offline
        if not pool:
            raise RuntimeError("offline pool exhausted")
        # Random replacement; avoid instantly re-joining the peer that just
        # left when any alternative exists.
        while True:
            idx = int(self.rng.integers(len(pool)))
            candidate = pool[idx]
            if candidate != exclude or len(pool) == 1:
                break
        pool[idx] = pool[-1]
        pool.pop()
        record = self.records[candidate]
        self.overlay.add_peer(candidate, record.host)
        record.begin_session(now, self.lifetimes.sample(self.rng))
        self.bootstrap.connect_joining_peer(candidate)
        self.arrivals += 1
        return candidate

    def repair_isolated(self) -> int:
        """Reconnect online peers left with zero neighbors by departures.

        Returns the number of peers repaired.  (In the real protocol a peer
        that loses all connections immediately re-bootstraps.)
        """
        repaired = 0
        for peer in self.overlay.peers():
            if self.overlay.degree(peer) == 0 and self.overlay.num_peers > 1:
                self.bootstrap.connect_joining_peer(peer)
                repaired += 1
        return repaired

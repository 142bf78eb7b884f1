"""Bootstrap service: how a peer finds its first neighbors.

"When a new peer wants to join a P2P network, a bootstrapping node provides
the IP addresses of a list of existing peers ...  When a peer leaves the P2P
network and then wants to join again, the peer will try to connect to the
peers whose IP addresses have already been cached."  (Paper Section 1.)

This *random* connection establishment — oblivious to physical locality — is
precisely what creates the topology mismatch ACE repairs, so the dynamic
experiments must model it faithfully: cached addresses first, bootstrap
randomness for the remainder.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from ..topology.soa import ArrayOverlay
from .peer import PeerRecord

__all__ = ["BootstrapService"]


class BootstrapService:
    """Hands out random live-peer addresses and wires up joining peers."""

    def __init__(
        self,
        overlay: ArrayOverlay,
        records: Dict[int, PeerRecord],
        rng: np.random.Generator,
        target_degree: int = 6,
    ) -> None:
        if target_degree < 1:
            raise ValueError("target_degree must be >= 1")
        self._overlay = overlay
        self._records = records
        self._rng = rng
        self._target_degree = target_degree

    @property
    def target_degree(self) -> int:
        """Connections a joining peer tries to establish."""
        return self._target_degree

    def random_addresses(self, k: int, exclude: Optional[Set[int]] = None) -> List[int]:
        """Up to *k* distinct random live peers (the bootstrap node's list)."""
        exclude = exclude or set()
        pool = [p for p in self._overlay.peers() if p not in exclude]
        if not pool:
            return []
        k = min(k, len(pool))
        idx = self._rng.choice(len(pool), size=k, replace=False)
        return [pool[int(i)] for i in idx]

    def connect_joining_peer(self, peer: int) -> List[int]:
        """Connect a freshly added peer to the network.

        Tries the peer's cached addresses first (live ones only), then fills
        up to the target degree from the bootstrap list.  Returns the
        neighbors actually connected.  The peer also learns its neighbors'
        addresses, priming the cache for the next re-join.
        """
        record = self._records[peer]
        connected: List[int] = []
        tried: Set[int] = {peer}

        for addr in record.cached_addresses():
            if len(connected) >= self._target_degree:
                break
            if addr in tried:
                continue
            tried.add(addr)
            if self._overlay.has_peer(addr) and not self._overlay.has_edge(peer, addr):
                self._overlay.connect(peer, addr)
                connected.append(addr)

        if len(connected) < self._target_degree:
            needed = self._target_degree - len(connected)
            for addr in self.random_addresses(3 * needed + 4, exclude=tried):
                if len(connected) >= self._target_degree:
                    break
                tried.add(addr)
                if not self._overlay.has_edge(peer, addr):
                    self._overlay.connect(peer, addr)
                    connected.append(addr)

        record.learn_addresses(connected)
        for nbr in connected:
            other = self._records.get(nbr)
            if other is not None:
                other.learn_address(peer)
        return connected

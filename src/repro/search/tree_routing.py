"""ACE query routing over per-peer multicast trees (paper Section 3.3/3.4).

After Phase 2 "the message routing strategy of a peer is to select the peers
that are the direct neighbors in the multicast tree to send its queries,
instead of flooding queries to all neighbors."  Every relay applies its *own*
tree — exactly the Figure 5 mechanics, where F queries C and D, C relays to
E, and so on.

The routing never uses a connection that no longer exists: the protocol's
:meth:`~repro.core.ace.AceProtocol.flooding_neighbors` reads the labels of
the peer's live links, and links no Phase 2 has labelled yet (a fresh
joiner's, or any made since) are forwarded on, preserving the search scope.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.ace import AceProtocol
from .flooding import ForwardingStrategy

__all__ = ["ace_strategy"]


def ace_strategy(protocol: AceProtocol) -> ForwardingStrategy:
    """Forwarding strategy that follows each relay's own overlay tree."""

    def strategy(peer: int, came_from: Optional[int]) -> Iterable[int]:
        # Canonical (sorted) forwarding order — see blind_flooding_strategy;
        # traffic sums must not depend on set iteration order.
        return sorted(protocol.flooding_neighbors(peer))

    # Declare the closure compilable: the batched engine lowers every relay's
    # flooding set into a (directed) CSR graph memoized per
    # (overlay.epoch, protocol.state_version) pair (repro.search.batch).
    strategy.compiled_spec = ("ace", protocol)  # type: ignore[attr-defined]
    return strategy

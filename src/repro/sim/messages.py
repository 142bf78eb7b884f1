"""Protocol message taxonomy.

The paper modifies the LimeWire implementation of the Gnutella 0.6 protocol
"by adding one routing message type" for neighbor-cost-table exchange.  This
module models the resulting on-the-wire vocabulary: the standard Gnutella
descriptors plus ACE's probe and cost-table messages.

Messages carry byte-size estimates (Gnutella header is 23 bytes; payload
sizes follow the protocol specification and the cost-table layout of
Section 3.3) so traffic can also be reported in bytes rather than cost
units when needed — ``wire_cost`` converts a message crossing a logical hop
into cost units proportional to both delay and size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Tuple

__all__ = [
    "GNUTELLA_HEADER_BYTES",
    "Message",
    "Ping",
    "Pong",
    "Query",
    "QueryHit",
    "CostProbe",
    "CostProbeReply",
    "CostTableMessage",
    "ConnectRequest",
    "DisconnectNotice",
    "wire_cost",
]

#: Size of the standard Gnutella descriptor header, bytes.
GNUTELLA_HEADER_BYTES = 23

_guid_counter = itertools.count(1)


def _next_guid() -> int:
    return next(_guid_counter)


@dataclass(frozen=True)
class Message:
    """Base class for overlay messages.

    ``guid`` identifies the descriptor for duplicate suppression; ``ttl`` and
    ``hops`` follow Gnutella semantics (ttl decremented, hops incremented at
    each forward).
    """

    sender: int
    guid: int = field(default_factory=_next_guid)
    ttl: int = 7
    hops: int = 0

    #: Estimated payload bytes (without the descriptor header).
    payload_bytes: ClassVar[int] = 0
    #: Human-readable descriptor name.
    kind: ClassVar[str] = "message"

    @property
    def size_bytes(self) -> int:
        """Total descriptor size (header + payload estimate)."""
        return GNUTELLA_HEADER_BYTES + self.payload_bytes

    def forwarded_by(self, peer: int) -> "Message":
        """Copy of the message as relayed by *peer* (ttl-1, hops+1)."""
        if self.ttl <= 0:
            raise ValueError("cannot forward a message with ttl 0")
        return type(self)(**{
            **self.__dict__,
            "sender": peer,
            "ttl": self.ttl - 1,
            "hops": self.hops + 1,
        })


@dataclass(frozen=True)
class Ping(Message):
    """Keep-alive / peer-discovery probe."""

    kind: ClassVar[str] = "ping"
    payload_bytes: ClassVar[int] = 0


@dataclass(frozen=True)
class Pong(Message):
    """Ping response: IP, port, shared-file statistics (14 bytes)."""

    kind: ClassVar[str] = "pong"
    payload_bytes: ClassVar[int] = 14


@dataclass(frozen=True)
class Query(Message):
    """Search request; payload is min-speed + search criteria."""

    kind: ClassVar[str] = "query"
    payload_bytes: ClassVar[int] = 32
    object_id: Optional[int] = None


@dataclass(frozen=True)
class QueryHit(Message):
    """Search response travelling the inverse query path."""

    kind: ClassVar[str] = "query_hit"
    payload_bytes: ClassVar[int] = 80
    object_id: Optional[int] = None
    responder: Optional[int] = None


@dataclass(frozen=True)
class CostProbe(Message):
    """ACE Phase 1/3 delay probe (timestamped ping on a logical link)."""

    kind: ClassVar[str] = "cost_probe"
    payload_bytes: ClassVar[int] = 8
    target: Optional[int] = None


@dataclass(frozen=True)
class CostProbeReply(Message):
    """Echo of a :class:`CostProbe`, closing the round trip."""

    kind: ClassVar[str] = "cost_probe_reply"
    payload_bytes: ClassVar[int] = 8
    target: Optional[int] = None


@dataclass(frozen=True)
class CostTableMessage(Message):
    """The paper's added routing message: a neighbor cost table.

    Each entry is (peer id, cost) — 12 bytes in our estimate.
    """

    kind: ClassVar[str] = "cost_table"
    payload_bytes: ClassVar[int] = 0
    entries: Tuple[Tuple[int, float], ...] = ()

    ENTRY_BYTES: ClassVar[int] = 12

    @property
    def size_bytes(self) -> int:
        """Header plus 12 bytes per table entry."""
        return GNUTELLA_HEADER_BYTES + self.ENTRY_BYTES * len(self.entries)


@dataclass(frozen=True)
class ConnectRequest(Message):
    """ACE Phase 3 connection establishment toward a probed candidate."""

    kind: ClassVar[str] = "connect_request"
    payload_bytes: ClassVar[int] = 6
    target: Optional[int] = None


@dataclass(frozen=True)
class DisconnectNotice(Message):
    """Notification that the sender is cutting the logical link."""

    kind: ClassVar[str] = "disconnect_notice"
    payload_bytes: ClassVar[int] = 2
    target: Optional[int] = None


def wire_cost(message: Message, link_delay: float, byte_factor: float = 0.0) -> float:
    """Cost units consumed by *message* crossing one logical hop.

    The base unit is the hop's underlay delay (the paper's accounting); a
    positive *byte_factor* additionally scales cost with message size,
    ``delay * (1 + byte_factor * size_bytes)``, for byte-weighted studies.
    """
    if link_delay < 0:
        raise ValueError("link_delay must be non-negative")
    return link_delay * (1.0 + byte_factor * message.size_bytes)

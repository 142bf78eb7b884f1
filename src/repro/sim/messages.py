"""Protocol message taxonomy.

The paper modifies the LimeWire implementation of the Gnutella 0.6 protocol
"by adding one routing message type" for neighbor-cost-table exchange.  This
module models the resulting on-the-wire vocabulary: the standard Gnutella
descriptors plus ACE's probe and cost-table messages.

Traffic is accounted in cost units (link delay per hop); the live runtime
counts bytes as the length of each encoded frame
(:func:`repro.net.wire.encode_frame`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Tuple

__all__ = [
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
]

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

    #: Human-readable descriptor name.
    kind: ClassVar[str] = "message"

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


@dataclass(frozen=True)
class Pong(Message):
    """Ping response: IP, port, shared-file statistics."""

    kind: ClassVar[str] = "pong"


@dataclass(frozen=True)
class Query(Message):
    """Search request; payload is min-speed + search criteria."""

    kind: ClassVar[str] = "query"
    object_id: Optional[int] = None


@dataclass(frozen=True)
class QueryHit(Message):
    """Search response travelling the inverse query path."""

    kind: ClassVar[str] = "query_hit"
    object_id: Optional[int] = None
    responder: Optional[int] = None


@dataclass(frozen=True)
class CostProbe(Message):
    """ACE Phase 1/3 delay probe (timestamped ping on a logical link)."""

    kind: ClassVar[str] = "cost_probe"
    target: Optional[int] = None


@dataclass(frozen=True)
class CostProbeReply(Message):
    """Echo of a :class:`CostProbe`, closing the round trip."""

    kind: ClassVar[str] = "cost_probe_reply"
    target: Optional[int] = None


@dataclass(frozen=True)
class CostTableMessage(Message):
    """The paper's added routing message: a neighbor cost table.

    Each entry is (peer id, cost).
    """

    kind: ClassVar[str] = "cost_table"
    entries: Tuple[Tuple[int, float], ...] = ()


@dataclass(frozen=True)
class ConnectRequest(Message):
    """ACE Phase 3 connection establishment toward a probed candidate."""

    kind: ClassVar[str] = "connect_request"
    target: Optional[int] = None


@dataclass(frozen=True)
class DisconnectNotice(Message):
    """Notification that the sender is cutting the logical link."""

    kind: ClassVar[str] = "disconnect_notice"
    target: Optional[int] = None


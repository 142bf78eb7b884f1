"""Message-level Gnutella peers: query flooding and reverse-path QueryHits.

:class:`Servent` is the servent behaviour of Section 3.1 at the descriptor
level, written once without any I/O — state plus three handlers that
return the descriptors to transmit as ``(destination, message)`` pairs:

* a Query seen before (same GUID) is dropped — but its transmission was
  already charged by the network;
* a fresh Query is recorded, answered with a :class:`QueryHit` if the node
  holds the object, and forwarded (TTL permitting) to the node's forwarding
  set — all neighbors for blind flooding, the flooding neighbors for ACE;
* a QueryHit travels the inverse of the query path, hop by hop, using the
  per-GUID reverse-routing entry each relay recorded.

Two transports drive it: :class:`QueryNode` sends each pair through a
:class:`~repro.sim.network.MessageNetwork` (the discrete-event simulator),
and :class:`repro.net.peer.LivePeer` writes each to a socket.

:func:`run_message_level_query` wires a whole overlay with nodes, injects
one query, runs the event loop to quiescence and returns the measured
metrics — the ground truth the analytic engine is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..search.flooding import ForwardingStrategy
from .messages import Message, Query, QueryHit
from .network import MessageNetwork

__all__ = ["Servent", "QueryNode", "MessageLevelResult", "run_message_level_query"]

#: What a handler asks its transport to transmit, in order.
Sends = List[Tuple[int, Message]]


class Servent:
    """One sans-IO servent: floods queries, routes hits back, records telemetry."""

    def __init__(self, peer_id: int, holds: Optional[Set[object]] = None) -> None:
        self.peer_id = peer_id
        self.holds: Set[object] = set(holds or ())
        # guid -> neighbor the first copy arrived from (reverse route).
        self.reverse_route: Dict[int, int] = {}
        self.seen_queries: Set[int] = set()
        self.first_arrival: Dict[int, float] = {}
        # guid -> copies dropped as already seen.
        self.duplicates_by_guid: Dict[int, int] = {}
        # For query origins: guid -> list of (time, responder).
        self.responses: Dict[int, List[Tuple[float, int]]] = {}

    @property
    def duplicates(self) -> int:
        """Duplicate query copies dropped, over all GUIDs."""
        return sum(self.duplicates_by_guid.values())

    def originate(
        self, obj: object, ttl: Optional[int], now: float, forward_to: Iterable[int]
    ) -> Tuple[Query, Sends]:
        """Issue a new query from this node: the descriptor and its sends.

        *forward_to* (here and in :meth:`on_query`) is the peer's current
        live forwarding set in send order.  It is iterated only when the
        query is actually relayed, so transports pass a generator and pay
        for routing on fresh queries only.
        """
        effective_ttl = ttl if ttl is not None else 2**30
        query = Query(sender=self.peer_id, ttl=effective_ttl, object_id=obj)
        self.seen_queries.add(query.guid)
        self.first_arrival[query.guid] = now
        self.responses[query.guid] = []
        return query, self._forward(query, None, forward_to)

    def _forward(
        self, query: Query, came_from: Optional[int], forward_to: Iterable[int]
    ) -> Sends:
        if query.ttl <= 0:
            return []
        return [
            (nbr, query.forwarded_by(self.peer_id))
            for nbr in forward_to
            if nbr != came_from and nbr != self.peer_id
        ]

    def on_query(
        self, query: Query, sender: int, now: float, forward_to: Iterable[int]
    ) -> Sends:
        """Handle a delivered Query: dedupe, answer if held, relay."""
        if query.guid in self.seen_queries:
            self.duplicates_by_guid[query.guid] = (
                self.duplicates_by_guid.get(query.guid, 0) + 1
            )
            return []
        self.seen_queries.add(query.guid)
        self.first_arrival[query.guid] = now
        self.reverse_route[query.guid] = sender
        sends: Sends = []
        if query.object_id in self.holds:
            hit = QueryHit(
                sender=self.peer_id,
                guid=query.guid,
                ttl=query.hops + 1,
                object_id=query.object_id,
                responder=self.peer_id,
            )
            sends.append((sender, hit))
        return sends + self._forward(query, sender, forward_to)

    def on_query_hit(self, hit: QueryHit, now: float) -> Sends:
        """Handle a delivered QueryHit: record at the origin, else relay back."""
        if hit.guid in self.responses:
            # This node originated the query: record the response.
            self.responses[hit.guid].append((now, hit.responder))
            return []
        back = self.reverse_route.get(hit.guid)
        if back is None:
            # No reverse route (e.g. the neighbor churned away): the hit
            # dies, as it does in the real protocol.
            return []
        return [(back, hit.forwarded_by(self.peer_id))]


class QueryNode(Servent):
    """A :class:`Servent` whose sends go through a :class:`MessageNetwork`."""

    def __init__(
        self,
        peer_id: int,
        forwarding: ForwardingStrategy,
        holds: Optional[Set[object]] = None,
    ) -> None:
        super().__init__(peer_id, holds)
        self.forwarding = forwarding

    def _routes(
        self, network: MessageNetwork, came_from: Optional[int]
    ) -> Iterable[int]:
        live = network.overlay.neighbors(self.peer_id)
        for nbr in self.forwarding(self.peer_id, came_from):
            if nbr in live:
                yield nbr

    def _send_all(self, network: MessageNetwork, sends: Sends) -> None:
        for dst, message in sends:
            network.send(self.peer_id, dst, message)

    def start_query(
        self, network: MessageNetwork, obj: object, ttl: Optional[int]
    ) -> Query:
        """Issue a new query from this node.  Returns the sent descriptor."""
        query, sends = self.originate(
            obj, ttl, network.loop.now, self._routes(network, None)
        )
        self._send_all(network, sends)
        return query

    def on_message(
        self, network: MessageNetwork, message: Message, sender: int, now: float
    ) -> None:
        """Dispatch a delivered descriptor."""
        if isinstance(message, Query):
            sends = self.on_query(
                message, sender, now, self._routes(network, sender)
            )
        elif isinstance(message, QueryHit):
            sends = self.on_query_hit(message, now)
        else:
            return
        self._send_all(network, sends)


@dataclass(frozen=True)
class MessageLevelResult:
    """Measured outcome of one message-level query."""

    source: int
    guid: int
    reached: Set[int]
    arrival_time: Dict[int, float]
    query_messages: int
    query_traffic: float
    hit_messages: int
    hit_traffic: float
    duplicates: int
    first_response_time: Optional[float]
    responders: Set[int]

    @property
    def search_scope(self) -> int:
        """Number of peers the query visited."""
        return len(self.reached)


def run_message_level_query(
    overlay,
    source: int,
    strategy: ForwardingStrategy,
    holders: Iterable[int] = (),
    obj: object = "object",
    ttl: Optional[int] = None,
) -> MessageLevelResult:
    """Simulate one query at full message granularity.

    Builds a :class:`QueryNode` per live peer (holders advertise *obj*),
    injects the query at *source* and runs the event loop until every
    descriptor has been delivered.
    """
    network = MessageNetwork(overlay)
    holder_set = set(holders)
    nodes: Dict[int, QueryNode] = {}
    for peer in overlay.peers():
        node = QueryNode(
            peer,
            strategy,
            holds={obj} if peer in holder_set and peer != source else None,
        )
        nodes[peer] = node
        network.attach(peer, node)

    query = nodes[source].start_query(network, obj, ttl)
    network.run()

    guid = query.guid
    arrival = {
        p: n.first_arrival[guid]
        for p, n in nodes.items()
        if guid in n.first_arrival
    }
    responses = nodes[source].responses.get(guid, [])
    first = min((t for t, _r in responses), default=None)
    return MessageLevelResult(
        source=source,
        guid=guid,
        reached=set(arrival),
        arrival_time=arrival,
        query_messages=network.stats.by_kind.get("query", 0),
        query_traffic=network.stats.cost_by_kind.get("query", 0.0),
        hit_messages=network.stats.by_kind.get("query_hit", 0),
        hit_traffic=network.stats.cost_by_kind.get("query_hit", 0.0),
        duplicates=sum(n.duplicates for n in nodes.values()),
        first_response_time=first,
        responders={r for _t, r in responses},
    )

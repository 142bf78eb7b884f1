"""Unit tests for message-level servent nodes."""

import pytest

from repro.search.flooding import blind_flooding_strategy
from repro.sim.messages import Query, QueryHit
from repro.sim.network import MessageNetwork
from repro.sim.node import QueryNode, Servent


@pytest.fixture
def chain(make_overlay_from_weighted_edges):
    return make_overlay_from_weighted_edges(
        [(0, 1, 2.0), (1, 2, 3.0)]
    )


def wire(overlay, holders=()):
    network = MessageNetwork(overlay)
    nodes = {}
    strategy = blind_flooding_strategy(overlay)
    for peer in overlay.peers():
        node = QueryNode(peer, strategy, holds={"obj"} if peer in holders else None)
        nodes[peer] = node
        network.attach(peer, node)
    return network, nodes


class TestQueryHandling:
    def test_start_query_marks_origin(self, chain):
        network, nodes = wire(chain)
        query = nodes[0].start_query(network, "obj", None)
        assert query.guid in nodes[0].seen_queries
        assert nodes[0].first_arrival[query.guid] == 0.0
        assert query.guid in nodes[0].responses

    def test_duplicate_counted_not_reforwarded(self, chain):
        network, nodes = wire(chain)
        query = Query(sender=0, ttl=5, object_id="obj")
        nodes[1].on_message(network, query, 0, 1.0)
        nodes[1].on_message(network, query, 2, 2.0)
        assert nodes[1].duplicates == 1
        assert nodes[1].first_arrival[query.guid] == 1.0

    def test_ttl_zero_not_forwarded(self, chain):
        network, nodes = wire(chain)
        query = Query(sender=0, ttl=0, object_id="obj")
        nodes[1].on_message(network, query, 0, 1.0)
        network.run()
        # Node 1 recorded it but sent nothing (ttl exhausted).
        assert query.guid in nodes[1].seen_queries
        assert network.stats.messages == 0

    def test_reverse_route_recorded(self, chain):
        network, nodes = wire(chain)
        query = Query(sender=0, ttl=5, object_id="obj")
        nodes[1].on_message(network, query, 0, 1.0)
        assert nodes[1].reverse_route[query.guid] == 0


class TestHitHandling:
    def test_holder_responds_toward_sender(self, chain):
        network, nodes = wire(chain, holders={1})
        query = Query(sender=0, ttl=5, object_id="obj")
        nodes[1].on_message(network, query, 0, 2.0)
        network.run()
        assert network.stats.by_kind.get("query_hit", 0) >= 1

    def test_hit_without_route_dies(self, chain):
        network, nodes = wire(chain)
        hit = QueryHit(sender=2, guid=12345, ttl=5, object_id="obj", responder=2)
        nodes[1].on_message(network, hit, 2, 1.0)
        network.run()
        # Node 1 never saw the query, has no reverse route: nothing sent.
        assert network.stats.by_kind.get("query_hit", 0) == 0

    def test_origin_records_response(self, chain):
        network, nodes = wire(chain, holders={2})
        nodes[0].start_query(network, "obj", None)
        network.run()
        responses = next(iter(nodes[0].responses.values()))
        assert len(responses) == 1
        time, responder = responses[0]
        assert responder == 2
        assert time == pytest.approx(2 * (2.0 + 3.0))


class TestBareServent:
    def test_handlers_return_sends_with_no_network_attached(self):
        # The servent is sans-IO: state in, (destination, message) pairs
        # out.  Drive relay 1 of the chain 0-1-2 by hand, with 1 holding
        # the object, through query, duplicate and hit.
        relay = Servent(1, holds={"obj"})
        query = Query(sender=0, ttl=5, object_id="obj")
        sends = relay.on_query(query, 0, 2.0, [0, 1, 2])
        # Hit back toward the sender first, then the relayed copy — never
        # to the sender or to itself.
        assert [dst for dst, _m in sends] == [0, 2]
        hit, forwarded = sends[0][1], sends[1][1]
        assert isinstance(hit, QueryHit)
        assert (hit.guid, hit.responder, hit.ttl) == (query.guid, 1, 1)
        assert (forwarded.sender, forwarded.ttl, forwarded.hops) == (1, 4, 1)
        assert relay.first_arrival[query.guid] == 2.0
        # A second copy is a duplicate: counted per GUID, nothing sent, and
        # the forwarding set is not even consulted.
        assert relay.on_query(query, 2, 3.0, None) == []
        assert relay.duplicates_by_guid == {query.guid: 1}
        assert relay.duplicates == 1
        # A hit from downstream follows the reverse route...
        remote = QueryHit(sender=2, guid=query.guid, ttl=5, object_id="obj", responder=2)
        assert [dst for dst, _m in relay.on_query_hit(remote, 4.0)] == [0]
        # ...and is recorded, not relayed, at the query's origin.
        origin = Servent(0)
        mine, out = origin.originate("obj", None, 0.0, [1])
        assert [dst for dst, _m in out] == [1]
        reply = QueryHit(sender=1, guid=mine.guid, ttl=1, object_id="obj", responder=1)
        assert origin.on_query_hit(reply, 4.0) == []
        assert origin.responses[mine.guid] == [(4.0, 1)]


class TestNetworkAttachment:
    def test_attach_unknown_peer_rejected(self, chain):
        network = MessageNetwork(chain)
        with pytest.raises(KeyError):
            network.attach(99, QueryNode(99, blind_flooding_strategy(chain)))

    def test_detach_stops_delivery(self, chain):
        network, nodes = wire(chain)
        network.detach(1)
        query = nodes[0].start_query(network, "obj", None)
        network.run()
        assert query.guid not in nodes[1].seen_queries
        # The transmission itself was still charged.
        assert network.stats.messages >= 1

    def test_handler_of(self, chain):
        network, nodes = wire(chain)
        assert network.handler_of(0) is nodes[0]
        network.detach(0)
        assert network.handler_of(0) is None

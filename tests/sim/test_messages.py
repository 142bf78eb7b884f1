"""Unit tests for the protocol message taxonomy."""

import pytest

from repro.sim.messages import (
    ConnectRequest,
    CostProbe,
    DisconnectNotice,
    Ping,
    Query,
)


class TestIdentity:
    def test_guids_unique(self):
        assert Ping(sender=0).guid != Ping(sender=0).guid

    def test_kind_labels(self):
        assert Ping(sender=0).kind == "ping"
        assert CostProbe(sender=0).kind == "cost_probe"
        assert ConnectRequest(sender=0).kind == "connect_request"
        assert DisconnectNotice(sender=0).kind == "disconnect_notice"


class TestForwarding:
    def test_forwarded_decrements_ttl(self):
        q = Query(sender=0, ttl=7, object_id=3)
        fwd = q.forwarded_by(5)
        assert fwd.ttl == 6
        assert fwd.hops == 1
        assert fwd.sender == 5
        assert fwd.guid == q.guid
        assert fwd.object_id == 3

    def test_forward_at_zero_ttl_raises(self):
        q = Query(sender=0, ttl=0)
        with pytest.raises(ValueError, match="ttl"):
            q.forwarded_by(1)

    def test_chained_forwarding(self):
        q = Query(sender=0, ttl=3)
        q2 = q.forwarded_by(1).forwarded_by(2)
        assert q2.ttl == 1
        assert q2.hops == 2


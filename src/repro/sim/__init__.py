"""Simulation substrate: event kernel, peers, churn, workload, bootstrap.

Implements the paper's simulation methodology (Section 4): the dynamic P2P
environment with lifetimes, constant-population join/leave, the measured
query rate, and the Gnutella message vocabulary extended with ACE's cost
messages.
"""

from .bootstrap import BootstrapService
from .churn import ChurnConfig, ChurnModel, LifetimeDistribution
from .engine import EventHandle, EventLoop
from .network import MessageNetwork, NetworkStats
from .node import MessageLevelResult, QueryNode, Servent, run_message_level_query
from .messages import (
    GNUTELLA_HEADER_BYTES,
    ConnectRequest,
    CostProbe,
    CostProbeReply,
    CostTableMessage,
    DisconnectNotice,
    Message,
    Ping,
    Pong,
    Query,
    QueryHit,
    wire_cost,
)
from .peer import PeerRecord
from .workload import (
    ObjectCatalog,
    QueryEvent,
    QueryWorkload,
    WorkloadConfig,
)

__all__ = [
    "EventLoop",
    "EventHandle",
    "MessageNetwork",
    "NetworkStats",
    "Servent",
    "QueryNode",
    "MessageLevelResult",
    "run_message_level_query",
    "PeerRecord",
    "BootstrapService",
    "ChurnModel",
    "ChurnConfig",
    "LifetimeDistribution",
    "ObjectCatalog",
    "QueryWorkload",
    "QueryEvent",
    "WorkloadConfig",
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
    "GNUTELLA_HEADER_BYTES",
    "wire_cost",
]

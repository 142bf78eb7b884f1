"""Wire codec: length-prefixed binary framing for every protocol message.

One frame on the wire is::

    +--------+---------+---------+------------------------+
    | length | version | type id |          body          |
    | !I     | !B      | !B      |  UTF-8 JSON, length B  |
    +--------+---------+---------+------------------------+

``length`` counts the body bytes only; ``version`` is the wire-protocol
version (:data:`WIRE_VERSION`); ``type id`` selects the message class from
the registry below.  The body is a JSON object ``{"env": {...}, "msg":
{...}}``: the :class:`Envelope` carries addressing and the *logical* clock
(see below), ``msg`` carries the dataclass fields of the descriptor.

Every ``repro.sim.messages`` descriptor round-trips **bit-exactly**: ints
and strings are JSON-native, and Python's ``json`` emits floats via
``repr``, which round-trips every finite IEEE-754 double — so the cost
floats in a :class:`~repro.sim.messages.CostTableMessage` survive the wire
unchanged, which is what lets the live runtime reproduce the simulator's
float-for-float accounting.

The envelope's ``ltime`` is the logical timestamp of the frame: the sum of
underlay link delays along the descriptor's path, exactly the simulator's
event-heap clock.  ``seq`` is the coordinator-issued global send sequence
number (see :mod:`repro.net.runtime`), and ``rpc``/``reply`` correlate
request/response exchanges on the control plane.

Control frames (type ids >= 64) exist only on the live network — the
bootstrap and orchestration vocabulary modeled on a gossip seed/peer
launcher.  They never appear in the simulator and carry no cost accounting.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim.messages import (
    ConnectRequest,
    CostProbe,
    CostProbeReply,
    CostTableMessage,
    DisconnectNotice,
    Ping,
    Pong,
    Query,
    QueryHit,
)

__all__ = [
    "WIRE_VERSION",
    "MAX_BODY_BYTES",
    "HEADER",
    "WireError",
    "UnknownMessageType",
    "TruncatedFrame",
    "VersionMismatch",
    "FrameTooLarge",
    "Envelope",
    "Hello",
    "Welcome",
    "GetPeers",
    "PeerSample",
    "GetTable",
    "ConnectAck",
    "OptimizeTurn",
    "TurnDone",
    "Shutdown",
    "type_id_of",
    "message_types",
    "encode_frame",
    "decode_frame",
    "FrameAssembler",
]

#: Current wire-protocol version, stamped into every frame header.
WIRE_VERSION = 1

#: Upper bound on a frame body; a header declaring more is rejected before
#: any allocation (a corrupt or hostile length prefix must not OOM a peer).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Frame header: (body length, version, type id), network byte order.
HEADER = struct.Struct("!IBB")


class WireError(Exception):
    """Base class for framing/codec failures."""


class UnknownMessageType(WireError):
    """The frame's type id is not in the registry."""


class TruncatedFrame(WireError):
    """The buffer ends before the frame does (header or body cut short)."""


class VersionMismatch(WireError):
    """The frame was encoded under a different wire-protocol version."""


class FrameTooLarge(WireError):
    """The header declares a body larger than :data:`MAX_BODY_BYTES`."""


# ----------------------------------------------------------------------
# Envelope
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """Per-frame addressing and logical-clock metadata.

    ``ltime`` is the logical arrival time of the frame at ``dst`` — the
    simulator's event-heap timestamp, accumulated link delay by link delay
    as the descriptor travels.  ``seq`` is the global send sequence the
    delivery coordinator uses to reproduce the simulator's tie-break order
    for same-``ltime`` deliveries.  ``rpc`` marks a request awaiting a
    response; ``reply`` echoes the request's ``rpc`` id back.
    """

    src: int
    dst: int
    ltime: float = 0.0
    seq: int = 0
    rpc: Optional[int] = None
    reply: Optional[int] = None


# ----------------------------------------------------------------------
# Control frames (live network only, type ids >= 64)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Hello:
    """First frame on every connection: who is calling, and from where."""

    peer: int
    host: str = ""
    port: int = 0


@dataclass(frozen=True)
class Welcome:
    """Seed's registration response: membership, addresses, assignment.

    ``neighbors`` is the peer's assigned initial adjacency (scenario
    bootstrap) or empty (random bootstrap — the peer dials a sample).
    ``cost_row`` maps every member to the underlay delay from this peer;
    it is what the peer's latency model injects and what its cost probes
    answer from, reproducing the simulated delay matrix on a live socket.
    ``config`` carries the ACE parameters (including the shed floor the
    simulator derives from the bootstrap overlay's average degree).
    """

    peer: int = 0
    members: Tuple[int, ...] = ()
    addresses: Dict[int, Tuple[str, int]] = dataclasses.field(default_factory=dict)
    neighbors: Tuple[int, ...] = ()
    cost_row: Dict[int, float] = dataclasses.field(default_factory=dict)
    config: Dict[str, Any] = dataclasses.field(default_factory=dict)


@dataclass(frozen=True)
class GetPeers:
    """Membership sample request (gossip-style peer discovery)."""

    count: int = 8


@dataclass(frozen=True)
class PeerSample:
    """Response to :class:`GetPeers`: a sample of member addresses."""

    addresses: Dict[int, Tuple[str, int]] = dataclasses.field(default_factory=dict)


@dataclass(frozen=True)
class GetTable:
    """Ask a peer for its current neighbor cost table.

    Answered with a :class:`~repro.sim.messages.CostTableMessage` — the
    paper's added routing message type, live on the wire.
    """

    peer: int = 0


@dataclass(frozen=True)
class ConnectAck:
    """Acknowledges a ``ConnectRequest`` / ``DisconnectNotice``."""

    accepted: bool = True


@dataclass(frozen=True)
class OptimizeTurn:
    """Seed-issued token: run one ACE phase at the receiving peer.

    ``phase`` is ``"optimize"`` (Phases 1-3, mutating) or ``"recompute"``
    (Phase 2 only, the end-of-step tree rebuild).  ``rng_state`` is the
    JSON-serialized numpy bit-generator state threaded peer to peer, so the
    distributed round consumes the *same single RNG stream* as the
    simulator's sequential loop — the heart of the same-seed convergence
    guarantee.
    """

    phase: str = "optimize"
    step_index: int = 0
    rng_state: str = ""


@dataclass(frozen=True)
class TurnDone:
    """Turn response: the advanced RNG state plus the turn's outcome (a
    serialised :class:`repro.core.turn.Turn`, or ``{"error": ...}``)."""

    rng_state: str = ""
    report: Dict[str, Any] = dataclasses.field(default_factory=dict)
    ok: bool = True


@dataclass(frozen=True)
class Shutdown:
    """Seed's orderly-shutdown notice."""

    reason: str = "done"


# ----------------------------------------------------------------------
# Type registry
# ----------------------------------------------------------------------

#: Simulator descriptors (ids 1-9) — the vocabulary shared with
#: ``repro.sim`` — then live-only control frames (ids >= 64).
_REGISTRY: Tuple[Tuple[int, type], ...] = (
    (1, Ping),
    (2, Pong),
    (3, Query),
    (4, QueryHit),
    (5, CostProbe),
    (6, CostProbeReply),
    (7, CostTableMessage),
    (8, ConnectRequest),
    (9, DisconnectNotice),
    (64, Hello),
    (65, Welcome),
    (66, GetPeers),
    (67, PeerSample),
    (68, GetTable),
    (69, ConnectAck),
    (70, OptimizeTurn),
    (71, TurnDone),
    (72, Shutdown),
)

_TYPES: Dict[int, type] = {tid: cls for tid, cls in _REGISTRY}
_TYPE_IDS: Dict[type, int] = {cls: tid for tid, cls in _REGISTRY}

#: Field decoders: JSON collapses tuples to lists and coerces dict keys to
#: strings; these rebuild the exact Python shapes the frozen dataclasses
#: were constructed with, so ``decode(encode(m)) == m`` holds bit for bit.
_FIELD_DECODERS: Dict[type, Dict[str, Callable[[Any], Any]]] = {
    CostTableMessage: {
        "entries": lambda v: tuple((int(p), float(c)) for p, c in v),
    },
    Welcome: {
        "members": lambda v: tuple(int(p) for p in v),
        "addresses": lambda v: {
            int(p): (str(h), int(pt)) for p, (h, pt) in v.items()
        },
        "neighbors": lambda v: tuple(int(p) for p in v),
        "cost_row": lambda v: {int(p): float(c) for p, c in v.items()},
    },
    PeerSample: {
        "addresses": lambda v: {
            int(p): (str(h), int(pt)) for p, (h, pt) in v.items()
        },
    },
}


def type_id_of(message: object) -> int:
    """The registry id of *message*'s class (:class:`UnknownMessageType`)."""
    try:
        return _TYPE_IDS[type(message)]
    except KeyError:
        raise UnknownMessageType(
            f"{type(message).__name__} is not a registered wire type"
        ) from None


def message_types() -> Dict[int, type]:
    """Copy of the id -> class registry (for tests and documentation)."""
    return dict(_TYPES)


# ----------------------------------------------------------------------
# Encode / decode
# ----------------------------------------------------------------------


def encode_frame(message: object, env: Envelope) -> bytes:
    """Serialize one (message, envelope) pair into a complete frame."""
    tid = type_id_of(message)
    body_obj = {
        "env": dataclasses.asdict(env),
        "msg": dataclasses.asdict(message),  # type: ignore[call-overload]
    }
    body = json.dumps(body_obj, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_BODY_BYTES:
        raise FrameTooLarge(f"{len(body)}-byte body exceeds {MAX_BODY_BYTES}")
    return HEADER.pack(len(body), WIRE_VERSION, tid) + body


def decode_frame(buffer: bytes) -> Tuple[object, Envelope, int]:
    """Decode one frame from the head of *buffer*.

    Returns ``(message, envelope, bytes_consumed)``.  Raises
    :class:`TruncatedFrame` when the buffer holds less than one complete
    frame, :class:`VersionMismatch` / :class:`UnknownMessageType` /
    :class:`FrameTooLarge` on bad headers.
    """
    if len(buffer) < HEADER.size:
        raise TruncatedFrame(
            f"{len(buffer)} bytes is shorter than the {HEADER.size}-byte header"
        )
    length, version, tid = HEADER.unpack_from(buffer)
    if version != WIRE_VERSION:
        raise VersionMismatch(
            f"frame version {version}, this peer speaks {WIRE_VERSION}"
        )
    if length > MAX_BODY_BYTES:
        raise FrameTooLarge(f"declared {length}-byte body exceeds {MAX_BODY_BYTES}")
    cls = _TYPES.get(tid)
    if cls is None:
        raise UnknownMessageType(f"unknown wire type id {tid}")
    end = HEADER.size + length
    if len(buffer) < end:
        raise TruncatedFrame(
            f"body needs {length} bytes, only {len(buffer) - HEADER.size} present"
        )
    try:
        body_obj = json.loads(buffer[HEADER.size:end].decode("utf-8"))
        env_kwargs = body_obj["env"]
        msg_kwargs = body_obj["msg"]
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise WireError(f"undecodable frame body: {exc}") from exc
    decoders = _FIELD_DECODERS.get(cls, {})
    for name, fix in decoders.items():
        if name in msg_kwargs:
            msg_kwargs[name] = fix(msg_kwargs[name])
    env = Envelope(**env_kwargs)
    return cls(**msg_kwargs), env, end


class FrameAssembler:
    """Incremental frame reassembly over a byte stream.

    Feed it whatever the socket produced — single bytes, half frames,
    several frames at once — and it yields every complete ``(message,
    envelope)`` pair while buffering the remainder.  Header errors raise
    immediately (the stream is unrecoverable after a framing fault).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Tuple[object, Envelope]]:
        """Absorb *data*; return all frames completed by it, in order."""
        self._buffer.extend(data)
        out: List[Tuple[object, Envelope]] = []
        while True:
            try:
                message, env, consumed = decode_frame(bytes(self._buffer))
            except TruncatedFrame:
                break
            del self._buffer[:consumed]
            out.append((message, env))
        return out

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)

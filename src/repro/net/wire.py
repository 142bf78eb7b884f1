"""Wire codec: length-prefixed binary framing for every protocol message.

One frame on the wire is::

    +--------+---------+---------+------------------------------+
    | length | version | type id |             body             |
    | !I     | !B      | !B      |  envelope, then message      |
    +--------+---------+---------+------------------------------+

``length`` counts the body bytes only; ``version`` is the wire-protocol
version (:data:`WIRE_VERSION`); ``type id`` selects the message class from
the registry below.  All numbers are network byte order.

Every registered class has one body layout, built once at import from its
``dataclasses.fields``.  One precompiled :class:`struct.Struct` packs the
:class:`Envelope` head (``!qqdqB``: ``src``, ``dst``, ``ltime``, ``seq``
and a presence byte) and the class's ``int`` / ``float`` / ``bool``
fields (``q`` / ``d`` / ``?``, in field order).  The envelope's ``rpc``
and ``reply`` follow as one ``!q`` each when their presence bit (0, 1) is
set, then the class's variable-length fields in field order:

* ``str`` — ``!I`` byte count, UTF-8 bytes;
* ``Optional[int]`` (``object_id``, ``target``, ``responder``) — a tag byte,
  0 None, 1 ``!q`` int, 2 a ``str`` (object ids may be names);
* ``Tuple[int, ...]`` — ``!I`` count, ``!q`` each;
* ``Tuple[Tuple[int, float], ...]`` and ``Dict[int, float]`` — ``!I``
  count, ``!qd`` each;
* ``Dict[int, Tuple[str, int]]`` — ``!I`` count, then key ``!q``, host
  ``str``, port ``!q`` each;
* ``Dict[str, Any]`` (the schemaless ``Welcome.config`` and
  ``TurnDone.report``) — a tagged value: a tag byte then ``!q``, ``!d``, a
  ``str``, or an ``!I`` count of nested values (list, tuple, dict).

Every descriptor round-trips **bit-exactly**: floats travel as their eight
IEEE-754 bytes (``-0.0``, infinities and NaN payloads included), so the
cost floats in a :class:`~repro.sim.messages.CostTableMessage` survive the
wire unchanged, which is what lets the live runtime reproduce the
simulator's float-for-float accounting.  An int outside 64 bits, or a
value no layout can carry, raises :class:`WireError` at encode; a body
that does not parse to exactly its declared length raises
:class:`WireError` at decode.

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
import struct
import typing
from dataclasses import dataclass
from operator import attrgetter
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
WIRE_VERSION = 2

#: Upper bound on a frame body; a header declaring more is rejected before
#: any allocation (a corrupt or hostile length prefix must not OOM a peer).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Frame header: (body length, version, type id), network byte order.
HEADER = struct.Struct("!IBB")

#: Envelope head: (src, dst, ltime, seq, presence bits); bit 0 says an
#: ``rpc`` id follows, bit 1 a ``reply`` id.
_ENVELOPE_HEAD = "!qqdqB"


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
    ``config`` carries the four :class:`~repro.core.ace.AceConfig` fields
    and the shed floor the simulator derives from the bootstrap overlay's
    average degree; a peer refuses a key it does not know
    (:meth:`~repro.net.peer.LivePeer.apply_welcome`).
    """

    peer: int = 0
    members: Tuple[int, ...] = ()
    addresses: Dict[int, Tuple[str, int]] = dataclasses.field(default_factory=dict)
    neighbors: Tuple[int, ...] = ()
    cost_row: Dict[int, float] = dataclasses.field(default_factory=dict)
    config: Dict[str, Any] = dataclasses.field(default_factory=dict)


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
    (68, GetTable),
    (69, ConnectAck),
    (70, OptimizeTurn),
    (71, TurnDone),
    (72, Shutdown),
)

_TYPES: Dict[int, type] = {tid: cls for tid, cls in _REGISTRY}


# ----------------------------------------------------------------------
# Field codecs: put(out, value) appends; get(body, off) -> (value, off)
# ----------------------------------------------------------------------

_I64 = struct.Struct("!q")
_U32 = struct.Struct("!I")
_F64 = struct.Struct("!d")
_PAIR = struct.Struct("!qd")


def _count(body, off: int, item_size: int) -> Tuple[int, int]:
    """Read an ``!I`` count whose items of *item_size* bytes must fit."""
    (n,) = _U32.unpack_from(body, off)
    off += _U32.size
    if off + n * item_size > len(body):
        raise WireError(f"{n} items of {item_size} bytes overrun the body")
    return n, off


def _put_str(out: bytearray, value: str) -> None:
    data = value.encode("utf-8")
    out += _U32.pack(len(data))
    out += data


def _get_str(body, off: int) -> Tuple[str, int]:
    n, off = _count(body, off, 1)
    return str(body[off:off + n], "utf-8"), off + n


def _put_id(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(0)
    elif isinstance(value, str):
        out.append(2)
        _put_str(out, value)
    else:
        out.append(1)
        out += _I64.pack(value)


def _get_id(body, off: int) -> Tuple[Any, int]:
    tag = body[off]
    if tag == 0:
        return None, off + 1
    if tag == 1:
        return _I64.unpack_from(body, off + 1)[0], off + 1 + _I64.size
    if tag == 2:
        return _get_str(body, off + 1)
    raise WireError(f"bad id tag {tag}")


def _put_ints(out: bytearray, values: Tuple[int, ...]) -> None:
    out += struct.pack(f"!I{len(values)}q", len(values), *values)


def _get_ints(body, off: int) -> Tuple[Tuple[int, ...], int]:
    n, off = _count(body, off, _I64.size)
    return struct.unpack_from(f"!{n}q", body, off), off + n * _I64.size


def _put_pairs(out: bytearray, pairs) -> None:
    out += _U32.pack(len(pairs))
    for key, value in pairs:
        out += _PAIR.pack(key, value)


def _get_pairs(body, off: int) -> Tuple[Tuple[Tuple[int, float], ...], int]:
    n, off = _count(body, off, _PAIR.size)
    end = off + n * _PAIR.size
    return tuple(_PAIR.iter_unpack(body[off:end])), end


def _get_pair_dict(body, off: int) -> Tuple[Dict[int, float], int]:
    pairs, off = _get_pairs(body, off)
    return dict(pairs), off


def _put_addresses(out: bytearray, addresses: Dict[int, Tuple[str, int]]) -> None:
    out += _U32.pack(len(addresses))
    for peer, (host, port) in addresses.items():
        out += _I64.pack(peer)
        _put_str(out, host)
        out += _I64.pack(port)


def _get_addresses(body, off: int) -> Tuple[Dict[int, Tuple[str, int]], int]:
    n, off = _count(body, off, 2 * _I64.size + _U32.size)
    addresses = {}
    for _ in range(n):
        (peer,) = _I64.unpack_from(body, off)
        host, off = _get_str(body, off + _I64.size)
        (port,) = _I64.unpack_from(body, off)
        off += _I64.size
        addresses[peer] = (host, port)
    return addresses, off


# Tagged values for the schemaless fields.  Tags are ASCII letters so a
# hex dump reads: None, False, True, int, float (double), str, list,
# tuple, map.
_NONE, _FALSE, _TRUE, _INT, _FLOAT, _STR, _LIST, _TUPLE, _MAP = b"NFTidsltm"


def _put_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_NONE)
    elif value is True or value is False:
        out.append(_TRUE if value else _FALSE)
    elif isinstance(value, int):
        out.append(_INT)
        out += _I64.pack(value)
    elif isinstance(value, float):
        out.append(_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        out.append(_STR)
        _put_str(out, value)
    elif isinstance(value, (list, tuple)):
        out.append(_TUPLE if isinstance(value, tuple) else _LIST)
        out += _U32.pack(len(value))
        for item in value:
            _put_value(out, item)
    elif isinstance(value, dict):
        out.append(_MAP)
        out += _U32.pack(len(value))
        for key, item in value.items():
            _put_value(out, key)
            _put_value(out, item)
    else:
        raise WireError(f"{type(value).__name__} is not a wire value")


def _get_value(body, off: int) -> Tuple[Any, int]:
    tag = body[off]
    off += 1
    if tag == _NONE:
        return None, off
    if tag == _FALSE or tag == _TRUE:
        return tag == _TRUE, off
    if tag == _INT:
        return _I64.unpack_from(body, off)[0], off + _I64.size
    if tag == _FLOAT:
        return _F64.unpack_from(body, off)[0], off + _F64.size
    if tag == _STR:
        return _get_str(body, off)
    if tag == _LIST or tag == _TUPLE:
        n, off = _count(body, off, 1)
        items = []
        for _ in range(n):
            item, off = _get_value(body, off)
            items.append(item)
        return (tuple(items) if tag == _TUPLE else items), off
    if tag == _MAP:
        n, off = _count(body, off, 2)
        mapping = {}
        for _ in range(n):
            key, off = _get_value(body, off)
            mapping[key], off = _get_value(body, off)
        return mapping, off
    raise WireError(f"bad value tag {tag}")


#: Fixed-width field formats, packed together by one Struct per class.
_SCALARS: Dict[Any, str] = {int: "q", float: "d", bool: "?"}

#: Variable-length field codecs, keyed by the field's resolved annotation.
_VARIABLE: Dict[Any, Tuple[Callable, Callable]] = {
    str: (_put_str, _get_str),
    Optional[int]: (_put_id, _get_id),
    Tuple[int, ...]: (_put_ints, _get_ints),
    Tuple[Tuple[int, float], ...]: (_put_pairs, _get_pairs),
    Dict[int, float]: (lambda out, v: _put_pairs(out, v.items()), _get_pair_dict),
    Dict[int, Tuple[str, int]]: (_put_addresses, _get_addresses),
    Dict[str, Any]: (_put_value, _get_value),
}


class _Layout:
    """One registered class's body layout.

    ``head`` packs the envelope head and the class's fixed scalars in one
    call; ``variable`` lists ``(name, put, get)`` for the fields after it.
    """

    def __init__(self, tid: int, cls: type) -> None:
        self.tid, self.cls = tid, cls
        hints = typing.get_type_hints(cls)
        fmt, fixed, self.variable = _ENVELOPE_HEAD, [], []
        for f in dataclasses.fields(cls):
            hint = hints[f.name]
            if hint in _SCALARS:
                fmt += _SCALARS[hint]
                fixed.append(f.name)
            elif hint in _VARIABLE:
                self.variable.append((f.name, *_VARIABLE[hint]))
            else:
                raise TypeError(f"{cls.__name__}.{f.name}: no wire layout for {hint}")
        self.head = struct.Struct(fmt)
        self.fixed_names = tuple(fixed)
        if len(fixed) > 1:
            self.get_fixed = attrgetter(*fixed)
        else:  # attrgetter returns a bare value for one name
            self.get_fixed = lambda m: tuple(getattr(m, n) for n in fixed)


_LAYOUTS: Dict[type, _Layout] = {cls: _Layout(tid, cls) for tid, cls in _REGISTRY}
_BY_ID: Dict[int, _Layout] = {layout.tid: layout for layout in _LAYOUTS.values()}

#: What a value outside the layout raises while packing, and what a
#: malformed body raises while parsing; all become WireError.
_ENCODE_ERRORS = (struct.error, ValueError, TypeError, AttributeError, RecursionError)
_BODY_ERRORS = (struct.error, ValueError, IndexError, TypeError, RecursionError)


def type_id_of(message: object) -> int:
    """The registry id of *message*'s class (:class:`UnknownMessageType`)."""
    return _layout_of(message).tid


def _layout_of(message: object) -> _Layout:
    try:
        return _LAYOUTS[type(message)]
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
    layout = _layout_of(message)
    rpc, reply = env.rpc, env.reply
    flags = (rpc is not None) | (reply is not None) << 1
    out = bytearray(HEADER.size)
    try:
        out += layout.head.pack(
            env.src, env.dst, env.ltime, env.seq, flags, *layout.get_fixed(message)
        )
        if rpc is not None:
            out += _I64.pack(rpc)
        if reply is not None:
            out += _I64.pack(reply)
        for name, put, _get in layout.variable:
            put(out, getattr(message, name))
    except _ENCODE_ERRORS as exc:
        raise WireError(f"cannot encode {type(message).__name__}: {exc}") from exc
    length = len(out) - HEADER.size
    if length > MAX_BODY_BYTES:
        raise FrameTooLarge(f"{length}-byte body exceeds {MAX_BODY_BYTES}")
    HEADER.pack_into(out, 0, length, WIRE_VERSION, layout.tid)
    return bytes(out)


def decode_frame(buffer, offset: int = 0) -> Tuple[object, Envelope, int]:
    """Decode the frame starting at *offset* of *buffer*.

    Returns ``(message, envelope, bytes_consumed)``.  Raises
    :class:`TruncatedFrame` when the buffer holds less than one complete
    frame, :class:`VersionMismatch` / :class:`UnknownMessageType` /
    :class:`FrameTooLarge` on bad headers, and :class:`WireError` on a body
    that does not parse to exactly its declared length.
    """
    available = len(buffer) - offset
    if available < HEADER.size:
        raise TruncatedFrame(
            f"{available} bytes is shorter than the {HEADER.size}-byte header"
        )
    length, version, tid = HEADER.unpack_from(buffer, offset)
    if version != WIRE_VERSION:
        raise VersionMismatch(
            f"frame version {version}, this peer speaks {WIRE_VERSION}"
        )
    if length > MAX_BODY_BYTES:
        raise FrameTooLarge(f"declared {length}-byte body exceeds {MAX_BODY_BYTES}")
    layout = _BY_ID.get(tid)
    if layout is None:
        raise UnknownMessageType(f"unknown wire type id {tid}")
    if available < HEADER.size + length:
        raise TruncatedFrame(
            f"body needs {length} bytes, only {available - HEADER.size} present"
        )
    start = offset + HEADER.size
    # The slice copies this frame's body only; bounding every read by it
    # keeps a malformed body from parsing into the next frame.
    body = buffer[start:start + length]
    # Both objects are built the way pickle restores a frozen dataclass,
    # without the generated __init__ and its object.__setattr__ per field,
    # which would cost more than the whole parse.
    message = object.__new__(layout.cls)
    fields = vars(message)
    try:
        head = layout.head.unpack_from(body)
        flags = head[4]
        if flags > 3:
            raise WireError(f"bad envelope flags {flags:#x}")
        off = layout.head.size
        rpc = reply = None
        if flags & 1:
            (rpc,) = _I64.unpack_from(body, off)
            off += _I64.size
        if flags & 2:
            (reply,) = _I64.unpack_from(body, off)
            off += _I64.size
        fields.update(zip(layout.fixed_names, head[5:]))
        for name, _put, get in layout.variable:
            fields[name], off = get(body, off)
    except _BODY_ERRORS as exc:
        raise WireError(f"undecodable {layout.cls.__name__} body: {exc}") from exc
    if off != length:
        raise WireError(f"{length - off} trailing bytes after {layout.cls.__name__}")
    env = object.__new__(Envelope)
    vars(env).update(
        src=head[0], dst=head[1], ltime=head[2], seq=head[3], rpc=rpc, reply=reply
    )
    return message, env, HEADER.size + length


class FrameAssembler:
    """Incremental frame reassembly over a byte stream.

    Feed it whatever the socket produced — single bytes, half frames,
    several frames at once — and it yields every complete ``(message,
    envelope)`` pair while buffering the remainder.  Header errors raise
    immediately (the stream is unrecoverable after a framing fault); a
    header declaring more than :data:`MAX_BODY_BYTES` raises before its
    body is buffered, so the buffer stays bounded.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Tuple[object, Envelope]]:
        """Absorb *data*; return all frames completed by it, in order."""
        buffer = self._buffer
        buffer += data
        out: List[Tuple[object, Envelope]] = []
        pos = 0
        # Frames decode in place at their offset; the consumed prefix is
        # trimmed once per feed, not once per frame.
        while pos < len(buffer):
            try:
                message, env, consumed = decode_frame(buffer, pos)
            except TruncatedFrame:
                break
            pos += consumed
            out.append((message, env))
        del buffer[:pos]
        return out

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)

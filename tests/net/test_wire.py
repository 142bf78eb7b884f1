"""Wire-codec tests: every descriptor round-trips bit-exactly.

The convergence guarantee of the live runtime rests on the codec being
lossless: the simulator's cost floats, GUIDs, and table entries must
survive the socket unchanged.  These tests round-trip one instance of
every registered message class (simulator descriptors and control frames),
assert equality field for field, and exercise the failure modes — unknown
type ids, truncated frames, version mismatches, oversized bodies, ints
outside 64 bits — plus byte-at-a-time reassembly through
:class:`repro.net.wire.FrameAssembler`.  The property tests at the end
generate instances of every registered type (awkward floats included),
split valid streams at every point, and feed corrupt bytes: the codec
either returns the messages or raises a :class:`WireError` subclass.
"""

import dataclasses
import math
import struct
import typing
from typing import Any, Dict, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.wire import (
    HEADER,
    MAX_BODY_BYTES,
    WIRE_VERSION,
    ConnectAck,
    Envelope,
    FrameAssembler,
    FrameTooLarge,
    GetPeers,
    GetTable,
    Hello,
    OptimizeTurn,
    PeerSample,
    Shutdown,
    TruncatedFrame,
    TurnDone,
    UnknownMessageType,
    VersionMismatch,
    Welcome,
    WireError,
    decode_frame,
    encode_frame,
    message_types,
    type_id_of,
)
from repro.sim.messages import (
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

# Floats chosen to be awkward: 0.1 + 0.2 != 0.3, and the sum's exact bits
# must survive the wire; 1/3 has a full 53-bit mantissa.
AWKWARD = 0.1 + 0.2
THIRD = 1.0 / 3.0

ENV = Envelope(src=3, dst=7, ltime=AWKWARD, seq=41, rpc=5, reply=None)

#: One instance of every registered message class, with non-default
#: values in every field that has one.
SAMPLES = [
    Ping(sender=1, guid=101, ttl=5, hops=2),
    Pong(sender=2, guid=102, ttl=4, hops=3),
    Query(sender=3, guid=103, ttl=6, hops=1, object_id=17),
    Query(sender=3, guid=104, ttl=6, hops=1, object_id="an object"),
    QueryHit(sender=4, guid=103, ttl=2, hops=1, object_id=17, responder=9),
    CostProbe(sender=5, guid=105, ttl=1, hops=0, target=8),
    CostProbeReply(sender=8, guid=106, ttl=1, hops=0, target=5),
    CostTableMessage(
        sender=6,
        guid=107,
        entries=((2, AWKWARD), (9, THIRD), (11, 0.0)),
    ),
    ConnectRequest(sender=7, guid=108, target=12),
    DisconnectNotice(sender=8, guid=109, target=13),
    Hello(peer=3, host="127.0.0.1", port=4444),
    Welcome(
        peer=3,
        members=(0, 1, 2, 3),
        addresses={0: ("127.0.0.1", 5000), 2: ("127.0.0.1", 5002)},
        neighbors=(0, 2),
        cost_row={0: AWKWARD, 1: THIRD, 2: 4.25},
        config={"depth": 1, "policy": "random", "allow_keep_both": True,
                "shed_floor": None},
    ),
    GetPeers(count=4),
    PeerSample(addresses={5: ("10.0.0.1", 6000)}),
    GetTable(peer=9),
    ConnectAck(accepted=False),
    OptimizeTurn(phase="optimize", step_index=3, rng_state='{"s": 1}'),
    TurnDone(rng_state='{"s": 2}', report={"probes": 4, "cost": THIRD}),
    Shutdown(reason="test over"),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "message", SAMPLES, ids=lambda m: type(m).__name__
    )
    def test_round_trips_bit_exactly(self, message):
        frame = encode_frame(message, ENV)
        decoded, env, consumed = decode_frame(frame)
        assert consumed == len(frame)
        assert type(decoded) is type(message)
        assert decoded == message
        assert env == ENV
        # Field-for-field identity, including float bits and container types.
        for name in vars(message):
            got, want = getattr(decoded, name), getattr(message, name)
            assert got == want
            assert type(got) is type(want)

    def test_every_registered_type_is_covered(self):
        covered = {type(m) for m in SAMPLES}
        assert covered == set(message_types().values())

    def test_cost_table_entries_keep_exact_shape(self):
        msg = CostTableMessage(sender=1, entries=((4, AWKWARD),))
        decoded, _env, _n = decode_frame(encode_frame(msg, ENV))
        assert isinstance(decoded.entries, tuple)
        assert isinstance(decoded.entries[0], tuple)
        assert isinstance(decoded.entries[0][0], int)
        # The float survives with its exact bits (0.30000000000000004).
        assert decoded.entries[0][1] == AWKWARD
        assert struct.pack("!d", decoded.entries[0][1]) == struct.pack(
            "!d", AWKWARD
        )

    def test_welcome_int_keys_survive(self):
        msg = Welcome(peer=1, cost_row={7: 1.5}, addresses={7: ("h", 1)})
        decoded, _env, _n = decode_frame(encode_frame(msg, ENV))
        assert decoded.cost_row == {7: 1.5}
        assert decoded.addresses == {7: ("h", 1)}
        assert all(isinstance(k, int) for k in decoded.cost_row)

    def test_envelope_defaults_round_trip(self):
        env = Envelope(src=0, dst=1)
        decoded, got_env, _n = decode_frame(encode_frame(Ping(sender=0), env))
        assert got_env == env
        assert got_env.rpc is None and got_env.reply is None


class TestRejection:
    def test_unknown_type_id_rejected(self):
        frame = encode_frame(Ping(sender=1), ENV)
        bad = HEADER.pack(len(frame) - HEADER.size, WIRE_VERSION, 200)
        with pytest.raises(UnknownMessageType):
            decode_frame(bad + frame[HEADER.size:])

    def test_unregistered_class_rejected_at_encode(self):
        with pytest.raises(UnknownMessageType):
            encode_frame(object(), ENV)
        with pytest.raises(UnknownMessageType):
            type_id_of("not a message")

    def test_truncated_header_rejected(self):
        frame = encode_frame(Ping(sender=1), ENV)
        for cut in range(HEADER.size):
            with pytest.raises(TruncatedFrame):
                decode_frame(frame[:cut])

    def test_truncated_body_rejected(self):
        frame = encode_frame(Query(sender=1, object_id=5), ENV)
        for cut in range(HEADER.size, len(frame)):
            with pytest.raises(TruncatedFrame):
                decode_frame(frame[:cut])

    def test_version_mismatch_rejected(self):
        frame = encode_frame(Ping(sender=1), ENV)
        length, _version, tid = HEADER.unpack_from(frame)
        bad = HEADER.pack(length, WIRE_VERSION + 1, tid) + frame[HEADER.size:]
        with pytest.raises(VersionMismatch):
            decode_frame(bad)

    def test_oversized_declared_body_rejected(self):
        bad = HEADER.pack(MAX_BODY_BYTES + 1, WIRE_VERSION, 1)
        with pytest.raises(FrameTooLarge):
            decode_frame(bad)

    def test_garbage_body_rejected(self):
        # Too short for a Ping's fixed head.
        body = b"\x00" * 7
        frame = HEADER.pack(len(body), WIRE_VERSION, 1) + body
        with pytest.raises(WireError):
            decode_frame(frame)

    def test_trailing_body_bytes_rejected(self):
        frame = encode_frame(Ping(sender=1), ENV)
        length, version, tid = HEADER.unpack_from(frame)
        padded = HEADER.pack(length + 1, version, tid) + frame[HEADER.size:] + b"\x00"
        with pytest.raises(WireError, match="trailing"):
            decode_frame(padded)

    def test_bad_envelope_flags_rejected(self):
        frame = bytearray(encode_frame(Ping(sender=1), Envelope(src=0, dst=1)))
        frame[HEADER.size + 32] = 0x04  # presence byte: only bits 0-1 exist
        with pytest.raises(WireError, match="flags"):
            decode_frame(bytes(frame))

    def test_version_1_frame_rejected(self):
        # A frame as the JSON-bodied version 1 wrote it.
        body = b'{"env":{"src":0,"dst":1},"msg":{"sender":0}}'
        frame = HEADER.pack(len(body), 1, 1) + body
        with pytest.raises(VersionMismatch):
            decode_frame(frame)
        with pytest.raises(VersionMismatch):
            FrameAssembler().feed(frame)

    @pytest.mark.parametrize(
        "message, env",
        [
            (Ping(sender=2**63), ENV),
            (Ping(sender=-(2**63) - 1), ENV),
            (Query(sender=1, object_id=2**64), ENV),
            (CostTableMessage(sender=1, entries=((2**63, 1.0),)), ENV),
            (Welcome(cost_row={2**70: 1.0}), ENV),
            (TurnDone(report={"big": 2**64}), ENV),
            (Ping(sender=1), Envelope(src=0, dst=1, seq=2**63)),
            (Ping(sender=1), Envelope(src=0, dst=1, rpc=-(2**63) - 1)),
        ],
        ids=lambda v: type(v).__name__,
    )
    def test_int_outside_64_bits_rejected_at_encode(self, message, env):
        with pytest.raises(WireError):
            encode_frame(message, env)

    def test_value_outside_the_layout_rejected_at_encode(self):
        with pytest.raises(WireError):
            encode_frame(Query(sender=1, object_id=1.5), ENV)
        with pytest.raises(WireError):
            encode_frame(TurnDone(report={"set": {1, 2}}), ENV)
        with pytest.raises(WireError):
            encode_frame(Welcome(members=None), ENV)
        with pytest.raises(WireError):
            encode_frame(Hello(peer=1, host=5), ENV)
        with pytest.raises(WireError):
            encode_frame(PeerSample(addresses={1: ("h",)}), ENV)


class TestFrameAssembler:
    def test_byte_at_a_time_reassembly(self):
        frames = b"".join(encode_frame(m, ENV) for m in SAMPLES)
        assembler = FrameAssembler()
        got = []
        for i in range(len(frames)):
            got.extend(assembler.feed(frames[i:i + 1]))
        assert [m for m, _e in got] == SAMPLES
        assert all(e == ENV for _m, e in got)
        assert assembler.pending_bytes == 0

    def test_multiple_frames_in_one_feed(self):
        frames = b"".join(encode_frame(m, ENV) for m in SAMPLES[:5])
        assembler = FrameAssembler()
        got = assembler.feed(frames)
        assert [m for m, _e in got] == SAMPLES[:5]

    def test_partial_frame_stays_buffered(self):
        frame = encode_frame(Shutdown(reason="x"), ENV)
        assembler = FrameAssembler()
        assert assembler.feed(frame[:-3]) == []
        assert assembler.pending_bytes == len(frame) - 3
        got = assembler.feed(frame[-3:])
        assert [m for m, _e in got] == [Shutdown(reason="x")]
        assert assembler.pending_bytes == 0


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------

INT64 = st.integers(-(2**63), 2**63 - 1)

#: Every double bit pattern is reachable (NaN payloads, subnormals, -0.0),
#: and the named extremes are drawn often.
FLOATS = st.one_of(
    st.floats(),
    st.binary(min_size=8, max_size=8).map(lambda b: struct.unpack("!d", b)[0]),
    st.sampled_from(
        [-0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072e-308]
    ),
)

IDS = st.one_of(st.none(), INT64, st.text(max_size=8))

#: Schemaless values as the control frames carry them.
VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), INT64, FLOATS, st.text(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=12,
)

#: One strategy per field annotation the registered classes use.
FIELD_STRATEGIES = {
    int: INT64,
    float: FLOATS,
    bool: st.booleans(),
    str: st.text(max_size=12),
    Optional[int]: IDS,
    Tuple[int, ...]: st.lists(INT64, max_size=6).map(tuple),
    Tuple[Tuple[int, float], ...]: st.lists(
        st.tuples(INT64, FLOATS), max_size=6
    ).map(tuple),
    Dict[int, float]: st.dictionaries(INT64, FLOATS, max_size=6),
    Dict[int, Tuple[str, int]]: st.dictionaries(
        INT64, st.tuples(st.text(max_size=8), INT64), max_size=4
    ),
    Dict[str, Any]: st.dictionaries(st.text(max_size=6), VALUES, max_size=4),
}


def instances(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{
        f.name: FIELD_STRATEGIES[hints[f.name]] for f in dataclasses.fields(cls)
    })


ENVELOPES = st.builds(
    Envelope,
    src=INT64, dst=INT64, ltime=FLOATS, seq=INT64,
    rpc=st.none() | INT64, reply=st.none() | INT64,
)


def bits(value):
    """*value* with every float replaced by its eight bytes, so NaN
    payloads and the sign of zero compare too (stricter than
    ``float.hex``), and with container types kept distinct."""
    if isinstance(value, float):
        return ("float", struct.pack("!d", value))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [bits(v) for v in value])
    if isinstance(value, dict):
        return ("dict", [(bits(k), bits(v)) for k, v in value.items()])
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, bits(dataclasses.astuple(value)))
    return (type(value).__name__, value)


@pytest.mark.parametrize(
    "cls",
    [cls for _tid, cls in sorted(message_types().items())],
    ids=lambda c: c.__name__,
)
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_generated_instances_round_trip_bit_exactly(cls, data):
    message = data.draw(instances(cls))
    env = data.draw(ENVELOPES)
    decoded, got_env, consumed = decode_frame(encode_frame(message, env))
    assert type(decoded) is cls
    assert bits(decoded) == bits(message)
    assert bits(got_env) == bits(env)
    assert consumed == len(encode_frame(message, env))


STREAM = [
    (m, Envelope(src=i, dst=i + 1, ltime=-0.0 if i % 2 else AWKWARD, seq=i,
                 rpc=i if i % 3 == 0 else None, reply=None if i % 4 else i))
    for i, m in enumerate(SAMPLES)
]
STREAM_BYTES = b"".join(encode_frame(m, e) for m, e in STREAM)


def test_stream_split_at_every_point():
    for cut in range(len(STREAM_BYTES) + 1):
        assembler = FrameAssembler()
        got = assembler.feed(STREAM_BYTES[:cut]) + assembler.feed(STREAM_BYTES[cut:])
        assert got == STREAM
        assert assembler.pending_bytes == 0


@settings(max_examples=100)
@given(cuts=st.lists(st.integers(0, len(STREAM_BYTES)), max_size=40))
def test_stream_any_chunking(cuts):
    bounds = [0, *sorted(cuts), len(STREAM_BYTES)]
    assembler = FrameAssembler()
    got = []
    for lo, hi in zip(bounds, bounds[1:]):
        got.extend(assembler.feed(STREAM_BYTES[lo:hi]))
    assert got == STREAM


def feed_or_wire_error(data):
    """Feed *data*; a WireError subclass is an allowed outcome, any other
    exception fails the test.  Returns the decoded messages or None."""
    try:
        return FrameAssembler().feed(data)
    except WireError:
        return None


@settings(max_examples=300)
@given(data=st.binary(max_size=200))
def test_arbitrary_bytes_never_escape_as_other_errors(data):
    feed_or_wire_error(data)


@settings(max_examples=300)
@given(
    tid=st.sampled_from(sorted(message_types())),
    body=st.binary(max_size=120),
)
def test_arbitrary_bodies_under_a_valid_header(tid, body):
    # A well-formed header, so the body parser itself sees the garbage.
    feed_or_wire_error(HEADER.pack(len(body), WIRE_VERSION, tid) + body)


def test_every_single_byte_mutation_of_valid_frames():
    for message, env in STREAM:
        frame = encode_frame(message, env)
        for pos in range(len(frame)):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(frame)
                mutated[pos] ^= flip
                got = feed_or_wire_error(bytes(mutated))
                assert got is None or len(got) <= 1

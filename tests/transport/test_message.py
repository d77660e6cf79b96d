"""Wire message encode/decode."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import errors
from repro.core.errors import TransportError
from repro.transport import message as msg


ALL_MESSAGES = [
    msg.Hello("compact", "deadbeef00112233"),
    msg.Welcome("compact", "deadbeef00112233"),
    msg.Request(1, 0, 0, b""),
    msg.Request(2**40, 11, 3, b"payload bytes"),
    msg.Response(7, b"result"),
    msg.Response(7, b""),
    msg.AppError(9, "ValueError", "bad input"),
    msg.AppError(9, "E", ""),
    msg.RpcError(3, int(errors.ErrorCode.UNAVAILABLE), "unavailable", False),
    msg.RpcError(3, int(errors.ErrorCode.INTERNAL), "fatal"),
    msg.Request(5, 1, 2, b"x", deadline_ms=1500),
    msg.Ping(123456),
    msg.Pong(123456),
]


@pytest.mark.parametrize("message", ALL_MESSAGES, ids=lambda m: type(m).__name__ + repr(getattr(m, "req_id", "")))
def test_roundtrip(message):
    assert msg.decode(msg.encode(message)) == message


def test_request_header_is_tiny():
    """The whole point: component+method+id (+trace+deadline) in a handful
    of bytes."""
    encoded = msg.encode(msg.Request(1, 5, 2, b""))
    assert len(encoded) <= 9  # type + 3 varints + trace zeros + deadline zero


def test_request_trace_context_roundtrips():
    m = msg.Request(9, 3, 1, b"args", trace_id=2**62 + 5, parent_span_id=77)
    out = msg.decode(msg.encode(m))
    assert out == m
    assert out.trace_id == 2**62 + 5
    assert out.parent_span_id == 77


def test_empty_frame_rejected():
    with pytest.raises(TransportError, match="empty"):
        msg.decode(b"")


def test_unknown_kind_rejected():
    with pytest.raises(TransportError, match="unknown"):
        msg.decode(b"\xee\x01\x02")


def test_truncated_message_rejected():
    encoded = msg.encode(msg.Hello("compact", "version123"))
    with pytest.raises(TransportError, match="malformed"):
        msg.decode(encoded[:3])


def test_unicode_in_errors():
    m = msg.AppError(1, "Error", "bad thing: éñ→")
    assert msg.decode(msg.encode(m)) == m


def test_oversized_short_string_rejected():
    with pytest.raises(TransportError, match="too long"):
        msg.encode(msg.Hello("c" * 300, "v"))


def test_error_code_and_executed_survive():
    wire = msg.decode(
        msg.encode(
            msg.RpcError(1, int(errors.ErrorCode.RESOURCE_EXHAUSTED), "x", False)
        )
    )
    assert wire.code == int(errors.ErrorCode.RESOURCE_EXHAUSTED)
    assert wire.executed is False
    exc = errors.error_from_code(wire.code, wire.message, executed=wire.executed)
    assert isinstance(exc, errors.ResourceExhausted)
    assert exc.retryable and not exc.executed

    wire = msg.decode(msg.encode(msg.RpcError(1, int(errors.ErrorCode.INTERNAL), "x")))
    exc = errors.error_from_code(wire.code, wire.message, executed=wire.executed)
    assert not exc.retryable and exc.executed


def test_request_deadline_roundtrips():
    m = msg.Request(9, 3, 1, b"args", deadline_ms=200)
    assert msg.decode(msg.encode(m)).deadline_ms == 200
    assert msg.decode(msg.encode(msg.Request(1, 0, 0, b""))).deadline_ms == 0


#: Known-good wire bytes.  A round trip alone would pass a change made to
#: both encoder and decoder alike; these pin what the peer actually sees.
GOLDEN = [
    (
        msg.Request(300, 7, 2, b"\x01\x02", deadline_ms=2500),
        "03ac0207020000c4130102",
    ),
    (
        msg.Request(
            2**14, 129, 1, b"ab",
            trace_id=2**63 - 1, parent_span_id=2**62 + 5, deadline_ms=16384,
        ),
        "03808001810101ffffffffffffffff7f8580808080808080408080016162",
    ),
    (msg.Response(2**21 + 3, b"ok"), "04838080016f6b"),
    (
        msg.StreamChunk(128, msg.STREAM_END | msg.STREAM_RESP_DIR, b"tail"),
        "0b8001037461696c",
    ),
]


@pytest.mark.parametrize("message,wire", GOLDEN, ids=["request", "traced", "response", "chunk"])
def test_golden_wire_bytes(message, wire):
    assert msg.encode(message).hex() == wire
    decoded = msg.decode(bytes.fromhex(wire))
    assert decoded == message
    body = {msg.Request: "args", msg.Response: "result", msg.StreamChunk: "data"}
    assert type(getattr(decoded, body[type(decoded)])) is bytes  # the codec copies nothing more


#: Every width boundary of a LEB128 varint the headers carry.
boundaries = st.sampled_from([0, 127, 128, 16383, 16384, 2**63 - 1])


@settings(max_examples=150, deadline=None)
@given(
    ids=st.tuples(*[boundaries] * 6),
    body=st.binary(max_size=40),
)
def test_data_plane_roundtrips_at_varint_boundaries(ids, body):
    request = msg.Request(ids[0], ids[1], ids[2], body, ids[3], ids[4], ids[5])
    assert msg.decode(msg.encode(request)) == request
    response = msg.Response(ids[0], body)
    assert msg.decode(msg.encode(response)) == response


#: One varint of 1 MiB: continuation bytes all the way to the end of the frame.
_LONG_VARINT = b"\xff" * (1 << 20)


@pytest.mark.parametrize(
    "frame",
    [
        bytes([msg.REQUEST]) + _LONG_VARINT + b"\x00",
        bytes([msg.REQUEST]) + b"\x01\x01\x01\x00\x00" + _LONG_VARINT + b"\x00",
        bytes([msg.RESPONSE]) + _LONG_VARINT + b"\x00",
        bytes([msg.STREAM_CHUNK]) + _LONG_VARINT + b"\x00\x00",
    ],
    ids=["request_id", "request_deadline", "response", "chunk"],
)
def test_overlong_header_varint_rejected_quickly(frame):
    """Ids and budgets are below 2**64, so a header varint is at most ten
    bytes; a longer one is a broken peer, refused in time independent of
    its length instead of folded into an ever-growing int."""
    started = time.perf_counter()
    with pytest.raises(TransportError, match="varint"):
        msg.decode(frame)
    assert time.perf_counter() - started < 0.5

"""Wire messages of the custom RPC protocol.

Because all peers run the same deployment version (enforced by the
handshake), the protocol needs almost nothing per message: a type byte,
a varint request id, varint component/method ids, and the argument bytes.
Compare with the HTTP baseline (:mod:`repro.transport.http_rpc`), which
spells out component and method *names* in text headers on every request —
the per-message cost the paper's design deletes.

Decoding takes the owned ``bytes`` of one frame, as
:class:`repro.transport.framing.FrameParser` cuts them, and parses the
header in one pass.  A REQUEST's args and a RESPONSE's result come out as
``bytes`` slices of the frame — the one copy decoding makes — which the
codec reads without copying again.  Header varints are at most ten bytes.
Every call is one REQUEST frame and one reply frame, whatever its size: a
large payload differs only in the connection it rides (see
:data:`repro.transport.connection.BULK_BYTES`).

Message layouts (after the frame length prefix)::

    HELLO     0x01 | u8 codec_len | codec | u8 version_len | version
    WELCOME   0x02 | u8 codec_len | codec | u8 version_len | version
    REQUEST   0x03 | uvarint req_id | uvarint component_id
                   | uvarint method_index | trace | uvarint deadline_ms
                   | args bytes

``trace`` propagates the caller's span context as ``(trace_id,
parent_span_id)``: one flag byte, then the ids if they matter.  Flag 0 is
``(0, 0)``, no context; flag 1 is ``(0, 1)``, the context of an unsampled
trace (:data:`repro.observability.tracing.UNSAMPLED_CONTEXT`); flag 2 is
followed by both ids as little-endian u64s, and carries any other pair.
An untraced or unsampled call spends one byte on it, and a sampled one
17, packed and parsed by one ``struct`` call — the single-version luxury
of changing the protocol without a migration plan.  ``deadline_ms`` is
the caller's *remaining* budget for the call (zero = no deadline); each
hop re-derives it from its own clock, so no clock synchronization is
needed.
    RESPONSE  0x04 | uvarint req_id | result bytes
    APP_ERROR 0x05 | uvarint req_id | u16 type_len | type | message utf-8
    RPC_ERROR 0x06 | uvarint req_id | u8 code | u8 flags | message utf-8
    PING      0x07 | uvarint nonce
    PONG      0x08 | uvarint nonce

RPC_ERROR ``code`` is :class:`repro.core.errors.ErrorCode` (retryability is
derived from it on the receiving side); flags bit 0 is ``executed`` — did
the method body possibly run before the failure?
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Union

from repro.core.errors import DecodeError, TransportError
from repro.serde.base import Reader, read_uvarint, write_uvarint

HELLO = 0x01
WELCOME = 0x02
REQUEST = 0x03
RESPONSE = 0x04
APP_ERROR = 0x05
RPC_ERROR = 0x06
PING = 0x07
PONG = 0x08

#: The two ids of a trace context with flag 2.
_TRACE_IDS = struct.Struct("<QQ")


@dataclass(frozen=True)
class Hello:
    codec: str
    version: str


@dataclass(frozen=True)
class Welcome:
    codec: str
    version: str


class Request:
    """Hand-rolled (not a dataclass): this is allocated once per RPC on the
    server's hot path, and slots + plain ``__init__`` construct ~5x faster
    than a frozen dataclass."""

    __slots__ = (
        "req_id", "component_id", "method_index", "args",
        "trace_id", "parent_span_id", "deadline_ms",
    )

    def __init__(
        self,
        req_id: int,
        component_id: int,
        method_index: int,
        args: bytes,  # decode() hands out an owned slice of the frame
        trace_id: int = 0,
        parent_span_id: int = 0,
        deadline_ms: int = 0,  # remaining budget; 0 = no deadline
    ) -> None:
        self.req_id = req_id
        self.component_id = component_id
        self.method_index = method_index
        self.args = args
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id
        self.deadline_ms = deadline_ms

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is Request
            and self.req_id == other.req_id
            and self.component_id == other.component_id
            and self.method_index == other.method_index
            and self.args == other.args
            and self.trace_id == other.trace_id
            and self.parent_span_id == other.parent_span_id
            and self.deadline_ms == other.deadline_ms
        )

    def __repr__(self) -> str:
        return (
            f"Request(req_id={self.req_id}, component_id={self.component_id}, "
            f"method_index={self.method_index}, args={self.args!r}, "
            f"trace_id={self.trace_id}, parent_span_id={self.parent_span_id}, "
            f"deadline_ms={self.deadline_ms})"
        )


class Response:
    """Hand-rolled for the same reason as :class:`Request` (client hot path)."""

    __slots__ = ("req_id", "result")

    def __init__(self, req_id: int, result: bytes) -> None:
        self.req_id = req_id
        self.result = result

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is Response
            and self.req_id == other.req_id
            and self.result == other.result
        )

    def __repr__(self) -> str:
        return f"Response(req_id={self.req_id}, result={self.result!r})"


@dataclass(frozen=True)
class AppError:
    req_id: int
    exc_type: str
    message: str


@dataclass(frozen=True)
class RpcError:
    req_id: int
    code: int  # repro.core.errors.ErrorCode value
    message: str
    executed: bool = True  # may the method body have run?


@dataclass(frozen=True)
class Ping:
    nonce: int


@dataclass(frozen=True)
class Pong:
    nonce: int


Message = Union[Hello, Welcome, Request, Response, AppError, RpcError, Ping, Pong]


def encode(msg: Message) -> bytes:
    out = bytearray()
    encode_into(out, msg)
    return bytes(out)


def encode_request_prefix(
    out: bytearray,
    req_id: int,
    component_id: int,
    method_index: int,
    trace: "tuple[int, int]" = (0, 0),
    deadline_ms: int = 0,
) -> None:
    """Append a REQUEST header; the argument bytes follow as the frame body.

    The hot path calls this with the frame buffer itself (started by
    :func:`repro.transport.framing.new_frame`) so a request costs zero
    intermediate copies: args ride as a separate gather chunk.  The varint
    loop is inlined — four ``write_uvarint`` calls per request are
    measurable at data-plane rates.
    """
    out.append(REQUEST)
    for v in (req_id, component_id, method_index):
        while v > 0x7F:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
    if trace[0] or trace[1] > 1:
        out.append(2)
        out += _TRACE_IDS.pack(*trace)
    else:  # (0, 0) or UNSAMPLED_CONTEXT: the flag byte is the span id
        out.append(trace[1])
    while deadline_ms > 0x7F:
        out.append((deadline_ms & 0x7F) | 0x80)
        deadline_ms >>= 7
    out.append(deadline_ms)


def encode_response_prefix(out: bytearray, req_id: int) -> None:
    """Append a RESPONSE header; the result bytes follow as the frame body."""
    out.append(RESPONSE)
    v = req_id
    while v > 0x7F:
        out.append((v & 0x7F) | 0x80)
        v >>= 7
    out.append(v)


def encode_into(out: bytearray, msg: Message) -> None:
    """Append the full encoding of ``msg`` (header and body) to ``out``."""
    if isinstance(msg, Hello):
        out.append(HELLO)
        _short_str(out, msg.codec)
        _short_str(out, msg.version)
    elif isinstance(msg, Welcome):
        out.append(WELCOME)
        _short_str(out, msg.codec)
        _short_str(out, msg.version)
    elif isinstance(msg, Request):
        encode_request_prefix(
            out,
            msg.req_id,
            msg.component_id,
            msg.method_index,
            (msg.trace_id, msg.parent_span_id),
            msg.deadline_ms,
        )
        out += msg.args
    elif isinstance(msg, Response):
        encode_response_prefix(out, msg.req_id)
        out += msg.result
    elif isinstance(msg, AppError):
        out.append(APP_ERROR)
        write_uvarint(out, msg.req_id)
        # Exception text may hold lone surrogates (a surrogateescape'd file
        # name): escape them rather than fail to answer.
        t = msg.exc_type.encode("utf-8", "backslashreplace")[:65535]
        out += len(t).to_bytes(2, "big")
        out += t
        out += msg.message.encode("utf-8", "backslashreplace")
    elif isinstance(msg, RpcError):
        out.append(RPC_ERROR)
        write_uvarint(out, msg.req_id)
        out.append(msg.code & 0xFF)
        out.append(0x01 if msg.executed else 0x00)
        out += msg.message.encode("utf-8", "backslashreplace")
    elif isinstance(msg, Ping):
        out.append(PING)
        write_uvarint(out, msg.nonce)
    elif isinstance(msg, Pong):
        out.append(PONG)
        write_uvarint(out, msg.nonce)
    else:
        raise TransportError(f"cannot encode message {msg!r}")


def decode(frame: bytes) -> Message:
    """Decode one frame: owned ``bytes``, as the frame parser cuts them.

    REQUEST and RESPONSE are parsed inline, each varint's
    one-byte case on the spot, and their bodies handed out as ``bytes``
    slices of ``frame``.  A header varint longer than ten bytes is a
    :class:`TransportError`: ids and budgets are below ``2**64``, and
    refusing there keeps a hostile varint's cost bounded instead of
    quadratic in the frame's length.  Every other kind goes through
    :class:`Reader`.
    """
    if not frame:
        raise TransportError("empty frame")
    kind = frame[0]
    if kind == REQUEST or kind == RESPONSE:
        try:
            req_id = frame[1]
            pos = 2
            if req_id > 0x7F:
                req_id, pos = _uvarint_tail(frame, pos, req_id)
            if kind == RESPONSE:
                return Response(req_id, frame[pos:])
            component_id = frame[pos]
            pos += 1
            if component_id > 0x7F:
                component_id, pos = _uvarint_tail(frame, pos, component_id)
            method_index = frame[pos]
            pos += 1
            if method_index > 0x7F:
                method_index, pos = _uvarint_tail(frame, pos, method_index)
            flag = frame[pos]
            if flag < 2:  # (0, 0) or UNSAMPLED_CONTEXT
                trace_id, parent_span_id = 0, flag
                pos += 1
            else:
                trace_id, parent_span_id, pos = _trace_at(frame, pos)
            deadline_ms = frame[pos]
            pos += 1
            if deadline_ms > 0x7F:
                deadline_ms, pos = _uvarint_tail(frame, pos, deadline_ms)
        except IndexError as exc:
            raise TransportError(
                f"malformed message of kind {kind}: truncated header"
            ) from exc
        return Request(
            req_id, component_id, method_index, frame[pos:],
            trace_id, parent_span_id, deadline_ms,
        )
    r = Reader(frame, 1)
    try:
        if kind == HELLO:
            return Hello(_read_short_str(r), _read_short_str(r))
        if kind == WELCOME:
            return Welcome(_read_short_str(r), _read_short_str(r))
        if kind == APP_ERROR:
            req_id = read_uvarint(r)
            tlen = int.from_bytes(r.take(2), "big")
            exc_type = str(r.view(tlen), "utf-8")
            return AppError(req_id, exc_type, str(r.rest(), "utf-8"))
        if kind == RPC_ERROR:
            req_id = read_uvarint(r)
            code = r.byte()
            executed = r.byte() & 0x01 != 0
            return RpcError(req_id, code, str(r.rest(), "utf-8"), executed)
        if kind == PING:
            return Ping(read_uvarint(r))
        if kind == PONG:
            return Pong(read_uvarint(r))
    except (DecodeError, UnicodeDecodeError) as exc:
        raise TransportError(f"malformed message of kind {kind}: {exc}") from exc
    raise TransportError(f"unknown message kind {kind}")


def _uvarint_tail(frame: bytes, pos: int, n: int) -> "tuple[int, int]":
    """Finish a header varint whose first byte ``n`` had its high bit set;
    ``pos`` is the index of its second byte."""
    n &= 0x7F
    shift = 7
    while shift < 64:
        b = frame[pos]
        pos += 1
        n |= (b & 0x7F) << shift
        if b < 0x80:
            return n, pos
        shift += 7
    raise TransportError("header varint longer than 10 bytes")


def _trace_at(frame: bytes, pos: int) -> "tuple[int, int, int]":
    """Read the trace context whose flag byte, at ``pos``, is not 0 or 1
    (those the caller reads inline): its two ids and the position after it."""
    try:
        flag = frame[pos]
        if flag == 2:
            trace_id, span_id = _TRACE_IDS.unpack_from(frame, pos + 1)
            return trace_id, span_id, pos + 1 + _TRACE_IDS.size
    except (IndexError, struct.error) as exc:
        raise TransportError("malformed message: truncated trace context") from exc
    raise TransportError(f"unknown trace context flag {flag}")


def _short_str(out: bytearray, s: str) -> None:
    data = s.encode("utf-8")
    if len(data) > 255:
        raise TransportError(f"string too long for short encoding: {len(data)}")
    out.append(len(data))
    out += data


def _read_short_str(r: Reader) -> str:
    return str(r.view(r.byte()), "utf-8")

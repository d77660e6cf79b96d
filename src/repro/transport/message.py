"""Wire messages of the custom RPC protocol.

Because all peers run the same deployment version (enforced by the
handshake), the protocol needs almost nothing per message: a type byte,
a varint request id, varint component/method ids, and the argument bytes.
Compare with the HTTP baseline (:mod:`repro.transport.http_rpc`), which
spells out component and method *names* in text headers on every request —
the per-message cost the paper's design deletes.

Decoding takes the owned ``bytes`` of one frame, as
:class:`repro.transport.framing.FrameParser` cuts them, and parses the
header in one pass.  A REQUEST's args, a RESPONSE's result and a
STREAM_CHUNK's data come out as ``bytes`` slices of the frame — the one
copy decoding makes — which the codec reads without copying again.
Header varints are at most ten bytes.

Message layouts (after the frame length prefix)::

    HELLO     0x01 | u8 codec_len | codec | u8 version_len | version
    WELCOME   0x02 | u8 codec_len | codec | u8 version_len | version
    REQUEST   0x03 | uvarint req_id | uvarint component_id
                   | uvarint method_index | uvarint trace_id
                   | uvarint parent_span_id | uvarint deadline_ms
                   | args bytes

Trace ids propagate the caller's span context (zero = untraced); they cost
one byte each when tracing is off — the single-version luxury of changing
the protocol without a migration plan.  ``deadline_ms`` is the caller's
*remaining* budget for the call (zero = no deadline); each hop re-derives
it from its own clock, so no clock synchronization is needed.
    RESPONSE  0x04 | uvarint req_id | result bytes
    APP_ERROR 0x05 | uvarint req_id | u16 type_len | type | message utf-8
    RPC_ERROR 0x06 | uvarint req_id | u8 code | u8 flags | message utf-8
    PING      0x07 | uvarint nonce
    PONG      0x08 | uvarint nonce

RPC_ERROR ``code`` is :class:`repro.core.errors.ErrorCode` (retryability is
derived from it on the receiving side); flags bit 0 is ``executed`` — did
the method body possibly run before the failure?

Streaming (§5.1's "runtime owns the transport" applied to large payloads):
a request or response bigger than the stream threshold travels as a
sequence of bounded chunks instead of one giant frame, so it never
monopolizes the write coalescer and can exceed ``MAX_FRAME``::

    STREAM_OPEN   0x09 | uvarint req_id | uvarint component_id
                       | uvarint method_index | uvarint trace_id
                       | uvarint parent_span_id | uvarint deadline_ms
                       | uvarint total_len
    STREAM_RESP   0x0A | uvarint req_id | uvarint total_len
    STREAM_CHUNK  0x0B | uvarint req_id | u8 flags | chunk bytes
    STREAM_CREDIT 0x0C | uvarint req_id | u8 flags | uvarint bytes
    STREAM_CANCEL 0x0D | uvarint req_id | u8 flags

Stream flags: bit 0 (``STREAM_END``) marks the final chunk; bit 1
(``STREAM_RESP_DIR``) says the message concerns the *response* stream of
``req_id`` rather than the request upload (both directions may be active
for the same id at once — the id spaces of the two peers are independent);
bit 2 (``STREAM_TO_SENDER``, CANCEL only) addresses the cancel at the
stream's sender ("stop transmitting") instead of its receiver ("discard
what I sent").  CREDIT grants the sender permission to transmit that many
more payload bytes — receiver-paced flow control, so a slow consumer
bounds the producer's memory instead of the other way round.
"""

from __future__ import annotations

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
STREAM_OPEN = 0x09
STREAM_RESP = 0x0A
STREAM_CHUNK = 0x0B
STREAM_CREDIT = 0x0C
STREAM_CANCEL = 0x0D

#: Stream flag bits (shared by CHUNK / CREDIT / CANCEL).
STREAM_END = 0x01
STREAM_RESP_DIR = 0x02
STREAM_TO_SENDER = 0x04


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


@dataclass(frozen=True)
class StreamOpen:
    """Opens a chunked *request* upload for ``req_id``."""

    req_id: int
    component_id: int
    method_index: int
    trace_id: int = 0
    parent_span_id: int = 0
    deadline_ms: int = 0
    total_len: int = 0


@dataclass(frozen=True)
class StreamResp:
    """Opens a chunked *response* download for ``req_id``."""

    req_id: int
    total_len: int = 0


class StreamChunk:
    """One bounded slice of a streamed payload (hot path: slots, no dataclass)."""

    __slots__ = ("req_id", "flags", "data")

    def __init__(self, req_id: int, flags: int, data: bytes) -> None:
        self.req_id = req_id
        self.flags = flags
        self.data = data

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is StreamChunk
            and self.req_id == other.req_id
            and self.flags == other.flags
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return (
            f"StreamChunk(req_id={self.req_id}, flags={self.flags:#x}, "
            f"data=<{len(self.data)} bytes>)"
        )


@dataclass(frozen=True)
class StreamCredit:
    """Receiver grants the sender ``bytes_`` more payload bytes in flight."""

    req_id: int
    flags: int
    bytes_: int


@dataclass(frozen=True)
class StreamCancel:
    """Abort a stream mid-flight (direction per ``flags``)."""

    req_id: int
    flags: int


Message = Union[
    Hello, Welcome, Request, Response, AppError, RpcError, Ping, Pong,
    StreamOpen, StreamResp, StreamChunk, StreamCredit, StreamCancel,
]


def encode(msg: Message) -> bytes:
    out = bytearray()
    encode_into(out, msg)
    return bytes(out)


def encode_request_prefix(
    out: bytearray,
    req_id: int,
    component_id: int,
    method_index: int,
    trace_id: int = 0,
    parent_span_id: int = 0,
    deadline_ms: int = 0,
) -> None:
    """Append a REQUEST header; the argument bytes follow as the frame body.

    The hot path calls this with the frame buffer itself (started by
    :func:`repro.transport.framing.new_frame`) so a request costs zero
    intermediate copies: args ride as a separate gather chunk.  The varint
    loop is inlined — six ``write_uvarint`` calls per request are
    measurable at data-plane rates.
    """
    out.append(REQUEST)
    for v in (req_id, component_id, method_index, trace_id, parent_span_id,
              deadline_ms):
        while v > 0x7F:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)


def encode_response_prefix(out: bytearray, req_id: int) -> None:
    """Append a RESPONSE header; the result bytes follow as the frame body."""
    out.append(RESPONSE)
    v = req_id
    while v > 0x7F:
        out.append((v & 0x7F) | 0x80)
        v >>= 7
    out.append(v)


def encode_stream_chunk_prefix(out: bytearray, req_id: int, flags: int) -> None:
    """Append a STREAM_CHUNK header; the chunk bytes follow as the frame body.

    The hot streaming path calls this with the frame buffer itself so each
    chunk rides zero-copy as a separate gather chunk, exactly like REQUEST
    args do.
    """
    out.append(STREAM_CHUNK)
    v = req_id
    while v > 0x7F:
        out.append((v & 0x7F) | 0x80)
        v >>= 7
    out.append(v)
    out.append(flags & 0xFF)


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
            msg.trace_id,
            msg.parent_span_id,
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
    elif isinstance(msg, StreamOpen):
        out.append(STREAM_OPEN)
        for v in (msg.req_id, msg.component_id, msg.method_index, msg.trace_id,
                  msg.parent_span_id, msg.deadline_ms, msg.total_len):
            write_uvarint(out, v)
    elif isinstance(msg, StreamResp):
        out.append(STREAM_RESP)
        write_uvarint(out, msg.req_id)
        write_uvarint(out, msg.total_len)
    elif isinstance(msg, StreamChunk):
        encode_stream_chunk_prefix(out, msg.req_id, msg.flags)
        out += msg.data
    elif isinstance(msg, StreamCredit):
        out.append(STREAM_CREDIT)
        write_uvarint(out, msg.req_id)
        out.append(msg.flags & 0xFF)
        write_uvarint(out, msg.bytes_)
    elif isinstance(msg, StreamCancel):
        out.append(STREAM_CANCEL)
        write_uvarint(out, msg.req_id)
        out.append(msg.flags & 0xFF)
    else:
        raise TransportError(f"cannot encode message {msg!r}")


def decode(frame: bytes) -> Message:
    """Decode one frame: owned ``bytes``, as the frame parser cuts them.

    REQUEST, RESPONSE and STREAM_CHUNK are parsed inline, each varint's
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
    if kind == REQUEST or kind == RESPONSE or kind == STREAM_CHUNK:
        try:
            req_id = frame[1]
            pos = 2
            if req_id > 0x7F:
                req_id, pos = _uvarint_tail(frame, pos, req_id)
            if kind == RESPONSE:
                return Response(req_id, frame[pos:])
            if kind == STREAM_CHUNK:
                return StreamChunk(req_id, frame[pos], frame[pos + 1 :])
            component_id = frame[pos]
            pos += 1
            if component_id > 0x7F:
                component_id, pos = _uvarint_tail(frame, pos, component_id)
            method_index = frame[pos]
            pos += 1
            if method_index > 0x7F:
                method_index, pos = _uvarint_tail(frame, pos, method_index)
            trace_id = frame[pos]
            pos += 1
            if trace_id > 0x7F:
                trace_id, pos = _uvarint_tail(frame, pos, trace_id)
            parent_span_id = frame[pos]
            pos += 1
            if parent_span_id > 0x7F:
                parent_span_id, pos = _uvarint_tail(frame, pos, parent_span_id)
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
        if kind == STREAM_OPEN:
            return StreamOpen(*(read_uvarint(r) for _ in range(7)))
        if kind == STREAM_RESP:
            return StreamResp(read_uvarint(r), read_uvarint(r))
        if kind == STREAM_CREDIT:
            return StreamCredit(read_uvarint(r), r.byte(), read_uvarint(r))
        if kind == STREAM_CANCEL:
            return StreamCancel(read_uvarint(r), r.byte())
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


def _short_str(out: bytearray, s: str) -> None:
    data = s.encode("utf-8")
    if len(data) > 255:
        raise TransportError(f"string too long for short encoding: {len(data)}")
    out.append(len(data))
    out += data


def _read_short_str(r: Reader) -> str:
    return str(r.view(r.byte()), "utf-8")

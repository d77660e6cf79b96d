"""Length-prefixed framing over a byte stream, with optional compression.

The paper's prototype uses "a streamlined transport protocol built directly
on top of TCP" (§6).  Ours frames every message as a 4-byte big-endian
length followed by the payload — no headers, no text, no per-message
metadata beyond what :mod:`repro.transport.message` packs inside.

§5.1 notes that because transport is abstracted from the developer, "for
network bottlenecked applications ... the runtime may decide to compress
messages on the wire."  That decision lives here: the top bit of the
length word marks a zlib-compressed frame, so each frame self-describes
and compression can be enabled per sender (a runtime policy), not
negotiated.  Senders compress only when a frame exceeds
``COMPRESS_THRESHOLD`` *and* compression actually shrank it.

A maximum frame size bounds memory per connection; a peer announcing a
larger frame is cut off rather than allowed to balloon the process.  The
cap holds for what a compressed frame *inflates* to as well: inflation
stops within ``INFLATE_STEP`` bytes past ``MAX_FRAME``, so a small frame
of compressed zeros cannot make the receiver allocate gigabytes before it
is rejected.

Writing is :func:`new_frame` + :func:`frame_chunks`: a frame is built
directly in one ``bytearray`` whose first ``HEADER`` bytes are reserved for
the length word (patched in place by ``frame_chunks``), and a large payload
travels as a *separate* chunk so it is never copied into the frame buffer.
:class:`repro.transport.connection.Connection` hands the chunks to its
transport, many frames per ``writelines`` under load (adaptive write
coalescing).  Reading is :class:`FrameParser`, fed a ``memoryview`` of
whatever one socket read delivered into the connection's lent read buffer
— memory the next read, possibly another connection's, overwrites — so
the parser keeps nothing that aliases its input; :func:`take_frame` reads
the one handshake frame each way under a much smaller cap than
``MAX_FRAME``.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional, Union

from repro.core.errors import TransportError

#: 64 MiB: far above any boutique payload, far below anything sane to buffer.
MAX_FRAME = 64 * 1024 * 1024

#: Frames below this size are never compressed (zlib overhead dominates).
COMPRESS_THRESHOLD = 512

#: Most bytes one inflation step produces before the size is checked again.
INFLATE_STEP = 64 * 1024

_LEN = struct.Struct(">I")
_COMPRESSED_BIT = 0x8000_0000
_LENGTH_BITS = _COMPRESSED_BIT - 1

#: Bytes reserved at the front of a frame buffer for the length word.
HEADER = _LEN.size

Buffer = Union[bytes, bytearray, memoryview]


def new_frame() -> bytearray:
    """Start a frame: ``HEADER`` reserved bytes, message body appended after."""
    return bytearray(HEADER)


def frame_chunks(
    head: bytearray, payload: Buffer = b"", *, compress: bool = False
) -> tuple:
    """Seal a frame started with :func:`new_frame` into wire-ready chunks.

    ``head`` is the frame buffer (reserved length word plus any message
    prefix already appended); ``payload`` rides as a separate chunk so big
    argument/result buffers are never copied (writev-style gather output).
    Ownership of both buffers transfers to the transport: the caller must
    not mutate them after this call.

    Compression — when enabled, the body is big enough, and zlib actually
    shrinks it — is the one path that materializes a contiguous copy.
    """
    body_len = len(head) - HEADER + len(payload)
    if body_len > MAX_FRAME:
        raise TransportError(f"frame of {body_len} bytes exceeds MAX_FRAME")
    if compress and body_len >= COMPRESS_THRESHOLD:
        body = b"".join((memoryview(head)[HEADER:], payload))
        squeezed = zlib.compress(body, level=1)
        if len(squeezed) < body_len:
            return (_LEN.pack(len(squeezed) | _COMPRESSED_BIT), squeezed)
    _LEN.pack_into(head, 0, body_len)
    return (head, payload) if len(payload) else (head,)


class FrameParser:
    """Incremental frame parser for batched reads (read-side coalescing).

    The connection feeds it whatever one socket read delivered — under
    load, dozens of frames a coalescing peer flushed together — and
    :meth:`feed` hands back every complete payload as owned ``bytes``,
    decompressed when the frame flags it.  The chunk is a view of a read
    buffer the next read overwrites, so each read is copied once into an
    immutable ``bytes`` and the frames are sliced from that.  Only a
    partial frame at the end is staged, in the parser's own buffer; reads
    that cannot complete it are appended and nothing more, so a frame
    spread over many reads costs time linear in its size.
    """

    __slots__ = ("_tail", "_need")

    def __init__(self) -> None:
        self._tail = bytearray()
        #: How long the staged tail must grow before it can hold a frame.
        self._need = 0

    @property
    def mid_frame(self) -> bool:
        """True if EOF now would cut a frame short."""
        return len(self._tail) > 0

    def feed(self, chunk: Buffer) -> list:
        """Absorb ``chunk``; return the payloads of all completed frames."""
        tail = self._tail
        if tail:
            tail += chunk
            if len(tail) < self._need:
                return []
            data = bytes(tail)
            tail.clear()
        else:
            data = bytes(chunk)
        frames: list = []
        pos = 0
        have = len(data)
        while have - pos >= HEADER:
            (word,) = _LEN.unpack_from(data, pos)
            length = word & _LENGTH_BITS
            if length > MAX_FRAME:
                raise TransportError(
                    f"peer announced frame of {length} bytes (> MAX_FRAME)"
                )
            end = pos + HEADER + length
            if end > have:
                break
            payload = data[pos + HEADER : end]
            if word & _COMPRESSED_BIT:
                payload = _inflate(payload)
            frames.append(payload)
            pos = end
        if pos < have:
            tail += memoryview(data)[pos:]
            self._need = end - pos if have - pos >= HEADER else HEADER
        return frames


def _inflate(data: bytes) -> bytes:
    """Decompress one frame body, rejecting it as soon as its output passes
    ``MAX_FRAME``: at most ``MAX_FRAME + INFLATE_STEP`` bytes are ever
    inflated, however far the stream would go.

    Stepping, rather than one ``decompress(data, MAX_FRAME + 1)``, also
    keeps a rejected frame from costing twice the cap: zlib joins its
    output blocks into a fresh ``bytes`` at the end of each call.
    """
    inflater = zlib.decompressobj()
    pieces = []
    size = 0
    try:
        while not inflater.eof:
            piece = inflater.decompress(data, INFLATE_STEP)
            data = inflater.unconsumed_tail
            if not (piece or data or inflater.eof):
                raise TransportError("corrupt compressed frame: truncated stream")
            size += len(piece)
            if size > MAX_FRAME:
                raise TransportError("decompressed frame exceeds MAX_FRAME")
            pieces.append(piece)
    except zlib.error as exc:
        raise TransportError(f"corrupt compressed frame: {exc}") from exc
    return b"".join(pieces)


def take_frame(buf: bytearray, limit: int) -> Optional[bytes]:
    """Remove one uncompressed frame of at most ``limit`` bytes from the
    front of ``buf`` and return its payload; None if it is not all there.

    For the handshake, which must not let an unauthenticated peer announce
    ``MAX_FRAME`` bytes.  A set compressed bit reads as a length above any
    ``limit``.
    """
    if len(buf) < HEADER:
        return None
    (length,) = _LEN.unpack_from(buf)
    if length > limit:
        raise TransportError(f"peer announced frame of {length} bytes (> {limit})")
    end = HEADER + length
    if len(buf) < end:
        return None
    payload = bytes(buf[HEADER:end])
    del buf[:end]
    return payload

"""What the wire formats and the transport share: the :class:`Codec`
interface, :func:`build_struct` for the JSON codec, and the varint
:class:`Reader` the transport's message headers are read with
(:mod:`repro.transport.message`).  The two binary codecs need none of it
beyond the interface: they are generated source (:mod:`repro.serde.compact`).
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.core.errors import DecodeError
from repro.codegen.schema import Schema


class Reader:
    """A positional reader over ``bytes``, ``bytearray``, or ``memoryview``.

    Bounds are checked on every read; a truncated buffer raises
    :class:`DecodeError` rather than ``IndexError`` so callers can treat all
    malformed input uniformly.  :func:`repro.transport.message.decode`
    reads the less common message kinds' headers with it.

    :meth:`view` and :meth:`rest` hand out borrowed windows when the buffer
    is a :class:`memoryview`, valid only while it lives; :meth:`take`
    materializes owned ``bytes``.
    """

    __slots__ = ("buf", "pos")

    def __init__(self, buf: "bytes | bytearray | memoryview", pos: int = 0) -> None:
        self.buf = buf
        self.pos = pos

    def take(self, n: int) -> bytes:
        """Consume ``n`` bytes, materialized as owned ``bytes``."""
        out = self.view(n)
        return out if type(out) is bytes else bytes(out)

    def view(self, n: int) -> "bytes | memoryview":
        """Consume ``n`` bytes without copying when the buffer is a view."""
        end = self.pos + n
        if n < 0 or end > len(self.buf):
            raise DecodeError(
                f"truncated buffer: need {n} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos}"
            )
        out = self.buf[self.pos : end]
        self.pos = end
        return out

    def rest(self) -> "bytes | memoryview":
        """Consume the unread remainder without copying when view-backed."""
        out = self.buf[self.pos :]
        self.pos = len(self.buf)
        return out

    def byte(self) -> int:
        if self.pos >= len(self.buf):
            raise DecodeError(f"truncated buffer: need 1 byte at offset {self.pos}")
        b = self.buf[self.pos]
        self.pos += 1
        return b


def write_uvarint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(r: Reader) -> int:
    shift = 0
    result = 0
    while True:
        b = r.byte()
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result
        shift += 7
        # Python ints are arbitrary precision; the bound exists only to cut
        # off unterminated varints from corrupt buffers, so it is generous.
        if shift > 9100:
            raise DecodeError("uvarint too long (corrupt buffer)")


def build_struct(schema: Schema, values: list) -> Any:
    """An instance of ``schema.cls`` from its field values in schema order:
    ``kw_only`` fields go by keyword, the others positionally."""
    fields = schema.fields
    for f in fields:
        if f.kw_only:
            break
    else:  # none: the common case costs one scan, not a split
        return schema.cls(*values)
    return schema.cls(
        *[v for f, v in zip(fields, values) if not f.kw_only],
        **{f.name: v for f, v in zip(fields, values) if f.kw_only},
    )


class Codec(Protocol):
    """The interface all three wire formats implement."""

    name: str

    def encode(self, schema: Schema, value: Any) -> bytes:
        """Serialize ``value`` (which must conform to ``schema``)."""
        ...

    def encode_into(self, schema: Schema, value: Any, out: bytearray) -> None:
        """Append the serialization of ``value`` to a caller-supplied buffer.

        The zero-copy sibling of :meth:`encode`: the transport passes the
        very buffer it will enqueue on the wire, so no intermediate
        ``bytes()`` materialization happens on the hot path.
        """
        ...

    def decode(self, schema: Schema, data: "bytes | bytearray | memoryview") -> Any:
        """Deserialize a buffer produced by :meth:`encode` with ``schema``.

        Accepts any bytes-like object; the generated binary codecs walk a
        ``bytes`` and copy any other input once.
        """
        ...

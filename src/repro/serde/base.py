"""Shared primitives for the wire formats.

Three codecs live in this package:

* :mod:`repro.serde.compact` — the paper's custom format: fields in schema
  order, no tags, no type info (Section 6).  Valid only when both peers run
  the same deployment version.
* :mod:`repro.serde.tagged` — a protobuf-style tagged binary format: every
  field carries a varint key ``(field_number << 3) | wire_type`` so old and
  new readers can skip unknown fields.  This is the status-quo baseline.
* :mod:`repro.serde.jsoncodec` — JSON with field names, the other status-quo
  format the paper cites as inefficient.

The two baselines (and the transport's own message headers) share the
varint and buffer machinery defined here.  The compact codec does not: it
generates source with these primitives inlined, so since that change a
compact-vs-tagged timing compares implementations as well as formats.
"""

from __future__ import annotations

import struct
from typing import Any, Protocol

from repro.core.errors import DecodeError
from repro.codegen.schema import Schema

_FLOAT = struct.Struct("<d")


class Reader:
    """A positional reader over ``bytes``, ``bytearray``, or ``memoryview``.

    Bounds are checked on every read; a truncated buffer raises
    :class:`DecodeError` rather than ``IndexError`` so callers can treat all
    malformed input uniformly.

    Zero-copy contract: a decoder wraps each incoming frame in a
    single :class:`memoryview` and hands out *borrowed* windows via
    :meth:`view` and :meth:`rest` — no byte is copied until a decoder
    materializes it.  Borrowed views are valid only while the backing
    buffer lives; anything that outlives the decode call (``bytes`` fields,
    decoded strings) must be materialized, which is exactly what
    :meth:`take` and ``str(view, "utf-8")`` do.
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

    def eof(self) -> bool:
        return self.pos >= len(self.buf)


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


def zigzag(value: int) -> int:
    """Map signed to unsigned so small magnitudes stay small on the wire.

    Works for arbitrary-precision Python ints: 0,-1,1,-2,2 -> 0,1,2,3,4.
    """
    return -2 * value - 1 if value < 0 else 2 * value


def unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def write_svarint(out: bytearray, value: int) -> None:
    write_uvarint(out, zigzag(value))


def read_svarint(r: Reader) -> int:
    return unzigzag(read_uvarint(r))


def write_float(out: bytearray, value: float) -> None:
    out += _FLOAT.pack(value)


def read_float(r: Reader) -> float:
    return _FLOAT.unpack(r.take(8))[0]


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

        Accepts any bytes-like object; the baselines decode from a
        ``memoryview`` without copying until leaf values are materialized.
        """
        ...

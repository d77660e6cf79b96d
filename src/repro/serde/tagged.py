"""A protobuf-style tagged binary format — the status-quo baseline.

This is the format the paper argues the industry is forced into by
independently released binaries: every struct field carries a varint key
``(field_number << 3) | wire_type`` so a reader built from an older or newer
schema can skip fields it does not know.  That robustness costs bytes (one
key per field, length prefixes for nesting) and CPU (key parsing, wire-type
dispatch, skip logic) — exactly the overhead the compact format avoids.

Wire types (a faithful subset of the protobuf encoding):

* ``0`` VARINT — bool, int (zigzag), enum
* ``1`` FIXED64 — float
* ``2`` LEN — str, bytes, nested struct, packed list/set/tuple, dict entry

Proto3-like semantics are preserved: encoders omit nothing (we always write
present fields, including defaults, to keep decoding deterministic), and
decoders tolerate unknown field numbers and fill absent fields with zero
values.  Field numbers are assigned from declaration order (1-based), which
is how version-skew bugs creep into real systems — reordering fields changes
meaning silently.  The rollout experiments (E10) exploit exactly this.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.codegen.schema import Kind, Schema
from repro.core.errors import DecodeError, EncodeError
from repro.serde.base import (
    Reader,
    build_struct,
    read_float,
    read_uvarint,
    unzigzag,
    write_float,
    write_uvarint,
    zigzag,
)

VARINT = 0
FIXED64 = 1
LEN = 2

Encoder = Callable[[bytearray, Any], None]
Decoder = Callable[[Reader], Any]


class TaggedCodec:
    """Protobuf-wire-format-style codec with per-field tags."""

    name = "tagged"

    def __init__(self) -> None:
        self._struct_encoders: dict[Schema, Encoder] = {}
        self._struct_decoders: dict[Schema, Decoder] = {}

    # -- public API ---------------------------------------------------------

    def encode(self, schema: Schema, value: Any) -> bytes:
        out = bytearray()
        self.encode_into(schema, value, out)
        return bytes(out)

    def encode_into(self, schema: Schema, value: Any, out: bytearray) -> None:
        """Append the encoding to ``out`` — no intermediate materialization."""
        try:
            if schema.kind is Kind.STRUCT:
                self._struct_encoder(schema)(out, value)
            else:
                # Non-struct top level: wrap as a synthetic single-field
                # message, as gRPC method signatures do.
                self._encode_field(out, 1, schema, value)
        except (TypeError, AttributeError, ValueError, KeyError) as exc:
            raise EncodeError(
                f"value {value!r} does not conform to schema {schema.canonical()}: {exc}"
            ) from exc

    def decode(self, schema: Schema, data: "bytes | bytearray | memoryview") -> Any:
        r = Reader(data if isinstance(data, memoryview) else memoryview(data))
        if schema.kind is Kind.STRUCT:
            return self._struct_decoder(schema)(r)
        fields = {1: schema}
        values = self._decode_message(r, fields)
        if 1 in values:
            return values[1]
        return _zero_value(schema)

    # -- encoding -----------------------------------------------------------

    def _struct_encoder(self, schema: Schema) -> Encoder:
        try:
            return self._struct_encoders[schema]
        except KeyError:
            pass
        plan = [(i + 1, f.name, f.schema) for i, f in enumerate(schema.fields)]

        def enc(out: bytearray, value: Any) -> None:
            for number, name, fschema in plan:
                self._encode_field(out, number, fschema, getattr(value, name))

        self._struct_encoders[schema] = enc
        return enc

    def _encode_field(self, out: bytearray, number: int, schema: Schema, value: Any) -> None:
        kind = schema.kind
        if kind is Kind.OPTIONAL:
            if value is None:
                return  # absence encodes None, like proto3 optional
            self._encode_field(out, number, schema.args[0], value)
            return
        if kind is Kind.NONE:
            return
        if kind is Kind.BOOL:
            _key(out, number, VARINT)
            write_uvarint(out, 1 if value else 0)
        elif kind is Kind.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise EncodeError(f"expected int, got {type(value).__name__}")
            _key(out, number, VARINT)
            write_uvarint(out, zigzag(value))
        elif kind is Kind.ENUM:
            index = list(schema.cls).index(value)
            _key(out, number, VARINT)
            write_uvarint(out, index)
        elif kind is Kind.FLOAT:
            _key(out, number, FIXED64)
            write_float(out, float(value))
        elif kind is Kind.STR:
            data = value.encode("utf-8")
            _key(out, number, LEN)
            write_uvarint(out, len(data))
            out += data
        elif kind is Kind.BYTES:
            _key(out, number, LEN)
            write_uvarint(out, len(value))
            out += value
        elif kind in (Kind.LIST, Kind.SET):
            # Repeated field: one tagged entry per element (unpacked
            # repeated encoding, the general proto2/proto3 form).  An empty
            # container is simply absent from the wire; decoders restore it
            # as the zero value, as proto3 does.  Nested containers must be
            # wrapped in a synthetic single-field message, because repeated
            # repeated fields do not exist in the tag encoding.
            elem = schema.args[0]
            if elem.kind in (Kind.LIST, Kind.SET, Kind.DICT):
                for item in value:
                    body = bytearray()
                    self._encode_field(body, 1, elem, item)
                    _key(out, number, LEN)
                    write_uvarint(out, len(body))
                    out += body
            else:
                for item in value:
                    self._encode_field(out, number, elem, item)
        elif kind is Kind.TUPLE:
            body = bytearray()
            if len(schema.args) == 2 and schema.args[1].kind is Kind.ANY:
                # Variable-length tuple: encode as a list at field 1, which
                # is exactly how the decoder reads it back.
                as_list = Schema(Kind.LIST, args=(schema.args[0],))
                self._encode_field(body, 1, as_list, list(value))
            else:
                if len(value) != len(schema.args):
                    raise EncodeError(
                        f"tuple length {len(value)} != schema arity {len(schema.args)}"
                    )
                for i, (aschema, item) in enumerate(zip(schema.args, value)):
                    self._encode_field(body, i + 1, aschema, item)
            _key(out, number, LEN)
            write_uvarint(out, len(body))
            out += body
        elif kind is Kind.DICT:
            # Proto map encoding: repeated entries, each a nested message
            # with key=field 1, value=field 2.
            kschema, vschema = schema.args
            for k, v in value.items():
                entry = bytearray()
                self._encode_field(entry, 1, kschema, k)
                self._encode_field(entry, 2, vschema, v)
                _key(out, number, LEN)
                write_uvarint(out, len(entry))
                out += entry
        elif kind is Kind.STRUCT:
            body = bytearray()
            self._struct_encoder(schema)(body, value)
            _key(out, number, LEN)
            write_uvarint(out, len(body))
            out += body
        else:
            raise EncodeError(f"cannot encode schema kind {kind}")

    # -- decoding -----------------------------------------------------------

    def _struct_decoder(self, schema: Schema) -> Decoder:
        try:
            return self._struct_decoders[schema]
        except KeyError:
            pass
        field_schemas = {i + 1: f.schema for i, f in enumerate(schema.fields)}
        names = [f.name for f in schema.fields]

        def dec(r: Reader) -> Any:
            values = self._decode_message(r, field_schemas)
            args = []
            for i, (name, f) in enumerate(zip(names, schema.fields)):
                number = i + 1
                if number in values:
                    args.append(values[number])
                else:
                    args.append(_zero_value(f.schema))
            return build_struct(schema, args)

        self._struct_decoders[schema] = dec
        return dec

    def _decode_message(self, r: Reader, field_schemas: dict[int, Schema]) -> dict[int, Any]:
        """Decode tagged fields until EOF, skipping unknown field numbers."""
        values: dict[int, Any] = {}
        while not r.eof():
            key = read_uvarint(r)
            number = key >> 3
            wtype = key & 0x7
            schema = field_schemas.get(number)
            if schema is None:
                _skip(r, wtype)
                continue
            self._decode_field(r, wtype, schema, number, values)
        return values

    def _decode_field(
        self,
        r: Reader,
        wtype: int,
        schema: Schema,
        number: int,
        values: dict[int, Any],
    ) -> None:
        kind = schema.kind
        if kind is Kind.OPTIONAL:
            self._decode_field(r, wtype, schema.args[0], number, values)
            return
        if kind in (Kind.LIST, Kind.SET):
            elem = schema.args[0]
            bucket = values.setdefault(number, [] if kind is Kind.LIST else set())
            if elem.kind in (Kind.LIST, Kind.SET, Kind.DICT):
                # Wrapped nested container: one LEN entry per element.
                _expect(wtype, LEN, number)
                n = read_uvarint(r)
                body = Reader(r.view(n))
                inner = self._decode_message(body, {1: elem})
                _add(bucket, inner.get(1, _zero_value(elem)))
            else:
                item_values: dict[int, Any] = {}
                self._decode_field(r, wtype, elem, number, item_values)
                if number in item_values:
                    _add(bucket, item_values[number])
            return
        if kind is Kind.DICT:
            if wtype != LEN:
                raise DecodeError(f"map field {number} must be length-delimited")
            n = read_uvarint(r)
            body = Reader(r.view(n))
            bucket = values.setdefault(number, {})
            kschema, vschema = schema.args
            entry = self._decode_message(body, {1: kschema, 2: vschema})
            key = entry.get(1, _zero_value(kschema))
            val = entry.get(2, _zero_value(vschema))
            bucket[key] = val
            return

        values[number] = self._decode_scalar(r, wtype, schema, number)

    def _decode_scalar(self, r: Reader, wtype: int, schema: Schema, number: int) -> Any:
        kind = schema.kind
        if kind is Kind.BOOL:
            _expect(wtype, VARINT, number)
            v = read_uvarint(r)
            if v > 1:
                raise DecodeError(f"invalid bool varint {v}")
            return bool(v)
        if kind is Kind.INT:
            _expect(wtype, VARINT, number)
            return unzigzag(read_uvarint(r))
        if kind is Kind.ENUM:
            _expect(wtype, VARINT, number)
            i = read_uvarint(r)
            members = list(schema.cls)
            if i >= len(members):
                # Unknown enum value from a newer schema: degrade to the
                # first member (proto3 keeps the raw int; we must produce a
                # valid member).
                return members[0]
            return members[i]
        if kind is Kind.FLOAT:
            _expect(wtype, FIXED64, number)
            return read_float(r)
        if kind is Kind.STR:
            _expect(wtype, LEN, number)
            n = read_uvarint(r)
            try:
                return str(r.view(n), "utf-8")
            except UnicodeDecodeError as exc:
                raise DecodeError(f"invalid utf-8: {exc}") from exc
        if kind is Kind.BYTES:
            _expect(wtype, LEN, number)
            return r.take(read_uvarint(r))
        if kind is Kind.STRUCT:
            _expect(wtype, LEN, number)
            n = read_uvarint(r)
            return self._struct_decoder(schema)(Reader(r.view(n)))
        if kind is Kind.TUPLE:
            _expect(wtype, LEN, number)
            n = read_uvarint(r)
            body = Reader(r.view(n))
            if len(schema.args) == 2 and schema.args[1].kind is Kind.ANY:
                items = self._decode_message(body, {1: Schema(Kind.LIST, args=(schema.args[0],))})
                return tuple(items.get(1, []))
            fields = {i + 1: a for i, a in enumerate(schema.args)}
            vals = self._decode_message(body, fields)
            return tuple(
                vals.get(i + 1, _zero_value(a)) for i, a in enumerate(schema.args)
            )
        if kind is Kind.NONE:
            return None
        raise DecodeError(f"cannot decode schema kind {kind}")


def _key(out: bytearray, number: int, wtype: int) -> None:
    write_uvarint(out, (number << 3) | wtype)


def _expect(wtype: int, want: int, number: int) -> None:
    if wtype != want:
        raise DecodeError(f"field {number}: wire type {wtype}, expected {want}")


def _add(bucket: Any, item: Any) -> None:
    if isinstance(bucket, set):
        bucket.add(item)
    else:
        bucket.append(item)


def _skip(r: Reader, wtype: int) -> None:
    """Skip a field of unknown number — the versioned format's key feature."""
    if wtype == VARINT:
        read_uvarint(r)
    elif wtype == FIXED64:
        r.view(8)
    elif wtype == LEN:
        r.view(read_uvarint(r))
    else:
        raise DecodeError(f"cannot skip unknown wire type {wtype}")


def _zero_value(schema: Schema) -> Any:
    """Proto3-style default for an absent field."""
    kind = schema.kind
    if kind is Kind.OPTIONAL or kind is Kind.NONE:
        return None
    if kind is Kind.BOOL:
        return False
    if kind is Kind.INT:
        return 0
    if kind is Kind.FLOAT:
        return 0.0
    if kind is Kind.STR:
        return ""
    if kind is Kind.BYTES:
        return b""
    if kind is Kind.LIST:
        return []
    if kind is Kind.SET:
        return set()
    if kind is Kind.DICT:
        return {}
    if kind is Kind.TUPLE:
        if len(schema.args) == 2 and schema.args[1].kind is Kind.ANY:
            return ()
        return tuple(_zero_value(a) for a in schema.args)
    if kind is Kind.ENUM:
        return next(iter(schema.cls))
    if kind is Kind.STRUCT:
        return build_struct(schema, [_zero_value(f.schema) for f in schema.fields])
    raise DecodeError(f"no zero value for schema kind {kind}")


#: Shared default instance.
CODEC = TaggedCodec()

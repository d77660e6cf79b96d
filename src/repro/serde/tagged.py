"""A protobuf-style tagged binary format — the status-quo baseline.

This is the format the paper argues the industry is forced into by
independently released binaries: every struct field carries a varint key
``(field_number << 3) | wire_type`` so a reader built from an older or newer
schema can skip fields it does not know.  That robustness costs bytes (one
key per field, length prefixes for nesting) and CPU (key parsing, wire-type
dispatch, skip logic) — exactly the overhead the compact format avoids.

Wire types (a faithful subset of protobuf's): ``0`` VARINT — bool (0/1),
int (zigzag), enum (declaration index); ``1`` FIXED64 — float (``<d``);
``2`` LEN — a varint byte length, then str (UTF-8), bytes, or a body.

Field numbers come from declaration order (1-based), which is how
version-skew bugs creep into real systems — reordering fields changes
meaning silently (E10 exploits exactly this).  A struct is its fields'
entries in order; any other top-level value is field 1 of a synthetic
message, as gRPC wraps method signatures.  A field's entries: a present
value is always written, defaults included; an optional ``None`` writes
nothing.  A list or set is one entry per element under the field's number
(unpacked repeated), so an empty one writes nothing; an element that is
itself a list, set or dict is a LEN entry whose body holds it as field 1.
A dict is one LEN entry per item, key field 1 and value field 2 (proto's
map).  A struct or tuple is a LEN entry whose body holds element ``i`` as
field ``i + 1``; ``tuple[T, ...]`` holds its items as a list at field 1.

Decoding follows proto3: the last entry of a scalar field wins, repeated
ones accumulate, an unknown field number is skipped by its wire type and a
known one with another wire type is a :class:`DecodeError`.  An absent
field reads as its zero value (``0``, ``""``, empty, ``None`` for
optionals, the first enum member, a struct of zeros), so ``Optional[list]``
cannot tell ``[]`` from ``None``.  An enum index past the members (a newer
schema's) reads as the first member.

The codec is generated by :mod:`repro.serde.compact`'s compiler, of which
it is the second back-end: one flat ``encode(out, v)`` / ``decode(buf,
pos, end)`` pair per schema, cached by schema, with compact's emitters for
the value bytes the formats share.  The back-end adds constant keys,
repeated and map entries, and LEN bodies, whose length is inserted at the
body's start once it is written.  Its decoder is one ``while pos < end``
key-dispatch loop per message, each body bounded by its own end local.
:meth:`TaggedCodec.source` prints what was generated.
"""

from __future__ import annotations

from typing import Optional

from repro.codegen.schema import Kind, Schema
from repro.core.errors import DecodeError, EncodeError
from repro.serde.base import write_uvarint
from repro.serde.compact import CompactCodec, _Generator, _is_vartuple, _uvarint_tail

VARINT, FIXED64, LEN = 0, 1, 2

_WIRE = {Kind.BOOL: VARINT, Kind.INT: VARINT, Kind.ENUM: VARINT, Kind.FLOAT: FIXED64}
#: Kinds whose value bytes are compact's.
_SCALARS = (Kind.BOOL, Kind.INT, Kind.FLOAT, Kind.STR, Kind.BYTES, Kind.ENUM)
_REPEATED = (Kind.LIST, Kind.SET, Kind.DICT)
#: Zero values a literal builds; a struct's and a fixed tuple's are built.
_ZEROS = {
    Kind.NONE: "None", Kind.OPTIONAL: "None", Kind.BOOL: "False", Kind.INT: "0",
    Kind.FLOAT: "0.0", Kind.STR: "''", Kind.BYTES: "b''",
    Kind.LIST: "[]", Kind.SET: "set()", Kind.DICT: "{}",
}


def _wire(schema: Schema) -> Optional[int]:
    """The wire type of a field's entries; ``None`` for ``None``-typed
    fields, which read nothing and so accept any."""
    kind = schema.kind
    if kind is Kind.OPTIONAL:
        return _wire(schema.args[0])
    if kind is Kind.LIST or kind is Kind.SET:
        return LEN if schema.args[0].kind in _REPEATED else _wire(schema.args[0])
    return None if kind is Kind.NONE else _WIRE.get(kind, LEN)


def _uvarint(n: int) -> bytearray:
    out = bytearray()
    write_uvarint(out, n)
    return out


def _insert_length(out: bytearray, start: int) -> None:
    """Insert the length of ``out[start:]`` at ``start``, for bodies of
    128 bytes or more (a shorter one's is a single ``insert``)."""
    out[start:start] = _uvarint(len(out) - start)


def _skip(buf: bytes, pos: int, end: int, key: int, known: dict) -> int:
    """Step over an entry no field of the message reads; returns its end.
    It reports its own errors: a generated decoder treats an ``IndexError``
    from a frame below its own as a constructor's."""
    number, wire = key >> 3, key & 7
    if number in known:
        raise DecodeError(f"field {number}: wire type {wire}, expected {known[number]}")
    if wire not in (VARINT, FIXED64, LEN):
        raise DecodeError(f"cannot skip unknown wire type {wire}")
    n = 8
    if wire != FIXED64:
        if pos >= end:
            raise DecodeError(f"truncated buffer: need 1 byte at offset {pos}")
        n = buf[pos]
        pos += 1
        if n > 0x7F:
            n, pos = _uvarint_tail(buf, pos, n)
        if wire == VARINT:
            return pos
    if n > end - pos:
        raise DecodeError(f"truncated buffer: need {n} bytes at offset {pos}, have {end - pos}")
    return pos + n


class _TaggedGenerator(_Generator):
    """The tagged back-end of compact's generator.

    :meth:`_Generator.source` drives it unchanged: the root struct's fields
    come through :meth:`_encode_fields` / :meth:`_decode_fields`, any other
    root through :meth:`_encode` / :meth:`_decode` as field 1.
    """

    # -- encoding -----------------------------------------------------------

    def _encode(self, d: int, schema: Schema, v: str) -> None:
        self._field(d, 1, schema, v)

    def _encode_fields(self, d: int, schema: Schema, v: str) -> None:
        for number, f in enumerate(schema.fields, 1):
            self._field(d, number, f.schema, f"{v}.{f.name}")

    def _key(self, d: int, number: int, wire: int) -> None:
        key = bytes(_uvarint(number << 3 | wire))
        self._emit(d, f"append({key[0]})" if len(key) == 1 else f"out += {key!r}")

    def _field(self, d: int, number: int, schema: Schema, v: str) -> None:
        """Emit the entries of field ``number`` holding expression ``v``."""
        kind, args = schema.kind, schema.args
        if kind is Kind.NONE:
            return
        if kind in _SCALARS:
            self._key(d, number, _WIRE.get(kind, LEN))
            _Generator._encode(self, d, schema, v)
            return
        if not v.isidentifier():  # a field access: evaluate it once
            x = self._temp("x")
            self._emit(d, f"{x} = {v}")
            v = x
        if kind is Kind.OPTIONAL:
            self._emit(d, f"if {v} is not None:")
            self._field(d + 1, number, args[0], v)
        elif kind is Kind.LIST or kind is Kind.SET:
            x = self._temp("x")
            self._emit(d, f"for {x} in {v}:")
            mark = len(self._lines)
            if args[0].kind in _REPEATED:
                self._body(d + 1, number, lambda d: self._field(d, 1, args[0], x))
            else:
                self._field(d + 1, number, args[0], x)
            if len(self._lines) == mark:
                self._emit(d + 1, "pass")  # elements of None write nothing
        elif kind is Kind.DICT:
            k, x = self._temp("k"), self._temp("x")
            self._emit(d, f"for {k}, {x} in {v}.items():")

            def entry(d: int) -> None:
                self._field(d, 1, args[0], k)
                self._field(d, 2, args[1], x)

            self._body(d + 1, number, entry)
        elif kind is Kind.TUPLE and _is_vartuple(schema):
            items = Schema(Kind.LIST, args=args[:1])
            self._body(d, number, lambda d: self._field(d, 1, items, v))
        elif kind is Kind.TUPLE:
            items = [self._temp("x") for _ in args]
            self._emit(
                d,
                f"if len({v}) != {len(args)}:",
                f"    raise EncodeError(f'tuple length {{len({v})}} != schema arity {len(args)}')",
                f"{', '.join(items)}, = {v}",
            )

            def fill(d: int) -> None:
                for i, (item, arg) in enumerate(zip(items, args), 1):
                    self._field(d, i, arg, item)

            self._body(d, number, fill)
        elif kind is Kind.STRUCT:
            self._body(d, number, lambda d: self._encode_fields(d, schema, v))
        else:
            raise EncodeError(f"cannot encode schema kind {kind}")

    def _body(self, d: int, number: int, fill) -> None:
        """Emit a LEN entry whose body ``fill(d)`` writes; its length goes in
        at the body's start once the body is written."""
        self._key(d, number, LEN)
        start, n = self._temp("s"), self._temp("n")
        self._emit(d, f"{start} = len(out)")
        fill(d)
        self.constants["insert_length"] = _insert_length
        self._emit(d, f"{n} = len(out) - {start}", f"if {n} < 0x80:")
        self._emit(d, f"    out.insert({start}, {n})", "else:", f"    insert_length(out, {start})")

    # -- decoding -----------------------------------------------------------

    def _decode(self, d: int, schema: Schema, x: str) -> str:
        return self._message(d, [(1, schema, x)])[0]

    def _decode_fields(self, d: int, schema: Schema) -> list[str]:
        return self._message(d, _numbered(schema))

    def _message(self, d: int, fields: list[tuple[int, Schema, str]]) -> list[str]:
        """Emit the key-dispatch loop over a message up to the current end;
        returns the locals holding its fields' values, absent ones zero."""
        end, known, values, absent = self._end, {}, [], []
        for number, schema, name in fields:
            x = self._temp(name)
            values.append(x)
            zero = self._zero_literal(schema)
            self._emit(d, f"{x} = {zero or 'None'}")
            if zero is None:
                absent.append((schema, x))
            wire = _wire(schema)
            if wire is not None:
                known[number] = wire
        self._emit(d, f"while pos < {end}:")
        key = self._read_uvarint(d + 1)
        for i, (x, (number, schema, _)) in enumerate(zip(values, fields)):
            if number in known:
                test = f"{key} == {number << 3 | known[number]}"
            else:  # a None-typed field reads nothing, under any wire type
                test = f"{key} >> 3 == {number}"
            self._emit(d + 1, f"{'elif' if i else 'if'} {test}:")
            self._entry(d + 2, schema, x, "have")
        self.constants["skip"] = _skip
        skip = f"pos = skip(buf, pos, {end}, {key}, {self._const('known', known)})"
        self._emit(d + 1, *(["else:", f"    {skip}"] if fields else [skip]))
        if end != "end":  # a read ran past a nested body's end
            self._emit(
                d,
                f"if pos != {end}:",
                f"    raise DecodeError(f'truncated buffer: a read ran {{pos - {end}}} bytes "
                "past its message')",
            )
        for schema, x in absent:  # a struct or fixed tuple: built into x
            self._emit(d, f"if {x} is None:")
            self._zero(d + 1, schema, x)
        return values

    def _nested(self, d: int, fields: list[tuple[int, Schema, str]]) -> list[str]:
        """Emit the read of a LEN body holding ``fields``, bounded by a new
        end local; returns their values' locals."""
        n = self._read_length(
            d, "truncated buffer: need {{{n}}} bytes at offset {{pos}}, have {{{end} - pos}}"
        )
        outer, self._end = self._end, self._temp("end")
        self._emit(d, f"{self._end} = pos + {n}")
        values = self._message(d, fields)
        self._end = outer
        return values

    def _entry(self, d: int, schema: Schema, x: str, bucket: str) -> None:
        """Emit the read of one entry of a field into local ``x``.  A
        repeated field adds to its container, which ``bucket`` says is in
        ``x`` (``have``), may be ``None`` yet (``maybe``) or is new (``new``)."""
        kind, args = schema.kind, schema.args
        if kind is Kind.OPTIONAL:
            self._entry(d, args[0], x, "new" if bucket == "new" else "maybe")
            return
        if kind in _REPEATED:
            empty = _ZEROS[kind]
            if bucket == "maybe":
                self._emit(d, f"if {x} is None:", f"    {x} = {empty}")
            elif bucket == "new":
                self._emit(d, f"{x} = {empty}")
        if kind is Kind.LIST or kind is Kind.SET:
            if args[0].kind in _REPEATED:
                (item,) = self._nested(d, [(1, args[0], "x")])
            else:
                item = self._temp("x")
                self._entry(d, args[0], item, "new")
            self._emit(d, f"{x}.{'add' if kind is Kind.SET else 'append'}({item})")
        elif kind is Kind.DICT:
            k, v = self._nested(d, [(1, args[0], "k"), (2, args[1], "x")])
            self._emit(d, f"{x}[{k}] = {v}")
        elif kind is Kind.STRUCT:
            self._build(d, schema, self._nested(d, _numbered(schema)), x)
        elif kind is Kind.TUPLE and _is_vartuple(schema):
            (items,) = self._nested(d, [(1, Schema(Kind.LIST, args=args[:1]), "x")])
            self._emit(d, f"{x} = tuple({items})")
        elif kind is Kind.TUPLE:
            items = self._nested(d, [(i, arg, "x") for i, arg in enumerate(args, 1)])
            self._emit(d, f"{x} = ({', '.join(items)},)")
        elif kind is Kind.BOOL:
            n = self._read_uvarint(d)
            self._emit(d, f"if {n} > 1:", f"    raise DecodeError(f'invalid bool varint {{{n}}}')")
            self._emit(d, f"{x} = {n} == 1")
        elif kind is Kind.ENUM:
            # An index past the members is a newer schema's: proto3 keeps
            # the raw int, but the value must be a member, so the first.
            members = self._const("members", tuple(schema.cls))
            n, count = self._read_uvarint(d), len(schema.cls)
            self._emit(d, f"{x} = {members}[{n}] if {n} < {count} else {members}[0]")
        elif kind is Kind.NONE:
            self._emit(d, f"{x} = None")
        else:
            _Generator._decode(self, d, schema, x)

    def _zero_literal(self, schema: Schema) -> Optional[str]:
        if schema.kind is Kind.ENUM:
            return f"{self._const('members', tuple(schema.cls))}[0]"
        if schema.kind is Kind.TUPLE and _is_vartuple(schema):
            return "()"
        return _ZEROS.get(schema.kind)

    def _zero(self, d: int, schema: Schema, x: str) -> str:
        """Emit statements building a fresh zero value of ``schema``;
        returns the expression holding it."""
        zero = self._zero_literal(schema)
        if zero is not None:
            return zero
        if schema.kind is Kind.STRUCT:
            values = [self._zero(d, f.schema, self._temp("z")) for f in schema.fields]
            self._build(d, schema, values, x)
        else:
            items = [self._zero(d, arg, self._temp("z")) for arg in schema.args]
            self._emit(d, f"{x} = ({', '.join(items)},)")
        return x


def _numbered(schema: Schema) -> list[tuple[int, Schema, str]]:
    return [(i, f.schema, f"f_{f.name}_") for i, f in enumerate(schema.fields, 1)]


class TaggedCodec(CompactCodec):
    """Protobuf-wire-format-style codec with per-field tags."""

    name = "tagged"

    def _generator(self, schema: Schema) -> _Generator:
        return _TaggedGenerator(schema)


#: Shared default instance.
CODEC = TaggedCodec()

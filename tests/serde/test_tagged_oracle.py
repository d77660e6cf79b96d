"""A differential oracle for the generated tagged codec.

The reference encoder below is a direct recursive reading of the wire
rules in :mod:`repro.serde.tagged`'s docstring, written without the code
generator; value bytes are compact's (the two formats share them), so
those come from compact's reference.  For every boutique method's argument
and result schema and seeded values, the generated encoder must produce
the reference bytes exactly and the generated decoder must give the value
back built the same way.  A round trip alone would pass a field-number bug
that the encoder and decoder share.  Unknown fields of every wire type,
spliced into every struct body, must be skipped.
"""

from __future__ import annotations

import random
import traceback

import pytest

from repro.codegen.schema import Kind, Schema
from repro.core.errors import EncodeError
from repro.serde.tagged import CODEC
from tests.serde.test_compact_oracle import SCHEMAS, _uvarint, _variable, seeded_value
from tests.serde.test_compact_oracle import reference_encode as value_bytes
from tests.serde.test_properties import assert_built_alike

VARINT, FIXED64, LEN = 0, 1, 2
_WIRE = {Kind.BOOL: VARINT, Kind.INT: VARINT, Kind.ENUM: VARINT, Kind.FLOAT: FIXED64}
_REPEATED = (Kind.LIST, Kind.SET, Kind.DICT)


def _len_entry(out: bytearray, number: int, body: bytearray) -> None:
    _uvarint(out, number << 3 | LEN)
    _uvarint(out, len(body))
    out += body


def entries(schema: Schema, number: int, v, out: bytearray, unknown: bytes) -> None:
    """Append field ``number``'s entries for ``v``; every struct body
    starts with the ``unknown`` bytes."""
    kind, args = schema.kind, schema.args
    if kind is Kind.NONE or (kind is Kind.OPTIONAL and v is None):
        return
    if kind is Kind.OPTIONAL:
        entries(args[0], number, v, out, unknown)
    elif kind in (Kind.LIST, Kind.SET):
        for item in v:
            if args[0].kind in _REPEATED:  # wrapped: a body holding it as field 1
                body = bytearray()
                entries(args[0], 1, item, body, unknown)
                _len_entry(out, number, body)
            else:
                entries(args[0], number, item, out, unknown)
    elif kind is Kind.DICT:
        for key, item in v.items():
            body = bytearray()
            entries(args[0], 1, key, body, unknown)
            entries(args[1], 2, item, body, unknown)
            _len_entry(out, number, body)
    elif kind is Kind.STRUCT or kind is Kind.TUPLE:
        body = bytearray()
        message(schema, v, body, unknown)
        _len_entry(out, number, body)
    else:
        _uvarint(out, number << 3 | _WIRE.get(kind, LEN))
        value_bytes(schema, v, out)


def message(schema: Schema, v, out: bytearray, unknown: bytes) -> None:
    """Append the body of a struct or tuple, or a top-level value."""
    if schema.kind is Kind.STRUCT:
        out += unknown
        for number, f in enumerate(schema.fields, 1):
            entries(f.schema, number, getattr(v, f.name), out, unknown)
    elif schema.kind is Kind.TUPLE and _variable(schema):
        entries(Schema(Kind.LIST, args=schema.args[:1]), 1, list(v), out, unknown)
    elif schema.kind is Kind.TUPLE:
        for number, (arg, item) in enumerate(zip(schema.args, v), 1):
            entries(arg, number, item, out, unknown)
    else:
        entries(schema, 1, v, out, unknown)


def reference_encode(schema: Schema, v, unknown: bytes = b"") -> bytes:
    out = bytearray()
    if schema.kind is Kind.STRUCT:
        message(schema, v, out, unknown)
    else:
        entries(schema, 1, v, out, unknown)
    return bytes(out)


def _unknown(wire: int, payload: bytes) -> bytes:
    """An entry of field 2**20, which no schema here has."""
    out = bytearray()
    _uvarint(out, (1 << 20) << 3 | wire)
    return bytes(out) + payload


UNKNOWN = {
    "varint": _unknown(VARINT, b"\x96\x01"),
    "fixed64": _unknown(FIXED64, bytes(range(8))),
    "len": _unknown(LEN, b"\x03abc"),
}


@pytest.mark.parametrize("name, schema", SCHEMAS, ids=[name for name, _ in SCHEMAS])
def test_generated_codec_matches_the_reference(name, schema):
    rng = random.Random(name)
    has_struct = "struct<" in schema.canonical()
    for _ in range(25):
        value = seeded_value(schema, rng)
        data = CODEC.encode(schema, value)
        assert data == reference_encode(schema, value)
        assert_built_alike(CODEC.decode(schema, data), value)
        for unknown in UNKNOWN.values() if has_struct else ():
            spliced = reference_encode(schema, value, unknown)
            assert_built_alike(CODEC.decode(schema, spliced), value)


def test_unknown_fields_reach_every_struct_body():
    """The splice is not vacuous: it lands in nested struct bodies too."""
    (schema,) = [schema for name, schema in SCHEMAS if name == "Tree"]
    values = (seeded_value(schema, random.Random(seed)) for seed in range(100))
    value = next(v for v in values if any(branch.leaves for branch in v.branches))
    bodies = 1 + len(value.branches) + sum(len(branch.leaves) for branch in value.branches)
    assert reference_encode(schema, value, UNKNOWN["len"]).count(UNKNOWN["len"]) == bodies


def test_source_is_one_generated_function_pair_with_its_own_tracebacks():
    (schema,) = [schema for name, schema in SCHEMAS if name == "Hand"]
    source = CODEC.source(schema)
    assert "def encode(out, v):" in source and "def decode(buf, pos, end):" in source
    assert source.count("def ") == 2
    value = seeded_value(schema, random.Random(1))
    value.owner = 5  # not a str
    with pytest.raises(EncodeError) as info:
        CODEC.encode(schema, value)
    frames = traceback.extract_tb(info.value.__cause__.__traceback__)
    assert frames[-1].filename == "<repro.serde.tagged Hand>"
    assert frames[-1].line in source

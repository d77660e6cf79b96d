"""A differential oracle for the generated compact codec.

The reference encoder below is a direct recursive reading of the wire
format over :class:`Schema`, written without the code generator.  For every
boutique method's argument and result schema and seeded values, the
generated encoder must produce its bytes exactly, and the generated decoder
must give the value back built the same way.  A round trip alone would pass
a field-order bug that the encoder and decoder share.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.boutique import ALL_COMPONENTS
from repro.codegen.schema import Kind, Schema, schema_of
from repro.core.registry import global_registry
from repro.serde.compact import CODEC
from tests.serde.test_compact import TREE, Hand
from tests.serde.test_properties import assert_built_alike


def _uvarint(out: bytearray, n: int) -> None:
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def reference_encode(schema: Schema, v, out: bytearray) -> None:
    kind, args = schema.kind, schema.args
    if kind is Kind.NONE:
        return
    if kind is Kind.BOOL:
        out.append(1 if v else 0)
    elif kind is Kind.INT:
        _uvarint(out, v << 1 if v >= 0 else ~(v << 1))
    elif kind is Kind.FLOAT:
        out += struct.pack("<d", v)
    elif kind in (Kind.STR, Kind.BYTES):
        data = v.encode() if kind is Kind.STR else v
        _uvarint(out, len(data))
        out += data
    elif kind is Kind.ENUM:
        _uvarint(out, list(schema.cls).index(v))
    elif kind is Kind.OPTIONAL:
        out.append(0 if v is None else 1)
        if v is not None:
            reference_encode(args[0], v, out)
    elif kind is Kind.STRUCT:
        for f in schema.fields:
            reference_encode(f.schema, getattr(v, f.name), out)
    elif kind is Kind.TUPLE and not _variable(schema):
        for arg, item in zip(args, v):
            reference_encode(arg, item, out)
    elif kind is Kind.DICT:
        _uvarint(out, len(v))
        for key, item in v.items():
            reference_encode(args[0], key, out)
            reference_encode(args[1], item, out)
    else:  # list, set, tuple[X, ...]
        _uvarint(out, len(v))
        for item in v:
            reference_encode(args[0], item, out)


def _variable(schema: Schema) -> bool:
    return len(schema.args) == 2 and schema.args[1].kind is Kind.ANY


def seeded_value(schema: Schema, rng: random.Random):
    """A value of ``schema``; struct fields are passed by keyword."""
    kind, args = schema.kind, schema.args
    if kind is Kind.NONE:
        return None
    if kind is Kind.BOOL:
        return rng.random() < 0.5
    if kind is Kind.INT:
        return rng.choice([0, -1, 63, -64, 64, 300, -(2**40), 2**70]) + rng.randint(-3, 3)
    if kind is Kind.FLOAT:
        return rng.uniform(-1e6, 1e6)
    if kind is Kind.STR:
        return "".join(rng.choice("aZ9 é€😀") for _ in range(rng.choice([0, 3, 200])))
    if kind is Kind.BYTES:
        return rng.randbytes(rng.choice([0, 5, 130]))
    if kind is Kind.ENUM:
        return rng.choice(list(schema.cls))
    if kind is Kind.OPTIONAL:
        return None if rng.random() < 0.3 else seeded_value(args[0], rng)
    if kind is Kind.STRUCT:
        return schema.cls(**{f.name: seeded_value(f.schema, rng) for f in schema.fields})
    if kind is Kind.TUPLE and not _variable(schema):
        return tuple(seeded_value(arg, rng) for arg in args)
    # An element takes at least one byte on the wire (the decoder's check
    # against count bombs), so a container of None is always empty: ().
    n = 0 if args[0].kind is Kind.NONE else rng.choice([0, 1, 3])
    if kind is Kind.DICT:
        return {seeded_value(args[0], rng): seeded_value(args[1], rng) for _ in range(n)}
    items = [seeded_value(args[0], rng) for _ in range(n)]
    return {Kind.SET: set, Kind.TUPLE: tuple}.get(kind, list)(items)


def _boutique_schemas() -> list[tuple[str, Schema]]:
    build = global_registry().freeze(components=ALL_COMPONENTS)
    out = {}
    for reg in build.registrations:
        for m in reg.spec.methods:
            name = f"{reg.name.rsplit('.', 1)[-1]}.{m.name}"
            out.setdefault(m.arg_schema, f"{name}(args)")
            out.setdefault(m.result_schema, f"{name}(result)")
    return [(name, schema) for schema, name in out.items()]


SCHEMAS = _boutique_schemas() + [("Tree", TREE), ("Hand", schema_of(Hand))]


def test_the_schemas_cover_nested_structs():
    assert len(SCHEMAS) >= 20
    assert sum("struct<" in schema.canonical() for _, schema in SCHEMAS) >= 10


@pytest.mark.parametrize("name, schema", SCHEMAS, ids=[name for name, _ in SCHEMAS])
def test_generated_codec_matches_the_reference(name, schema):
    rng = random.Random(name)
    for _ in range(25):
        value = seeded_value(schema, rng)
        want = bytearray()
        reference_encode(schema, value, want)
        data = CODEC.encode(schema, value)
        assert data == bytes(want)
        assert_built_alike(CODEC.decode(schema, data), value)

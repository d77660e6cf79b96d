"""JSON wire format — the other status-quo baseline the paper cites.

JSON carries full field names and textual values on every message, which is
the most self-describing and the least efficient of the three formats.  It
is schema-checked on encode (so application bugs surface at the sender) and
schema-coerced on decode (so dataclasses, enums, tuples, sets, and bytes
survive the round trip even though JSON has no native representation for
them: bytes travel base64-encoded, dict keys are stringified).
"""

from __future__ import annotations

import base64
import json
from typing import Any

from repro.codegen.schema import Kind, Schema
from repro.core.errors import DecodeError, EncodeError
from repro.serde.base import build_struct


class JSONCodec:
    """Field-name-carrying textual codec."""

    name = "json"

    def encode(self, schema: Schema, value: Any) -> bytes:
        try:
            jsonable = _to_jsonable(schema, value)
        except (TypeError, AttributeError, ValueError, KeyError) as exc:
            raise EncodeError(
                f"value {value!r} does not conform to schema {schema.canonical()}: {exc}"
            ) from exc
        return json.dumps(jsonable, separators=(",", ":"), allow_nan=True).encode("utf-8")

    def encode_into(self, schema: Schema, value: Any, out: bytearray) -> None:
        # JSON must serialize through a str anyway, so the buffer protocol
        # saves nothing here; provided for interface parity.
        out += self.encode(schema, value)

    def decode(self, schema: Schema, data: "bytes | bytearray | memoryview") -> Any:
        try:
            jsonable = json.loads(str(data, "utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise DecodeError(f"invalid JSON: {exc}") from exc
        return _from_jsonable(schema, jsonable)


def _to_jsonable(schema: Schema, value: Any) -> Any:
    kind = schema.kind
    if kind is Kind.NONE:
        if value is not None:
            raise EncodeError(f"expected None, got {value!r}")
        return None
    if kind is Kind.BOOL:
        return bool(value)
    if kind is Kind.INT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise EncodeError(f"expected int, got {type(value).__name__}")
        return value
    if kind is Kind.FLOAT:
        return float(value)
    if kind is Kind.STR:
        if not isinstance(value, str):
            raise EncodeError(f"expected str, got {type(value).__name__}")
        return value
    if kind is Kind.BYTES:
        return base64.b64encode(bytes(value)).decode("ascii")
    if kind in (Kind.LIST, Kind.SET, Kind.TUPLE):
        if kind is Kind.TUPLE and not (
            len(schema.args) == 2 and schema.args[1].kind is Kind.ANY
        ):
            if len(value) != len(schema.args):
                raise EncodeError(
                    f"tuple length {len(value)} != schema arity {len(schema.args)}"
                )
            return [_to_jsonable(a, v) for a, v in zip(schema.args, value)]
        elem = schema.args[0]
        return [_to_jsonable(elem, v) for v in value]
    if kind is Kind.DICT:
        kschema, vschema = schema.args
        out = {}
        for k, v in value.items():
            # JSON object keys must be strings; non-string keys are encoded
            # as their JSON representation.
            jk = _to_jsonable(kschema, k)
            key = jk if isinstance(jk, str) else json.dumps(jk, separators=(",", ":"))
            out[key] = _to_jsonable(vschema, v)
        return out
    if kind is Kind.OPTIONAL:
        if value is None:
            return None
        return _to_jsonable(schema.args[0], value)
    if kind is Kind.STRUCT:
        return {
            f.name: _to_jsonable(f.schema, getattr(value, f.name)) for f in schema.fields
        }
    if kind is Kind.ENUM:
        return value.name
    raise EncodeError(f"cannot encode schema kind {kind}")


def _from_jsonable(schema: Schema, value: Any) -> Any:
    kind = schema.kind
    if kind is Kind.NONE:
        return None
    if kind is Kind.BOOL:
        _expect_type(value, bool, schema)
        return value
    if kind is Kind.INT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise DecodeError(f"expected int, got {value!r}")
        return value
    if kind is Kind.FLOAT:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DecodeError(f"expected float, got {value!r}")
        return float(value)
    if kind is Kind.STR:
        _expect_type(value, str, schema)
        return value
    if kind is Kind.BYTES:
        _expect_type(value, str, schema)
        try:
            return base64.b64decode(value.encode("ascii"), validate=True)
        except (ValueError, UnicodeEncodeError) as exc:
            raise DecodeError(f"invalid base64: {exc}") from exc
    if kind in (Kind.LIST, Kind.SET, Kind.TUPLE):
        _expect_type(value, list, schema)
        if kind is Kind.TUPLE and not (
            len(schema.args) == 2 and schema.args[1].kind is Kind.ANY
        ):
            if len(value) != len(schema.args):
                raise DecodeError(
                    f"tuple length {len(value)} != schema arity {len(schema.args)}"
                )
            return tuple(_from_jsonable(a, v) for a, v in zip(schema.args, value))
        elem = schema.args[0]
        items = (_from_jsonable(elem, v) for v in value)
        if kind is Kind.LIST:
            return list(items)
        if kind is Kind.SET:
            return set(items)
        return tuple(items)
    if kind is Kind.DICT:
        _expect_type(value, dict, schema)
        kschema, vschema = schema.args
        out = {}
        for k, v in value.items():
            if kschema.kind is Kind.STR:
                key: Any = k
            else:
                try:
                    key = _from_jsonable(kschema, json.loads(k))
                except ValueError as exc:
                    raise DecodeError(f"invalid dict key {k!r}: {exc}") from exc
            out[key] = _from_jsonable(vschema, v)
        return out
    if kind is Kind.OPTIONAL:
        if value is None:
            return None
        return _from_jsonable(schema.args[0], value)
    if kind is Kind.STRUCT:
        _expect_type(value, dict, schema)
        args = []
        for f in schema.fields:
            if f.name not in value:
                raise DecodeError(
                    f"missing field {f.name!r} for {schema.cls.__name__}"
                )
            args.append(_from_jsonable(f.schema, value[f.name]))
        return build_struct(schema, args)
    if kind is Kind.ENUM:
        _expect_type(value, str, schema)
        try:
            return schema.cls[value]
        except KeyError as exc:
            raise DecodeError(
                f"unknown member {value!r} of enum {schema.cls.__name__}"
            ) from exc
    raise DecodeError(f"cannot decode schema kind {kind}")


def _expect_type(value: Any, tp: type, schema: Schema) -> None:
    if not isinstance(value, tp) or (tp is not bool and isinstance(value, bool)):
        raise DecodeError(
            f"expected {tp.__name__} for {schema.canonical()}, got {value!r}"
        )


#: Shared default instance.
CODEC = JSONCodec()

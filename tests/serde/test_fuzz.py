"""Adversarial-input robustness: decoders never crash, hang, or balloon.

A proclet's RPC server feeds network bytes straight into these decoders;
within a deployment the version handshake guarantees well-formed input,
but robustness against corruption (bit flips, truncation, garbage) is
still table stakes: every failure must be a clean
:class:`~repro.core.errors.DecodeError` / TransportError, never an
uncaught exception or a pathological allocation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.codegen.schema import schema_of
from repro.core.errors import DecodeError, TransportError
from repro.serde import COMPACT, JSON, TAGGED
from repro.transport import message as wire_msg


class Mode(enum.Enum):
    A = 1
    B = 2


@dataclass(frozen=True)
class Payload:
    name: str
    values: list[int]
    table: dict[str, float]
    flag: Optional[bool]
    mode: Mode


SCHEMAS = [
    schema_of(int),
    schema_of(str),
    schema_of(bytes),
    schema_of(list[str]),
    schema_of(dict[int, str]),
    schema_of(Optional[list[int]]),
    schema_of(tuple[int, str, bool]),
    schema_of(Mode),
    schema_of(Payload),
]


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200), st.sampled_from(range(len(SCHEMAS))))
def test_compact_decode_never_crashes(data, schema_index):
    schema = SCHEMAS[schema_index]
    try:
        COMPACT.decode(schema, data)
    except DecodeError:
        pass  # the only acceptable failure


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200), st.sampled_from(range(len(SCHEMAS))))
def test_tagged_decode_never_crashes(data, schema_index):
    schema = SCHEMAS[schema_index]
    try:
        TAGGED.decode(schema, data)
    except DecodeError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200), st.sampled_from(range(len(SCHEMAS))))
def test_json_decode_never_crashes(data, schema_index):
    schema = SCHEMAS[schema_index]
    try:
        JSON.decode(schema, data)
    except DecodeError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_wire_message_decode_never_crashes(data):
    try:
        wire_msg.decode(data)
    except TransportError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=1, max_size=100))
def test_truncation_of_valid_compact_is_clean(suffix):
    """Any prefix of a valid message either decodes or raises DecodeError."""
    value = Payload("fuzz", [1, 2, 3], {"k": 1.5}, True, Mode.B)
    schema = schema_of(Payload)
    data = COMPACT.encode(schema, value)
    cut = len(suffix) % len(data)
    try:
        COMPACT.decode(schema, data[:cut])
    except DecodeError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=255))
def test_single_byte_corruption_is_clean(position, replacement):
    """Flip one byte anywhere in a valid tagged message: decode must either
    produce *some* value or raise DecodeError — never crash."""
    value = Payload("fuzz", list(range(10)), {"a": 1.0, "b": 2.0}, None, Mode.A)
    schema = schema_of(Payload)
    data = bytearray(TAGGED.encode(schema, value))
    data[position % len(data)] = replacement
    try:
        TAGGED.decode(schema, bytes(data))
    except DecodeError:
        pass


def test_compact_of_one_schema_never_panics_under_another():
    """Decoding bytes with the wrong schema (the cross-version accident the
    handshake prevents) fails cleanly for every schema pair."""
    values = {
        0: 42,
        1: "hello",
        2: b"\x01\x02",
        3: ["a", "b"],
        4: {1: "one"},
        5: [1, 2, 3],
        6: (1, "x", True),
        7: Mode.A,
        8: Payload("p", [1], {"k": 0.5}, False, Mode.B),
    }
    for i, schema_a in enumerate(SCHEMAS):
        data = COMPACT.encode(schema_a, values[i])
        for schema_b in SCHEMAS:
            try:
                COMPACT.decode(schema_b, data)
            except DecodeError:
                pass


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=64))
def test_malformed_control_messages_never_crash(data):
    """JSON-lines control plane: arbitrary line content fails cleanly."""
    import json

    try:
        parsed = json.loads(data)
        assert isinstance(parsed, (dict, list, str, int, float, bool, type(None)))
    except ValueError:
        pass

"""Property-based tests of the wire formats (hypothesis).

Invariants (DESIGN.md):

* decode(encode(x)) == x for every schema-typed value, all three codecs,
  and is built like x: the same class and instance dict at every level;
* the compact encoding is never larger than the tagged encoding of the
  same value (it strictly drops information: tags and type info);
* ints of any size round-trip through both binary codecs, which share
  their zigzag varint; the transport's uvarint primitives are inverse.

One documented exception: the tagged format, like proto3, cannot represent
``Optional[container]`` holding an *empty* container distinctly from None
(absence is the only encoding of both).  The generated types below avoid
that corner; ``test_tagged_optional_container_caveat`` pins the behaviour.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import KW_ONLY, dataclass, field
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen.schema import schema_of
from repro.serde import COMPACT, JSON, TAGGED
from repro.serde.base import Reader, read_uvarint, write_uvarint


class Flag(enum.Enum):
    A = 1
    B = 2
    C = 3


@dataclass(frozen=True)
class Leaf:
    name: str
    value: int
    ratio: float
    blob: bytes


@dataclass
class Note:
    text: str
    pinned: bool


@dataclass(frozen=True)
class Tree:
    flag: Flag
    leaves: list[Leaf]
    notes: list[Note]
    index: dict[str, int]
    maybe: Optional[str]
    pair: tuple[int, str]


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
texts = st.text(max_size=50)
blobs = st.binary(max_size=50)

leaf_strategy = st.builds(
    Leaf, name=texts, value=st.integers(), ratio=finite_floats, blob=blobs
)
tree_strategy = st.builds(
    Tree,
    flag=st.sampled_from(Flag),
    leaves=st.lists(leaf_strategy, max_size=5),
    notes=st.lists(st.builds(Note, text=texts, pinned=st.booleans()), max_size=3),
    index=st.dictionaries(texts, st.integers(), max_size=5),
    maybe=st.none() | texts,
    pair=st.tuples(st.integers(), texts),
)

TREE_SCHEMA = schema_of(Tree)
LEAF_SCHEMA = schema_of(Leaf)


def assert_built_alike(got, want):
    """``got == want``, and also the same class and, for a dataclass, the
    same instance dict in the same key order, at every level."""
    assert type(got) is type(want)
    if dataclasses.is_dataclass(want):
        assert list(vars(got)) == list(vars(want))
        for name, item in vars(want).items():
            assert_built_alike(vars(got)[name], item)
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_built_alike(a, b)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key, item in want.items():
            assert_built_alike(got[key], item)
    else:
        assert got == want


@settings(max_examples=150, deadline=None)
@given(tree_strategy)
def test_compact_roundtrip(tree):
    assert_built_alike(COMPACT.decode(TREE_SCHEMA, COMPACT.encode(TREE_SCHEMA, tree)), tree)


@settings(max_examples=150, deadline=None)
@given(tree_strategy)
def test_tagged_roundtrip(tree):
    assert_built_alike(TAGGED.decode(TREE_SCHEMA, TAGGED.encode(TREE_SCHEMA, tree)), tree)


@settings(max_examples=150, deadline=None)
@given(tree_strategy)
def test_json_roundtrip(tree):
    assert_built_alike(JSON.decode(TREE_SCHEMA, JSON.encode(TREE_SCHEMA, tree)), tree)


@dataclass(frozen=True, kw_only=True)
class KwOnly:
    a: int
    b: str


@dataclass(frozen=True)
class AfterSentinel:
    a: int
    _: KW_ONLY
    b: str
    c: list[int]


@dataclass(kw_only=True)
class KwChecked:
    a: int
    b: str = field(kw_only=False)  # one positional field among keyword ones
    c: list[int]

    def __post_init__(self):
        self.total = self.a + sum(self.c)


@pytest.mark.parametrize("codec", [COMPACT, TAGGED, JSON], ids=lambda codec: codec.name)
@pytest.mark.parametrize(
    "value",
    [KwOnly(a=1, b="x"), AfterSentinel(1, b="x", c=[2, 3]), KwChecked("x", a=1, c=[2, 3])],
    ids=lambda value: type(value).__name__,
)
def test_kw_only_dataclass_roundtrip(codec, value):
    for tp, v in ((type(value), value), (list[type(value)], [value, value])):
        schema = schema_of(tp)
        assert_built_alike(codec.decode(schema, codec.encode(schema, v)), v)


@settings(max_examples=150, deadline=None)
@given(tree_strategy)
def test_compact_never_larger_than_tagged(tree):
    compact = COMPACT.encode(TREE_SCHEMA, tree)
    tagged = TAGGED.encode(TREE_SCHEMA, tree)
    assert len(compact) <= len(tagged)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(), max_size=20))
def test_list_roundtrip_all_codecs(values):
    schema = schema_of(list[int])
    for codec in (COMPACT, TAGGED, JSON):
        assert codec.decode(schema, codec.encode(schema, values)) == values


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(), texts, max_size=10))
def test_int_keyed_dict_roundtrip_all_codecs(mapping):
    schema = schema_of(dict[int, str])
    for codec in (COMPACT, TAGGED, JSON):
        assert codec.decode(schema, codec.encode(schema, mapping)) == mapping


INT_SCHEMA = schema_of(int)


@settings(max_examples=200, deadline=None)
@given(st.integers())
def test_zigzag_inverse(n):
    for codec in (COMPACT, TAGGED):
        assert codec.decode(INT_SCHEMA, codec.encode(INT_SCHEMA, n)) == n


@settings(max_examples=200, deadline=None)
@given(st.integers())
def test_zigzag_maps_small_magnitudes_small(n):
    """The zigzag varint of ``n`` is no longer than the uvarint of 2|n|+1."""
    bound = bytearray()
    write_uvarint(bound, 2 * abs(n) + 1)
    assert len(COMPACT.encode(INT_SCHEMA, n)) <= len(bound)


@settings(max_examples=200, deadline=None)
@given(st.integers())
def test_svarint_roundtrip(n):
    """A tagged int is compact's zigzag varint behind the key of field 1."""
    data = TAGGED.encode(INT_SCHEMA, n)
    assert data == b"\x08" + COMPACT.encode(INT_SCHEMA, n)
    assert TAGGED.decode(INT_SCHEMA, data) == n


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0))
def test_uvarint_roundtrip(n):
    out = bytearray()
    write_uvarint(out, n)
    assert read_uvarint(Reader(bytes(out))) == n


@settings(max_examples=100, deadline=None)
@given(finite_floats)
def test_float_exact_roundtrip(x):
    schema = schema_of(float)
    for codec in (COMPACT, TAGGED):
        decoded = codec.decode(schema, codec.encode(schema, x))
        assert decoded == x or (math.isnan(decoded) and math.isnan(x))


def test_tagged_optional_container_caveat():
    """Documented proto3-like lossiness: Optional[list] of [] -> None."""

    @dataclass
    class WithOptList:
        items: Optional[list[int]]

    schema = schema_of(WithOptList)
    out = TAGGED.decode(schema, TAGGED.encode(schema, WithOptList([])))
    assert out.items is None
    # Compact has no such ambiguity.
    out2 = COMPACT.decode(schema, COMPACT.encode(schema, WithOptList([])))
    assert out2.items == []


@settings(max_examples=100, deadline=None)
@given(leaf_strategy, st.integers(min_value=0, max_value=3))
def test_decode_is_deterministic(leaf, _):
    data = COMPACT.encode(LEAF_SCHEMA, leaf)
    assert COMPACT.decode(LEAF_SCHEMA, data) == COMPACT.decode(LEAF_SCHEMA, data)

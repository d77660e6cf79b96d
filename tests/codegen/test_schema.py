"""Schema derivation from type hints."""

from __future__ import annotations

import dataclasses
import enum
import pickle
from dataclasses import dataclass, field
from typing import Any, Optional

import pytest

from repro.codegen.schema import Kind, Schema, clear_cache, schema_of
from repro.core.errors import SchemaError


class Color(enum.Enum):
    RED = 1
    GREEN = 2
    BLUE = 3


@dataclass
class Point:
    x: int
    y: int


@dataclass
class Shape:
    name: str
    points: list[Point]
    color: Color
    label: Optional[str]


@dataclass
class LinkedNode:
    value: int
    next: Optional["LinkedNode"]


class TestPrimitives:
    def test_bool(self):
        assert schema_of(bool).kind is Kind.BOOL

    def test_int(self):
        assert schema_of(int).kind is Kind.INT

    def test_float(self):
        assert schema_of(float).kind is Kind.FLOAT

    def test_str(self):
        assert schema_of(str).kind is Kind.STR

    def test_bytes(self):
        assert schema_of(bytes).kind is Kind.BYTES

    def test_none_type(self):
        assert schema_of(type(None)).kind is Kind.NONE

    def test_none_literal(self):
        assert schema_of(None).kind is Kind.NONE

    def test_primitives_are_shared_singletons(self):
        assert schema_of(int) is schema_of(int)


class TestContainers:
    def test_list(self):
        s = schema_of(list[int])
        assert s.kind is Kind.LIST
        assert s.args[0].kind is Kind.INT

    def test_set(self):
        s = schema_of(set[str])
        assert s.kind is Kind.SET

    def test_frozenset(self):
        assert schema_of(frozenset[int]).kind is Kind.SET

    def test_dict(self):
        s = schema_of(dict[str, float])
        assert s.kind is Kind.DICT
        assert s.args[0].kind is Kind.STR
        assert s.args[1].kind is Kind.FLOAT

    def test_fixed_tuple(self):
        s = schema_of(tuple[int, str, bool])
        assert s.kind is Kind.TUPLE
        assert len(s.args) == 3

    def test_variable_tuple(self):
        s = schema_of(tuple[int, ...])
        assert s.kind is Kind.TUPLE
        assert s.args[1].kind is Kind.ANY

    def test_nested_containers(self):
        s = schema_of(dict[str, list[tuple[int, int]]])
        inner = s.args[1].args[0]
        assert inner.kind is Kind.TUPLE

    def test_bare_list_rejected(self):
        with pytest.raises(SchemaError):
            schema_of(list)

    def test_bare_tuple_rejected(self):
        with pytest.raises(SchemaError):
            schema_of(tuple[()]) if False else schema_of(tuple)


class TestOptional:
    def test_optional(self):
        s = schema_of(Optional[int])
        assert s.kind is Kind.OPTIONAL
        assert s.args[0].kind is Kind.INT

    def test_pipe_none_syntax(self):
        s = schema_of(int | None)
        assert s.kind is Kind.OPTIONAL

    def test_general_union_rejected(self):
        with pytest.raises(SchemaError, match="union"):
            schema_of(int | str)

    def test_three_way_union_rejected(self):
        with pytest.raises(SchemaError):
            schema_of(int | str | None)


class TestStructsAndEnums:
    def test_enum(self):
        s = schema_of(Color)
        assert s.kind is Kind.ENUM
        assert s.cls is Color

    def test_dataclass_fields_in_order(self):
        s = schema_of(Point)
        assert s.kind is Kind.STRUCT
        assert [f.name for f in s.fields] == ["x", "y"]

    def test_nested_dataclass(self):
        s = schema_of(Shape)
        names = [f.name for f in s.fields]
        assert names == ["name", "points", "color", "label"]
        assert s.fields[1].schema.args[0].cls is Point

    def test_recursive_dataclass_rejected(self):
        clear_cache()
        with pytest.raises(SchemaError, match="recursive"):
            schema_of(LinkedNode)

    def test_unresolvable_forward_ref_rejected(self):
        @dataclass
        class Local:
            other: "DoesNotExistAnywhere"  # noqa: F821

        with pytest.raises(SchemaError, match="resolve"):
            schema_of(Local)

    def test_non_init_fields_excluded(self):
        @dataclass
        class WithDerived:
            a: int
            b: int = field(init=False, default=0)

        s = schema_of(WithDerived)
        assert [f.name for f in s.fields] == ["a"]

    def test_unannotated_class_rejected(self):
        class Plain:
            pass

        with pytest.raises(SchemaError, match="not serializable"):
            schema_of(Plain)

    def test_callable_rejected(self):
        with pytest.raises(SchemaError):
            schema_of(lambda x: x)


class TestCanonical:
    def test_canonical_stable(self):
        assert schema_of(Point).canonical() == schema_of(Point).canonical()

    def test_canonical_distinguishes_types(self):
        assert schema_of(list[int]).canonical() != schema_of(list[str]).canonical()

    def test_canonical_includes_field_names(self):
        assert "x:int" in schema_of(Point).canonical()

    def test_canonical_includes_class_name(self):
        assert "Point" in schema_of(Point).canonical()

    def test_enum_canonical_includes_members(self):
        c = schema_of(Color).canonical()
        assert "RED" in c and "BLUE" in c

    def test_any_schema(self):
        assert schema_of(Any).kind is Kind.ANY


class TestHash:
    """Codecs key compiled functions by schema, so hashing must be cheap
    (cached at construction) and still by value."""

    def _rebuilt(self) -> Schema:
        clear_cache()  # a second derivation, not the cached tree
        return Schema(Kind.TUPLE, args=(schema_of(Shape), schema_of(int)))

    def test_equal_schemas_built_separately_hash_equal(self):
        a, b = self._rebuilt(), self._rebuilt()
        assert a is not b and a.args[0] is not b.args[0]
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_different_schemas_stay_different(self):
        assert schema_of(list[int]) != schema_of(set[int])
        assert schema_of(Point) != schema_of(Shape)

    def test_cached_hash_is_invisible(self):
        s = schema_of(Point)
        assert "_hash" not in repr(s) and "hash" not in s.canonical()
        assert [f.name for f in dataclasses.fields(s)] == ["kind", "args", "fields", "cls"]

    def test_pickle_rebuilds_the_hash_in_the_receiving_process(self):
        s = schema_of(Shape)
        assert b"_hash" not in pickle.dumps(s)
        back = pickle.loads(pickle.dumps(s))
        assert back == s and hash(back) == hash(s)

"""Schema derivation from Python type hints.

The paper's prototype uses build-time code generation: it inspects
``Implements[T]`` embeddings, computes the set of component interfaces, and
generates marshaling code (Section 4.2).  Here the same two steps happen at
run time.  This module does the inspecting: it derives a :class:`Schema` —
a small, immutable description of a wire type — from the type hints on
component methods and dataclasses.  :mod:`repro.serde.compact` does the
generating: on first use of a schema it emits Python source for an encoder
and a decoder, compiles it, and caches the functions under the schema (so
schemas hash in constant time: see :meth:`Schema.__hash__`).  The two
baseline codecs interpret schemas through closures instead, and
:mod:`repro.codegen.versioning` hashes them into the deployment version
used by the transport handshake.

Supported types::

    bool, int, float, str, bytes
    list[T], tuple[T1, ..., Tn], dict[K, V], set[T]
    Optional[T] (i.e. T | None)
    enum.Enum subclasses
    @dataclass classes (fields in declaration order)
    None (for methods returning nothing)

Field order matters: the compact format (Section 6) encodes struct fields in
declaration order with no tags, relying on encoder and decoder agreeing on
the schema — which they do, because both sides run the same version.
"""

from __future__ import annotations

import dataclasses
import enum
import types
import typing
from dataclasses import dataclass
from typing import Any, Optional, Union, get_args, get_origin, get_type_hints

from repro.core.errors import SchemaError


class Kind(enum.Enum):
    """The wire kind of a schema node."""

    NONE = "none"
    BOOL = "bool"
    INT = "int"
    FLOAT = "float"
    STR = "str"
    BYTES = "bytes"
    LIST = "list"
    TUPLE = "tuple"
    SET = "set"
    DICT = "dict"
    OPTIONAL = "optional"
    STRUCT = "struct"
    ENUM = "enum"
    ANY = "any"


@dataclass(frozen=True)
class Field:
    """A named field of a struct schema.

    ``kw_only`` fields (``kw_only=True``, after ``KW_ONLY``) are passed to
    the constructor by keyword; the wire does not know the difference.
    """

    name: str
    schema: "Schema"
    kw_only: bool = False


@dataclass(frozen=True)
class Schema:
    """An immutable description of a serializable type.

    ``args`` holds element schemas for containers; ``fields`` holds the
    ordered fields of a struct; ``cls`` holds the Python class for structs
    and enums so decoders can reconstruct instances.
    """

    kind: Kind
    args: tuple["Schema", ...] = ()
    fields: tuple[Field, ...] = ()
    cls: Optional[type] = None

    def __post_init__(self) -> None:
        # Not a dataclass field, so ==, repr() and canonical() never see it.
        object.__setattr__(self, "_hash", hash((self.kind, self.args, self.fields, self.cls)))

    def __hash__(self) -> int:
        """Computed once at construction: codecs look their compiled
        functions up by schema on every call, and hashing a struct's whole
        tree each time cost more than encoding a small message."""
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self) -> tuple:
        # Rebuild rather than copy __dict__: hashes of enum members and
        # classes differ from process to process, so a cached one must not travel.
        return (Schema, (self.kind, self.args, self.fields, self.cls))

    def canonical(self) -> str:
        """A canonical string for fingerprinting (versioning).

        Two schemas with the same canonical string are wire-compatible.
        Class identity is included by qualified name so renaming a struct
        (or reordering its fields) changes the deployment version.
        """
        if self.kind is Kind.STRUCT:
            inner = ",".join(f"{f.name}:{f.schema.canonical()}" for f in self.fields)
            return f"struct<{_type_name(self.cls)}>({inner})"
        if self.kind is Kind.ENUM:
            assert self.cls is not None
            members = ",".join(m.name for m in self.cls)
            return f"enum<{_type_name(self.cls)}>({members})"
        if self.args:
            inner = ",".join(a.canonical() for a in self.args)
            return f"{self.kind.value}({inner})"
        return self.kind.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schema({self.canonical()})"


def _type_name(cls: Optional[type]) -> str:
    if cls is None:
        return "?"
    return f"{cls.__module__}.{cls.__qualname__}"


# Primitive singletons, shared to keep schema trees small.
NONE = Schema(Kind.NONE)
BOOL = Schema(Kind.BOOL)
INT = Schema(Kind.INT)
FLOAT = Schema(Kind.FLOAT)
STR = Schema(Kind.STR)
BYTES = Schema(Kind.BYTES)
ANY = Schema(Kind.ANY)

_PRIMITIVES: dict[Any, Schema] = {
    type(None): NONE,
    bool: BOOL,
    int: INT,
    float: FLOAT,
    str: STR,
    bytes: BYTES,
    Any: ANY,
}

_cache: dict[Any, Schema] = {}


def schema_of(tp: Any) -> Schema:
    """Derive the :class:`Schema` for a Python type annotation.

    Raises :class:`SchemaError` for types that cannot travel over the wire
    (e.g. callables, open file handles, arbitrary classes).
    """
    try:
        return _cache[tp]
    except (KeyError, TypeError):
        # TypeError: unhashable annotation (rare); derive without caching.
        pass
    schema = _derive(tp, seen=set())
    try:
        _cache[tp] = schema
    except TypeError:
        pass
    return schema


def _derive(tp: Any, seen: set) -> Schema:
    if tp in _PRIMITIVES:
        return _PRIMITIVES[tp]
    if tp is None:
        return NONE

    origin = get_origin(tp)
    args = get_args(tp)

    if origin in (Union, types.UnionType):
        non_none = [a for a in args if a is not type(None)]
        if len(non_none) != len(args) and len(non_none) == 1:
            return Schema(Kind.OPTIONAL, args=(_derive(non_none[0], seen),))
        raise SchemaError(
            f"unsupported union type {tp!r}: only Optional[T] unions are "
            "serializable (a wire format needs an unambiguous shape)"
        )
    if origin is list:
        _require_args(tp, args, 1)
        return Schema(Kind.LIST, args=(_derive(args[0], seen),))
    if origin is set or origin is frozenset:
        _require_args(tp, args, 1)
        return Schema(Kind.SET, args=(_derive(args[0], seen),))
    if origin is dict:
        _require_args(tp, args, 2)
        return Schema(Kind.DICT, args=(_derive(args[0], seen), _derive(args[1], seen)))
    if origin is tuple:
        if not args:
            raise SchemaError(f"bare tuple annotation {tp!r} needs element types")
        if len(args) == 2 and args[1] is Ellipsis:
            # tuple[T, ...] — variable length, encode like a list.
            return Schema(Kind.TUPLE, args=(_derive(args[0], seen), ANY))
        return Schema(Kind.TUPLE, args=tuple(_derive(a, seen) for a in args))

    if isinstance(tp, type):
        if issubclass(tp, enum.Enum):
            return Schema(Kind.ENUM, cls=tp)
        if dataclasses.is_dataclass(tp):
            return _struct_schema(tp, seen)

    if tp is typing.Any:
        return ANY

    raise SchemaError(
        f"type {tp!r} is not serializable: component method arguments and "
        "results must be primitives, containers, enums, or dataclasses"
    )


def _require_args(tp: Any, args: tuple, n: int) -> None:
    if len(args) != n:
        raise SchemaError(f"{tp!r} must be parameterized with {n} type argument(s)")


def _struct_schema(cls: type, seen: set) -> Schema:
    if cls in seen:
        raise SchemaError(
            f"recursive dataclass {cls.__name__!r} is not serializable: the "
            "wire format requires a statically bounded shape"
        )
    seen = seen | {cls}
    try:
        hints = get_type_hints(cls)
    except Exception as exc:  # unresolvable forward references
        raise SchemaError(f"cannot resolve type hints of {cls.__name__!r}: {exc}") from exc
    fields = []
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        if f.name not in hints:
            raise SchemaError(f"field {cls.__name__}.{f.name} has no type annotation")
        fields.append(Field(f.name, _derive(hints[f.name], seen), f.kw_only))
    return Schema(Kind.STRUCT, fields=tuple(fields), cls=cls)


def clear_cache() -> None:
    """Drop the schema cache (used by tests that redefine classes)."""
    _cache.clear()

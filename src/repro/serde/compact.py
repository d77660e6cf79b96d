"""The compact, non-versioned wire format (Section 6 of the paper).

    "The serialization format used does not require any encoding of field
    numbers or type information.  This is because all encoders and decoders
    run at the exact same version and agree on the set of fields and the
    order in which they should be encoded and decoded in advance."

The format is schema-directed: a struct is just the concatenation of its
fields in declaration order; a list is a count followed by elements; an
optional is one presence byte.  There are no tags, no field names, and no
type markers anywhere.  Safety comes from the transport handshake
(:mod:`repro.transport.connection`), which refuses to connect peers whose
deployment versions differ.

Like the Go prototype (Section 4.2), the marshaling code is *generated*:
the first use of a :class:`Schema` emits Python source for one flat
``encode(out, v)`` and one ``decode(buf, pos, end) -> (value, pos)``
function, compiles it and caches the pair by schema value.  Primitives are
inlined (varints, their one-byte case on the spot and longer ones finished
by a shared helper; ``str.encode`` + ``out +=``; ``struct`` for floats),
containers are inline ``for`` loops, and every nested dataclass is
expanded in place: the encoder reads each of its fields once into a local,
the decoder reads them into locals and builds the instance (below).  So a
64-product ``HomePage`` costs no Python call per struct in either
direction; the price is that a shared type's code (``Money``) is repeated
in every message that holds it.  The decoder walks a ``bytes`` object with
a local position: a read past the end is the ``IndexError`` the generated
function turns into :class:`DecodeError`, and every length is checked
against the end before it is sliced (a slice past the end would shorten
silently).  :meth:`CompactCodec.source` prints what was generated;
tracebacks through it show its lines.

What a constructor raises is not a wire error, at any depth.  The root is
built after its reads, outside the ``try`` that turns their errors into
:class:`DecodeError`.  A nested class that must be constructed is called
inside it; the helpers the reads call report their own wire errors, so an
``IndexError`` or ``UnicodeDecodeError`` that reaches the handler from a
frame below the decoder's came from a constructor and is re-raised as it
is.

A *plain* dataclass skips its constructor:
``v = new(cls0); d = v.__dict__; d['id'] = f_id_1; ...`` with
``new = object.__new__``, keys in field order as the generated ``__init__``
stores them.  Plain means ``@dataclass``'s own ``__init__`` (not one
written by hand or inherited), no ``__post_init__``, every field
``init=True``, instances with a ``__dict__`` (not ``slots=True``),
``object.__new__``, frozen or ``object.__setattr__``, and no field name
that is a data descriptor (a property) on the class.  Anything else is
called, ``kw_only`` fields by keyword.  Which form is decided once, when
the schema is compiled.  The result is equal, hashes, prints, pickles and
refuses assignment as a constructed one does; only its ``__dict__`` is
materialised, which costs ~64 B per instance and makes attribute reads
slower (CPython's inline-values fast path no longer applies).
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable, NamedTuple

from repro.codegen.compiler import register_source
from repro.codegen.schema import Kind, Schema
from repro.core.errors import DecodeError, EncodeError

Encoder = Callable[[bytearray, Any], None]
#: ``decode(buf, pos, end) -> (value, new_pos)`` over a ``bytes`` buffer
#: whose length is ``end``.
Decoder = Callable[[bytes, int, int], "tuple[Any, int]"]

_FLOAT = struct.Struct("<d")


class _Compiled(NamedTuple):
    encode: Encoder
    decode: Decoder
    source: str


class CompactCodec:
    """Schema-directed tag-free binary codec."""

    name = "compact"

    def __init__(self) -> None:
        self._compiled: dict[Schema, _Compiled] = {}

    # -- public API ---------------------------------------------------------

    def encode(self, schema: Schema, value: Any) -> bytes:
        out = bytearray()
        self.encode_into(schema, value, out)
        return bytes(out)

    def encode_into(self, schema: Schema, value: Any, out: bytearray) -> None:
        """Append the encoding to ``out`` — no intermediate materialization."""
        pair = self._compiled.get(schema) or self._compile(schema)
        try:
            pair.encode(out, value)
        except (TypeError, AttributeError, ValueError, KeyError) as exc:
            raise EncodeError(
                f"value {value!r} does not conform to schema {schema.canonical()}: {exc}"
            ) from exc

    def decode(self, schema: Schema, data: "bytes | bytearray | memoryview") -> Any:
        # The transport hands over owned bytes; anything else is copied
        # once, because indexing bytes is faster than indexing a view.
        buf = data if type(data) is bytes else bytes(data)
        end = len(buf)
        pair = self._compiled.get(schema) or self._compile(schema)
        value, pos = pair.decode(buf, 0, end)
        if pos != end:
            raise DecodeError(
                f"{end - pos} trailing bytes after decoding {schema.canonical()}"
            )
        return value

    # -- compilation --------------------------------------------------------

    def encoder(self, schema: Schema) -> Encoder:
        return (self._compiled.get(schema) or self._compile(schema)).encode

    def decoder(self, schema: Schema) -> Decoder:
        return (self._compiled.get(schema) or self._compile(schema)).decode

    def source(self, schema: Schema) -> str:
        """The Python source generated for ``schema`` (a debugging aid)."""
        self.encoder(schema)  # compiles on first use
        return self._compiled[schema].source

    def compiled_schemas(self) -> int:
        """How many schemas have been compiled: constant once the process is warm."""
        return len(self._compiled)

    def _generator(self, schema: Schema) -> "_Generator":
        return _Generator(schema)

    def _compile(self, schema: Schema) -> _Compiled:
        gen = self._generator(schema)
        source = gen.source()
        namespace = dict(gen.constants, DecodeError=DecodeError, EncodeError=EncodeError)
        filename = register_source(f"repro.serde.{self.name} {_label(schema)}", source)
        exec(compile(source, filename, "exec"), namespace)
        compiled = _Compiled(namespace["encode"], namespace["decode"], source)
        self._compiled[schema] = compiled
        return compiled


def _label(schema: Schema) -> str:
    """A short name for file names and messages: ``list(Product)``."""
    if schema.cls is not None:
        return schema.cls.__name__
    if schema.args:
        return f"{schema.kind.value}({','.join(_label(a) for a in schema.args)})"
    return schema.kind.value


def _is_vartuple(schema: Schema) -> bool:
    return len(schema.args) == 2 and schema.args[1].kind is Kind.ANY


def _fills_dict(cls: type) -> bool:
    """Whether a decoded ``cls`` may skip its constructor.

    True for a plain dataclass, whose ``__init__`` does nothing but store
    each field in the instance dict: ``object.__new__`` plus the same
    stores in field order builds the same object at a third of the cost.
    Anything that could make ``__init__`` do more keeps the call.
    """
    if not dataclasses.is_dataclass(cls):
        return False
    init = vars(cls).get("__init__")
    fields = dataclasses.fields(cls)
    return (
        # The __init__ @dataclass generated (compiled from a string), not
        # one written by hand or inherited by a plain subclass.
        getattr(getattr(init, "__code__", None), "co_filename", None) == "<string>"
        and not hasattr(cls, "__post_init__")
        and all(f.init for f in fields)  # the schema carries every attribute
        and cls.__dictoffset__ != 0  # not slots=True
        and cls.__new__ is object.__new__
        and (cls.__dataclass_params__.frozen or cls.__setattr__ is object.__setattr__)
        and not any(_is_data_descriptor(cls, f.name) for f in fields)
    )


def _is_data_descriptor(cls: type, name: str) -> bool:
    """Whether ``name`` on instances of ``cls`` is a property, slot or the
    like, which an assignment in ``__init__`` goes through."""
    for klass in cls.__mro__:
        if name in vars(klass):
            kind = type(vars(klass)[name])
            return hasattr(kind, "__set__") or hasattr(kind, "__delete__")
    return False


#: Kinds whose encoder mentions the value once, so it needs no local.
_READ_ONCE = (Kind.BOOL, Kind.FLOAT, Kind.STR, Kind.ENUM)


def _uvarint_tail(buf: bytes, pos: int, n: int) -> "tuple[int, int]":
    """Finish a LEB128 read whose first byte ``n`` had its high bit set.

    It reports its own truncation: a generated decoder treats an
    ``IndexError`` from a frame below its own as a constructor's."""
    n &= 0x7F
    shift = 7
    try:
        while True:
            b = buf[pos]
            pos += 1
            n |= (b & 0x7F) << shift
            if b < 0x80:
                return n, pos
            shift += 7
            # Python ints are arbitrary precision; the bound exists only to cut
            # off unterminated varints from corrupt buffers, so it is generous.
            if shift > 9100:
                raise DecodeError("uvarint too long (corrupt buffer)")
    except IndexError:
        raise DecodeError(f"truncated buffer: varint runs past offset {pos}") from None


class _Generator:
    """Emits the source of one flat ``encode`` and ``decode`` for a schema.

    Every nested dataclass is expanded in place: its fields are read into
    locals on both sides, and the decoder builds it from them, one constant
    ``cls<k>`` per class occurrence.  A *plain* class (:func:`_fills_dict`)
    is built with ``new(cls<k>)`` plus ``__dict__`` stores; any other is
    called.  Classes, enum tables and the other objects the source names
    are passed in :attr:`constants`.
    """

    def __init__(self, root: Schema) -> None:
        self.root = root
        self.constants: dict[str, Any] = {}
        self._lines: list[str] = []
        self._temps = 0
        #: The local holding the end of what the current read may consume.
        self._end = "end"

    def source(self) -> str:
        root, what = self.root, _label(self.root)
        self._emit(0, "def encode(out, v):", "    append = out.append")
        if root.kind is Kind.STRUCT:
            self._encode_fields(1, root, "v")
        else:
            self._encode(1, root, "v")
        self._emit(0, "", "def decode(buf, pos, end):", "    try:")
        body = len(self._lines)
        if root.kind is Kind.STRUCT:
            values = self._decode_fields(2, root)
        else:
            result = self._decode(2, root, "value")
        if len(self._lines) == body:
            self._emit(2, "pass")  # a schema of no bytes (None) reads nothing
        # A nested class that must be constructed is called inside the try,
        # and the helpers the reads call report their own wire errors: so
        # what comes from a frame below this one (tb_next) is a
        # constructor's, which is not a wire error.
        self._emit(
            1,
            "except IndexError as exc:",
            "    if exc.__traceback__.tb_next:",
            "        raise",
            f"    raise DecodeError('truncated buffer decoding {what}') from None",
            "except UnicodeDecodeError as exc:",
            "    if exc.__traceback__.tb_next:",
            "        raise",
            f"    raise DecodeError(f'invalid utf-8 in string of {what}: {{exc}}') from exc",
        )
        if root.kind is not Kind.STRUCT:
            self._emit(1, f"return {result}, pos")
        else:
            # Built outside the try: what a constructor raises is not a wire error.
            self._build(1, root, values, "v")
            self._emit(1, "return v, pos")
        return "\n".join(self._lines) + "\n"

    # -- helpers ------------------------------------------------------------

    def _emit(self, depth: int, *lines: str) -> None:
        self._lines.extend("    " * depth + line if line else "" for line in lines)

    def _temp(self, prefix: str) -> str:
        self._temps += 1
        return f"{prefix}{self._temps}"

    def _const(self, prefix: str, value: Any) -> str:
        name = f"{prefix}{len(self.constants)}"
        self.constants[name] = value
        return name

    # -- encoding -----------------------------------------------------------

    def _write_uvarint(self, d: int, n: str) -> None:
        """Append LEB128 of the non-negative local ``n`` (clobbers it)."""
        self._emit(
            d,
            f"while {n} > 0x7F:",
            f"    append(({n} & 0x7F) | 0x80)",
            f"    {n} >>= 7",
            f"append({n})",
        )

    def _encode(self, d: int, schema: Schema, v: str) -> None:
        """Emit statements appending the encoding of expression ``v``."""
        kind = schema.kind
        if kind not in _READ_ONCE and not v.isidentifier():  # a field access: evaluate it once
            x = self._temp("x")
            self._emit(d, f"{x} = {v}")
            v = x
        if kind is Kind.NONE:
            self._emit(
                d, f"if {v} is not None:", f"    raise EncodeError(f'expected None, got {{{v}!r}}')"
            )
        elif kind is Kind.BOOL:
            self._emit(d, f"append(1 if {v} else 0)")
        elif kind is Kind.INT:
            u = self._temp("u")
            self._emit(
                d,
                f"if type({v}) is not int and (type({v}) is bool or not isinstance({v}, int)):",
                f"    raise EncodeError(f'expected int, got {{type({v}).__name__}}')",
                f"{u} = {v} << 1 if {v} >= 0 else ~({v} << 1)  # zigzag",
            )
            self._write_uvarint(d, u)
        elif kind is Kind.FLOAT:
            self.constants["pack_float"] = _FLOAT.pack
            self._emit(d, f"out += pack_float(float({v}))")
        elif kind is Kind.STR or kind is Kind.BYTES:
            data = v
            if kind is Kind.STR:
                data = self._temp("s")
                self._emit(d, f"{data} = {v}.encode()")
            n = self._temp("n")
            self._emit(d, f"{n} = len({data})")
            self._write_uvarint(d, n)
            self._emit(d, f"out += {data}")
        elif kind is Kind.TUPLE and not _is_vartuple(schema):
            arity = len(schema.args)
            items = [self._temp("x") for _ in schema.args]
            self._emit(
                d,
                f"if len({v}) != {arity}:",
                f"    raise EncodeError(f'tuple length {{len({v})}} != schema arity {arity}')",
                f"{', '.join(items)}, = {v}",
            )
            for item, arg in zip(items, schema.args):
                self._encode(d, arg, item)
        elif kind in (Kind.LIST, Kind.SET, Kind.TUPLE, Kind.DICT):
            n = self._temp("n")
            self._emit(d, f"{n} = len({v})")
            self._write_uvarint(d, n)
            x = self._temp("x")
            if kind is Kind.DICT:
                k = self._temp("k")
                self._emit(d, f"for {k}, {x} in {v}.items():")
                self._encode(d + 1, schema.args[0], k)
                self._encode(d + 1, schema.args[1], x)
            else:
                self._emit(d, f"for {x} in {v}:")
                self._encode(d + 1, schema.args[0], x)
        elif kind is Kind.OPTIONAL:
            self._emit(d, f"if {v} is None:", "    append(0)", "else:", "    append(1)")
            self._encode(d + 1, schema.args[0], v)
        elif kind is Kind.ENUM:
            index = self._const("index", {m: i for i, m in enumerate(schema.cls)})
            n = self._temp("n")
            self._emit(d, f"{n} = {index}[{v}]")
            self._write_uvarint(d, n)
        elif kind is Kind.STRUCT:
            self._encode_fields(d, schema, v)
        else:
            raise EncodeError(f"cannot encode schema kind {kind}")

    def _encode_fields(self, d: int, schema: Schema, v: str) -> None:
        """Emit the encoding of struct ``v``'s fields, in declaration order."""
        for f in schema.fields:
            self._encode(d, f.schema, f"{v}.{f.name}")

    # -- decoding -----------------------------------------------------------

    def _read_uvarint(self, d: int) -> str:
        """Emit a LEB128 read at ``pos``; returns the local holding it."""
        self.constants["uvarint_tail"] = _uvarint_tail
        n = self._temp("n")
        self._emit(
            d,
            f"{n} = buf[pos]",
            "pos += 1",
            f"if {n} > 0x7F:",
            f"    {n}, pos = uvarint_tail(buf, pos, {n})",
        )
        return n

    def _read_length(self, d: int, complaint: str) -> str:
        """A byte length or element count, checked against the buffer end:
        a slice past it would shorten silently, and (each element taking
        at least one byte) a count past it is corrupt — rejecting it here
        keeps malformed input from driving huge allocations."""
        n, end = self._read_uvarint(d), self._end
        complaint = complaint.format(n=n, end=end)
        self._emit(d, f"if {n} > {end} - pos:", f"    raise DecodeError(f'{complaint}')")
        return n

    def _decode(self, d: int, schema: Schema, x: str) -> str:
        """Emit statements decoding one value at ``pos`` into local ``x``;
        returns the expression holding it (``x``, or a literal)."""
        kind = schema.kind
        if kind is Kind.NONE:
            return "None"
        if kind is Kind.STRUCT:
            self._build(d, schema, self._decode_fields(d, schema), x)
        elif kind is Kind.BOOL:
            self._emit(
                d,
                f"{x} = buf[pos]",
                "pos += 1",
                f"if {x} > 1:",
                f"    raise DecodeError(f'invalid bool byte {{{x}}}')",
                f"{x} = {x} == 1",
            )
        elif kind is Kind.INT:
            n = self._read_uvarint(d)
            self._emit(d, f"{x} = ({n} >> 1) ^ -({n} & 1)  # unzigzag")
        elif kind is Kind.FLOAT:
            self.constants["unpack_float"] = _FLOAT.unpack_from
            self._emit(
                d,
                f"if 8 > {self._end} - pos:",
                "    raise DecodeError(f'truncated buffer: need 8 bytes at offset {pos}')",
                f"{x} = unpack_float(buf, pos)[0]",
                "pos += 8",
            )
        elif kind is Kind.STR or kind is Kind.BYTES:
            n = self._read_length(
                d, "truncated buffer: need {{{n}}} bytes at offset {{pos}}, have {{{end} - pos}}"
            )
            decode = ".decode()" if kind is Kind.STR else ""
            self._emit(d, f"{x} = buf[pos : pos + {n}]{decode}", f"pos += {n}")
        elif kind is Kind.TUPLE and not _is_vartuple(schema):
            items = [self._decode(d, arg, self._temp("x")) for arg in schema.args]
            self._emit(d, f"{x} = ({', '.join(items)},)")
        elif kind in (Kind.LIST, Kind.SET, Kind.TUPLE, Kind.DICT):
            n = self._read_length(
                d, "container count {{{n}}} exceeds remaining {{{end} - pos}} bytes"
            )
            empty = {Kind.SET: "set()", Kind.DICT: "{}"}.get(kind, "[]")
            self._emit(d, f"{x} = {empty}", f"for _ in range({n}):")
            item = self._decode(d + 1, schema.args[0], self._temp("x"))
            if kind is Kind.DICT:
                value = self._decode(d + 1, schema.args[1], self._temp("x"))
                self._emit(d + 1, f"{x}[{item}] = {value}")
            else:
                self._emit(d + 1, f"{x}.{'add' if kind is Kind.SET else 'append'}({item})")
            if kind is Kind.TUPLE:
                self._emit(d, f"{x} = tuple({x})")
        elif kind is Kind.OPTIONAL:
            flag = self._temp("b")
            self._emit(d, f"{flag} = buf[pos]", "pos += 1", f"if {flag} == 1:")
            inner = self._decode(d + 1, schema.args[0], x)
            if inner != x:
                self._emit(d + 1, f"{x} = {inner}")
            self._emit(
                d,
                f"elif {flag} == 0:",
                f"    {x} = None",
                "else:",
                f"    raise DecodeError(f'invalid optional presence byte {{{flag}}}')",
            )
        elif kind is Kind.ENUM:
            members = self._const("members", tuple(schema.cls))
            n = self._read_uvarint(d)
            self._emit(
                d,
                f"if {n} >= {len(schema.cls)}:",
                f"    raise DecodeError(f'enum index {{{n}}} out of range for {_label(schema)}')",
                f"{x} = {members}[{n}]",
            )
        else:
            raise DecodeError(f"cannot decode schema kind {kind}")
        return x

    def _decode_fields(self, d: int, schema: Schema) -> list[str]:
        """Emit reads of a struct's fields into locals; returns their expressions."""
        return [self._decode(d, f.schema, self._temp(f"f_{f.name}_")) for f in schema.fields]

    def _build(self, d: int, schema: Schema, values: list[str], x: str) -> None:
        """Emit ``x = `` the struct whose fields ``values`` hold.  A plain
        class fills a new instance's ``__dict__`` in field order, as its
        generated ``__init__`` would; any other is called."""
        cls = self._const("cls", schema.cls)
        if _fills_dict(schema.cls):
            self.constants["new"] = object.__new__
            self._emit(d, f"{x} = new({cls})", f"d = {x}.__dict__")
            self._emit(d, *(f"d[{f.name!r}] = {y}" for f, y in zip(schema.fields, values)))
        else:
            args = [y for f, y in zip(schema.fields, values) if not f.kw_only]
            args += [f"{f.name}={y}" for f, y in zip(schema.fields, values) if f.kw_only]
            self._emit(d, f"{x} = {cls}({', '.join(args)})")


#: Shared default instance; compiled functions are cached per instance, so
#: sharing one across the process means every deployment after the first
#: compiles nothing.
CODEC = CompactCodec()

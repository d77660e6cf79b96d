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
the first use of a :class:`Schema` emits Python source for one
``encode(out, v)`` and one ``decode(buf, pos, end) -> (value, pos)``
function, compiles it and caches the pair by schema value.  Primitives are
inlined (varints, their one-byte case on the spot and longer ones finished
by a shared helper; ``str.encode`` + ``out +=``; ``struct`` for floats),
containers are inline ``for`` loops, and every dataclass gets its own pair
of functions, so a nested struct is one call and a shared type (``Money``)
is compiled once however many messages hold it.  The decoder walks a
``bytes`` object with a local position: a read past the end is the
``IndexError`` each generated function turns into :class:`DecodeError`,
and every length is checked against the end before it is sliced (a slice
past the end would shorten silently).  :meth:`CompactCodec.source` prints
what was generated; tracebacks through it show its lines.
"""

from __future__ import annotations

import linecache
import struct
from typing import Any, Callable, NamedTuple

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
        try:
            self.encoder(schema)(out, value)
        except (TypeError, AttributeError, ValueError, KeyError) as exc:
            raise EncodeError(
                f"value {value!r} does not conform to schema {schema.canonical()}: {exc}"
            ) from exc

    def decode(self, schema: Schema, data: "bytes | bytearray | memoryview") -> Any:
        # One copy of the frame window: indexing bytes is faster than
        # indexing a memoryview, and every leaf is materialized anyway.
        buf = data if type(data) is bytes else bytes(data)
        end = len(buf)
        value, pos = self.decoder(schema)(buf, 0, end)
        if pos != end:
            raise DecodeError(
                f"{end - pos} trailing bytes after decoding {schema.canonical()}"
            )
        return value

    # -- compilation --------------------------------------------------------

    def encoder(self, schema: Schema) -> Encoder:
        try:
            return self._compiled[schema].encode
        except KeyError:
            return self._compile(schema).encode

    def decoder(self, schema: Schema) -> Decoder:
        try:
            return self._compiled[schema].decode
        except KeyError:
            return self._compile(schema).decode

    def source(self, schema: Schema) -> str:
        """The Python source generated for ``schema`` (a debugging aid)."""
        self.encoder(schema)  # compiles on first use
        return self._compiled[schema].source

    def compiled_schemas(self) -> int:
        """How many schemas have been compiled: constant once the process is warm."""
        return len(self._compiled)

    def _compile(self, schema: Schema) -> _Compiled:
        gen = _Generator(schema)
        source = gen.source()
        namespace = dict(gen.constants, DecodeError=DecodeError, EncodeError=EncodeError)
        for name, struct_schema in gen.structs.items():
            pair = self._compiled.get(struct_schema) or self._compile(struct_schema)
            namespace[f"enc_{name}"], namespace[f"dec_{name}"] = pair.encode, pair.decode
        filename = _register_source(_label(schema), source)
        exec(compile(source, filename, "exec"), namespace)
        compiled = _Compiled(namespace["encode"], namespace["decode"], source)
        self._compiled[schema] = compiled
        return compiled


def _register_source(label: str, source: str) -> str:
    """File the source in :mod:`linecache` so tracebacks can quote it."""
    lines = source.splitlines(keepends=True)
    filename, n = f"<repro.serde.compact {label}>", 1
    while linecache.cache.get(filename, (0, None, lines))[2] != lines:
        n += 1  # another schema with this label (two classes of one name)
        filename = f"<repro.serde.compact {label}#{n}>"
    # mtime None: checkcache() never drops an entry that has no file behind it.
    linecache.cache[filename] = (len(source), None, lines, filename)
    return filename


def _label(schema: Schema) -> str:
    """A short name for file names and messages: ``list(Product)``."""
    if schema.cls is not None:
        return schema.cls.__name__
    if schema.args:
        return f"{schema.kind.value}({','.join(_label(a) for a in schema.args)})"
    return schema.kind.value


def _is_vartuple(schema: Schema) -> bool:
    return len(schema.args) == 2 and schema.args[1].kind is Kind.ANY


#: Kinds whose encoder mentions the value once, so it needs no local.
_READ_ONCE = (Kind.BOOL, Kind.FLOAT, Kind.STR, Kind.ENUM)


def _uvarint_tail(buf: bytes, pos: int, n: int) -> "tuple[int, int]":
    """Finish a LEB128 read whose first byte ``n`` had its high bit set."""
    n &= 0x7F
    shift = 7
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


class _Generator:
    """Emits the source of ``encode`` and ``decode`` for one schema.

    Structs other than the root are not expanded: they are called as
    ``enc_<Name>`` / ``dec_<Name>`` and listed in :attr:`structs` for the
    codec to compile (once) and bind.  Enum tables and the other objects
    the source names are passed the same way, in :attr:`constants`.
    """

    def __init__(self, root: Schema) -> None:
        self.root = root
        self.structs: dict[str, Schema] = {}
        self.constants: dict[str, Any] = {}
        self._lines: list[str] = []
        self._temps = 0

    def source(self) -> str:
        root, what = self.root, _label(self.root)
        self._emit(0, "def encode(out, v):", "    append = out.append")
        if root.kind is Kind.STRUCT:
            for f in root.fields:
                self._encode(1, f.schema, f"v.{f.name}")
        else:
            self._encode(1, root, "v")
        self._emit(0, "", "def decode(buf, pos, end):", "    try:")
        body = len(self._lines)
        if root.kind is Kind.STRUCT:
            self.constants["cls"] = root.cls
            fields = [self._decode(2, f.schema, f"f_{f.name}") for f in root.fields]
            result = f"cls({', '.join(fields)})"
        else:
            result = self._decode(2, root, "value")
        if len(self._lines) == body:
            self._emit(2, "pass")  # a schema of no bytes (None) reads nothing
        self._emit(
            1,
            "except IndexError:",
            f"    raise DecodeError('truncated buffer decoding {what}') from None",
            "except UnicodeDecodeError as exc:",
            f"    raise DecodeError(f'invalid utf-8 in string of {what}: {{exc}}') from exc",
            # Built outside the try: what __post_init__ raises is not a wire error.
            f"return {result}, pos",
        )
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

    def _struct(self, schema: Schema) -> str:
        """The name ``schema``'s functions are bound under in this module."""
        base = schema.cls.__name__
        name, n = base, 1
        while self.structs.setdefault(name, schema) != schema:
            n += 1  # two classes of one name
            name = f"{base}_{n}"
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
        if kind is Kind.STRUCT:
            self._emit(d, f"enc_{self._struct(schema)}(out, {v})")
            return
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
        else:
            raise EncodeError(f"cannot encode schema kind {kind}")

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
        n = self._read_uvarint(d)
        self._emit(
            d, f"if {n} > end - pos:", f"    raise DecodeError(f'{complaint.format(n=n)}')"
        )
        return n

    def _decode(self, d: int, schema: Schema, x: str) -> str:
        """Emit statements decoding one value at ``pos`` into local ``x``;
        returns the expression holding it (``x``, or a literal)."""
        kind = schema.kind
        if kind is Kind.NONE:
            return "None"
        if kind is Kind.STRUCT:
            self._emit(d, f"{x}, pos = dec_{self._struct(schema)}(buf, pos, end)")
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
                "if 8 > end - pos:",
                "    raise DecodeError(f'truncated buffer: need 8 bytes at offset {pos}')",
                f"{x} = unpack_float(buf, pos)[0]",
                "pos += 8",
            )
        elif kind is Kind.STR or kind is Kind.BYTES:
            n = self._read_length(
                d, "truncated buffer: need {{{n}}} bytes at offset {{pos}}, have {{end - pos}}"
            )
            decode = ".decode()" if kind is Kind.STR else ""
            self._emit(d, f"{x} = buf[pos : pos + {n}]{decode}", f"pos += {n}")
        elif kind is Kind.TUPLE and not _is_vartuple(schema):
            items = [self._decode(d, arg, self._temp("x")) for arg in schema.args]
            self._emit(d, f"{x} = ({', '.join(items)},)")
        elif kind in (Kind.LIST, Kind.SET, Kind.TUPLE, Kind.DICT):
            n = self._read_length(
                d, "container count {{{n}}} exceeds remaining {{end - pos}} bytes"
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


#: Shared default instance; compiled functions are cached per instance, so
#: sharing one across the process means every deployment after the first
#: compiles nothing.
CODEC = CompactCodec()

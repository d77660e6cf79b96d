"""Compilation of component interfaces into wire-level method schemas.

The Go prototype inspects ``Implements[T]`` embeddings at build time and
generates marshaling and RPC stub code (Section 4.2).  Here the same job is
done at import time: :func:`compile_interface` walks the async methods
declared on a component interface, derives a :class:`~repro.codegen.schema.Schema`
for the argument tuple and the result of each, and assigns every method a
stable numeric id.

Those numeric ids — like the absence of field tags in the compact format —
are only safe because every proclet in a deployment runs the same code
version: ids are assigned from the sorted method names, so any signature
change anywhere changes the deployment version (see
:mod:`repro.codegen.versioning`) and the transport handshake keeps
old and new processes apart.
"""

from __future__ import annotations

import inspect
import linecache
from dataclasses import dataclass, field
from typing import Callable, Optional, get_type_hints

from repro.codegen.schema import ANY, Kind, NONE, Schema, schema_of
from repro.core.errors import RegistrationError

#: Attribute set by the @routed decorator on interface methods.
ROUTING_ATTR = "_repro_routed_by"

#: Attribute set by the @idempotent decorator on interface methods.
IDEMPOTENT_ATTR = "_repro_idempotent"


@dataclass(frozen=True)
class MethodSpec:
    """Everything the framework needs to marshal and dispatch one method."""

    name: str
    index: int
    arg_names: tuple[str, ...]
    arg_schema: Schema  # a TUPLE schema over the positional arguments
    result_schema: Schema
    routing_key: Optional[str] = None  # argument name used for affinity routing
    idempotent: bool = False  # safe to retry/hedge even if it may have run

    @property
    def routing_index(self) -> Optional[int]:
        """Position of the routing-key argument, or None if unrouted."""
        if self.routing_key is None:
            return None
        return self.arg_names.index(self.routing_key)

    def signature(self) -> str:
        """Canonical signature string, folded into the deployment version."""
        routed = f"@{self.routing_key}" if self.routing_key else ""
        idem = "!idem" if self.idempotent else ""
        return (
            f"{self.name}{routed}{idem}({self.arg_schema.canonical()})"
            f"->{self.result_schema.canonical()}"
        )


@dataclass(frozen=True)
class InterfaceSpec:
    """The compiled wire contract of one component interface."""

    name: str  # fully qualified interface name
    methods: tuple[MethodSpec, ...]
    by_name: dict[str, MethodSpec] = field(compare=False, hash=False, default_factory=dict)

    def method(self, name: str) -> MethodSpec:
        try:
            return self.by_name[name]
        except KeyError:
            raise RegistrationError(
                f"component {self.name} has no method {name!r}"
            ) from None

    def signature(self) -> str:
        sigs = ";".join(m.signature() for m in self.methods)
        return f"{self.name}{{{sigs}}}"


def routed(by: str) -> Callable:
    """Mark an interface method for affinity routing (Section 5.2).

    Calls are routed so that all invocations with equal values of the
    ``by`` argument land on the same replica — the Slicer-style routing the
    paper embeds into the framework::

        class Cache(Component):
            @routed(by="key")
            async def get(self, key: str) -> bytes: ...
    """

    def mark(fn: Callable) -> Callable:
        setattr(fn, ROUTING_ATTR, by)
        return fn

    return mark


def idempotent(fn: Callable) -> Callable:
    """Declare an interface method safe to retry and hedge.

    The resilience layer only re-executes a method that *may already have
    run* if it is marked idempotent; everything else is retried solely on
    failures that provably happened before execution (connect errors,
    admission-control sheds).  Hedged requests are restricted to idempotent
    methods outright::

        class ProductCatalog(Component):
            @idempotent
            async def get_product(self, product_id: str) -> Product: ...
    """
    setattr(fn, IDEMPOTENT_ATTR, True)
    return fn


def compile_interface(iface: type, name: str) -> InterfaceSpec:
    """Derive the :class:`InterfaceSpec` for a component interface class.

    Methods are every non-underscore coroutine function declared on the
    interface (inherited framework plumbing is excluded).  Indices are
    assigned in sorted name order, so they are deterministic for any two
    processes compiled from identical source.
    """
    methods = []
    names = sorted(
        attr
        for attr, value in _declared_methods(iface)
        if not attr.startswith("_")
    )
    declared = dict(_declared_methods(iface))
    for index, attr in enumerate(names):
        fn = declared[attr]
        methods.append(_compile_method(iface, attr, fn, index))
    if not methods:
        raise RegistrationError(
            f"component interface {iface.__name__!r} declares no methods; an "
            "interface must expose at least one async method"
        )
    spec = InterfaceSpec(name=name, methods=tuple(methods))
    spec.by_name.update({m.name: m for m in methods})
    return spec


def _declared_methods(iface: type) -> list[tuple[str, Callable]]:
    """Methods declared on the interface or its non-framework bases."""
    from repro.core.component import Component  # cycle: component imports us

    out: dict[str, Callable] = {}
    for klass in reversed(iface.__mro__):
        if klass in (object, Component):
            continue
        for attr, value in vars(klass).items():
            if inspect.isfunction(value):
                out[attr] = value
    return list(out.items())


def _compile_method(iface: type, attr: str, fn: Callable, index: int) -> MethodSpec:
    if not inspect.iscoroutinefunction(fn):
        raise RegistrationError(
            f"{iface.__name__}.{attr} must be declared 'async def': component "
            "method calls may become RPCs and are therefore awaitable"
        )
    sig = inspect.signature(fn)
    try:
        hints = get_type_hints(fn)
    except Exception as exc:
        raise RegistrationError(
            f"cannot resolve type hints of {iface.__name__}.{attr}: {exc}"
        ) from exc

    params = list(sig.parameters.values())
    if not params or params[0].name != "self":
        raise RegistrationError(
            f"{iface.__name__}.{attr} must be an instance method (missing self)"
        )
    arg_names = []
    arg_schemas = []
    for p in params[1:]:
        if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            raise RegistrationError(
                f"{iface.__name__}.{attr} uses *args/**kwargs, which cannot "
                "cross a wire boundary; declare explicit parameters"
            )
        if p.name not in hints:
            raise RegistrationError(
                f"{iface.__name__}.{attr} parameter {p.name!r} has no type "
                "annotation; the marshaling code is generated from type hints"
            )
        arg_names.append(p.name)
        arg_schemas.append(schema_of(hints[p.name]))

    result_schema = schema_of(hints["return"]) if "return" in hints else NONE
    if arg_schemas:
        arg_schema = Schema(Kind.TUPLE, args=tuple(arg_schemas))
    else:
        arg_schema = Schema(Kind.TUPLE, args=(NONE, ANY))  # zero-arg: empty var tuple

    routing_key = getattr(fn, ROUTING_ATTR, None)
    if routing_key is not None and routing_key not in arg_names:
        raise RegistrationError(
            f"{iface.__name__}.{attr} is @routed(by={routing_key!r}) but has "
            f"no parameter of that name (parameters: {arg_names})"
        )
    return MethodSpec(
        name=attr,
        index=index,
        arg_names=tuple(arg_names),
        arg_schema=arg_schema,
        result_schema=result_schema,
        routing_key=routing_key,
        idempotent=bool(getattr(fn, IDEMPOTENT_ATTR, False)),
    )


def register_source(label: str, source: str) -> str:
    """File generated source in :mod:`linecache` so tracebacks can quote
    it; ``label`` names the generator and what it generated for."""
    lines = source.splitlines(keepends=True)
    filename, n = f"<{label}>", 1
    while linecache.cache.get(filename, (0, None, lines))[2] != lines:
        n += 1  # another source with this label (two classes of one name)
        filename = f"<{label}#{n}>"
    # mtime None: checkcache() never drops an entry that has no file behind it.
    linecache.cache[filename] = (len(source), None, lines, filename)
    return filename

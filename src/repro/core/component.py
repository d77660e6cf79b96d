"""The component abstraction — the paper's key programming-model idea (§3).

A component is a long-lived, replicated computational agent.  Developers
declare an *interface* (a subclass of :class:`Component` whose async methods
define the callable surface) and an *implementation* (a plain class marked
with :func:`implements`, the Python analogue of Go's ``Implements[T]``
embedding)::

    class Hello(Component):
        async def greet(self, name: str) -> str: ...

    @implements(Hello)
    class HelloImpl:
        async def greet(self, name: str) -> str:
            return f"Hello, {name}!"

Callers never construct implementations; they obtain a *stub* from the
runtime (``app.get(Hello)``) and invoke interface methods on it.  Whether an
invocation is a local call or an RPC is the runtime's decision, invisible at
the call site.

Implementations may define two optional lifecycle hooks::

    async def init(self, ctx) -> None     # after construction, before traffic
    async def shutdown(self) -> None      # before the replica is stopped

``ctx`` is a :class:`ComponentContext`; through it a component reaches the
stubs of other components, its replica identity, and its logger.
"""

from __future__ import annotations

import inspect
import logging
from dataclasses import dataclass, field
from typing import Any, Callable, TypeVar

from repro.core.errors import RegistrationError

T = TypeVar("T", bound="Component")

#: Attribute stored on implementation classes by @implements.
IMPLEMENTS_ATTR = "_repro_implements"


class Component:
    """Base class for component interfaces.

    Subclass it and declare async methods with full type annotations; the
    bodies are irrelevant (conventionally ``...``).  Do not subclass it for
    implementations — mark those with :func:`implements` instead.
    """

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # Interfaces must not carry state or constructors: they are pure
        # contracts.  Catch the classic mistake of merging interface and
        # implementation early, with a clear message.
        if "__init__" in vars(cls):
            raise RegistrationError(
                f"component interface {cls.__name__!r} defines __init__; "
                "interfaces are pure contracts — put state in the "
                "implementation class and mark it with @implements"
            )


def component_name(iface: type) -> str:
    """The fully qualified, deployment-stable name of an interface."""
    return f"{iface.__module__}.{iface.__qualname__}"


def implements(iface: type) -> Callable[[type], type]:
    """Class decorator marking an implementation of component ``iface``.

    The analogue of embedding ``Implements[Hello]`` in the Go prototype
    (Figure 2).  Verifies at decoration time that the implementation
    defines every interface method with a compatible signature — the
    errors a compiled language would catch at build time should not wait
    until a call fails at runtime.
    """
    if not (isinstance(iface, type) and issubclass(iface, Component)):
        raise RegistrationError(
            f"@implements argument must be a Component interface, got {iface!r}"
        )
    if iface is Component:
        raise RegistrationError("cannot implement the Component base class itself")

    def register(impl: type) -> type:
        _check_implementation(iface, impl)
        setattr(impl, IMPLEMENTS_ATTR, iface)
        # Registration in the global registry happens lazily via
        # repro.core.registry.registry().discover(), and eagerly here for
        # the common case.
        from repro.core.registry import global_registry

        global_registry().register(iface, impl)
        return impl

    return register


def _check_implementation(iface: type, impl: type) -> None:
    if isinstance(impl, type) and issubclass(impl, Component):
        raise RegistrationError(
            f"implementation {impl.__name__!r} must not subclass Component; "
            "subclassing is for interfaces, @implements is for implementations"
        )
    for attr, decl in vars(iface).items():
        if attr.startswith("_") or not inspect.isfunction(decl):
            continue
        got = getattr(impl, attr, None)
        if got is None:
            raise RegistrationError(
                f"{impl.__name__} does not implement {iface.__name__}.{attr}"
            )
        if not inspect.iscoroutinefunction(got):
            raise RegistrationError(
                f"{impl.__name__}.{attr} must be 'async def' to implement "
                f"{iface.__name__}.{attr}"
            )
        want = inspect.signature(decl)
        have = inspect.signature(got)
        if list(want.parameters) != list(have.parameters):
            raise RegistrationError(
                f"{impl.__name__}.{attr}{have} does not match the interface "
                f"signature {iface.__name__}.{attr}{want}"
            )


@dataclass
class ComponentContext:
    """What a component implementation can see of the world.

    Handed to the optional ``init(self, ctx)`` hook.  ``get`` resolves other
    components' stubs (through the owning proclet, so placement stays
    invisible); ``replica_id`` identifies this replica among its peers,
    which routed components use to partition state.
    """

    component: str
    replica_id: int
    version: str
    getter: Callable[[type], Any]
    logger: logging.Logger = field(default_factory=lambda: logging.getLogger("repro"))
    config: dict[str, Any] = field(default_factory=dict)
    #: Durable keyed state scoped to this component
    #: (:class:`repro.state.runtime.ComponentState`); memory-only under the
    #: single-process deployer, WAL-backed under the multi-process one.
    state: Any = None

    def get(self, iface: type[T]) -> T:
        """Return a stub for another component (like Figure 2's ``Get[T]``)."""
        return self.getter(iface)


async def instantiate(
    impl: type,
    ctx: ComponentContext,
) -> Any:
    """Construct and initialize one replica of an implementation class.

    Implementations may take zero constructor arguments; state belongs in
    ``__init__`` (local) and ``init`` (dependent on other components).
    """
    try:
        instance = impl()
    except TypeError as exc:
        raise RegistrationError(
            f"implementation {impl.__name__} must be constructible with no "
            f"arguments (got: {exc}); acquire dependencies in 'async def "
            "init(self, ctx)' instead"
        ) from exc
    hook = getattr(instance, "init", None)
    if hook is not None and inspect.iscoroutinefunction(hook):
        await hook(ctx)
    return instance


async def shutdown_instance(instance: Any) -> None:
    """Run the optional async shutdown hook of a component instance."""
    hook = getattr(instance, "shutdown", None)
    if hook is not None and inspect.iscoroutinefunction(hook):
        await hook()

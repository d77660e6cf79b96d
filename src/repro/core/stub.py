"""Component stubs: the call-site illusion of a plain method call (§3.2).

``app.get(Hello)`` returns a *stub* — an object with the interface's
methods.  A stub method checks its arguments (a ``TypeError`` raises at
the call, not at ``await``) and returns the coroutine of an
:class:`Invoker`, which is where the local/remote decision lives:

* :class:`LocalInvoker` calls a co-located instance directly.  No
  serialization is touched — the paper is explicit that co-located calls
  remain plain procedure calls.
* :class:`repro.transport.rpc.RemoteInvoker` marshals arguments with the
  deployment codec, picks a replica (possibly by routing key), and
  performs the RPC.

The caller's invoker records each call in the deployment's
:class:`~repro.core.call_graph.CallGraph` (the serving side of an RPC adds
nothing: it runs the method through its own per-method thunk, see
:class:`repro.transport.rpc.Dispatcher`) so the runtime can make
placement and scaling decisions (§5.1).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Optional, Protocol

from repro.codegen.compiler import MethodSpec, register_source
from repro.core.call_graph import CallGraph, ROOT
from repro.core.component import ComponentContext, instantiate
from repro.core.errors import DeadlineExceeded, RegistrationError
from repro.core.options import CallOptions
from repro.core.registry import Registration
from repro.observability.tracing import site_attributes


class Invoker(Protocol):
    """The pluggable execution strategy behind a stub."""

    async def invoke(
        self,
        reg: Registration,
        method: MethodSpec,
        args: tuple,
        caller: str,
        *,
        options: Optional[CallOptions] = None,
    ) -> Any:
        ...


class Stub:
    """Base class for generated stubs; carries identity for diagnostics."""

    _repro_registration: Registration
    _repro_caller: str
    _repro_options: Optional[CallOptions] = None

    def with_options(self, **overrides: Any) -> "Stub":
        """A derived stub whose calls carry the given :class:`CallOptions`.

        The canonical per-call override surface::

            payment = ctx.get(Payment).with_options(deadline_s=0.5, retries=0)
            catalog = ctx.get(ProductCatalog).with_options(hedge=0.05)

        Returns a cheap clone; the original stub is unchanged.  Repeated
        calls layer: unset fields inherit from the stub being derived from.
        """
        base = self._repro_options or CallOptions()
        clone = type(self)()
        clone._repro_registration = self._repro_registration
        clone._repro_caller = self._repro_caller
        clone._repro_invoker = self._repro_invoker
        clone._repro_options = base.replace(**overrides)
        return clone

    def __repr__(self) -> str:
        opts = f" options={self._repro_options}" if self._repro_options else ""
        return (
            f"<stub for {self._repro_registration.name} "
            f"(caller={self._repro_caller}){opts}>"
        )


_stub_classes: dict[type, type] = {}


def make_stub(reg: Registration, invoker: Invoker, caller: str = ROOT) -> Any:
    """Create a stub instance for ``reg`` whose calls go through ``invoker``.

    Stub classes are generated once per interface and cached; instances are
    cheap (two attribute writes), so deployers can mint one per caller for
    correct call-graph attribution.
    """
    cls = _stub_classes.get(reg.iface)
    if cls is None:
        cls = _build_stub_class(reg)
        _stub_classes[reg.iface] = cls
    stub = cls()
    stub._repro_registration = reg
    stub._repro_caller = caller
    stub._repro_invoker = invoker
    return stub


def _build_stub_class(reg: Registration) -> type:
    """Generate the interface's stub methods as source, one per method, each
    with the method's exact parameters: Python itself binds keyword and
    positional arguments (and raises the ``TypeError`` for a bad call), so
    a call is one argument tuple and the invoker's coroutine.  Not
    coroutine functions: returning the invoker's coroutine adds no frame
    per call."""
    namespace: dict[str, Any] = {"__name__": __name__}
    lines = []
    for spec in reg.spec.methods:
        params = "".join(f", {name}" for name in spec.arg_names)
        args = "".join(f"{name}, " for name in spec.arg_names)
        namespace[f"_spec_{spec.name}"] = spec
        lines += [
            f"def {spec.name}(self{params}):",
            f"    return self._repro_invoker.invoke(self._repro_registration, "
            f"_spec_{spec.name}, ({args}), self._repro_caller, "
            f"options=self._repro_options)",
        ]
    source = "\n".join(lines) + "\n"
    filename = register_source(f"repro.core.stub {reg.name}", source)
    exec(compile(source, filename, "exec"), namespace)
    cls_name = f"{reg.iface.__name__}Stub"
    methods = {spec.name: namespace[spec.name] for spec in reg.spec.methods}
    for name, fn in methods.items():
        fn.__qualname__ = f"{cls_name}.{name}"
    return type(cls_name, (Stub,), methods)


class LocalInvoker:
    """Runs components in-process: plain method calls, no serialization.

    Owns the lazy instantiation of component singletons (one replica per
    process, as in the paper's co-located case) and wires their contexts so
    nested ``ctx.get`` calls resolve through ``resolver``.
    """

    def __init__(
        self,
        *,
        version: str,
        call_graph: Optional[CallGraph] = None,
        resolver: Optional[Any] = None,
        settings: Optional[dict[str, Any]] = None,
        logger_factory: Optional[Any] = None,
        replica_id: int = 0,
        tracer: Optional[Any] = None,
        advisor: Optional[Any] = None,
        state_factory: Optional[Any] = None,
    ) -> None:
        self.version = version
        self.call_graph = call_graph
        self._resolver = resolver  # object with get_for(iface, caller)
        self._settings = settings or {}
        self._logger_factory = logger_factory  # (component, replica_id) -> logger
        self._replica_id = replica_id
        self._tracer = tracer
        self._advisor = advisor
        #: (component_name) -> ComponentState; a proclet passes its
        #: StateRuntime's factory, other deployers get an ephemeral default.
        self._state_factory = state_factory
        self._instances: dict[str, Any] = {}
        self._locks: dict[str, asyncio.Lock] = {}
        #: (caller, component, method) -> span name and span attributes,
        #: bound on the first traced call.
        self._span_sites: dict[tuple[str, str, str], tuple[str, Any]] = {}
        #: Optional repro.testing.faults.FaultPlan, consulted per call.
        #: An attribute (not a wrapper) so already-minted stubs see it.
        self.fault_plan: Optional[Any] = None

    def _component_state(self, name: str) -> Any:
        if self._state_factory is None:
            # No proclet behind us (single-process deployer, bare tests):
            # hand out memory-only state so ctx.state always works.
            from repro.state import StateRuntime

            runtime = StateRuntime(f"local-{self._replica_id}")
            self._state_factory = runtime.component_state
        return self._state_factory(name)

    async def instance(self, reg: Registration) -> Any:
        inst = self._instances.get(reg.name)
        if inst is not None:
            return inst
        lock = self._locks.setdefault(reg.name, asyncio.Lock())
        async with lock:
            inst = self._instances.get(reg.name)
            if inst is None:
                ctx = ComponentContext(
                    component=reg.name,
                    replica_id=self._replica_id,
                    version=self.version,
                    getter=self._getter_for(reg.name),
                    config=self._settings,
                    state=self._component_state(reg.name),
                )
                if self._logger_factory is not None:
                    ctx.logger = self._logger_factory(reg.name, self._replica_id)
                inst = await instantiate(reg.impl, ctx)
                self._instances[reg.name] = inst
        return inst

    def _getter_for(self, caller: str):
        def get(iface: type) -> Any:
            if self._resolver is None:
                raise RegistrationError(
                    "component context has no resolver; was the application "
                    "initialized through a deployer?"
                )
            return self._resolver.get_for(iface, caller)

        return get

    async def invoke(
        self,
        reg: Registration,
        method: MethodSpec,
        args: tuple,
        caller: str,
        *,
        options: Optional[CallOptions] = None,
    ) -> Any:
        if self.fault_plan is not None:
            await self.fault_plan.before_call(reg, method)
        if self._advisor is not None:
            self._advisor.observe(
                reg.name,
                method.name,
                method.arg_names,
                args,
                already_routed=method.routing_key is not None,
            )
        inst = self._instances.get(reg.name)
        if inst is None:
            inst = await self.instance(reg)
        fn = getattr(inst, method.name)

        deadline_s = options.deadline_s if options is not None else None
        tracer = self._tracer
        start = time.perf_counter()
        error = False
        try:
            # Co-located calls stay plain procedure calls (§3.2) — no
            # retries or hedging — but an explicit deadline is still honored.
            if tracer is None and deadline_s is None:
                # The common case: nothing to wrap, so don't pay for a
                # closure and an extra coroutine frame per call.
                return await fn(*args)

            async def run() -> Any:
                if tracer is not None:
                    key = (caller, reg.name, method.name)
                    site = self._span_sites.get(key)
                    if site is None:
                        site = self._span_sites[key] = (
                            f"{reg.name.rsplit('.', 1)[-1]}.{method.name}",
                            site_attributes(side="local", caller=caller),
                        )
                    with tracer.start_span(*site):
                        return await fn(*args)
                return await fn(*args)

            if deadline_s is None:
                return await run()
            try:
                return await asyncio.wait_for(run(), deadline_s)
            except asyncio.TimeoutError:
                raise DeadlineExceeded(
                    f"{reg.name}.{method.name} exceeded its "
                    f"{deadline_s:g}s deadline (local call)"
                ) from None
        except Exception:
            error = True
            raise
        finally:
            if self.call_graph is not None:
                self.call_graph.record(
                    caller,
                    reg.name,
                    method.name,
                    latency_s=time.perf_counter() - start,
                    local=True,
                    error=error,
                )

    def instances(self) -> dict[str, Any]:
        """Live instances, for lifecycle management and tests."""
        return dict(self._instances)

    async def discard_instance(self, name: str) -> None:
        """Shut down and forget one instance (component moved elsewhere)."""
        from repro.core.component import shutdown_instance

        inst = self._instances.pop(name, None)
        if inst is not None:
            await shutdown_instance(inst)

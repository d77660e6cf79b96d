"""The status-quo microservice framework the paper compares against.

This package is the "before" picture: the same business logic deployed the
conventional way — one HTTP service per component, discovered by *name*
(the DNS/service-mesh idiom), carrying self-describing versioned payloads
(tagged binary, i.e. protobuf-style, or JSON).

It deliberately reuses the component *implementations* unchanged: a
:class:`MicroserviceHost` hosts an impl behind
:class:`~repro.transport.http_rpc.HttpRpcServer`, and an
:class:`HttpInvoker` gives the impl's ``ctx.get(...)`` dependencies the
same interface-shaped stubs, but backed by name-addressed HTTP calls.
Business logic cannot tell which world it is in — which is precisely the
paper's argument that the *deployment model*, not the code, is what
microservices get wrong.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
from typing import Any, Optional, TypeVar

from repro.codegen.compiler import MethodSpec
from repro.core.call_graph import CallGraph, ROOT
from repro.core.component import Component
from repro.core.config import AppConfig
from repro.core.errors import (
    ComponentNotFound,
    DeadlineExceeded,
    ErrorCode,
    RPCError,
    Unavailable,
)
from repro.core.options import (
    CallOptions,
    budget_to_wire_ms,
    decorrelated_jitter,
    effective_budget_s,
)
from repro.core.registry import FrozenRegistry, Registration, Registry, global_registry
from repro.core.stub import LocalInvoker, make_stub
from repro.observability.tracing import Tracer, current_context
from repro.serde import codec_by_name
from repro.transport.http_rpc import HttpRpcClient, HttpRpcServer, incoming_trace

log = logging.getLogger("repro.baseline")

T = TypeVar("T", bound=Component)


class ServiceMesh:
    """Name -> addresses service discovery (the DNS/kube-proxy stand-in)."""

    def __init__(self) -> None:
        self._services: dict[str, list[str]] = {}
        self._rr = itertools.count()

    def register(self, service: str, address: str) -> None:
        self._services.setdefault(service, []).append(address)

    def deregister(self, service: str, address: str) -> None:
        addresses = self._services.get(service, [])
        if address in addresses:
            addresses.remove(address)

    def resolve(self, service: str) -> str:
        addresses = self._services.get(service)
        if not addresses:
            raise Unavailable(
                f"service {service!r} has no registered endpoints", executed=False
            )
        return addresses[next(self._rr) % len(addresses)]

    def services(self) -> dict[str, list[str]]:
        return {k: list(v) for k, v in self._services.items()}


class HttpInvoker:
    """Stub invoker that turns component calls into name-addressed HTTP RPCs."""

    def __init__(
        self,
        mesh: ServiceMesh,
        *,
        codec_name: str = "tagged",
        call_graph: Optional[CallGraph] = None,
        tracer: Optional[Tracer] = None,
        timeout_s: float = 30.0,
        max_retries: int = 2,
        retry_backoff_s: float = 0.02,
        retry_backoff_max_s: float = 1.0,
    ) -> None:
        self._mesh = mesh
        self._codec = codec_by_name(codec_name)
        self._client = HttpRpcClient()
        self._call_graph = call_graph
        self._tracer = tracer
        self._timeout_s = timeout_s
        self._max_retries = max_retries
        self._retry_backoff_s = retry_backoff_s
        self._retry_backoff_max_s = retry_backoff_max_s

    async def invoke(
        self,
        reg: Registration,
        method: MethodSpec,
        args: tuple,
        caller: str,
        *,
        options: Optional[CallOptions] = None,
    ) -> Any:
        if self._tracer is not None:
            short = reg.name.rsplit(".", 1)[-1]
            with self._tracer.start_span(
                f"http {short}.{method.name}", component=reg.name, caller=caller
            ):
                return await self._invoke(reg, method, args, caller, options)
        return await self._invoke(reg, method, args, caller, options)

    async def _invoke(
        self,
        reg: Registration,
        method: MethodSpec,
        args: tuple,
        caller: str,
        options: Optional[CallOptions],
    ) -> Any:
        import time

        payload = self._codec.encode(method.arg_schema, args)
        start = time.perf_counter()
        error = False
        reply = b""
        try:
            reply = await self._call(
                reg.name, method, payload, options or CallOptions()
            )
            return self._codec.decode(method.result_schema, reply)
        except Exception:
            error = True
            raise
        finally:
            if self._call_graph is not None:
                self._call_graph.record(
                    caller,
                    reg.name,
                    method.name,
                    latency_s=time.perf_counter() - start,
                    bytes_sent=len(payload),
                    bytes_received=len(reply),
                    local=False,
                    error=error,
                )

    async def _call(
        self, service: str, method: MethodSpec, payload: bytes, opts: CallOptions
    ) -> bytes:
        import time

        budget_s = effective_budget_s(opts.deadline_s, self._timeout_s)
        if budget_s <= 0:
            raise DeadlineExceeded(
                f"no budget left calling {service}.{method.name}", executed=False
            )
        deadline = time.monotonic() + budget_s
        max_retries = self._max_retries if opts.retries is None else opts.retries
        attempt = 0
        backoff = self._retry_backoff_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlineExceeded(
                    f"deadline exhausted calling {service}.{method.name}",
                    executed=False,
                )
            address = self._mesh.resolve(service)
            try:
                return await self._client.call(
                    address,
                    service,
                    method.name,
                    payload,
                    timeout=remaining,
                    deadline_ms=budget_to_wire_ms(remaining),
                    trace=current_context(),
                )
            except RPCError as exc:
                if not exc.retryable or attempt >= max_retries:
                    raise
                if exc.executed and not method.idempotent:
                    raise  # may have run server-side; don't double-execute
                attempt += 1
                self._client.drop(address)
                backoff = decorrelated_jitter(
                    backoff,
                    base_s=self._retry_backoff_s,
                    cap_s=self._retry_backoff_max_s,
                )
                if time.monotonic() + backoff >= deadline:
                    raise DeadlineExceeded(
                        f"budget exhausted retrying {service}.{method.name} "
                        f"(after {attempt} attempts)",
                        executed=exc.executed,
                    ) from exc
                await asyncio.sleep(backoff)

    async def close(self) -> None:
        await self._client.close()


class MicroserviceHost:
    """One microservice: a component impl behind an HTTP server."""

    def __init__(
        self,
        reg: Registration,
        build: FrozenRegistry,
        mesh: ServiceMesh,
        *,
        codec_name: str = "tagged",
        settings: Optional[dict[str, Any]] = None,
        address: str = "tcp://127.0.0.1:0",
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.reg = reg
        self.build = build
        self.mesh = mesh
        self.tracer = tracer
        self._codec = codec_by_name(codec_name)
        self._remote = HttpInvoker(mesh, codec_name=codec_name, tracer=tracer)
        # The hosted impl's ctx.get(...) resolves through the mesh: every
        # dependency is a remote microservice, exactly like production.
        self._local = LocalInvoker(
            version=build.version,
            resolver=self,
            settings=settings or {},
        )
        self._server = HttpRpcServer(self._handle, address=address)
        self.address: Optional[str] = None

    def get_for(self, iface: type, caller: str) -> Any:
        dep = self.build.by_iface(iface)
        if dep.name == self.reg.name:
            return make_stub(dep, self._local, caller)
        return make_stub(dep, self._remote, caller)

    async def start(self) -> str:
        self.address = await self._server.start()
        self.mesh.register(self.reg.name, self.address)
        return self.address

    async def stop(self) -> None:
        if self.address is not None:
            self.mesh.deregister(self.reg.name, self.address)
        await self._server.stop()
        await self._remote.close()

    async def _handle(self, component: str, method: str, body: bytes) -> bytes:
        if component != self.reg.name:
            raise RPCError(
                f"this service hosts {self.reg.name}, not {component}",
                code=ErrorCode.INTERNAL,
            )
        spec = self.reg.spec.by_name.get(method)
        if spec is None:
            raise RPCError(
                f"{component} has no method {method!r}", code=ErrorCode.INTERNAL
            )
        args = self._codec.decode(spec.arg_schema, body)
        if self.tracer is not None:
            # Join the caller's trace via the x-repro-trace header — the
            # propagation microservice stacks must hand-roll.
            with self.tracer.start_span(
                f"serve {self.reg.name.rsplit('.', 1)[-1]}.{method}",
                remote_parent=incoming_trace(),
                component=self.reg.name,
            ):
                result = await self._local.invoke(
                    self.reg, spec, tuple(args), caller="<http>"
                )
        else:
            result = await self._local.invoke(
                self.reg, spec, tuple(args), caller="<http>"
            )
        return self._codec.encode(spec.result_schema, result)


class BaselineApp:
    """A full microservices deployment of an application.

    The Application-shaped handle for the status quo: ``get()`` returns
    interface stubs backed by HTTP + the mesh, so callers (tests, load
    generators) are identical across worlds.
    """

    def __init__(
        self,
        build: FrozenRegistry,
        config: AppConfig,
        *,
        codec_name: str = "tagged",
    ) -> None:
        self.build = build
        self.config = config
        self.codec_name = codec_name
        self.mesh = ServiceMesh()
        self.call_graph = CallGraph()
        self.tracer = Tracer()
        self.hosts: dict[str, MicroserviceHost] = {}
        self._client = HttpInvoker(
            self.mesh,
            codec_name=codec_name,
            call_graph=self.call_graph,
            tracer=self.tracer,
        )

    @property
    def version(self) -> str:
        return self.build.version

    async def start(self) -> "BaselineApp":
        for reg in self.build:
            host = MicroserviceHost(
                reg,
                self.build,
                self.mesh,
                codec_name=self.codec_name,
                settings=self.config.settings,
                tracer=self.tracer,
            )
            self.hosts[reg.name] = host
            await host.start()
        return self

    def get(self, iface: type[T]) -> T:
        reg = self.build.by_iface(iface)
        return make_stub(reg, self._client, ROOT)

    async def shutdown(self) -> None:
        for host in self.hosts.values():
            await host.stop()
        self.hosts.clear()
        await self._client.close()

    async def __aenter__(self) -> "BaselineApp":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.shutdown()


async def deploy_baseline(
    config: Optional[AppConfig] = None,
    *,
    components: Optional[list[type]] = None,
    registry: Optional[Registry] = None,
    codec_name: str = "tagged",
) -> BaselineApp:
    """Deploy every component as its own HTTP microservice."""
    config = config or AppConfig()
    reg = registry or global_registry()
    build = reg.freeze(components=components)
    app = BaselineApp(build, config, codec_name=codec_name)
    return await app.start()

"""The status-quo microservice framework the paper compares against.

This package is the "before" picture: the same business logic deployed the
conventional way — one HTTP service per component, discovered by *name*
(the DNS/service-mesh idiom), carrying self-describing versioned payloads
(tagged binary, i.e. protobuf-style, or JSON).

It deliberately reuses the component *implementations* unchanged: a
:class:`MicroserviceHost` hosts an impl behind the RPC route of
:class:`~repro.transport.http_rpc.HttpServer`.  It reuses the runtime's
RPC layer on both ends too.  Calls go through an unmodified
:class:`~repro.transport.rpc.RemoteInvoker` (budgets, retries, hedging,
call-graph edges, spans) whose resolver is the :class:`ServiceMesh` and
whose pool speaks HTTP.  Requests are served by the per-method thunks of a
:class:`~repro.transport.rpc.Dispatcher` (decoding, ambient budget, server
span, encoding), as in a proclet.  Business logic cannot tell which world
it is in, and the two stacks differ only in the wire, the codec and the
hosts — which is precisely the paper's argument that the *deployment
model*, not the code, is what microservices get wrong.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, TypeVar

from repro.codegen.compiler import MethodSpec
from repro.core.app import Application
from repro.core.call_graph import CallGraph, ROOT
from repro.core.component import Component, shutdown_instance
from repro.core.config import AppConfig
from repro.core.errors import ErrorCode, RPCError, Unavailable
from repro.core.registry import FrozenRegistry, Registration, Registry, global_registry
from repro.core.stub import LocalInvoker, make_stub
from repro.observability.tracing import Tracer
from repro.serde import codec_by_name
from repro.transport.http_rpc import HttpRpcClient, HttpServer, rpc_route
from repro.transport.rpc import Dispatcher, RemoteInvoker, Thunk

T = TypeVar("T", bound=Component)


class ServiceMesh:
    """Name -> addresses service discovery (the DNS/kube-proxy stand-in).

    It is also the :class:`~repro.transport.rpc.ReplicaResolver` of the
    baseline's invokers: ``pick`` answers by service name, round robin,
    and never returns None, so the protocol's async ``resolve`` is never
    awaited (this class's ``resolve`` is the by-name lookup).
    """

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

    def pick(
        self, reg: Registration, method: MethodSpec, args: tuple, route_key: Any = None
    ) -> str:
        return self.resolve(reg.name)

    def report_outcome(self, reg: Registration, address: str, **outcome: Any) -> None:
        pass  # a mesh keeps no breakers

    def services(self) -> dict[str, list[str]]:
        return {k: list(v) for k, v in self._services.items()}


class _HttpPeer:
    """One address, shaped like a framed connection for ``RemoteInvoker``."""

    closed = False  # HttpRpcClient closes broken sockets itself

    def __init__(self, pool: "_HttpPool", address: str) -> None:
        self._pool = pool
        self._address = address

    async def call(
        self,
        component_id: int,
        method_index: int,
        payload: bytes,
        *,
        timeout: float,
        trace: tuple[int, int],
        deadline_ms: int,
    ) -> bytes:
        # The ids are the frozen build's; the HTTP wire spells out names.
        component, method = self._pool.names[component_id, method_index]
        return await self._pool.client.call(
            self._address,
            component,
            method,
            payload,
            timeout=timeout,
            deadline_ms=deadline_ms,
            trace=trace,
        )


class _HttpPool:
    """The ``RemoteInvoker`` pool of the baseline: every peer shares one
    :class:`HttpRpcClient`, one request per connection as HTTP/1.1 allows."""

    def __init__(self, build: FrozenRegistry) -> None:
        self.client = HttpRpcClient()
        self.names = {
            (reg.component_id, m.index): (reg.name, m.name)
            for reg in build
            for m in reg.spec.methods
        }

    def live(self, address: str) -> _HttpPeer:
        return _HttpPeer(self, address)

    async def get(self, address: str) -> _HttpPeer:
        return _HttpPeer(self, address)

    def drop(self, address: str) -> None:
        self.client.drop(address)


def _http_invoker(
    pool: _HttpPool,
    mesh: ServiceMesh,
    config: AppConfig,
    codec_name: str,
    tracer: Optional[Tracer],
    call_graph: Optional[CallGraph],
) -> RemoteInvoker:
    """The runtime's RPC client, addressing by name over the HTTP wire."""
    return RemoteInvoker(
        codec=codec_by_name(codec_name),
        pool=pool,
        resolver=mesh,
        call_graph=call_graph,
        timeout_s=config.call_timeout_s,
        max_retries=config.max_retries,
        tracer=tracer,
    )


class MicroserviceHost:
    """One microservice: a component impl behind an HTTP server."""

    def __init__(
        self,
        reg: Registration,
        build: FrozenRegistry,
        mesh: ServiceMesh,
        *,
        codec_name: str = "tagged",
        config: Optional[AppConfig] = None,
        address: str = "tcp://127.0.0.1:0",
        tracer: Optional[Tracer] = None,
        call_graph: Optional[CallGraph] = None,
    ) -> None:
        config = config or AppConfig()
        self.reg = reg
        self.build = build
        self.mesh = mesh
        self.tracer = tracer
        self._codec = codec_by_name(codec_name)
        self._pool = _HttpPool(build)
        self._remote = _http_invoker(self._pool, mesh, config, codec_name, tracer, call_graph)
        # The hosted impl's ctx.get(...) resolves through the mesh: every
        # dependency is a remote microservice, exactly like production.
        self._local = LocalInvoker(
            version=build.version,
            resolver=self,
            settings=config.settings,
        )
        self._thunks: dict[str, Thunk] = {}
        self._server = HttpServer(rpc_route(self._serve), address=address)
        self.address: Optional[str] = None

    def get_for(self, iface: type, caller: str) -> Any:
        dep = self.build.by_iface(iface)
        if dep.name == self.reg.name:
            return make_stub(dep, self._local, caller)
        return make_stub(dep, self._remote, caller)

    async def start(self) -> str:
        # One thunk per method, bound once, as a proclet hosting the
        # component binds them.
        instance = await self._local.instance(self.reg)
        dispatcher = Dispatcher(
            self.build, self._codec, self._local, hosted={self.reg.name}, tracer=self.tracer
        )
        self._thunks = {
            spec.name: dispatcher.thunk(self.reg, spec, instance)
            for spec in self.reg.spec.methods
        }
        self.address = await self._server.start()
        self.mesh.register(self.reg.name, self.address)
        return self.address

    async def stop(self) -> None:
        if self.address is not None:
            self.mesh.deregister(self.reg.name, self.address)
        await self._server.stop()
        # As a proclet does: the component's shutdown hook runs, and may
        # still call its dependencies.
        for instance in self._local.instances().values():
            await shutdown_instance(instance)
        await self._pool.client.close()

    async def _serve(
        self, component: str, method: str, args: bytes, trace: tuple[int, int], deadline_ms: int
    ) -> bytes:
        thunk = self._thunks.get(method) if component == self.reg.name else None
        if thunk is None:
            raise RPCError(
                f"{component}.{method} is not served here ({self.reg.name} is)",
                code=ErrorCode.INTERNAL,
                executed=False,
            )
        return await thunk(args, trace, deadline_ms)


class BaselineApp(Application):
    """A full microservices deployment of an application.

    The Application-shaped handle for the status quo: ``get()`` returns
    interface stubs backed by HTTP + the mesh, so callers (tests, load
    generators) are identical across worlds.  Every host records into the
    app's one tracer and one call graph, so a request's whole span tree,
    and every edge it crosses, can be read here.
    """

    def __init__(
        self,
        build: FrozenRegistry,
        config: AppConfig,
        *,
        codec_name: str = "tagged",
    ) -> None:
        super().__init__(build, config)
        self.codec_name = codec_name
        self.mesh = ServiceMesh()
        self.tracer = Tracer()
        self.hosts: dict[str, MicroserviceHost] = {}
        self._pool = _HttpPool(build)
        self._client = _http_invoker(
            self._pool, self.mesh, config, codec_name, self.tracer, self.call_graph
        )

    async def start(self) -> "BaselineApp":
        for reg in self.build:
            host = MicroserviceHost(
                reg,
                self.build,
                self.mesh,
                codec_name=self.codec_name,
                config=self.config,
                tracer=self.tracer,
                call_graph=self.call_graph,
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
        await self._pool.client.close()


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

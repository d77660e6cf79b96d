"""Dispatcher and RemoteInvoker over a real server."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.call_graph import CallGraph, ROOT
from repro.core.component import Component
from repro.core.errors import DeadlineExceeded, ErrorCode, RPCError, Unavailable
from repro.core.registry import Registry
from repro.core.stub import LocalInvoker, make_stub
from repro.serde import COMPACT
from repro.transport.client import ConnectionPool
from repro.transport.rpc import Dispatcher, RemoteInvoker
from repro.transport.server import RPCServer

from tests.conftest import Adder, Greeter, KVStore


class StaticResolver:
    def __init__(self, address):
        self.address = address
        self.failures = []
        self.outcomes = []

    def pick(self, reg, method, args, route_key=None):
        return self.address

    async def resolve(self, reg, method, args, route_key=None):
        return self.address

    def report_outcome(self, reg, address, *, ok, **detail):
        self.outcomes.append((ok, detail.get("code")))
        if not ok:
            self.failures.append((reg.name, address))


class ServedApp:
    """A build served over real RPC, plus a remote invoker pointed at it."""

    def __init__(self, build):
        self.build = build
        #: Reject new requests at the door the way a draining proclet does.
        self.draining = False
        #: An error the next request fails with instead of being served.
        self.fail_next = None

    async def __aenter__(self):
        local = LocalInvoker(version=self.build.version, resolver=self)
        self._local = local
        self.dispatcher = Dispatcher(self.build, COMPACT, local, hosted=None)
        self.server = RPCServer(self._serve, codec="compact", version=self.build.version)
        address = await self.server.start()
        self.pool = ConnectionPool(codec="compact", version=self.build.version)
        self.resolver = StaticResolver(address)
        self.call_graph = CallGraph()
        self.remote = RemoteInvoker(
            codec=COMPACT,
            pool=self.pool,
            resolver=self.resolver,
            call_graph=self.call_graph,
            timeout_s=5.0,
        )
        return self

    async def _serve(self, *request):
        if self.draining:
            raise Unavailable("served-app is draining", executed=False, draining=True)
        if self.fail_next is not None:
            exc, self.fail_next = self.fail_next, None
            raise exc
        return await self.dispatcher.handle(*request)

    def get_for(self, iface, caller):
        # Server-side nested calls stay local.
        return make_stub(self.build.by_iface(iface), self._local, caller)

    async def __aexit__(self, *exc):
        await self.pool.close()
        await self.server.stop()


async def test_remote_call_roundtrip(demo_build):
    async with ServedApp(demo_build) as served:
        stub = make_stub(demo_build.by_iface(Adder), served.remote, ROOT)
        assert await stub.add(19, 23) == 42


async def test_remote_call_with_containers(demo_build):
    async with ServedApp(demo_build) as served:
        stub = make_stub(demo_build.by_iface(Adder), served.remote, ROOT)
        assert await stub.add_all([1, 2, 3, 4]) == 10


async def test_remote_nested_dependency(demo_build):
    async with ServedApp(demo_build) as served:
        stub = make_stub(demo_build.by_iface(Greeter), served.remote, ROOT)
        assert await stub.greet("Zoe") == "Hello, Zoe! (4)"


async def test_call_graph_records_bytes(demo_build):
    async with ServedApp(demo_build) as served:
        stub = make_stub(demo_build.by_iface(Adder), served.remote, ROOT)
        await stub.add(1, 2)
        (edge,) = served.call_graph.edges()
        assert edge.bytes_sent > 0
        assert edge.bytes_received > 0
        assert edge.local_calls == 0


async def test_unknown_component_id_is_fatal(demo_build):
    async with ServedApp(demo_build) as served:
        with pytest.raises(RPCError):
            conn = await served.pool.get(served.resolver.address)
            await conn.call(250, 0, b"", timeout=2)


async def test_unknown_method_index_is_fatal(demo_build):
    async with ServedApp(demo_build) as served:
        conn = await served.pool.get(served.resolver.address)
        with pytest.raises(RPCError):
            await conn.call(0, 200, COMPACT.encode(
                demo_build.by_id(0).spec.methods[0].arg_schema, ()
            ) if False else b"", timeout=2)


async def test_unhosted_component_is_retryable(demo_build):
    async with ServedApp(demo_build) as served:
        served.dispatcher.set_hosted(set())  # hosts nothing now
        conn = await served.pool.get(served.resolver.address)
        reg = demo_build.by_iface(Adder)
        payload = COMPACT.encode(reg.spec.method("add").arg_schema, (1, 2))
        with pytest.raises(Unavailable):
            await conn.call(reg.component_id, reg.spec.method("add").index, payload, timeout=2)


class FlappingResolver(StaticResolver):
    """Returns a dead address first, then the live one."""

    def __init__(self, dead, live):
        super().__init__(live)
        self.sequence = [dead, live]
        self.calls = 0

    def pick(self, reg, method, args, route_key=None):
        address = self.sequence[min(self.calls, len(self.sequence) - 1)]
        self.calls += 1
        return address

    async def resolve(self, reg, method, args, route_key=None):
        address = self.sequence[min(self.calls, len(self.sequence) - 1)]
        self.calls += 1
        return address


async def test_retry_after_resolver_failure(demo_build):
    async with ServedApp(demo_build) as served:
        flapping = FlappingResolver("tcp://127.0.0.1:1", served.resolver.address)
        invoker = RemoteInvoker(
            codec=COMPACT,
            pool=ConnectionPool(codec="compact", version=demo_build.version, connect_timeout=0.3),
            resolver=flapping,
            timeout_s=5.0,
            max_retries=2,
        )
        stub = make_stub(demo_build.by_iface(Adder), invoker, ROOT)
        assert await stub.add(2, 2) == 4
        assert flapping.failures  # the dead address was reported


async def test_retries_exhausted_raises(demo_build):
    async with ServedApp(demo_build) as served:
        dead = StaticResolver("tcp://127.0.0.1:1")
        invoker = RemoteInvoker(
            codec=COMPACT,
            pool=ConnectionPool(codec="compact", version=demo_build.version, connect_timeout=0.2),
            resolver=dead,
            timeout_s=5.0,
            max_retries=1,
        )
        stub = make_stub(demo_build.by_iface(Adder), invoker, ROOT)
        with pytest.raises(Unavailable):
            await stub.add(1, 1)
        # Every attempt's outcome is reported at the failure site — the
        # original attempt plus one retry.
        assert len(dead.failures) == 2


async def test_deadline_across_retries(demo_build):
    async with ServedApp(demo_build) as served:
        dead = StaticResolver("tcp://127.0.0.1:1")
        invoker = RemoteInvoker(
            codec=COMPACT,
            pool=ConnectionPool(codec="compact", version=demo_build.version, connect_timeout=0.05),
            resolver=dead,
            timeout_s=0.08,
            max_retries=100,
        )
        stub = make_stub(demo_build.by_iface(Adder), invoker, ROOT)
        with pytest.raises((DeadlineExceeded, Unavailable)):
            await stub.add(1, 1)



@pytest.mark.parametrize("executed", [False, True], ids=["unexecuted", "executed"])
@pytest.mark.parametrize(
    "iface, method, args, result",
    [(Adder, "add", (2, 3), 5), (KVStore, "put", ("k", "v"), None)],
    ids=["idempotent", "not-idempotent"],
)
async def test_failed_inline_first_attempt_is_retried_as_before(
    demo_build, executed, iface, method, args, result
):
    """A warm call's first attempt runs inline; when it fails, it is
    reported at the failure site and retried by the same at-most-once
    rule as every other attempt: a failure that may have executed the
    method is retried only if the method is idempotent."""
    async with ServedApp(demo_build) as served:
        call = getattr(make_stub(demo_build.by_iface(iface), served.remote, ROOT), method)
        assert await call(*args) == result  # warm: routed and dialed
        served.resolver.outcomes.clear()
        served.fail_next = Unavailable("replica hiccup", executed=executed)
        spec = demo_build.by_iface(iface).spec.method(method)
        if not executed or spec.idempotent:
            assert await call(*args) == result
            assert served.resolver.outcomes == [(False, ErrorCode.UNAVAILABLE), (True, None)]
        else:
            with pytest.raises(Unavailable) as info:
                await call(*args)
            assert info.value.executed is True
            assert served.resolver.outcomes == [(False, ErrorCode.UNAVAILABLE)]
        # An UNAVAILABLE *reply* leaves the shared connection alone.
        assert served.pool.live(served.resolver.address) is not None


class Napper(Component):
    async def nap(self, seconds: float) -> str: ...  # not idempotent


#: Naps whose handler was cancelled (a hang-up cancels in-flight handlers).
cancelled_naps: list[float] = []


class NapperImpl:
    async def nap(self, seconds: float) -> str:
        try:
            await asyncio.sleep(seconds)
        except asyncio.CancelledError:
            cancelled_naps.append(seconds)
            raise
        return "rested"


@pytest.mark.parametrize("rejection", ["draining", "unhosted"])
async def test_unavailable_reply_keeps_the_shared_connection(rejection):
    """A healthy peer's UNAVAILABLE reply must not close the connection a
    slow non-idempotent call is still waiting on."""
    registry = Registry()
    registry.register(Napper, NapperImpl)
    build = registry.freeze()
    cancelled_naps.clear()
    async with ServedApp(build) as served:
        napper = make_stub(build.by_iface(Napper), served.remote, ROOT)
        slow = asyncio.ensure_future(napper.nap(0.3))
        await asyncio.sleep(0.05)
        conn = served.pool.live(served.resolver.address)
        assert conn is not None
        if rejection == "draining":
            served.draining = True
        else:
            served.dispatcher.set_hosted(set())
        with pytest.raises(Unavailable, match="draining|not hosted"):
            await napper.nap(0.0)
        assert await slow == "rested"
        assert served.pool.live(served.resolver.address) is conn
        assert cancelled_naps == []

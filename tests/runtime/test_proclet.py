"""The proclet daemon: registration, hosting, stubs, control handling."""

from __future__ import annotations

import asyncio
import inspect
import sys

import pytest

from repro.core.config import AppConfig
from repro.core.errors import ComponentNotFound, ErrorCode, RPCError, Unavailable
from repro.core.options import CallOptions
from repro.observability.tracing import Span
from repro.runtime import pipes
from repro.runtime.proclet import Proclet, RoutingResolver
from repro.transport.client import ConnectionPool
from repro.transport.connection import Connection
from repro.serde import COMPACT
from repro.transport.rpc import RemoteInvoker

from tests.conftest import Adder, Greeter, KVStore


class ScriptedRuntime:
    """A runtime double (the methods of repro.runtime.pipes.API) recording
    every interaction."""

    def __init__(self, build):
        self.build = build
        self.registered = []
        self.heartbeats = []
        self.started = []
        self.metrics = []
        self.logs = []
        self.call_graphs = []
        self.spans = []
        self.hosting: dict[str, list[str]] = {}
        self.routing: dict[str, dict] = {}

    async def register_replica(self, proclet_id, address, group_id):
        self.registered.append((proclet_id, address, group_id))

    async def components_to_host(self, proclet_id):
        return self.hosting.get(proclet_id, [])

    async def start_component(self, component):
        self.started.append(component)

    async def routing_info(self, component):
        return self.routing.get(component, {"component": component, "replicas": []})

    async def heartbeat(self, proclet_id, load):
        self.heartbeats.append((proclet_id, load))

    async def export_metrics(self, proclet_id, snapshot):
        self.metrics.append(snapshot)

    async def export_logs(self, proclet_id, records):
        self.logs.append(records)

    async def export_call_graph(self, proclet_id, edges):
        self.call_graphs.append(edges)

    async def export_spans(self, proclet_id, spans):
        self.spans.append(spans)


@pytest.fixture
def runtime(demo_build):
    return ScriptedRuntime(demo_build)


async def make_proclet(demo_build, runtime, hosted=None, **kwargs):
    proclet = Proclet(
        "p-test",
        demo_build,
        AppConfig(),
        runtime,
        heartbeat_interval_s=kwargs.pop("heartbeat_interval_s", 0.05),
        **kwargs,
    )
    runtime.hosting["p-test"] = hosted or []
    await proclet.start()
    return proclet


class TestLifecycle:
    async def test_registers_with_real_address(self, demo_build, runtime):
        proclet = await make_proclet(demo_build, runtime)
        (proclet_id, address, group_id) = runtime.registered[0]
        assert proclet_id == "p-test"
        assert address.startswith("tcp://127.0.0.1:")
        await proclet.stop()

    async def test_hosts_what_runtime_says(self, demo_build, runtime):
        adder = demo_build.by_iface(Adder).name
        proclet = await make_proclet(demo_build, runtime, hosted=[adder])
        assert proclet.hosted == {adder}
        await proclet.stop()

    async def test_hosted_components_eagerly_instantiated(self, demo_build, runtime):
        adder = demo_build.by_iface(Adder).name
        proclet = await make_proclet(demo_build, runtime, hosted=[adder])
        assert adder in proclet._local.instances()
        await proclet.stop()

    async def test_unknown_hosted_name_rejected(self, demo_build, runtime):
        proclet = Proclet("p-test", demo_build, AppConfig(), runtime)
        with pytest.raises(ComponentNotFound):
            await proclet.host_components(["ghost.Component"])
        await proclet.stop()

    async def test_heartbeats_flow(self, demo_build, runtime):
        proclet = await make_proclet(demo_build, runtime)
        await asyncio.sleep(0.2)
        assert runtime.heartbeats
        assert runtime.metrics
        await proclet.stop()

    async def test_spans_are_exported_as_objects(self, demo_build, runtime):
        adder = demo_build.by_iface(Adder).name
        proclet = await make_proclet(demo_build, runtime, hosted=[adder])
        assert await proclet.get(Adder).add(1, 2) == 3
        await asyncio.sleep(0.2)
        spans = [span for batch in runtime.spans for span in batch]
        assert spans and all(isinstance(span, Span) for span in spans)
        await proclet.stop()


class TestStubResolution:
    async def test_hosted_component_gets_local_stub(self, demo_build, runtime):
        adder = demo_build.by_iface(Adder).name
        proclet = await make_proclet(demo_build, runtime, hosted=[adder])
        stub = proclet.get(Adder)
        assert await stub.add(1, 2) == 3  # no server needed: local
        await proclet.stop()

    async def test_unhosted_component_gets_remote_stub(self, demo_build, runtime):
        proclet = await make_proclet(demo_build, runtime)
        stub = proclet.get(Adder)
        # No replicas known anywhere: resolving fails with Unavailable and
        # the runtime was asked to StartComponent.
        with pytest.raises(Unavailable):
            await stub.add(1, 2)
        assert demo_build.by_iface(Adder).name in runtime.started
        await proclet.stop()

    async def test_two_proclets_talk_over_rpc(self, demo_build, runtime):
        adder_name = demo_build.by_iface(Adder).name
        greeter_name = demo_build.by_iface(Greeter).name

        server = Proclet("p-server", demo_build, AppConfig(), runtime, heartbeat_interval_s=3600)
        runtime.hosting["p-server"] = [adder_name]
        await server.start()

        runtime.routing[adder_name] = {
            "component": adder_name,
            "replicas": [server.address],
        }

        client = Proclet("p-client", demo_build, AppConfig(), runtime, heartbeat_interval_s=3600)
        runtime.hosting["p-client"] = [greeter_name]
        await client.start()

        greeter = client.get(Greeter)
        assert await greeter.greet("Iris") == "Hello, Iris! (5)"
        await client.stop()
        await server.stop()

    async def test_warm_remote_call_object_budget(self, demo_build, runtime):
        """A warm stub call is one coroutine above ``Connection.call``: no
        stub frame, no attempt frame, no awaited routing lookup or pool get,
        no fresh ``CallOptions``, and one future (the reply's) per call."""
        server, client = await serving_pair(demo_build, runtime)
        try:
            await assert_warm_call_budget(client.get(Adder))
        finally:
            await client.stop()
            await server.stop()

    async def test_warm_call_with_options_object_budget(self, demo_build, runtime):
        """A deadline and a retry count stay on the inline path too."""
        server, client = await serving_pair(demo_build, runtime)
        try:
            await assert_warm_call_budget(
                client.get(Adder).with_options(deadline_s=5.0, retries=0)
            )
        finally:
            await client.stop()
            await server.stop()


async def assert_warm_call_budget(adder) -> None:
    """Profile 50 warm ``adder.add`` calls: the coroutines they enter and
    the futures they create."""
    assert await adder.add(1, 2) == 3  # warm: routing cached, connection dialed

    n = 50

    async def calls():
        for i in range(n):
            assert await adder.add(i, 1) == i + 1

    create_future = type(asyncio.get_running_loop()).create_future.__code__
    options_init = CallOptions.__init__.__code__
    entered: set = set()
    futures = 0

    def profile(frame, event, arg):
        # Only frames running under calls() — the client side.
        nonlocal futures
        code = frame.f_code
        is_coroutine = code.co_flags & inspect.CO_COROUTINE
        if event != "call" or not (is_coroutine or code in (create_future, options_init)):
            return
        caller = frame.f_back
        while caller is not None and caller.f_code is not calls.__code__:
            caller = caller.f_back
        if caller is None:
            return
        if code is create_future:
            futures += 1
        else:
            entered.add(code)

    sys.setprofile(profile)
    try:
        await calls()
    finally:
        sys.setprofile(None)
    assert RoutingResolver.resolve.__code__ not in entered
    assert ConnectionPool.get.__code__ not in entered
    assert options_init not in entered  # CallOptions() never ran
    assert entered == {RemoteInvoker.invoke.__code__, Connection.call.__code__}
    assert futures == n


async def serving_pair(demo_build, runtime, config=None):
    """A proclet hosting Adder, and a client proclet routed to it."""
    adder_name = demo_build.by_iface(Adder).name
    server = Proclet("p-server", demo_build, AppConfig(), runtime, heartbeat_interval_s=3600)
    runtime.hosting["p-server"] = [adder_name]
    await server.start()
    runtime.routing[adder_name] = {"component": adder_name, "replicas": [server.address]}
    client = Proclet(
        "p-client", demo_build, config or AppConfig(), runtime, heartbeat_interval_s=3600
    )
    await client.start()
    return server, client


class Mangling:
    """The deployment codec, with argument bytes mangled after encoding —
    what a broken or hostile peer puts on the wire."""

    def __init__(self, codec, mangle):
        self._codec, self._mangle = codec, mangle

    def encode_into(self, schema, value, out):
        self._codec.encode_into(schema, value, out)
        out[:] = self._mangle(bytes(out))

    def decode(self, schema, data):
        return self._codec.decode(schema, data)


class TestServedMethods:
    async def test_warm_served_request_frame_budget(self, demo_build, runtime):
        """A warm served request is four coroutines: the connection's
        request task, the proclet's door, the method's bound thunk and the
        handler — no dispatcher or local-invoker frame."""
        server, client = await serving_pair(demo_build, runtime)
        try:
            reg = demo_build.by_iface(Adder)
            adder = client.get(Adder)
            assert await adder.add(1, 2) == 3  # warm
            thunk = server._served[(reg.component_id, reg.spec.method("add").index)][0]
            handler = type(server._local.instances()[reg.name]).add
            serve_one = Connection._serve_one.__code__
            entered: set = set()

            def profile(frame, event, arg):
                code = frame.f_code
                if event != "call" or not code.co_flags & inspect.CO_COROUTINE:
                    return
                outer = frame
                while outer is not None and outer.f_code is not serve_one:
                    outer = outer.f_back
                if outer is not None:  # running under a served request
                    entered.add(code)

            sys.setprofile(profile)
            try:
                for i in range(50):
                    assert await adder.add(i, 1) == i + 1
            finally:
                sys.setprofile(None)
            assert entered == {
                serve_one,
                Proclet._handle_rpc.__code__,
                thunk.__code__,
                handler.__code__,
            }
        finally:
            await client.stop()
            await server.stop()

    @pytest.mark.parametrize(
        "mangle",
        [lambda b: b"\xff\xff\xff", lambda b: b + b"\x00"],
        ids=["garbage", "trailing-byte"],
    )
    async def test_malformed_arguments_are_refused_unexecuted(
        self, demo_build, runtime, mangle
    ):
        """Arguments that do not decode are the caller's fault, not the
        method's: INTERNAL with executed=False, the handler never runs, and
        the caller's breaker records a failure (one trips it here), never
        the success an application error would credit."""
        from repro.transport.breaker import BreakerState

        server, client = await serving_pair(
            demo_build, runtime, AppConfig(breaker_failures=1)
        )
        try:
            reg = demo_build.by_iface(Adder)
            client._remote._codec = Mangling(client._remote._codec, mangle)
            with pytest.raises(RPCError) as info:
                await client.get(Adder).add(1, 2)
            assert type(info.value) is RPCError
            assert info.value.code is ErrorCode.INTERNAL
            assert info.value.executed is False
            assert server._local.instances()[reg.name].calls == 0
            breaker = client.breakers.breaker(reg.name, server.address)
            assert breaker.state is BreakerState.OPEN
        finally:
            await client.stop()
            await server.stop()

    async def test_unknown_ids_touch_no_per_method_state(self, demo_build, runtime):
        """Requests naming methods this proclet does not have are refused
        INTERNAL/executed=False, and however many distinct ids a peer sends,
        the proclet's per-method tables stay the size of what it hosts."""
        server, client = await serving_pair(demo_build, runtime)
        pool = ConnectionPool(codec="compact", version=demo_build.version)
        try:
            reg = demo_build.by_iface(Adder)
            served, cells = len(server._served), len(server.metrics.cells())
            assert served == len(reg.spec.methods)
            conn = await pool.get(server.address)
            for i in range(1000):
                with pytest.raises(RPCError) as info:
                    await conn.call(reg.component_id, 100 + i, b"", timeout=5)
                assert info.value.code is ErrorCode.INTERNAL
                assert info.value.executed is False
            assert len(server._served) == served
            assert len(server.metrics.cells()) == cells
        finally:
            await pool.close()
            await client.stop()
            await server.stop()

    async def test_request_queued_while_its_component_moves_is_refused(
        self, demo_build, runtime
    ):
        """A request waiting for an execution slot when its component moves
        away is refused UNAVAILABLE/executed=False once admitted — the
        caller re-resolves — and never runs on the shut-down instance."""
        reg = demo_build.by_iface(Adder)
        server = Proclet(
            "p-test", demo_build, AppConfig(max_inflight=1), runtime, heartbeat_interval_s=3600
        )
        runtime.hosting["p-test"] = [reg.name]
        await server.start()
        pool = ConnectionPool(codec="compact", version=demo_build.version)
        try:
            old = server._local.instances()[reg.name]
            spec = reg.spec.method("add")
            payload = COMPACT.encode(spec.arg_schema, (1, 2))
            conn = await pool.get(server.address)
            assert server._admission.try_enter()  # hold the only slot
            queued = asyncio.ensure_future(
                conn.call(reg.component_id, spec.index, payload, timeout=5)
            )
            await asyncio.sleep(0.05)
            assert not queued.done()
            await server.host_components([])
            server._admission.leave()
            with pytest.raises(Unavailable) as info:
                await queued
            assert info.value.executed is False
            assert old.calls == 0
        finally:
            await pool.close()
            await server.stop()

    async def test_moved_components_are_unbound_before_any_is_discarded(
        self, demo_build, runtime
    ):
        """While the first moved component shuts down, no request can reach
        a thunk of any other moved one."""
        names = [demo_build.by_iface(iface).name for iface in (Adder, KVStore)]
        server = await make_proclet(demo_build, runtime, hosted=names, heartbeat_interval_s=3600)
        try:
            discard = server._local.discard_instance
            bound_at_discard = []

            async def observed(name):
                bound_at_discard.append(set(server._served))
                await discard(name)

            server._local.discard_instance = observed
            await server.host_components([])
            assert bound_at_discard == [set(), set()]
        finally:
            await server.stop()


class TestControl:
    async def test_host_components_push(self, demo_build, runtime):
        proclet = await make_proclet(demo_build, runtime)
        adder = demo_build.by_iface(Adder).name
        await proclet.handle_control("host_components", {"components": [adder]})
        assert proclet.hosted == {adder}
        await proclet.stop()

    async def test_routing_info_push(self, demo_build, runtime):
        proclet = await make_proclet(demo_build, runtime)
        adder = demo_build.by_iface(Adder).name
        await proclet.handle_control(
            pipes.ROUTING_INFO,
            {"component": adder, "replicas": ["tcp://127.0.0.1:1"]},
        )
        assert proclet._table.replicas(adder) == ("tcp://127.0.0.1:1",)
        await proclet.stop()

    async def test_health_query(self, demo_build, runtime):
        adder = demo_build.by_iface(Adder).name
        proclet = await make_proclet(demo_build, runtime, hosted=[adder])
        status = await proclet.handle_control("health", {})
        assert status["status"] == "serving"
        assert status["hosted"] == [adder]
        await proclet.stop()

    async def test_shutdown_push(self, demo_build, runtime):
        proclet = await make_proclet(demo_build, runtime)
        await proclet.handle_control(pipes.SHUTDOWN, {})
        await asyncio.sleep(0.01)
        assert proclet._stopped

"""The proclet daemon: registration, hosting, stubs, control handling."""

from __future__ import annotations

import asyncio
import inspect
import sys

import pytest

from repro.core.config import AppConfig
from repro.core.errors import ComponentNotFound, Unavailable
from repro.core.options import CallOptions
from repro.runtime import pipes
from repro.runtime.proclet import Proclet, RoutingResolver
from repro.transport.client import ConnectionPool
from repro.transport.connection import Connection
from repro.transport.rpc import RemoteInvoker

from tests.conftest import Adder, Greeter


class ScriptedRuntime:
    """A RuntimeAPI double recording every interaction."""

    def __init__(self, build):
        self.build = build
        self.registered = []
        self.heartbeats = []
        self.started = []
        self.metrics = []
        self.logs = []
        self.call_graphs = []
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
        """A warm stub call is two coroutines above ``Connection.call``: no
        stub frame, no awaited routing lookup or pool get, no fresh
        ``CallOptions``, and one future (the reply's) per call."""
        adder_name = demo_build.by_iface(Adder).name
        server = Proclet("p-server", demo_build, AppConfig(), runtime, heartbeat_interval_s=3600)
        runtime.hosting["p-server"] = [adder_name]
        await server.start()
        runtime.routing[adder_name] = {"component": adder_name, "replicas": [server.address]}
        client = Proclet("p-client", demo_build, AppConfig(), runtime, heartbeat_interval_s=3600)
        await client.start()
        try:
            adder = client.get(Adder)
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
            assert entered == {
                RemoteInvoker.invoke.__code__,
                RemoteInvoker._single_attempt.__code__,
                Connection.call.__code__,
            }
            assert futures == n
        finally:
            await client.stop()
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

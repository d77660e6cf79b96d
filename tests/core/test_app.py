"""The init/get/run facade (Figure 2 parity)."""

from __future__ import annotations

import pytest

import repro
from repro.core.app import init
from repro.core.errors import ComponentNotFound

from tests.conftest import Adder, Greeter, KVStore


class TestInit:
    async def test_hello_world_shape(self, demo_registry):
        app = await init(registry=demo_registry)
        greeter = app.get(Greeter)
        assert await greeter.greet("World") == "Hello, World! (6)"
        await app.shutdown()

    async def test_get_unknown_component(self, demo_registry):
        app = await init(registry=demo_registry, components=[Adder])
        with pytest.raises(ComponentNotFound):
            app.get(Greeter)
        await app.shutdown()

    async def test_version_exposed(self, demo_registry):
        app = await init(registry=demo_registry)
        assert len(app.version) == 16
        await app.shutdown()

    async def test_context_manager(self, demo_registry):
        async with await init(registry=demo_registry) as app:
            assert await app.get(Adder).add(1, 1) == 2

    async def test_shutdown_runs_component_hooks(self, demo_registry):
        stopped = []

        class Closeable(repro.Component):
            async def noop(self, x: int) -> int: ...

        class CloseableImpl:
            async def noop(self, x: int) -> int:
                return x

            async def shutdown(self) -> None:
                stopped.append(True)

        demo_registry.register(Closeable, CloseableImpl)
        app = await init(registry=demo_registry)
        await app.get(Closeable).noop(1)  # instantiate
        await app.shutdown()
        assert stopped == [True]

    async def test_routed_methods_work_locally(self, demo_registry):
        app = await init(registry=demo_registry)
        kv = app.get(KVStore)
        await kv.put("k", "v")
        assert await kv.get("k") == "v"
        await app.shutdown()


def test_run_sync_facade(demo_registry):
    """repro.run is the weaver.Run equivalent: sync in, app managed."""
    import asyncio

    async def main(app):
        return await app.get(Adder).add(20, 22)

    # run() uses the global registry; build a local variant for isolation.
    async def body():
        app = await init(registry=demo_registry)
        try:
            return await main(app)
        finally:
            await app.shutdown()

    assert asyncio.run(body()) == 42


def test_run_with_global_registry():
    class RunDemo(repro.Component):
        async def ping(self) -> str: ...

    @repro.implements(RunDemo)
    class RunDemoImpl:
        async def ping(self) -> str:
            return "pong"

    async def main(app):
        return await app.get(RunDemo).ping()

    assert repro.run(main) == "pong"

"""Shared test plumbing.

pytest-asyncio is not available in this environment, so a minimal hook
runs ``async def`` tests through ``asyncio.run`` — each async test gets a
fresh event loop, which also guarantees cross-test isolation of sockets,
tasks, and servers.

Fixtures here provide isolated component registries with a small demo
application (an adder, a greeter that depends on it, and a routed
key-value store), so runtime tests don't need the full boutique.
"""

from __future__ import annotations

import asyncio
import inspect

import pytest

import repro
from repro.codegen.compiler import idempotent, routed
from repro.core.component import Component
from repro.core.registry import Registry


@pytest.fixture(scope="session", autouse=True)
def _sweep_state_scratch():
    """Remove WAL/snapshot scratch dirs the session leaves in tempdir.

    MultiProcessApp provisions ``repro-state-*`` under the system tempdir
    and removes it on clean shutdown, but chaos tests kill deployments
    mid-flight by design.  Sweep only dirs that appeared during this
    session so concurrent runs on the same machine are untouched.
    """
    import glob
    import os
    import shutil
    import tempfile

    pattern = os.path.join(tempfile.gettempdir(), "repro-state-*")
    preexisting = set(glob.glob(pattern))
    yield
    for path in set(glob.glob(pattern)) - preexisting:
        shutil.rmtree(path, ignore_errors=True)


def pytest_pyfunc_call(pyfuncitem):
    fn = pyfuncitem.obj
    if inspect.iscoroutinefunction(fn):
        kwargs = {
            name: pyfuncitem.funcargs[name]
            for name in pyfuncitem._fixtureinfo.argnames
        }
        asyncio.run(fn(**kwargs))
        return True
    return None


# ---------------------------------------------------------------------------
# Demo components (interfaces + impls), registered into private registries.
# ---------------------------------------------------------------------------


class Adder(Component):
    @idempotent
    async def add(self, a: int, b: int) -> int: ...

    @idempotent
    async def add_all(self, values: list[int]) -> int: ...


class AdderImpl:
    def __init__(self) -> None:
        self.calls = 0

    async def add(self, a: int, b: int) -> int:
        self.calls += 1
        return a + b

    async def add_all(self, values: list[int]) -> int:
        self.calls += 1
        return sum(values)


class Greeter(Component):
    @idempotent
    async def greet(self, name: str) -> str: ...


class GreeterImpl:
    async def init(self, ctx) -> None:
        self.adder = ctx.get(Adder)
        self.replica_id = ctx.replica_id

    async def greet(self, name: str) -> str:
        n = await self.adder.add(len(name), 1)
        return f"Hello, {name}! ({n})"


class KVStore(Component):
    @routed(by="key")
    async def put(self, key: str, value: str) -> None: ...

    @idempotent
    @routed(by="key")
    async def get(self, key: str) -> str: ...

    @idempotent
    @routed(by="key")
    async def which_replica(self, key: str) -> int: ...


class KVStoreImpl:
    async def init(self, ctx) -> None:
        self.replica_id = ctx.replica_id
        self.data: dict[str, str] = {}

    async def put(self, key: str, value: str) -> None:
        self.data[key] = value

    async def get(self, key: str) -> str:
        return self.data.get(key, "")

    async def which_replica(self, key: str) -> int:
        return self.replica_id


class Flaky(Component):
    @idempotent
    async def work(self, fail_times: int) -> str: ...


class FlakyImpl:
    def __init__(self) -> None:
        self.attempts: dict[int, int] = {}

    async def work(self, fail_times: int) -> str:
        seen = self.attempts.get(fail_times, 0)
        self.attempts[fail_times] = seen + 1
        if seen < fail_times:
            from repro.core.errors import Unavailable

            raise Unavailable("still warming up")
        return "done"


DEMO_PAIRS = [
    (Adder, AdderImpl),
    (Greeter, GreeterImpl),
    (KVStore, KVStoreImpl),
    (Flaky, FlakyImpl),
]

# Register into the global registry at import time as well: subprocess
# proclets rebuild their registry by importing this module (procmain), so
# registration must be an import-time effect, exactly as @implements is.
for _iface, _impl in DEMO_PAIRS:
    repro.global_registry().register(_iface, _impl)



# ---------------------------------------------------------------------------
# ReplicaLauncher doubles for tests that drive a Manager without a deployer.
# ---------------------------------------------------------------------------


class NoopLauncher:
    """A ``ReplicaLauncher`` that does nothing: it launches no proclet,
    drains none, and swallows pushes.  Doubles subclass it and override
    only what they record, so a change to the Protocol lands here once."""

    async def start_replica(self, group_id: int, replica_index: int) -> None:
        pass

    async def stop_replica(self, proclet_id: str) -> None:
        pass

    async def update_hosting(self, proclet_id: str, components: list[str]) -> None:
        pass

    async def drain_replica(self, proclet_id: str, deadline_s: float) -> None:
        return None

    async def push_routing(self, proclet_id: str, component: str, info: dict) -> None:
        pass

    async def push_state(self, proclet_id: str, shards: list[dict]) -> int:
        return 0


class FakeLauncher(NoopLauncher):
    """Registers a fake proclet for every start request (asynchronously,
    as a real envelope would after the child boots) and records stops.
    Set ``manager`` before the first start."""

    def __init__(self) -> None:
        self.manager = None
        self.started: list[tuple[int, int]] = []
        self.stopped: list[str] = []
        self._seq = 0

    async def start_replica(self, group_id: int, replica_index: int) -> None:
        self.started.append((group_id, replica_index))
        self._seq += 1
        proclet_id = f"fake-g{group_id}-r{self._seq}"
        asyncio.get_running_loop().call_soon(
            lambda: asyncio.ensure_future(
                self.manager.register_replica(
                    proclet_id, f"tcp://127.0.0.1:{9000 + self._seq}", group_id
                )
            )
        )

    async def stop_replica(self, proclet_id: str) -> None:
        self.stopped.append(proclet_id)


@pytest.fixture
def demo_registry() -> Registry:
    registry = Registry()
    for iface, impl in DEMO_PAIRS:
        registry.register(iface, impl)
    return registry


@pytest.fixture
def demo_build(demo_registry):
    return demo_registry.freeze()

"""The baseline calls through the runtime's RPC layer on an HTTP wire.

``BaselineApp`` and every ``MicroserviceHost`` call through an unmodified
``RemoteInvoker``, so per-call options and the deployment config mean the
same on both stacks, and an error crosses the HTTP wire with the fields
the framed transport carries.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.baseline.service import BaselineApp
from repro.codegen.compiler import idempotent
from repro.core.component import Component
from repro.core.config import AppConfig
from repro.core.errors import (
    DeadlineExceeded,
    ErrorCode,
    ResourceExhausted,
    RPCError,
    Unavailable,
    WrongOwner,
)
from repro.core.registry import Registry
from repro.transport.http_rpc import HttpRpcClient, HttpRpcServer


class Sleeper(Component):
    @idempotent
    async def nap(self, delay_s: float) -> str: ...


class SleeperImpl:
    async def nap(self, delay_s: float) -> str:
        await asyncio.sleep(delay_s)
        return "rested"


async def start_baseline(config: AppConfig) -> BaselineApp:
    registry = Registry()
    registry.register(Sleeper, SleeperImpl)
    return await BaselineApp(registry.freeze(), config).start()


async def test_hedged_idempotent_call_issues_a_hedge():
    app = await start_baseline(AppConfig(name="nap"))
    try:
        sleeper = app.get(Sleeper).with_options(hedge=0.02)
        assert await sleeper.nap(0.15) == "rested"
        assert app._client.hedges >= 1
    finally:
        await app.shutdown()


async def test_config_call_timeout_bounds_a_call():
    app = await start_baseline(AppConfig(name="nap", call_timeout_s=0.2))
    try:
        start = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            await app.get(Sleeper).nap(0.6)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.45, f"call outlived call_timeout_s: {elapsed:.3f}s"
    finally:
        await app.shutdown()


ERRORS = {
    "internal": RPCError("not run", code=ErrorCode.INTERNAL, executed=False),
    "draining": Unavailable("replica is draining", executed=False, draining=True),
    "deadline": DeadlineExceeded("budget spent in the handler", executed=True),
    "shed": ResourceExhausted("queue full"),
    "moved": WrongOwner("key moved"),
}


@pytest.mark.parametrize("name", sorted(ERRORS))
async def test_rpc_error_fields_cross_the_http_wire(name):
    sent = ERRORS[name]

    async def handler(component: str, method: str, body: bytes) -> bytes:
        raise sent

    server = HttpRpcServer(handler)
    address = await server.start()
    client = HttpRpcClient()
    try:
        with pytest.raises(RPCError) as info:
            await client.call(address, "C", "m", b"", timeout=2)
    finally:
        await client.close()
        await server.stop()
    got = info.value
    assert type(got) is type(sent)
    assert got.code is sent.code
    assert got.executed is sent.executed
    assert str(got) == str(sent)
    assert getattr(got, "draining", False) is getattr(sent, "draining", False)

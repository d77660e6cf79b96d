"""The baseline calls and serves through the runtime's RPC layer on an HTTP wire.

``BaselineApp`` and every ``MicroserviceHost`` call through an unmodified
``RemoteInvoker`` and serve through the ``Dispatcher``'s per-method
thunks, so per-call options, budgets, trace context and the deployment
config mean the same on both stacks, and an error crosses the HTTP wire
with the fields the framed transport carries.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.baseline.service import BaselineApp, deploy_baseline
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
from repro.core.options import remaining_budget_s
from repro.core.registry import Registry
from repro.observability.tracing import bind_unsampled, reset_span
from repro.runtime.deployers.multi import MultiProcessApp, deploy_multiprocess
from repro.transport.client import ConnectionPool
from repro.transport.http_rpc import HttpRpcClient, HttpServer, rpc_route

from tests.conftest import until


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

    async def handler(component, method, body, trace, deadline_ms) -> bytes:
        raise sent

    server = HttpServer(rpc_route(handler))
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


# --------------------------------------------------------------------------
# Stack parity: the framed stack and the baseline serve a request the same
# way, so only the wire, the codec and the hosts differ between them.
# --------------------------------------------------------------------------


class Inner(Component):
    async def budget(self, label: str) -> float: ...


class InnerImpl:
    async def budget(self, label: str) -> float:
        remaining = remaining_budget_s()
        return -1.0 if remaining is None else remaining


class Outer(Component):
    async def budget_via_hop(self) -> float: ...


class OuterImpl:
    async def init(self, ctx) -> None:
        self.inner = ctx.get(Inner)

    async def budget_via_hop(self) -> float:
        return await self.inner.budget("hop")


#: Argument bytes neither the compact nor the tagged codec can decode as
#: ``(label: str,)``: a varint running past the end of the payload.
MALFORMED = b"\xff" * 12


def parity_registry() -> Registry:
    registry = Registry()
    registry.register(Inner, InnerImpl)
    registry.register(Outer, OuterImpl)
    return registry


def all_spans(app) -> list:
    if isinstance(app, MultiProcessApp):
        return app.manager.tracer.spans()  # shipped on heartbeats
    return app.tracer.spans()


async def send_malformed(app) -> RPCError:
    """Malformed argument bytes, straight to the server hosting Inner."""
    reg = app.build.by_iface(Inner)
    spec = reg.spec.method("budget")
    if isinstance(app, MultiProcessApp):
        (envelope,) = [
            e for e in app.envelopes.values() if reg.name in e.proclet.hosted
        ]
        pool = ConnectionPool(codec=app.config.codec, version=app.build.version)
        conn = await pool.get(envelope.proclet.address)
        call = conn.call(reg.component_id, spec.index, MALFORMED, timeout=5, deadline_ms=5000)
    else:
        pool = HttpRpcClient()
        call = pool.call(
            app.mesh.resolve(reg.name), reg.name, spec.name, MALFORMED, timeout=5
        )
    try:
        await call
    except RPCError as exc:
        return exc
    finally:
        await pool.close()
    raise AssertionError("malformed arguments were served")


STACKS = {
    "framed": lambda: deploy_multiprocess(
        AppConfig(name="parity"), registry=parity_registry(), mode="inproc"
    ),
    "baseline": lambda: deploy_baseline(AppConfig(name="parity"), registry=parity_registry()),
}


@pytest.mark.parametrize("stack", sorted(STACKS))
async def test_both_stacks_serve_a_request_the_same_way(stack):
    app = await STACKS[stack]()
    try:
        outer = app.get(Outer)

        # (b) A caller inside an unsampled trace leaves no span on any hop.
        token = bind_unsampled()
        try:
            await outer.budget_via_hop()
        finally:
            reset_span(token)

        # (a) The handler's nested call runs under the caller's budget.
        remaining = await outer.with_options(deadline_s=5.0).budget_via_hop()
        assert 0 < remaining < 5.0

        # (a)'s call is sampled, and each hop ships spans in the order it
        # made them: once (a)'s spans have landed from every hop, any the
        # unsampled call left would have landed too.
        hops = {
            "rpc Outer.budget_via_hop",
            "Outer.budget_via_hop",
            "rpc Inner.budget",
            "Inner.budget",
        }
        await until(
            lambda: hops <= {s.name for s in all_spans(app)},
            10.0,
            "the sampled call's spans never landed from every hop",
        )
        assert len({s.trace_id for s in all_spans(app)}) == 1

        # (c) Malformed argument bytes are refused before the method runs.
        refused = await send_malformed(app)
        assert refused.code is ErrorCode.INTERNAL
        assert refused.executed is False
    finally:
        await app.shutdown()

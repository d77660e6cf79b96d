"""End-to-end deadline propagation: budgets on the wire, across hops.

The invariant under test: a chain of calls can never outlive the root
caller's deadline, no matter how deep it goes or which transport carries
it — the remaining budget ships with every request (``deadline_ms`` on
the framed transport, ``X-Repro-Deadline`` over HTTP), shrinks at every
hop, and is enforced both client-side and at each server's door.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.codegen.compiler import idempotent
from repro.core.component import Component
from repro.core.config import AppConfig
from repro.core.errors import DeadlineExceeded, RPCError
from repro.core.options import remaining_budget_s
from repro.core.registry import Registry
from repro.core.stub import LocalInvoker
from repro.runtime.deployers.multi import deploy_multiprocess
from repro.serde import COMPACT
from repro.transport.client import ConnectionPool
from repro.transport.rpc import Dispatcher
from repro.transport.server import RPCServer


# --------------------------------------------------------------------------
# A three-hop chain: Front -> Middle -> Leaf, where Leaf is slow.
# --------------------------------------------------------------------------


class Leaf(Component):
    @idempotent
    async def work(self, delay_s: float) -> str: ...

    @idempotent
    async def budget(self) -> float: ...


class Middle(Component):
    @idempotent
    async def relay(self, delay_s: float) -> str: ...

    @idempotent
    async def budget_via_hop(self) -> float: ...


class Front(Component):
    @idempotent
    async def call_chain(self, delay_s: float) -> str: ...


class LeafImpl:
    async def work(self, delay_s: float) -> str:
        await asyncio.sleep(delay_s)
        return "leaf"

    async def budget(self) -> float:
        remaining = remaining_budget_s()
        return -1.0 if remaining is None else remaining


class MiddleImpl:
    async def init(self, ctx) -> None:
        self._leaf = ctx.get(Leaf)

    async def relay(self, delay_s: float) -> str:
        return await self._leaf.work(delay_s)

    async def budget_via_hop(self) -> float:
        return await self._leaf.budget()


class FrontImpl:
    async def init(self, ctx) -> None:
        self._middle = ctx.get(Middle)

    async def call_chain(self, delay_s: float) -> str:
        return await self._middle.relay(delay_s)


def chain_registry() -> Registry:
    registry = Registry()
    registry.register(Front, FrontImpl)
    registry.register(Middle, MiddleImpl)
    registry.register(Leaf, LeafImpl)
    return registry


async def test_three_hop_chain_respects_root_deadline_tcp():
    """A 200ms root budget fails the whole chain in ~200ms, not 1s+."""
    app = await deploy_multiprocess(
        AppConfig(name="chain"), registry=chain_registry(), mode="inproc"
    )
    try:
        front = app.get(Front).with_options(deadline_s=0.2)
        start = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            await front.call_chain(1.0)  # leaf would sleep 1s
        elapsed = time.perf_counter() - start
        assert elapsed < 0.45, f"chain outlived its deadline: {elapsed:.3f}s"
    finally:
        await app.shutdown()


async def test_budget_shrinks_across_hops():
    """The leaf sees strictly less budget than the root granted."""
    app = await deploy_multiprocess(
        AppConfig(name="chain"), registry=chain_registry(), mode="inproc"
    )
    try:
        middle = app.get(Middle).with_options(deadline_s=5.0)
        remaining = await middle.budget_via_hop()
        assert 0 < remaining < 5.0
    finally:
        await app.shutdown()


async def test_default_timeout_travels_as_budget():
    """Without an explicit deadline the deployment default still ships, so
    no server ever works on a request its caller has already abandoned."""
    app = await deploy_multiprocess(
        AppConfig(name="chain", call_timeout_s=30.0),
        registry=chain_registry(),
        mode="inproc",
    )
    try:
        leaf = app.get(Leaf)
        remaining = await leaf.budget()
        assert 0 < remaining <= 30.0
    finally:
        await app.shutdown()


def leaf_dispatcher():
    build = chain_registry().freeze()
    dispatcher = Dispatcher(build, COMPACT, LocalInvoker(version=build.version))
    reg = build.by_iface(Leaf)
    return dispatcher, reg


async def test_expired_budget_rejected_at_the_door():
    """A request whose budget is gone fails server-side, pre-execution."""
    dispatcher, reg = leaf_dispatcher()
    spec = reg.spec.method("work")
    payload = COMPACT.encode(spec.arg_schema, (0.5,))
    # The connection that serves the request owns its budget, so the door
    # is a real server's: 10ms budget, 500ms of work, cut off server-side
    # (the local wait bound is far away).
    server = RPCServer(dispatcher.handle, codec="compact", version="v1")
    pool = ConnectionPool(codec="compact", version="v1")
    try:
        conn = await pool.get(await server.start())
        start = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            await conn.call(
                reg.component_id, spec.index, payload, timeout=5, deadline_ms=10
            )
        assert time.perf_counter() - start < 0.3
    finally:
        await pool.close()
        await server.stop()


async def test_dispatcher_makes_the_budget_ambient_and_restores_it():
    """Dispatcher.handle itself only publishes the budget to the handler."""
    dispatcher, reg = leaf_dispatcher()
    spec = reg.spec.method("budget")
    payload = COMPACT.encode(spec.arg_schema, ())
    assert remaining_budget_s() is None
    reply = await dispatcher.handle(
        reg.component_id, spec.index, payload, deadline_ms=500
    )
    assert 0 < COMPACT.decode(spec.result_schema, reply) <= 0.5
    assert remaining_budget_s() is None  # the caller's context is unchanged


class LoopCounts:
    """Counts the event-loop objects made while active, by wrapping the
    running loop's factory methods."""

    NAMES = ("create_task", "create_future", "call_at")

    def __enter__(self):
        self.loop = asyncio.get_running_loop()
        self.counts = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            setattr(self.loop, name, self._counting(name, getattr(self.loop, name)))
        return self.counts

    def _counting(self, name, original):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)

        return counted

    def __exit__(self, *exc):
        for name in self.NAMES:
            delattr(self.loop, name)  # back to the class's method


async def test_one_task_and_no_timer_per_served_request():
    """The guard against a per-request ``wait_for``: N non-suspending
    requests, each carrying a 30 s budget, cost N tasks and O(1) timers."""
    n = 1000
    dispatcher, reg = leaf_dispatcher()
    spec = reg.spec.method("budget")
    payload = COMPACT.encode(spec.arg_schema, ())
    server = RPCServer(dispatcher.handle, codec="compact", version="v1")
    pool = ConnectionPool(codec="compact", version="v1")
    try:
        conn = await pool.get(await server.start())

        async def call() -> float:
            reply = await conn.call(
                reg.component_id, spec.index, payload, timeout=30, deadline_ms=30_000
            )
            return COMPACT.decode(spec.result_schema, reply)

        assert 0 < await call() <= 30.0  # warm: instance built, timers armed
        with LoopCounts() as counts:
            for _ in range(n):
                await call()
        assert counts["create_task"] == n  # the serving task, nothing else
        # At most one timer per connection end (call_later lands here too).
        assert counts["call_at"] <= 4
        # The call's own future, and one read-wait on each end per round
        # trip; a waiter future for the budget would make it 4 per request.
        assert counts["create_future"] <= 3 * n + 16
    finally:
        await pool.close()
        await server.stop()


async def test_deadline_exceeded_is_not_retried():
    """DeadlineExceeded is terminal: retrying cannot grow the budget."""
    exc = DeadlineExceeded("late")
    assert isinstance(exc, RPCError)
    assert not exc.retryable


async def test_three_hop_chain_respects_root_deadline_http():
    """Same invariant on the HTTP/JSON baseline plane."""
    from repro.baseline.service import BaselineApp

    app = BaselineApp(chain_registry().freeze(), AppConfig(name="chain"))
    await app.start()
    try:
        front = app.get(Front).with_options(deadline_s=0.2)
        start = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            await front.call_chain(1.0)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.45, f"chain outlived its deadline: {elapsed:.3f}s"
    finally:
        await app.shutdown()


async def test_http_budget_shrinks_across_hops():
    from repro.baseline.service import BaselineApp

    app = BaselineApp(chain_registry().freeze(), AppConfig(name="chain"))
    await app.start()
    try:
        middle = app.get(Middle).with_options(deadline_s=5.0)
        remaining = await middle.budget_via_hop()
        assert 0 < remaining < 5.0
    finally:
        await app.shutdown()


# --------------------------------------------------------------------------
# Hedging: only idempotent methods, second attempt races the first.
# --------------------------------------------------------------------------


async def test_hedged_call_succeeds_and_counts():
    app = await deploy_multiprocess(
        AppConfig(name="chain"), registry=chain_registry(), mode="inproc"
    )
    try:
        leaf = app.get(Leaf).with_options(hedge=0.02)
        assert await leaf.work(0.15) == "leaf"
        assert app._driver._remote.hedges >= 1
    finally:
        await app.shutdown()


async def test_fast_call_is_not_hedged():
    app = await deploy_multiprocess(
        AppConfig(name="chain"), registry=chain_registry(), mode="inproc"
    )
    try:
        leaf = app.get(Leaf).with_options(hedge=5.0)
        assert await leaf.work(0.0) == "leaf"
        assert app._driver._remote.hedges == 0
    finally:
        await app.shutdown()

"""Server-side admission control: bounded concurrency, bounded queue, shed.

Unit tests drive :class:`AdmissionController` directly; the end-to-end
tests deploy a slow component with ``max_inflight`` set and verify that
overload is shed with a retryable, provably-unexecuted
:class:`ResourceExhausted` while admitted requests still complete.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.codegen.compiler import idempotent
from repro.core.component import Component
from repro.core.config import AppConfig
from repro.core.errors import DeadlineExceeded, ResourceExhausted
from repro.core.registry import Registry
from repro.runtime.deployers.multi import deploy_multiprocess
from repro.serde import COMPACT
from repro.transport.client import ConnectionPool
from repro.transport.server import AdmissionController


class TestAdmissionController:
    async def test_disabled_by_default(self):
        admission = AdmissionController()
        assert not admission.enabled
        async with admission:
            assert admission.inflight == 0  # limiter is a no-op

    async def test_admits_up_to_max_inflight(self):
        admission = AdmissionController(max_inflight=2, max_queue=0)
        async with admission:
            assert admission.inflight == 1
            async with admission:
                assert admission.inflight == 2
        assert admission.inflight == 0

    async def test_sheds_beyond_capacity_and_queue(self):
        admission = AdmissionController(max_inflight=1, max_queue=0)
        release = asyncio.Event()

        async def occupant():
            async with admission:
                await release.wait()

        task = asyncio.ensure_future(occupant())
        await asyncio.sleep(0.01)
        with pytest.raises(ResourceExhausted) as info:
            async with admission:
                pass
        assert info.value.retryable
        assert not info.value.executed  # shed before any user code ran
        assert admission.shed_count == 1
        release.set()
        await task

    async def test_queued_request_gets_the_slot(self):
        admission = AdmissionController(max_inflight=1, max_queue=4)
        release = asyncio.Event()
        order: list[str] = []

        async def occupant():
            async with admission:
                order.append("first")
                await release.wait()

        async def waiter():
            async with admission:
                order.append("second")

        t1 = asyncio.ensure_future(occupant())
        await asyncio.sleep(0.01)
        t2 = asyncio.ensure_future(waiter())
        await asyncio.sleep(0.01)
        assert admission.queue_depth == 1
        release.set()
        await asyncio.gather(t1, t2)
        assert order == ["first", "second"]
        assert admission.inflight == 0

    async def test_cancelled_waiter_leaves_no_leak(self):
        admission = AdmissionController(max_inflight=1, max_queue=4)
        release = asyncio.Event()

        async def occupant():
            async with admission:
                await release.wait()

        t1 = asyncio.ensure_future(occupant())
        await asyncio.sleep(0.01)

        async def waiter():
            async with admission:
                pass

        t2 = asyncio.ensure_future(waiter())
        await asyncio.sleep(0.01)
        t2.cancel()
        with pytest.raises(asyncio.CancelledError):
            await t2
        release.set()
        await t1
        assert admission.inflight == 0
        assert admission.queue_depth == 0


# --------------------------------------------------------------------------
# End to end: a proclet with max_inflight sheds overload but stays up.
# --------------------------------------------------------------------------


class Busy(Component):
    @idempotent
    async def grind(self, seconds: float) -> str: ...


class BusyImpl:
    async def grind(self, seconds: float) -> str:
        await asyncio.sleep(seconds)
        return "done"


def busy_registry() -> Registry:
    registry = Registry()
    registry.register(Busy, BusyImpl)
    return registry


async def test_overload_is_shed_not_queued_forever():
    config = AppConfig(name="shed", max_inflight=1, max_queue_depth=0)
    app = await deploy_multiprocess(config, registry=busy_registry(), mode="inproc")
    try:
        busy = app.get(Busy).with_options(retries=0)
        results = await asyncio.gather(
            *[busy.grind(0.2) for _ in range(4)], return_exceptions=True
        )
        succeeded = [r for r in results if r == "done"]
        shed = [r for r in results if isinstance(r, ResourceExhausted)]
        assert len(succeeded) >= 1  # the admitted request finished
        assert len(shed) >= 1  # overload was rejected at the door
        assert len(succeeded) + len(shed) == 4
        for exc in shed:
            assert exc.retryable
            assert not exc.executed
    finally:
        await app.shutdown()


async def test_queue_absorbs_bursts_within_limit():
    config = AppConfig(name="shed", max_inflight=1, max_queue_depth=8)
    app = await deploy_multiprocess(config, registry=busy_registry(), mode="inproc")
    try:
        busy = app.get(Busy).with_options(retries=0)
        results = await asyncio.gather(*[busy.grind(0.02) for _ in range(4)])
        assert results == ["done"] * 4  # burst fits in the queue: no sheds
    finally:
        await app.shutdown()


async def test_shed_requests_are_retryable_elsewhere():
    """With retries enabled, a shed call succeeds on a later attempt once
    the replica drains — the shed is absorbed, the caller never sees it."""
    config = AppConfig(name="shed", max_inflight=1, max_queue_depth=0)
    app = await deploy_multiprocess(config, registry=busy_registry(), mode="inproc")
    try:
        busy = app.get(Busy).with_options(retries=8, deadline_s=10.0)
        results = await asyncio.gather(
            *[busy.grind(0.05) for _ in range(3)], return_exceptions=True
        )
        assert results == ["done"] * 3
    finally:
        await app.shutdown()


async def test_budget_spent_in_the_queue_is_answered_unexecuted():
    """A request whose wire budget runs out while it waits for a slot is
    answered DEADLINE_EXCEEDED at the budget, ``executed=False`` (user code
    never ran, so even a non-idempotent method may be retried), and gives
    its queue position back."""
    config = AppConfig(name="shed", max_inflight=1, max_queue_depth=8)
    app = await deploy_multiprocess(config, registry=busy_registry(), mode="inproc")
    pool = ConnectionPool(codec=config.codec, version=app.build.version)
    try:
        (envelope,) = app.envelopes.values()
        proclet = envelope.proclet
        reg = app.build.by_iface(Busy)
        spec = reg.spec.method("grind")
        conn = await pool.get(proclet.address)

        def grind(seconds: float, deadline_ms: int):
            # Raw calls: the local wait bound is far away, so what comes
            # back is the server's own answer.
            payload = COMPACT.encode(spec.arg_schema, (seconds,))
            return conn.call(
                reg.component_id, spec.index, payload, timeout=5, deadline_ms=deadline_ms
            )

        occupant = asyncio.ensure_future(grind(0.4, 5_000))
        await asyncio.sleep(0.05)  # the slot is held
        admission = proclet._admission
        start = asyncio.get_running_loop().time()
        queued = asyncio.ensure_future(grind(0.0, 50))
        await asyncio.sleep(0.02)
        assert admission.queue_depth == 1
        with pytest.raises(DeadlineExceeded, match="before execution") as info:
            await queued
        # Answered at the budget, not when the slot frees up at 0.4 s.
        assert asyncio.get_running_loop().time() - start < 0.25
        assert info.value.executed is False
        assert admission.queue_depth == 0
        assert admission.inflight == 1  # still the occupant's
        assert COMPACT.decode(spec.result_schema, await occupant) == "done"
        assert admission.inflight == 0
        assert proclet.inflight_rpcs == 0
    finally:
        await pool.close()
        await app.shutdown()

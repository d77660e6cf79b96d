"""RPC connections: handshake, pipelining, errors, health."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.errors import (
    DeadlineExceeded,
    ErrorCode,
    RemoteApplicationError,
    RPCError,
    Unavailable,
    VersionMismatch,
)
from repro.transport.client import ConnectionPool
from repro.transport.connection import SEND_HIGH_WATER
from repro.transport.server import RPCServer


async def echo_handler(
    component_id: int, method_index: int, args: bytes, trace=(0, 0), deadline_ms=0
) -> bytes:
    if method_index == 99:
        raise ValueError("application blew up")
    if method_index == 98:
        raise RPCError("rpc-level failure", code=ErrorCode.INTERNAL)
    if method_index == 97:
        await asyncio.sleep(0.5)
        return b"slow"
    return bytes([component_id, method_index]) + args


class Harness:
    def __init__(self, version="v1", handler=echo_handler):
        self.version = version
        self.handler = handler

    async def __aenter__(self):
        self.server = RPCServer(self.handler, codec="compact", version=self.version)
        self.address = await self.server.start()
        self.pool = ConnectionPool(codec="compact", version=self.version)
        return self

    async def __aexit__(self, *exc):
        await self.pool.close()
        await self.server.stop()

    @property
    def server_conn(self):
        (conn,) = self.server._connections
        return conn


async def test_basic_call():
    async with Harness() as h:
        conn = await h.pool.get(h.address)
        assert await conn.call(3, 4, b"abc", timeout=2) == b"\x03\x04abc"


async def test_pipelined_concurrent_calls():
    async with Harness() as h:
        conn = await h.pool.get(h.address)
        results = await asyncio.gather(
            *[conn.call(0, 1, str(i).encode(), timeout=5) for i in range(200)]
        )
        for i, r in enumerate(results):
            assert r == b"\x00\x01" + str(i).encode()


async def test_single_connection_per_address():
    async with Harness() as h:
        c1 = await h.pool.get(h.address)
        c2 = await h.pool.get(h.address)
        assert c1 is c2
        assert h.pool.open_count == 1


async def test_application_error_propagates_with_type():
    async with Harness() as h:
        conn = await h.pool.get(h.address)
        with pytest.raises(RemoteApplicationError) as info:
            await conn.call(0, 99, b"", timeout=2)
        assert info.value.exc_type == "ValueError"
        assert "blew up" in info.value.exc_message


async def test_app_error_does_not_poison_connection():
    async with Harness() as h:
        conn = await h.pool.get(h.address)
        with pytest.raises(RemoteApplicationError):
            await conn.call(0, 99, b"", timeout=2)
        assert await conn.call(0, 1, b"ok", timeout=2) == b"\x00\x01ok"


async def test_rpc_error_not_retryable():
    async with Harness() as h:
        conn = await h.pool.get(h.address)
        with pytest.raises(RPCError) as info:
            await conn.call(0, 98, b"", timeout=2)
        assert not info.value.retryable


async def test_deadline_exceeded():
    async with Harness() as h:
        conn = await h.pool.get(h.address)
        with pytest.raises(DeadlineExceeded):
            await conn.call(0, 97, b"", timeout=0.05)


async def test_ping_health_probe():
    async with Harness() as h:
        conn = await h.pool.get(h.address)
        assert await conn.ping(timeout=2) is True
        # A PING that arrives while the outbox is saturated still gets its
        # PONG: the answer parks in the slow path, not in the read loop.
        (server_conn,) = h.server._connections
        server_conn._direct = False
        server_conn._outbox_bytes = SEND_HIGH_WATER  # simulate a full outbox
        probe = asyncio.ensure_future(conn.ping(timeout=5))
        await asyncio.sleep(0.05)
        assert not probe.done()
        server_conn._outbox_bytes = 0
        server_conn._can_send.set()
        assert await probe is True


async def test_request_to_handlerless_peer_is_rejected():
    async with Harness() as h:
        await h.pool.get(h.address)  # pool connections serve nothing
        await asyncio.sleep(0.05)
        (server_conn,) = h.server._connections
        with pytest.raises(RPCError, match="does not serve") as info:
            await server_conn.call(1, 1, b"x", timeout=2)
        assert info.value.code is ErrorCode.INTERNAL
        assert info.value.executed is False


async def test_version_mismatch_rejected():
    async with Harness(version="v1") as h:
        other = ConnectionPool(codec="compact", version="v2")
        with pytest.raises(VersionMismatch, match="cross-version"):
            await other.get(h.address)
        await other.close()


async def test_codec_mismatch_rejected():
    async with Harness() as h:
        other = ConnectionPool(codec="json", version="v1")
        with pytest.raises(VersionMismatch):
            await other.get(h.address)
        await other.close()


async def test_server_stop_fails_inflight_calls():
    async with Harness() as h:
        conn = await h.pool.get(h.address)
        task = asyncio.ensure_future(conn.call(0, 97, b"", timeout=5))
        await asyncio.sleep(0.05)
        await h.server.stop()
        with pytest.raises((Unavailable, RPCError)):
            await task


async def test_pool_reconnects_after_drop():
    async with Harness() as h:
        conn = await h.pool.get(h.address)
        await conn.close()
        conn2 = await h.pool.get(h.address)
        assert conn2 is not conn
        assert await conn2.call(0, 1, b"x", timeout=2) == b"\x00\x01x"


async def test_connect_to_dead_address_is_unavailable():
    pool = ConnectionPool(codec="compact", version="v1", connect_timeout=0.5)
    with pytest.raises(Unavailable):
        await pool.get("tcp://127.0.0.1:1")  # nothing listens on port 1
    await pool.close()


async def test_unix_socket_transport(tmp_path):
    path = str(tmp_path / "rpc.sock")
    server = RPCServer(echo_handler, codec="compact", version="v1", address=f"unix://{path}")
    address = await server.start()
    assert address.startswith("unix://")
    pool = ConnectionPool(codec="compact", version="v1")
    conn = await pool.get(address)
    assert await conn.call(1, 2, b"u", timeout=2) == b"\x01\x02u"
    await pool.close()
    await server.stop()


async def test_connection_count_tracked():
    async with Harness() as h:
        await h.pool.get(h.address)
        await asyncio.sleep(0.05)
        assert h.server.connection_count == 1


def pending_flushers() -> list[asyncio.Task]:
    return [
        task
        for task in asyncio.all_tasks()
        if not task.done()
        and getattr(task.get_coro(), "__qualname__", "") == "Connection._flush_loop"
    ]


async def assert_fully_torn_down(conn) -> None:
    for _ in range(5):  # cancellations land within a few loop turns
        await asyncio.sleep(0)
    assert conn.closed
    assert pending_flushers() == []
    assert conn._loop_task.done()
    assert conn._server_tasks == set()
    assert conn._timeout_timer is None
    assert conn._timeouts == []


def serving_a_budgeted_request(server_conn) -> int:
    """The server end while a request with a wire budget is in flight: one
    serving task, its budget on the heap behind the armed timer.  Returns
    the frames sent so far (a teardown cancel must not add a reply)."""
    assert len(server_conn._server_tasks) == 1
    assert len(server_conn._timeouts) == 1
    assert server_conn._timeout_timer is not None
    return server_conn.frames_sent


async def test_peer_hangup_leaves_no_task_or_timer():
    async with Harness() as h:
        conn = await h.pool.get(h.address)
        task = asyncio.ensure_future(
            conn.call(0, 97, b"", timeout=30, deadline_ms=30_000)
        )
        await asyncio.sleep(0.05)
        assert conn._timeout_timer is not None
        server_conn = h.server_conn
        sent = serving_a_budgeted_request(server_conn)
        await h.server.stop()
        with pytest.raises(Unavailable):  # not DEADLINE_EXCEEDED
            await task
        await asyncio.sleep(0.1)
        await assert_fully_torn_down(conn)
        await assert_fully_torn_down(server_conn)
        assert server_conn.frames_sent == sent
        await conn.close()  # closing a dead connection, twice, is harmless
        await conn.close()
        await assert_fully_torn_down(conn)


async def test_flusher_io_error_leaves_no_task_or_timer():
    started = []

    async def handler(component_id, method_index, args, trace=(0, 0), deadline_ms=0):
        started.append(deadline_ms)
        await asyncio.sleep(0.5)
        return b"slow"

    async with Harness(handler=handler) as h:
        conn = await h.pool.get(h.address)

        async def broken_drain():
            raise ConnectionResetError("boom")

        conn._writer.drain = broken_drain
        conn._direct = False  # send through the flusher, not write-through
        with pytest.raises(Unavailable):
            await conn.call(0, 97, b"", timeout=30, deadline_ms=30_000)
        await assert_fully_torn_down(conn)
        # The frame was written before the drain that failed: the server
        # end was serving it, under its budget, when the hang-up arrived.
        await asyncio.sleep(0.05)
        assert started == [30_000]
        await assert_fully_torn_down(h.server_conn)
        assert h.server_conn.frames_sent == 0  # no reply to a teardown cancel


async def test_server_forgets_dead_connections():
    async with Harness() as h:
        for i in range(50):
            conn = await h.pool.get(h.address)
            assert await conn.call(0, 1, b"x", timeout=2) == b"\x00\x01x"
            await conn.close()
        await asyncio.sleep(0.1)
        assert h.server.connection_count == 0
        assert len(h.server._connections) <= 2


# --------------------------------------------------------------------------
# A served request is one Task; its budget is one entry on the connection's
# timeout heap.
# --------------------------------------------------------------------------


async def test_handler_timeout_does_not_capture_read_loop():
    """A handler's first synchronous segment runs in the request's own task:
    ``asyncio.timeout()`` there must cancel the handler, not the read loop."""
    seen = []

    async def handler(component_id, method_index, args, trace=(0, 0), deadline_ms=0):
        seen.append(asyncio.current_task())
        if hasattr(asyncio, "timeout"):  # 3.11+
            try:
                async with asyncio.timeout(0.05):
                    await asyncio.sleep(0.5)
            except TimeoutError:
                pass
        return b"done"

    async with Harness(handler=handler) as h:
        conn = await h.pool.get(h.address)
        assert await conn.call(0, 1, b"", timeout=2) == b"done"
        assert await conn.call(0, 1, b"", timeout=2) == b"done"
        read_loop = h.server_conn._loop_task
        assert not read_loop.done()
        assert len(seen) == 2 and read_loop not in seen and seen[0] is not seen[1]


async def test_suspended_handler_is_cut_at_its_wire_budget():
    events = []

    async def handler(component_id, method_index, args, trace=(0, 0), deadline_ms=0):
        if method_index == 1:
            try:
                await asyncio.sleep(5)
            except asyncio.CancelledError:
                events.append("cancelled")
                raise
            finally:
                events.append("finally")
        return b"ok"

    async with Harness(handler=handler) as h:
        conn = await h.pool.get(h.address)
        start = asyncio.get_running_loop().time()
        with pytest.raises(DeadlineExceeded, match="50ms budget") as info:
            # The local wait bound is far away: the cut is the server's.
            await conn.call(0, 1, b"", timeout=5, deadline_ms=50)
        assert 0.04 < asyncio.get_running_loop().time() - start < 0.5
        assert info.value.executed is True
        assert events == ["cancelled", "finally"]
        assert await conn.call(0, 2, b"", timeout=2) == b"ok"  # keeps serving
        assert h.server_conn._server_tasks == set()


async def test_budget_heap_stays_bounded():
    """Entries of finished requests are retained lazily, then compacted:
    20,000 requests with 30 s budgets must not leave 20,000 entries."""
    callers, each = 32, 625
    async with Harness() as h:
        conn = await h.pool.get(h.address)

        async def caller():
            for _ in range(each):
                await conn.call(0, 1, b"x", timeout=30, deadline_ms=30_000)

        await asyncio.gather(*[caller() for _ in range(callers)])
        assert len(h.server_conn._timeouts) <= 8 * callers
        assert len(conn._timeouts) <= 8 * callers

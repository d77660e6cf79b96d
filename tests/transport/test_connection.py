"""RPC connections: handshake, pipelining, errors, health."""

from __future__ import annotations

import asyncio
import collections
import struct
import tracemalloc

import pytest

from repro.core.errors import (
    DeadlineExceeded,
    ErrorCode,
    RemoteApplicationError,
    RPCError,
    Unavailable,
    VersionMismatch,
)
from repro.transport import framing
from repro.transport import message as msg
from repro.transport.client import ConnectionPool
from repro.transport.connection import MAX_HANDSHAKE, SEND_HIGH_WATER, Connection
from repro.transport.framing import MAX_FRAME, frame_chunks, new_frame
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


class Unprintable(Exception):
    def __str__(self):
        raise RuntimeError("no text for you")


async def unencodable_handler(component_id, method_index, args, trace=(0, 0), deadline_ms=0):
    if method_index == 1:
        # A surrogate-escaped file name: str() works, UTF-8 refuses it.
        raise ValueError("cannot open \udcff.txt")
    if method_index == 2:
        raise Unprintable()
    return b"ok"


@pytest.mark.parametrize(
    "method,exc_type,text",
    [(1, "ValueError", "cannot open \\udcff.txt"), (2, "Unprintable", "Unprintable")],
    ids=["surrogate", "str_raises"],
)
async def test_app_error_with_unencodable_text_is_answered(method, exc_type, text):
    """The reply is built from the exception's text; text that cannot be
    encoded must still produce a reply, not leave the caller to wait out
    its budget."""
    async with Harness(handler=unencodable_handler) as h:
        conn = await h.pool.get(h.address)
        loop = asyncio.get_running_loop()
        started = loop.time()
        with pytest.raises(RemoteApplicationError) as info:
            await conn.call(0, method, b"", timeout=5, deadline_ms=5000)
        assert loop.time() - started < 1.0
        assert info.value.exc_type == exc_type
        assert text in info.value.exc_message
        assert await conn.call(0, 0, b"", timeout=2) == b"ok"


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


def connection_tasks() -> list[asyncio.Task]:
    """Unfinished tasks running a ``Connection`` method (server tasks)."""
    return [
        task
        for task in asyncio.all_tasks()
        if not task.done()
        and getattr(task.get_coro(), "__qualname__", "").startswith("Connection.")
    ]


async def assert_fully_torn_down(conn) -> None:
    for _ in range(5):  # cancellations land within a few loop turns
        await asyncio.sleep(0)
    assert conn.closed
    assert conn._lost.done()  # connection_lost ran
    assert conn._transport.is_closing()
    assert connection_tasks() == []
    assert conn._server_tasks == set()
    assert conn._flush_handle is None
    assert conn._timeout_timer is None
    assert conn._timeouts == []
    assert conn._pending == {}


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


async def test_write_side_failure_leaves_no_task_or_timer():
    """A failed socket write makes the transport force-close itself and
    report ``connection_lost``; ``abort()`` is that same path."""
    started = []

    async def handler(component_id, method_index, args, trace=(0, 0), deadline_ms=0):
        started.append(deadline_ms)
        await asyncio.sleep(0.5)
        return b"slow"

    async with Harness(handler=handler) as h:
        conn = await h.pool.get(h.address)
        teardowns = []
        teardown = conn._teardown
        conn._teardown = lambda exc: (teardowns.append(exc), teardown(exc))
        call = asyncio.ensure_future(
            conn.call(0, 97, b"", timeout=30, deadline_ms=30_000)
        )
        await asyncio.sleep(0.05)
        assert started == [30_000]
        sent = serving_a_budgeted_request(h.server_conn)
        conn._transport.abort()
        with pytest.raises(Unavailable):
            await call
        await assert_fully_torn_down(conn)
        await conn.close()
        assert len(teardowns) == 1
        # The server end was serving the request, under its budget, when
        # the hang-up arrived: the handler is cancelled and nothing replies.
        await asyncio.sleep(0.05)
        await assert_fully_torn_down(h.server_conn)
        assert h.server_conn.frames_sent == sent


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


async def test_handler_timeout_stays_in_its_own_task():
    """A handler runs in its request's own task from its first line:
    ``asyncio.timeout()`` there cancels the handler and nothing else."""
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
        assert len(seen) == 2 and seen[0] is not seen[1]
        assert all(t.get_coro().__qualname__ == "Connection._serve_one" for t in seen)
        assert not conn.closed and not h.server_conn.closed


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


# --------------------------------------------------------------------------
# The event loop's bill for one round trip, and what an idle connection owns.
# --------------------------------------------------------------------------


async def test_round_trip_event_loop_budget():
    """A lone call costs one future (the reply's), one task (the served
    request), no timer, at most two ``call_soon`` callbacks and at most four
    loop iterations; a dialed, idle connection owns no task on either end."""
    async with Harness() as h:
        conn = await h.pool.get(h.address)
        for _ in range(10):  # warm: budgets' timers armed, writes direct
            await conn.call(0, 1, b"x", timeout=30, deadline_ms=30_000)
        await asyncio.sleep(0.01)
        assert asyncio.all_tasks() == {asyncio.current_task()}

        loop = asyncio.get_running_loop()
        counts: collections.Counter = collections.Counter()
        names = ("create_future", "create_task", "call_soon", "call_at", "_run_once")

        def counting(name):
            original = getattr(loop, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return counted

        n = 1000
        for name in names:
            setattr(loop, name, counting(name))
        try:
            for _ in range(n):
                await conn.call(0, 1, b"x", timeout=30, deadline_ms=30_000)
        finally:
            for name in names:
                delattr(loop, name)
        assert counts["create_future"] == n
        assert counts["create_task"] == n
        assert counts["call_at"] == 0
        assert counts["call_soon"] <= 2 * n
        assert counts["_run_once"] <= 4 * n


async def test_read_path_allocation_budget():
    """Socket reads land in the buffer the connection's owner lent it, not
    in a fresh 256 KiB ``bytes`` per read: 200 lone round trips keep the
    traced peak within 128 KiB of where it started."""
    assert issubclass(Connection, asyncio.BufferedProtocol)
    assert not hasattr(Connection, "data_received")  # one read path
    async with Harness() as h:
        conn = await h.pool.get(h.address)
        for _ in range(20):  # warm: budgets' timers armed, writes direct
            await conn.call(0, 1, b"x", timeout=30, deadline_ms=30_000)
        assert conn._read_buffer.obj is h.pool._read_buffer
        assert h.server_conn._read_buffer.obj is h.server._read_buffer
        loop = asyncio.get_running_loop()
        debug = loop.get_debug()
        loop.set_debug(False)  # -X dev: no creation traceback per handle
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                await conn.call(0, 1, b"x", timeout=30, deadline_ms=30_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            loop.set_debug(debug)
        assert peak - start < 128 * 1024


# --------------------------------------------------------------------------
# Malformed peers: a broken stream tears the connection down and fails
# what waits on it; a broken handshake is dropped before it is registered.
# --------------------------------------------------------------------------


def frame_bytes(m) -> bytes:
    head = new_frame()
    msg.encode_into(head, m)
    return b"".join(bytes(c) for c in frame_chunks(head))


async def raw_peer(after_request: bytes):
    """A hand-written server: answers HELLO with WELCOME, waits for the
    first request, then sends ``after_request`` and hangs up."""

    async def on_connect(reader, writer):
        (length,) = struct.unpack(">I", await reader.readexactly(4))
        await reader.readexactly(length)  # HELLO
        writer.write(frame_bytes(msg.Welcome("compact", "v1")))
        await reader.read(1)  # the request has started to arrive
        writer.write(after_request)
        await writer.drain()
        writer.close()

    server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    return server, f"tcp://{host}:{port}"


@pytest.mark.parametrize(
    "after_request",
    [
        pytest.param((64).to_bytes(4, "big") + b"short", id="eof-mid-frame"),
        pytest.param((MAX_FRAME + 1).to_bytes(4, "big"), id="oversize-announcement"),
    ],
)
async def test_broken_stream_fails_pending_calls(after_request):
    server, address = await raw_peer(after_request)
    pool = ConnectionPool(codec="compact", version="v1")
    try:
        conn = await pool.get(address)
        with pytest.raises(Unavailable, match="connection lost"):
            await conn.call(1, 1, b"x", timeout=5)
        await assert_fully_torn_down(conn)
    finally:
        await pool.close()
        server.close()
        await server.wait_closed()


#: Method index the split-reply peer answers with an oversize announcement.
ANNOUNCE_OVERSIZE = 0xEE


async def split_reply_peer(handlers: list):
    """A hand-written server that echoes each request's args, writing every
    reply frame in two halves a few loop iterations apart, so the client
    reads it in two pieces with other connections' reads in between."""

    async def read_frame(reader) -> bytes:
        (length,) = struct.unpack(">I", await reader.readexactly(4))
        return await reader.readexactly(length)

    async def on_connect(reader, writer):
        handlers.append(asyncio.current_task())
        try:
            await read_frame(reader)  # HELLO
            writer.write(frame_bytes(msg.Welcome("compact", "v1")))
            while True:
                request = msg.decode(await read_frame(reader))
                if request.method_index == ANNOUNCE_OVERSIZE:
                    writer.write((MAX_FRAME + 1).to_bytes(4, "big"))
                    continue
                head = new_frame()
                msg.encode_response_prefix(head, request.req_id)
                wire = b"".join(bytes(c) for c in frame_chunks(head, bytes(request.args)))
                writer.write(wire[: len(wire) // 2])
                await asyncio.sleep(0.002)
                writer.write(wire[len(wire) // 2 :])
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # the client hung up or aborted
        finally:
            writer.close()

    server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    return server, f"tcp://{host}:{port}"


async def test_connections_sharing_a_read_buffer_keep_their_own_frames():
    """Two pool connections read into the pool's one buffer while each
    reply arrives in two reads, the other connection's reads landing in the
    same memory in between: every call still gets its own reply, and an
    oversize announcement still aborts only its own connection."""
    handlers: list = []
    peers = [await split_reply_peer(handlers) for _ in range(2)]
    pool = ConnectionPool(codec="compact", version="v1")
    try:
        a, b = [await pool.get(address) for _, address in peers]
        assert a._read_buffer.obj is b._read_buffer.obj is pool._read_buffer

        async def caller(conn, tag: bytes, n: int):
            for i in range(n):
                args = b"%s%03d" % (tag, i) * (1 + 40 * (i % 5))  # 6 B to ~1 KB
                assert await conn.call(1, 1, args, timeout=5) == args

        await asyncio.gather(
            *[caller(a, b"a%d-" % k, 15) for k in range(3)],
            *[caller(b, b"b%d-" % k, 15) for k in range(3)],
        )
        # b's reply is half read when a's peer announces a frame over
        # MAX_FRAME: a dies, b's reply completes from the parser's own copy.
        in_flight = asyncio.ensure_future(b.call(1, 1, b"still mine" * 50, timeout=5))
        await asyncio.sleep(0.001)
        with pytest.raises(Unavailable, match="connection lost"):
            await a.call(1, ANNOUNCE_OVERSIZE, b"", timeout=5)
        assert await in_flight == b"still mine" * 50
        await assert_fully_torn_down(a)
        assert not b.closed and pool.live(peers[1][1]) is b
        await caller(b, b"after-", 5)
    finally:
        await pool.close()
        if handlers:
            await asyncio.wait(handlers, timeout=5)
        for server, _ in peers:
            server.close()
            await server.wait_closed()


async def handshake_reply(address: str, first: bytes) -> bytes:
    """Everything a server sends back to a raw client whose first bytes are
    ``first``, up to the server's hang-up."""
    host, port = address[len("tcp://"):].rsplit(":", 1)
    reader, writer = await asyncio.open_connection(host, int(port))
    try:
        writer.write(first)
        return await asyncio.wait_for(reader.read(), 5)
    finally:
        writer.close()


@pytest.mark.parametrize(
    "first",
    [
        pytest.param(frame_bytes(msg.Ping(1)), id="not-hello"),
        pytest.param((MAX_HANDSHAKE + 1).to_bytes(4, "big"), id="handshake-over-cap"),
    ],
)
async def test_broken_handshake_is_dropped_unregistered(first):
    async with Harness() as h:
        assert await handshake_reply(h.address, first) == b""
        await asyncio.sleep(0.01)
        assert h.server._connections == set()


async def test_largest_hello_is_within_the_handshake_cap():
    """A HELLO with 255-byte codec and version names is exactly
    ``MAX_HANDSHAKE`` bytes: it is read (and refused with WELCOME, since
    those are not our names), not cut off."""
    hello = frame_bytes(msg.Hello("c" * 255, "v" * 255))
    assert len(hello) == 4 + MAX_HANDSHAKE
    async with Harness() as h:
        reply = await handshake_reply(h.address, hello)
        assert reply == frame_bytes(msg.Welcome("compact", "v1"))
        assert h.server._connections == set()


@pytest.mark.parametrize("direction", ["request", "reply"])
async def test_oversize_frame_without_streaming_spares_the_connection(direction, monkeypatch):
    """With streaming off, a frame over MAX_FRAME is refused with a
    non-retryable INTERNAL before it is queued — executed=False for a
    request, executed=True for a reply (the handler ran) — instead of
    closing the connection a bystander call shares, or leaving the caller
    to wait out its budget for a reply that was dropped."""
    monkeypatch.setattr(framing, "MAX_FRAME", 1 << 20)
    oversize = b"x" * ((1 << 20) + 1)

    async def handler(component_id, method_index, args, trace=(0, 0), deadline_ms=0):
        if method_index == 97:
            await asyncio.sleep(0.2)
            return b"slow"
        return oversize if method_index == 96 else b"ok"

    server = RPCServer(handler, codec="compact", version="v1", stream_threshold=0)
    pool = ConnectionPool(codec="compact", version="v1", stream_threshold=0)
    try:
        address = await server.start()
        conn = await pool.get(address)
        bystander = asyncio.ensure_future(conn.call(0, 97, b"", timeout=5))
        await asyncio.sleep(0.05)
        with pytest.raises(RPCError) as info:
            if direction == "request":
                await conn.call(0, 1, oversize, timeout=5)
            else:
                await asyncio.wait_for(conn.call(0, 96, b"", timeout=5), 2)
        assert info.value.code is ErrorCode.INTERNAL and not info.value.retryable
        assert info.value.executed is (direction == "reply")
        assert await bystander == b"slow"
        assert pool.live(address) is conn
        assert await conn.call(0, 1, b"", timeout=5) == b"ok"
    finally:
        await pool.close()
        await server.stop()

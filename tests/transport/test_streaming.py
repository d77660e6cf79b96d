"""Streaming RPC edge cases: chunk boundaries at MAX_FRAME, interleaved
streams on one connection, mid-stream cancellation, and deadlines that
expire between chunks."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.errors import DeadlineExceeded
from repro.transport import framing
from repro.transport import message as msg
from repro.transport.client import ConnectionPool
from repro.transport.connection import Connection
from repro.transport.server import RPCServer

# Small knobs so the tests exercise many chunks without megabyte payloads.
THRESHOLD = 16 * 1024
CHUNK = 4 * 1024
WINDOW = 16 * 1024


async def echo(component_id, method_index, args, trace=(0, 0), deadline_ms=0):
    return bytes(args)


class StreamRig:
    """Echo server + pool, both configured with tiny streaming knobs."""

    def __init__(self, **server_kw):
        self.server_kw = server_kw

    async def __aenter__(self):
        self.server = RPCServer(
            echo,
            codec="compact",
            version="v1",
            stream_threshold=THRESHOLD,
            stream_chunk=CHUNK,
            **self.server_kw,
        )
        self.address = await self.server.start()
        self.pool = ConnectionPool(
            codec="compact",
            version="v1",
            stream_threshold=THRESHOLD,
            stream_chunk=CHUNK,
        )
        return self

    async def __aexit__(self, *exc):
        await self.pool.close()
        await self.server.stop()


def pattern(n: int) -> bytes:
    """A non-repeating payload: reassembly-order bugs can't cancel out."""
    return bytes((i * 7 + (i >> 8)) & 0xFF for i in range(n))


class TestStreamingRoundtrip:
    async def test_large_payload_streams_both_ways(self):
        async with StreamRig() as rig:
            conn = await rig.pool.get(rig.address)
            payload = pattern(5 * WINDOW + 123)  # several credit refills
            result = await conn.call(1, 1, payload, timeout=10)
            assert result == payload
            # Registries must be empty again: streams are not leaked.
            assert not conn._streams.up_streams and not conn._streams.resp_streams

    async def test_payload_larger_than_max_frame(self, monkeypatch):
        # A stream may carry more than one frame could: shrink MAX_FRAME
        # below the payload and the chunked upload must still round-trip.
        monkeypatch.setattr(framing, "MAX_FRAME", 64 * 1024)
        async with StreamRig() as rig:
            conn = await rig.pool.get(rig.address)
            payload = pattern(256 * 1024)
            assert len(payload) > framing.MAX_FRAME
            assert await conn.call(1, 1, payload, timeout=10) == payload

    async def test_chunk_boundary_exactly_at_max_frame(self, monkeypatch):
        # Size chunks so each STREAM_CHUNK frame body lands exactly on
        # MAX_FRAME (prefix is kind + varint req_id + flags; req_ids in
        # this test are small, so the varint is one byte).
        prefix = bytearray()
        msg.encode_stream_chunk_prefix(prefix, 1, 0)
        monkeypatch.setattr(framing, "MAX_FRAME", 4096)
        chunk = 4096 - len(prefix)
        server = RPCServer(
            echo, codec="compact", version="v1",
            stream_threshold=chunk, stream_chunk=chunk,
        )
        address = await server.start()
        pool = ConnectionPool(
            codec="compact", version="v1",
            stream_threshold=chunk, stream_chunk=chunk,
        )
        try:
            conn = await pool.get(address)
            payload = pattern(3 * chunk)  # exact-boundary END chunk too
            assert await conn.call(1, 1, payload, timeout=10) == payload
            payload = pattern(3 * chunk + 17)  # short final chunk
            assert await conn.call(1, 1, payload, timeout=10) == payload
        finally:
            await pool.close()
            await server.stop()

    async def test_small_calls_still_inline(self):
        async with StreamRig() as rig:
            conn = await rig.pool.get(rig.address)
            assert await conn.call(1, 1, b"tiny", timeout=5) == b"tiny"
            assert not conn._streams.up_streams  # below threshold: no stream


class TestInterleaving:
    async def test_interleaved_streams_on_one_connection(self):
        async with StreamRig() as rig:
            conn = await rig.pool.get(rig.address)
            bigs = [pattern(3 * WINDOW + i) for i in range(4)]
            smalls = [b"s%d" % i for i in range(50)]
            results = await asyncio.gather(
                *[conn.call(1, 1, b, timeout=15) for b in bigs],
                *[conn.call(1, 1, s, timeout=15) for s in smalls],
            )
            assert results[: len(bigs)] == bigs
            assert results[len(bigs):] == smalls

    async def test_two_connections_stream_concurrently(self):
        async with StreamRig() as rig:
            conn = await rig.pool.get(rig.address)
            other_pool = ConnectionPool(
                codec="compact", version="v1",
                stream_threshold=THRESHOLD, stream_chunk=CHUNK,
            )
            try:
                other = await other_pool.get(rig.address)
                a, b = pattern(2 * WINDOW), pattern(2 * WINDOW + 1)
                ra, rb = await asyncio.gather(
                    conn.call(1, 1, a, timeout=15),
                    other.call(1, 1, b, timeout=15),
                )
                assert (ra, rb) == (a, b)
            finally:
                await other_pool.close()


async def raw_pair(handler=None):
    """A hand-built client/server Connection pair over a loopback socket,
    with tiny stream knobs — for tests that drive the protocol directly."""
    loop = asyncio.get_running_loop()
    knobs = dict(
        codec="compact", version="v1",
        stream_threshold=THRESHOLD, stream_chunk=CHUNK, stream_window=WINDOW,
    )
    accepted = loop.create_future()
    server = await loop.create_server(
        lambda: Connection(
            handler=handler, on_ready=accepted.set_result, name="server", **knobs
        ),
        "127.0.0.1",
        0,
    )
    host, port = server.sockets[0].getsockname()[:2]
    client = Connection(name="client", **knobs)
    await loop.create_connection(lambda: client, host, port)
    await asyncio.wait_for(client.ready, 5)
    return server, client, await asyncio.wait_for(accepted, 5)


class TestCancellation:
    async def test_timeout_mid_upload_cancels_and_releases(self):
        # Freeze the receiver's credit grants so the upload pump parks on
        # credit, then let the client timeout fire mid-stream.  The pump
        # must wake, observe the dead call, cancel toward the receiver,
        # and leave no stream state behind on either side.
        server, client, server_conn = await raw_pair(handler=echo)
        try:
            server_conn._streams._grant_credit = lambda st, consumed: None
            payload = pattern(4 * WINDOW)  # needs credit beyond the window
            with pytest.raises(DeadlineExceeded):
                await client.call(1, 1, payload, timeout=0.3)
            assert not client._streams.up_streams  # pump exited, stream reaped
            for _ in range(100):
                if not server_conn._streams.in_streams:
                    break
                await asyncio.sleep(0.01)
            assert not server_conn._streams.in_streams  # partial upload discarded
        finally:
            await client.close()
            await server_conn.close()
            server.close()
            await server.wait_closed()

    async def test_peer_cancel_wakes_parked_pump(self):
        # A STREAM_CANCEL(to-sender) must release a pump waiting on credit
        # immediately — cancellation releases credits, not just data flow.
        server, client, server_conn = await raw_pair(handler=echo)
        try:
            server_conn._streams._grant_credit = lambda st, consumed: None
            payload = pattern(4 * WINDOW)
            task = asyncio.ensure_future(client.call(1, 1, payload, timeout=30))
            for _ in range(200):  # wait until the pump is credit-parked
                out = next(iter(client._streams.up_streams.values()), None)
                if out is not None and out.credit <= 0:
                    break
                await asyncio.sleep(0.01)
            else:
                pytest.fail("upload pump never parked on credit")
            req_id = next(iter(client._streams.up_streams))
            server_conn._post(msg.StreamCancel(req_id, msg.STREAM_TO_SENDER))
            for _ in range(200):
                if not client._streams.up_streams:
                    break
                await asyncio.sleep(0.01)
            assert not client._streams.up_streams  # pump released without credit
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
        finally:
            await client.close()
            await server_conn.close()
            server.close()
            await server.wait_closed()


class TestDeadlines:
    async def test_deadline_expiry_between_chunks(self):
        # Hand-feed a stream whose deadline lapses between two chunks: the
        # server must fail the call without executing it and tell the
        # sender to stop.
        server, client, server_conn = await raw_pair(handler=echo)
        try:
            future = asyncio.get_running_loop().create_future()
            client._pending[7] = future
            client._post(msg.StreamOpen(7, 1, 1, 0, 0, 40, 2 * CHUNK))
            client._post(msg.StreamChunk(7, 0, pattern(CHUNK)))
            await asyncio.sleep(0.15)  # let the 40ms budget lapse
            client._post(msg.StreamChunk(7, msg.STREAM_END, pattern(CHUNK)))
            with pytest.raises(DeadlineExceeded):
                await asyncio.wait_for(future, 5)
            assert not server_conn._streams.in_streams  # reaped, not executed
        finally:
            await client.close()
            await server_conn.close()
            server.close()
            await server.wait_closed()

    async def test_deadline_inside_budget_executes(self):
        # Control case: same shape, budget not exceeded.
        server, client, server_conn = await raw_pair(handler=echo)
        try:
            payload = pattern(2 * CHUNK)
            result = await client.call(1, 1, b"ok-sized", timeout=5)
            assert result == b"ok-sized"
            big = pattern(2 * THRESHOLD)
            assert await client.call(1, 1, big, timeout=5, deadline_ms=5000) == big
        finally:
            await client.close()
            await server_conn.close()
            server.close()
            await server.wait_closed()

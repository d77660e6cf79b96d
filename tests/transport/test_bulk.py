"""The bulk connection: a request payload of ``BULK_BYTES`` or more goes as
one ordinary REQUEST frame on a second connection to the same peer, which
the pool dials on the first large call, so small calls never share its
socket."""

from __future__ import annotations

import asyncio
import random
import time

import pytest

from repro.core.errors import DeadlineExceeded
from repro.transport.client import BULK_KEY, ConnectionPool
from repro.transport.connection import BULK_BYTES, Connection
from repro.transport.server import RPCServer


async def echo(component_id, method_index, args, trace=(0, 0), deadline_ms=0):
    if method_index == 97:
        await asyncio.sleep(0.5)
    if method_index == 96:  # a small request that asks for a large reply
        return big(int(bytes(args)))
    return bytes(args)


def big(n: int = BULK_BYTES, seed: int = 0) -> bytes:
    """A non-repeating payload: a reassembly-order bug cannot cancel out."""
    return random.Random(seed).randbytes(n)


class Rig:
    """Echo server + one pool."""

    async def __aenter__(self):
        self.server = RPCServer(echo, codec="compact", version="v1")
        self.address = await self.server.start()
        self.pool = ConnectionPool(codec="compact", version="v1")
        self.conn = await self.pool.get(self.address)
        return self

    async def __aexit__(self, *exc):
        await self.pool.close()
        await self.server.stop()

    @property
    def bulk(self):
        return self.pool.live(BULK_KEY + self.address)


async def until(predicate, timeout: float = 2.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        await asyncio.sleep(0.01)


async def test_large_payload_round_trips_both_ways():
    async with Rig() as rig:
        payload = big(BULK_BYTES + 123)
        assert await rig.conn.call(1, 1, payload, timeout=10) == payload
        assert rig.bulk is not None and rig.bulk.frames_sent == 1
        # A large reply to a small request comes back on the connection the
        # request went out on.
        reply = await rig.conn.call(1, 96, b"%d" % (BULK_BYTES + 7), timeout=10)
        assert reply == big(BULK_BYTES + 7)
        assert rig.bulk.frames_sent == 1


async def test_large_and_small_calls_interleave_on_one_pool():
    async with Rig() as rig:
        bigs = [big(BULK_BYTES + i, seed=i) for i in range(4)]
        smalls = [b"s%d" % i for i in range(50)]
        results = await asyncio.gather(
            *[rig.conn.call(1, 1, b, timeout=15) for b in bigs],
            *[rig.conn.call(1, 1, s, timeout=15) for s in smalls],
        )
        assert results[: len(bigs)] == bigs
        assert results[len(bigs) :] == smalls
        assert rig.pool.open_count == 2  # concurrent large calls shared one dial
        assert rig.server.connection_count == 2


async def test_small_calls_never_dial_the_bulk_connection():
    async with Rig() as rig:
        for i in range(3):
            assert await rig.conn.call(1, 1, b"tiny%d" % i, timeout=5) == b"tiny%d" % i
        assert await rig.conn.call(1, 1, b"x" * (BULK_BYTES - 1), timeout=5)
        assert rig.bulk is None and rig.pool.open_count == 1
        assert rig.server.connection_count == 1
        await rig.conn.call(1, 1, big(), timeout=10)
        # The main connection carried only the small frames.
        assert rig.conn.frames_sent == 4
        assert rig.bulk.frames_sent == 1


async def test_large_call_times_out_and_both_connections_survive():
    async with Rig() as rig:
        await rig.conn.call(1, 1, big(), timeout=10)  # the bulk connection is up
        bulk = rig.bulk
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            await rig.conn.call(1, 97, big(seed=1), timeout=0.1)
        assert time.monotonic() - started < 0.4
        assert await rig.conn.call(1, 1, b"small", timeout=5) == b"small"
        payload = big(seed=2)
        assert await rig.conn.call(1, 1, payload, timeout=10) == payload
        assert rig.bulk is bulk and not bulk.closed
        await asyncio.sleep(0.5)  # the late reply arrives and is dropped
        assert not rig.conn._pending and not bulk._pending
        assert await rig.conn.call(1, 1, payload, timeout=10) == payload


async def test_dead_bulk_connection_is_redialed():
    async with Rig() as rig:
        await rig.conn.call(1, 1, big(), timeout=10)
        first = rig.bulk
        await first.close()
        payload = big(seed=3)
        assert await rig.conn.call(1, 1, payload, timeout=10) == payload
        assert rig.bulk is not None and rig.bulk is not first


async def test_drop_and_close_close_the_bulk_connection():
    async with Rig() as rig:
        await rig.conn.call(1, 1, big(), timeout=10)
        bulk = rig.bulk
        rig.pool.drop(rig.address)
        await until(lambda: bulk.closed and rig.conn.closed)
        assert rig.pool.tracked_addresses == 0
        conn = await rig.pool.get(rig.address)
        await conn.call(1, 1, big(), timeout=10)
        bulk = rig.bulk
        await rig.pool.close()
        assert bulk.closed and conn.closed


async def test_connection_without_a_sibling_sends_a_large_payload_itself():
    """A hand-built pair (no pool, so no ``sibling``) carries every
    payload on its one socket."""
    loop = asyncio.get_running_loop()
    accepted = loop.create_future()
    server = await loop.create_server(
        lambda: Connection(
            codec="compact", version="v1", handler=echo,
            on_ready=accepted.set_result, name="server",
        ),
        "127.0.0.1",
        0,
    )
    host, port = server.sockets[0].getsockname()[:2]
    client = Connection(codec="compact", version="v1", name="client")
    await loop.create_connection(lambda: client, host, port)
    await asyncio.wait_for(client.ready, 5)
    server_conn = await asyncio.wait_for(accepted, 5)
    try:
        payload = big()
        assert await client.call(1, 1, payload, timeout=10) == payload
        assert client.frames_sent == 1
    finally:
        await client.close()
        await server_conn.close()
        server.close()
        await server.wait_closed()

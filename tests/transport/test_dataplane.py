"""Data-plane edge cases: framing limits, read-side parsing, coalescing,
and connection-pool pruning."""

from __future__ import annotations

import asyncio
import zlib

import pytest

from repro.core.errors import TransportError, Unavailable
from repro.transport import framing
from repro.transport.client import ConnectionPool
from repro.transport.connection import SEND_HIGH_WATER
from repro.transport.framing import (
    _COMPRESSED_BIT,
    HEADER,
    MAX_FRAME,
    FrameParser,
    frame_chunks,
    new_frame,
)
from repro.transport.server import RPCServer


def encode_frame(payload: bytes, *, compress: bool = False) -> bytes:
    return b"".join(
        bytes(c) for c in frame_chunks(new_frame(), payload, compress=compress)
    )


class TestFramingLimits:
    async def test_frame_at_exactly_max_frame(self, monkeypatch):
        # Shrink the limit so the boundary is testable without a 64 MiB
        # allocation; both encoder and parser read the module global.
        monkeypatch.setattr(framing, "MAX_FRAME", 1024)
        payload = b"x" * 1024
        wire = encode_frame(payload)
        assert FrameParser().feed(wire) == [payload]

    async def test_frame_one_past_max_frame_rejected_by_sender(self, monkeypatch):
        monkeypatch.setattr(framing, "MAX_FRAME", 1024)
        with pytest.raises(TransportError, match="exceeds MAX_FRAME"):
            frame_chunks(new_frame(), b"x" * 1025)

    async def test_announced_oversize_rejected_by_parser(self, monkeypatch):
        monkeypatch.setattr(framing, "MAX_FRAME", 1024)
        wire = (2048).to_bytes(4, "big") + b"x" * 2048
        with pytest.raises(TransportError, match="MAX_FRAME"):
            FrameParser().feed(wire)

    def test_incompressible_payload_keeps_flag_clear(self):
        import os

        payload = os.urandom(4096)  # random bytes: zlib cannot shrink these
        wire = encode_frame(payload, compress=True)
        word = int.from_bytes(wire[:HEADER], "big")
        assert word & _COMPRESSED_BIT == 0
        assert word == len(payload)
        assert wire[HEADER:] == payload

    def test_compressed_bit_roundtrip(self):
        payload = b"the quick brown fox " * 200
        wire = encode_frame(payload, compress=True)
        word = int.from_bytes(wire[:HEADER], "big")
        assert word & _COMPRESSED_BIT
        assert (word & ~_COMPRESSED_BIT) == len(wire) - HEADER < len(payload)
        assert zlib.decompress(wire[HEADER:]) == payload
        assert FrameParser().feed(wire) == [payload]

    def test_truncated_mid_length_word(self):
        parser = FrameParser()
        assert parser.feed(b"\x00\x00") == []  # half a length word
        assert parser.mid_frame  # EOF now would cut a frame short

    def test_truncated_mid_payload(self):
        parser = FrameParser()
        assert parser.feed((64).to_bytes(4, "big") + b"short") == []
        assert parser.mid_frame


class TestFrameParser:
    def test_single_byte_feeds(self):
        wire = encode_frame(b"hello") + encode_frame(b"", compress=False)
        parser = FrameParser()
        frames = []
        for i in range(len(wire)):
            frames.extend(parser.feed(wire[i : i + 1]))
        assert frames == [b"hello", b""]
        assert not parser.mid_frame

    def test_many_frames_in_one_chunk(self):
        payloads = [str(i).encode() for i in range(50)]
        wire = b"".join(encode_frame(p) for p in payloads)
        assert FrameParser().feed(wire) == payloads

    def test_split_across_chunks_mid_payload(self):
        wire = encode_frame(b"A" * 100)
        parser = FrameParser()
        assert parser.feed(wire[:50]) == []
        assert parser.mid_frame
        assert parser.feed(wire[50:]) == [b"A" * 100]
        assert not parser.mid_frame

    def test_compressed_frame_via_parser(self):
        payload = b"z" * 10_000
        wire = encode_frame(payload, compress=True)
        parser = FrameParser()
        out = parser.feed(wire[:7]) + parser.feed(wire[7:])
        assert out == [payload]

    def test_corrupt_compressed_frame(self):
        wire = (_COMPRESSED_BIT | 5).to_bytes(4, "big") + b"junk!"
        with pytest.raises(TransportError, match="corrupt"):
            FrameParser().feed(wire)


async def echo(component_id, method_index, args, trace=(0, 0), deadline_ms=0):
    return bytes(args)


class Rig:
    def __init__(self, **server_kw):
        self.server_kw = server_kw

    async def __aenter__(self):
        self.server = RPCServer(
            echo, codec="compact", version="v1", **self.server_kw
        )
        self.address = await self.server.start()
        self.pool = ConnectionPool(codec="compact", version="v1")
        return self

    async def __aexit__(self, *exc):
        await self.pool.close()
        await self.server.stop()


class TestCoalescing:
    async def test_concurrent_calls_preserve_pairing(self):
        async with Rig() as rig:
            conn = await rig.pool.get(rig.address)
            results = await asyncio.gather(
                *[conn.call(1, 1, b"m%d" % i, timeout=5) for i in range(300)]
            )
            assert results == [b"m%d" % i for i in range(300)]

    async def test_batches_form_under_load(self):
        async with Rig() as rig:
            conn = await rig.pool.get(rig.address)
            await asyncio.gather(
                *[conn.call(1, 1, b"x", timeout=5) for _ in range(400)]
            )
            assert conn.frames_sent == 400
            # If every frame had flushed alone there would be 400 rounds;
            # coalescing must have merged at least some.
            assert conn.flushes < conn.frames_sent

    async def test_backpressure_bounds_the_outbox(self):
        async with Rig() as rig:
            conn = await rig.pool.get(rig.address)
            big = b"B" * (64 * 1024)
            await asyncio.gather(
                *[conn.call(1, 1, big, timeout=30) for _ in range(64)]
            )
            # Senders wait at the high-water mark, so the outbox can never
            # have grown past one frame beyond it.
            assert conn._outbox_bytes <= SEND_HIGH_WATER + len(big) + HEADER + 16

    async def test_close_wakes_backpressured_sender(self):
        async with Rig() as rig:
            conn = await rig.pool.get(rig.address)
            conn._outbox_bytes = SEND_HIGH_WATER  # simulate a full outbox
            send = asyncio.ensure_future(conn._send(new_frame(), b"x"))
            await asyncio.sleep(0.01)
            assert not send.done()
            await conn.close()
            with pytest.raises(TransportError, match="closed"):
                await send

    async def test_flush_waits_while_the_transport_is_paused(self):
        async with Rig() as rig:
            conn = await rig.pool.get(rig.address)
            assert await conn.call(1, 1, b"warm", timeout=5) == b"warm"
            (server_conn,) = rig.server._connections
            server_conn._transport.pause_reading()  # the peer stops reading
            big = b"B" * (256 * 1024)
            calls = [
                asyncio.ensure_future(conn.call(1, 1, big, timeout=30))
                for _ in range(32)
            ]
            for _ in range(200):  # until the kernel's and the transport's buffers fill
                if conn._paused:
                    break
                await asyncio.sleep(0.01)
            assert conn._paused and conn._outbox  # frames held back, not written
            server_conn._transport.resume_reading()
            assert await asyncio.gather(*calls) == [big] * 32
            assert not conn._paused and not conn._outbox

    async def test_close_sends_what_is_queued(self):
        served = []

        async def record(component_id, method_index, args, trace=(0, 0), deadline_ms=0):
            served.append(bytes(args))
            return b""

        server = RPCServer(record, codec="compact", version="v1")
        pool = ConnectionPool(codec="compact", version="v1")
        try:
            conn = await pool.get(await server.start())
            conn._direct = False  # queue for the flush instead of writing through
            call = asyncio.ensure_future(conn.call(1, 1, b"last words", timeout=5))
            await asyncio.sleep(0)
            assert conn._outbox  # enqueued; the flush callback has not run yet
            await conn.close()
            with pytest.raises(Unavailable):
                await call
            for _ in range(100):
                if served:
                    break
                await asyncio.sleep(0.01)
            assert served == [b"last words"]
        finally:
            await pool.close()
            await server.stop()

    async def test_single_frame_flushes_immediately(self):
        async with Rig() as rig:
            conn = await rig.pool.get(rig.address)
            assert await asyncio.wait_for(
                conn.call(1, 1, b"lone", timeout=5), 1.0
            ) == b"lone"


class TestPoolPruning:
    async def test_dead_connection_pruned_and_redialed(self):
        async with Rig() as rig:
            first = await rig.pool.get(rig.address)
            await first.close()
            second = await rig.pool.get(rig.address)
            assert second is not first
            assert not second.closed
            assert await second.call(1, 1, b"ok", timeout=5) == b"ok"
            assert rig.pool.tracked_addresses == 1

    async def test_failed_dial_leaves_no_tracking(self):
        pool = ConnectionPool(codec="compact", version="v1", connect_timeout=0.5)
        with pytest.raises(Unavailable):
            await pool.get("tcp://127.0.0.1:1")  # nothing listens there
        assert pool.tracked_addresses == 0
        await pool.close()

    async def test_drop_prunes_both_maps(self):
        async with Rig() as rig:
            await rig.pool.get(rig.address)
            assert rig.pool.tracked_addresses == 1
            rig.pool.drop(rig.address)
            await asyncio.sleep(0)  # let the close task run
            assert rig.pool.tracked_addresses == 0

    async def test_churn_does_not_accumulate_state(self):
        """The long-lived-proclet leak: talk to many ephemeral peers."""
        pool = ConnectionPool(codec="compact", version="v1")
        try:
            for _ in range(5):
                server = RPCServer(echo, codec="compact", version="v1")
                address = await server.start()
                conn = await pool.get(address)
                assert await conn.call(1, 1, b"hi", timeout=5) == b"hi"
                pool.drop(address)
                await server.stop()
                await asyncio.sleep(0)
            assert pool.tracked_addresses == 0
            assert pool.open_count == 0
        finally:
            await pool.close()

"""HTTP baseline: malformed input must never take the server down."""

from __future__ import annotations

import asyncio
import logging

import pytest

from repro.transport.http_rpc import HttpRpcServer
from repro.transport.server import parse_address


async def handler(component, method, body):
    return b"ok:" + body


class Rig:
    async def __aenter__(self):
        self.server = HttpRpcServer(handler)
        self.address = await self.server.start()
        _, self.host, self.port = parse_address(self.address)
        return self

    async def __aexit__(self, *exc):
        await self.server.stop()

    async def raw(self, data: bytes, *, read: int = 1) -> list[bytes]:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        writer.write(data)
        await writer.drain()
        lines = []
        try:
            for _ in range(read):
                line = await asyncio.wait_for(reader.readline(), timeout=2)
                if not line:
                    break
                lines.append(line)
        except asyncio.TimeoutError:
            pass
        writer.close()
        return lines

    async def good_request(self) -> bytes:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        writer.write(
            b"POST /rpc/C/m HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi"
        )
        await writer.drain()
        status = await reader.readline()
        writer.close()
        return status


class TestMalformedRequests:
    async def test_garbage_bytes_then_server_still_serves(self):
        async with Rig() as rig:
            await rig.raw(b"\x00\x01\x02 total garbage\r\n\r\n")
            assert b"200" in await rig.good_request()

    async def test_missing_content_length_treated_as_zero(self):
        async with Rig() as rig:
            lines = await rig.raw(b"POST /rpc/C/m HTTP/1.1\r\n\r\n")
            assert lines and b"200" in lines[0]

    async def test_bad_method_404(self):
        async with Rig() as rig:
            lines = await rig.raw(b"GET /rpc/C/m HTTP/1.1\r\ncontent-length: 0\r\n\r\n")
            assert lines and b"404" in lines[0]

    async def test_malformed_path_400(self):
        async with Rig() as rig:
            lines = await rig.raw(
                b"POST /rpc/only-one-part HTTP/1.1\r\ncontent-length: 0\r\n\r\n"
            )
            assert lines and b"400" in lines[0]

    async def test_half_request_then_disconnect(self):
        async with Rig() as rig:
            reader, writer = await asyncio.open_connection(rig.host, rig.port)
            writer.write(b"POST /rpc/C/m HTTP/1.1\r\ncontent-length: 100\r\n\r\nshort")
            await writer.drain()
            writer.close()
            await asyncio.sleep(0.05)
            assert b"200" in await rig.good_request()

    async def test_header_without_colon(self):
        async with Rig() as rig:
            await rig.raw(b"POST /rpc/C/m HTTP/1.1\r\nbroken header line\r\n\r\n")
            assert b"200" in await rig.good_request()

    async def test_oversized_body_rejected_cleanly(self):
        async with Rig() as rig:
            lines = await rig.raw(
                b"POST /rpc/C/m HTTP/1.1\r\ncontent-length: 999999999999\r\n\r\n"
            )
            # Connection dropped without serving; server survives.
            assert b"200" in await rig.good_request()

    @pytest.mark.parametrize("length", [b"-1", b"abc"])
    async def test_malformed_content_length_closes_quietly(self, caplog, length):
        async with Rig() as rig:
            lines = await rig.raw(
                b"POST /rpc/C/m HTTP/1.1\r\ncontent-length: " + length + b"\r\n\r\n"
            )
            assert lines == []  # refused: no reply, no traceback
            assert b"200" in await rig.good_request()
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

    async def test_pipelined_keepalive_requests(self):
        async with Rig() as rig:
            reader, writer = await asyncio.open_connection(rig.host, rig.port)
            one = b"POST /rpc/C/m HTTP/1.1\r\ncontent-length: 1\r\n\r\nx"
            writer.write(one + one)
            await writer.drain()
            blob = await asyncio.wait_for(reader.read(400), timeout=2)
            assert blob.count(b"200 OK") == 2
            writer.close()

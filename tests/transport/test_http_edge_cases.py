"""HTTP baseline: malformed input must never take the server down."""

from __future__ import annotations

import asyncio
import logging

import pytest

from repro.transport.http_rpc import HttpServer, rpc_route
from repro.transport.server import parse_address


async def handler(component, method, body, trace, deadline_ms):
    return b"ok:" + body


class Rig:
    async def __aenter__(self):
        self.server = HttpServer(rpc_route(handler))
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


class TestSharedServer:
    """The one HTTP/1.1 loop the RPC route, the front door and the
    dashboard run on."""

    @staticmethod
    async def start(route, **kwargs):
        server = HttpServer(route, **kwargs)
        _, host, port = parse_address(await server.start())
        return server, host, port

    @staticmethod
    async def echo(method, target, headers, body):
        return 200, {"content-type": "text/plain"}, target.encode()

    async def test_route_that_raises_is_a_logged_500(self, caplog):
        async def broken(method, target, headers, body):
            if target == "/boom":
                raise RuntimeError("route bug")
            return await self.echo(method, target, headers, body)

        server, host, port = await self.start(broken)
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /boom HTTP/1.1\r\n\r\nGET /ok HTTP/1.1\r\n\r\n")
            await writer.drain()
            blob = await asyncio.wait_for(reader.read(400), timeout=2)
            while blob.count(b"HTTP/1.1") < 2:
                blob += await asyncio.wait_for(reader.read(400), timeout=2)
            assert blob.startswith(b"HTTP/1.1 500 ")
            assert blob.endswith(b"/ok")  # the connection kept serving
            writer.close()
        finally:
            await server.stop()
        assert [r for r in caplog.records if r.levelno >= logging.ERROR]

    async def test_client_connection_close_is_honoured(self):
        server, host, port = await self.start(self.echo)
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /a HTTP/1.1\r\nconnection: close\r\n\r\n")
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), timeout=2)  # to EOF
            assert b"connection: close\r\n" in reply and reply.endswith(b"/a")
            writer.close()
        finally:
            await server.stop()

    async def test_stop_closes_idle_keepalive_connections(self):
        server, host, port = await self.start(self.echo)
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"GET /a HTTP/1.1\r\n\r\n")
        await writer.drain()
        await asyncio.wait_for(reader.readuntil(b"/a"), timeout=2)
        await asyncio.wait_for(server.stop(), timeout=2)
        assert await asyncio.wait_for(reader.read(), timeout=2) == b""
        writer.close()

    async def test_read_timeout_closes_an_idle_connection(self):
        server, host, port = await self.start(self.echo, read_timeout_s=0.1)
        try:
            reader, writer = await asyncio.open_connection(host, port)
            assert await asyncio.wait_for(reader.read(), timeout=2) == b""
            writer.close()
        finally:
            await server.stop()

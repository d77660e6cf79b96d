"""The HTTP/1.1 baseline transport."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.errors import (
    DeadlineExceeded,
    RemoteApplicationError,
    Unavailable,
)
from repro.transport.http_rpc import HttpRpcClient, HttpServer, _format_request, rpc_route


async def handler(
    component: str, method: str, body: bytes, trace: tuple[int, int], deadline_ms: int
) -> bytes:
    if method == "app_error":
        raise KeyError("missing key")
    if method == "unavailable":
        raise Unavailable("try later")
    if method == "slow":
        await asyncio.sleep(0.5)
        return b"slow"
    return f"{component}/{method}:".encode() + body


class Harness:
    async def __aenter__(self):
        self.server = HttpServer(rpc_route(handler))
        self.address = await self.server.start()
        self.client = HttpRpcClient()
        return self

    async def __aexit__(self, *exc):
        await self.client.close()
        await self.server.stop()


async def test_basic_call():
    async with Harness() as h:
        out = await h.client.call(h.address, "Cart", "add", b"item", timeout=2)
        assert out == b"Cart/add:item"


async def test_empty_body():
    async with Harness() as h:
        assert await h.client.call(h.address, "C", "m", b"", timeout=2) == b"C/m:"


async def test_binary_body_roundtrip():
    async with Harness() as h:
        body = bytes(range(256)) * 4
        out = await h.client.call(h.address, "C", "m", body, timeout=2)
        assert out.endswith(body)


async def test_keepalive_reuses_connection():
    async with Harness() as h:
        for i in range(25):
            await h.client.call(h.address, "C", "m", str(i).encode(), timeout=2)
        assert len(h.client._idle.get(h.address, [])) == 1


async def test_concurrent_calls_open_multiple_sockets():
    """HTTP/1.1 has no multiplexing: concurrency costs sockets."""
    async with Harness() as h:
        await asyncio.gather(
            *[h.client.call(h.address, "C", "slow", b"", timeout=5) for _ in range(3)]
        )
        assert len(h.client._idle.get(h.address, [])) == 3


async def test_app_error_maps_to_remote_application_error():
    async with Harness() as h:
        with pytest.raises(RemoteApplicationError) as info:
            await h.client.call(h.address, "C", "app_error", b"", timeout=2)
        assert info.value.exc_type == "KeyError"


async def test_unavailable_maps_to_503():
    async with Harness() as h:
        with pytest.raises(Unavailable, match="try later"):
            await h.client.call(h.address, "C", "unavailable", b"", timeout=2)


async def test_timeout():
    async with Harness() as h:
        with pytest.raises(DeadlineExceeded):
            await h.client.call(h.address, "C", "slow", b"", timeout=0.05)


async def test_connection_survives_error_response():
    async with Harness() as h:
        with pytest.raises(RemoteApplicationError):
            await h.client.call(h.address, "C", "app_error", b"", timeout=2)
        assert await h.client.call(h.address, "C", "m", b"ok", timeout=2) == b"C/m:ok"


async def test_dead_endpoint_is_unavailable():
    client = HttpRpcClient(connect_timeout=0.5)
    with pytest.raises(Unavailable):
        await client.call("tcp://127.0.0.1:1", "C", "m", b"", timeout=1)
    await client.close()


def test_request_headers_are_heavy():
    """Quantifies the per-message text-header cost the paper deletes."""
    raw = _format_request("tcp://127.0.0.1:80", "boutique.Cart", "add_item", b"", 1)
    head = raw[: raw.index(b"\r\n\r\n") + 4]
    assert len(head) > 150  # vs ~9 bytes for the custom protocol
    assert b"POST /rpc/boutique.Cart/add_item" in raw
    assert b"content-length" in raw


async def test_not_found_for_bad_path():
    async with Harness() as h:
        # Raw request with a non-/rpc path.
        from repro.transport.server import parse_address

        _, host, port = parse_address(h.address)
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"POST /other HTTP/1.1\r\ncontent-length: 0\r\n\r\n")
        await writer.drain()
        line = await reader.readline()
        assert b"404" in line
        writer.close()

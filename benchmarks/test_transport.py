"""E8 — transport ablation: custom TCP protocol vs HTTP/1.1 baseline (§6).

    "...as well as its use of a streamlined transport protocol built
    directly on top of TCP."

Round-trip latency over real loopback sockets for boutique-shaped payloads,
and the per-message wire overhead of each protocol.
"""

from __future__ import annotations

import asyncio

import pytest

from benchmarks.conftest import print_table
from repro.transport.client import ConnectionPool
from repro.transport.http_rpc import HttpRpcClient, HttpServer, _format_request, rpc_route
from repro.transport import message as wire_msg
from repro.transport.server import RPCServer

PAYLOAD_SIZES = [64, 1024, 4096]


class CustomRig:
    def __init__(self):
        async def handler(cid, mid, args, trace=(0, 0), deadline_ms=0):
            return args

        self.loop = asyncio.new_event_loop()
        self.server = RPCServer(handler, codec="compact", version="bench")
        address = self.loop.run_until_complete(self.server.start())
        self.pool = ConnectionPool(codec="compact", version="bench")
        self.conn = self.loop.run_until_complete(self.pool.get(address))

    def call(self, payload: bytes) -> bytes:
        return self.loop.run_until_complete(self.conn.call(1, 1, payload, timeout=5))

    def close(self):
        self.loop.run_until_complete(self.pool.close())
        self.loop.run_until_complete(self.server.stop())
        self.loop.close()


class HttpRig:
    def __init__(self):
        async def handler(component, method, body, trace, deadline_ms):
            return body

        self.loop = asyncio.new_event_loop()
        self.server = HttpServer(rpc_route(handler))
        self.address = self.loop.run_until_complete(self.server.start())
        self.client = HttpRpcClient()

    def call(self, payload: bytes) -> bytes:
        return self.loop.run_until_complete(
            self.client.call(self.address, "boutique.Cart", "get_cart", payload, timeout=5)
        )

    def close(self):
        self.loop.run_until_complete(self.client.close())
        self.loop.run_until_complete(self.server.stop())
        self.loop.close()


@pytest.fixture(scope="module")
def custom_rig():
    rig = CustomRig()
    yield rig
    rig.close()


@pytest.fixture(scope="module")
def http_rig():
    rig = HttpRig()
    yield rig
    rig.close()


@pytest.mark.parametrize("size", PAYLOAD_SIZES)
def test_custom_rpc_roundtrip(benchmark, custom_rig, size):
    payload = b"x" * size
    result = benchmark(custom_rig.call, payload)
    assert result == payload


@pytest.mark.parametrize("size", PAYLOAD_SIZES)
def test_http_rpc_roundtrip(benchmark, http_rig, size):
    payload = b"x" * size
    result = benchmark(http_rig.call, payload)
    assert result == payload


def test_per_message_wire_overhead(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """Protocol framing bytes for an identical logical call."""
    body = b"p" * 64
    custom = len(wire_msg.encode(wire_msg.Request(1, 5, 2, body))) + 4 - len(body)
    http = _format_request(
        "tcp://127.0.0.1:80", "boutique.Cart", "get_cart", body, 1
    )
    http_overhead = len(http) - len(body)
    print_table(
        "E8: protocol overhead per request message",
        [
            {"protocol": "custom-tcp", "overhead_bytes": custom},
            {"protocol": "http/1.1", "overhead_bytes": http_overhead},
            {"protocol": "ratio", "overhead_bytes": http_overhead / custom},
        ],
        ["protocol", "overhead_bytes"],
    )
    assert custom < 16
    assert http_overhead > 10 * custom


def test_pipelining_concurrency(benchmark, custom_rig):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """One custom connection carries concurrent calls; HTTP/1.1 cannot."""

    async def burst(conn, n):
        return await asyncio.gather(*[conn.call(1, 1, b"x", timeout=5) for _ in range(n)])

    results = custom_rig.loop.run_until_complete(burst(custom_rig.conn, 64))
    assert len(results) == 64

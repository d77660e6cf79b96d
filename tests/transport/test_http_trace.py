"""Trace context propagation over the HTTP baseline transport.

The modern runtime ships trace context inside its framed protocol for
free; the microservice baseline has to hand-roll it as an HTTP header
(``x-repro-trace``).  These tests cover the header round trip at the
transport layer and the end-to-end client/server span linkage through
the baseline deployment.
"""

from __future__ import annotations

from repro.baseline.service import deploy_baseline
from repro.observability.tracing import UNSAMPLED_CONTEXT
from repro.transport.http_rpc import (
    HttpRpcClient,
    HttpServer,
    _format_request,
    _parse_trace_header,
    rpc_route,
)

from tests.conftest import Greeter


class TestHeaderParsing:
    def test_parse_round_trip(self):
        assert _parse_trace_header("12345-678") == (12345, 678)

    def test_parse_garbage_is_zero(self):
        for bad in ("", "abc", "12-", "-34", "1-2-3x", "nan-nan"):
            assert _parse_trace_header(bad) == (0, 0)

    def test_header_emitted_only_with_real_context(self):
        with_trace = _format_request("a:1", "C", "m", b"x", 0, trace=(77, 88))
        assert b"x-repro-trace: 77-88\r\n" in with_trace
        for trace in (None, (0, 0)):
            assert b"x-repro-trace" not in _format_request(
                "a:1", "C", "m", b"x", 0, trace=trace
            )
        # An unsampled caller's context travels too: its callee must not
        # start a trace of its own.
        unsampled = _format_request("a:1", "C", "m", b"x", 0, trace=UNSAMPLED_CONTEXT)
        assert b"x-repro-trace: 0-1\r\n" in unsampled
        assert _parse_trace_header("0-1") == UNSAMPLED_CONTEXT


class TestWireRoundTrip:
    async def test_server_sees_client_context(self):
        seen = []

        async def handler(component, method, body, trace, deadline_ms) -> bytes:
            seen.append(trace)
            return b"ok"

        server = HttpServer(rpc_route(handler))
        address = await server.start()
        client = HttpRpcClient()
        try:
            await client.call(address, "C", "m", b"", timeout=2, trace=(42, 7))
            await client.call(address, "C", "m", b"", timeout=2)  # no context
            assert seen == [(42, 7), (0, 0)]
        finally:
            await client.close()
            await server.stop()

    async def test_context_is_per_request_not_sticky(self):
        """A traced request must not leak its context into the next
        request on the same kept-alive connection."""
        seen = []

        async def handler(component, method, body, trace, deadline_ms) -> bytes:
            seen.append(trace)
            return b"ok"

        server = HttpServer(rpc_route(handler))
        address = await server.start()
        client = HttpRpcClient()
        try:
            await client.call(address, "C", "m", b"", timeout=2, trace=(1, 2))
            await client.call(address, "C", "m", b"", timeout=2)
            await client.call(address, "C", "m", b"", timeout=2, trace=(3, 4))
            assert seen == [(1, 2), (0, 0), (3, 4)]
        finally:
            await client.close()
            await server.stop()


class TestBaselineLinkage:
    async def test_client_and_server_spans_link_end_to_end(self, demo_registry):
        """driver -> rpc Greeter.greet -> Greeter.greet (the server span
        the framed stack names the same way), joined by the header; the
        nested Adder hop stays in the same trace."""
        app = await deploy_baseline(registry=demo_registry)
        try:
            assert await app.get(Greeter).greet("bob") == "Hello, bob! (4)"

            spans = app.tracer.spans()
            clients = [s for s in spans if s.name == "rpc Greeter.greet"]
            servers = [
                s
                for s in spans
                if s.name == "Greeter.greet" and s.attributes.get("side") == "server"
            ]
            assert clients and servers
            client, server = clients[0], servers[0]
            assert server.trace_id == client.trace_id
            assert server.parent_id == client.span_id

            # The Greeter host's own outbound call to Adder continues the
            # same trace across a second HTTP hop.
            names_in_trace = {
                s.name for s in spans if s.trace_id == client.trace_id
            }
            assert "rpc Adder.add" in names_in_trace
            assert "Adder.add" in names_in_trace
        finally:
            await app.shutdown()

    async def test_untraced_client_still_served(self, demo_registry):
        """A host with a tracer must tolerate header-less callers."""
        app = await deploy_baseline(registry=demo_registry)
        try:
            app._client._tracer = None  # simulate a legacy caller
            assert await app.get(Greeter).greet("amy") == "Hello, amy! (4)"
            # As on the framed wire, only a caller roots a trace: a request
            # without context is served without a server span.
            assert not [s for s in app.tracer.spans() if s.name == "Greeter.greet"]
        finally:
            await app.shutdown()

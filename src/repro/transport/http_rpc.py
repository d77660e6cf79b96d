"""The status-quo transport baseline: RPC over HTTP/1.1.

The paper's baseline deployment talks gRPC (HTTP/2) with protobuf payloads.
We reproduce its *cost structure* with a from-scratch HTTP/1.1 RPC stack:

* component and method are spelled out as text in the request line
  (``POST /rpc/<component>/<method>``),
* every request and response carries text headers (host, content type,
  lengths, request ids, user agent), re-parsed on each message,
* payloads use a versioned, self-describing codec (tagged or JSON),
* connections are keep-alive but requests on one connection are strictly
  sequential (HTTP/1.1 has no multiplexing), so callers needing concurrency
  pay for more sockets.

None of this is a strawman: it is what every microservice RPC framework
does, because independently released binaries cannot assume anything about
each other.  The benchmarks in ``benchmarks/test_transport.py`` measure the
difference against :mod:`repro.transport.connection`.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import os
import time
from typing import Awaitable, Callable, Optional

from repro.core.errors import (
    DeadlineExceeded,
    ErrorCode,
    RemoteApplicationError,
    RPCError,
    TransportError,
    Unavailable,
    error_from_code,
)
from repro.core.options import deadline_scope
from repro.transport.server import parse_address

#: Server handler: (component_name, method_name, body) -> response body.
NamedHandler = Callable[[str, str, bytes], Awaitable[bytes]]

_MAX_HEADER = 64 * 1024
_MAX_BODY = 64 * 1024 * 1024
_USER_AGENT = "repro-baseline/0.1"

#: The status line of an RPCError reply; ``x-rpc-code`` carries the code.
_HTTP_STATUS = {
    ErrorCode.DEADLINE_EXCEEDED: 504,
    ErrorCode.RESOURCE_EXHAUSTED: 429,
    ErrorCode.UNAVAILABLE: 503,
}

#: Incoming trace context, set by the server around each handler call —
#: the HTTP analogue of the framed transport's message trace fields.  The
#: microservice world has to reinvent header propagation (W3C traceparent
#: et al.); this is our minimal version: ``x-repro-trace: <trace>-<span>``.
_trace_parent: contextvars.ContextVar[tuple[int, int]] = contextvars.ContextVar(
    "repro_http_trace_parent", default=(0, 0)
)


def incoming_trace() -> tuple[int, int]:
    """(trace_id, parent_span_id) of the request being served, or (0, 0)."""
    return _trace_parent.get()


def _parse_trace_header(value: str) -> tuple[int, int]:
    trace_part, sep, span_part = value.partition("-")
    if not sep:
        return (0, 0)
    try:
        return int(trace_part), int(span_part)
    except ValueError:
        return (0, 0)


class HttpRpcServer:
    """Minimal HTTP/1.1 server dispatching POST /rpc/<component>/<method>."""

    def __init__(self, handler: NamedHandler, *, address: str = "tcp://127.0.0.1:0") -> None:
        self._handler = handler
        self._requested = address
        self._server: Optional[asyncio.base_events.Server] = None
        self.address: str = address

    async def start(self) -> str:
        scheme, host, port = parse_address(self._requested)
        if scheme == "tcp":
            self._server = await asyncio.start_server(self._serve, host, port)
            bound = self._server.sockets[0].getsockname()
            self.address = f"tcp://{bound[0]}:{bound[1]}"
        else:
            if os.path.exists(host):
                os.unlink(host)
            self._server = await asyncio.start_unix_server(self._serve, host)
            self.address = f"unix://{host}"
        return self.address

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await _read_http_message(reader, request_side=True)
                if request is None:
                    break
                method, path, headers, body = request
                status, reply_headers, reply_body = await self._respond(
                    method, path, headers, body
                )
                _write_response(writer, status, reply_headers, reply_body)
                await writer.drain()
        except (TransportError, ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown while idle on a keep-alive connection
        finally:
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def _respond(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict[str, str], bytes]:
        if method != "POST" or not path.startswith("/rpc/"):
            return 404, {}, b"not found"
        parts = path[len("/rpc/") :].split("/")
        if len(parts) != 2:
            return 400, {}, b"want /rpc/<component>/<method>"
        component, method_name = parts
        try:
            budget_ms = int(headers.get("x-repro-deadline", "0"))
        except ValueError:
            budget_ms = 0
        trace_token = None
        trace_header = headers.get("x-repro-trace")
        if trace_header:
            trace_token = _trace_parent.set(_parse_trace_header(trace_header))
        try:
            if budget_ms > 0:
                # Same budget semantics as the framed transport: pin the
                # caller's remaining budget to our clock, make it ambient
                # for nested calls, and refuse to outlive it.
                budget_s = budget_ms / 1000.0
                with deadline_scope(time.monotonic() + budget_s):
                    try:
                        result = await asyncio.wait_for(
                            self._handler(component, method_name, body), budget_s
                        )
                    except asyncio.TimeoutError:
                        raise DeadlineExceeded(
                            f"{component}.{method_name} exceeded its caller's "
                            f"{budget_ms}ms budget"
                        ) from None
            else:
                result = await self._handler(component, method_name, body)
            return 200, {"x-rpc-status": "ok"}, result
        except RPCError as exc:
            # The framed transport's (code, message, executed) triple, as
            # headers; the status line is for HTTP middleboxes.
            return (
                _HTTP_STATUS.get(exc.code, 500),
                {"x-rpc-code": str(int(exc.code)), "x-rpc-executed": str(int(exc.executed))},
                str(exc).encode(),
            )
        except Exception as exc:
            return (
                500,
                {"x-rpc-status": "app-error", "x-exc-type": type(exc).__name__},
                str(exc).encode(),
            )
        finally:
            if trace_token is not None:
                _trace_parent.reset(trace_token)


class HttpRpcClient:
    """Keep-alive HTTP/1.1 client; one in-flight request per connection."""

    def __init__(self, *, connect_timeout: float = 5.0) -> None:
        self._connect_timeout = connect_timeout
        # Idle connection stack per address; HTTP/1.1 cannot multiplex, so
        # concurrent calls to the same peer open additional sockets.
        self._idle: dict[str, list[tuple[asyncio.StreamReader, asyncio.StreamWriter]]] = {}
        self._req_ids = itertools.count(1)

    async def call(
        self,
        address: str,
        component: str,
        method: str,
        body: bytes,
        *,
        timeout: Optional[float] = None,
        deadline_ms: int = 0,
        trace: Optional[tuple[int, int]] = None,
    ) -> bytes:
        reader, writer = await self._checkout(address)
        try:
            request = _format_request(
                address,
                component,
                method,
                body,
                next(self._req_ids),
                deadline_ms=deadline_ms,
                trace=trace,
            )
            writer.write(request)
            await writer.drain()
            response = await asyncio.wait_for(
                _read_http_message(reader, request_side=False), timeout
            )
        except asyncio.CancelledError:
            writer.close()  # e.g. a hedge's loser: its reply may still arrive
            raise
        except asyncio.TimeoutError:
            writer.close()
            raise DeadlineExceeded(f"HTTP call to {component}.{method} timed out") from None
        except (ConnectionError, OSError, TransportError) as exc:
            writer.close()
            raise Unavailable(f"HTTP call to {address} failed: {exc}") from exc
        if response is None:
            writer.close()
            raise Unavailable(f"{address} closed the connection")
        status_line, _, headers, reply_body = response
        self._checkin(address, reader, writer, headers)
        status = int(status_line)
        if status == 200:
            return reply_body
        text = reply_body.decode("utf-8", "replace")
        if headers.get("x-rpc-status") == "app-error":
            raise RemoteApplicationError(headers.get("x-exc-type", "Exception"), text)
        code = headers.get("x-rpc-code", "")
        if not (code.isascii() and code.isdigit()):
            # Refused before dispatch (a bad path): only the status says why.
            code, text = "0", f"HTTP {status}: {text}"
        raise error_from_code(
            int(code), text, executed=headers.get("x-rpc-executed", "1") != "0"
        )

    async def _checkout(self, address: str) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        stack = self._idle.get(address)
        while stack:
            reader, writer = stack.pop()
            if not writer.is_closing():
                return reader, writer
        scheme, host, port = parse_address(address)
        try:
            if scheme == "tcp":
                return await asyncio.wait_for(
                    asyncio.open_connection(host, port), self._connect_timeout
                )
            return await asyncio.wait_for(
                asyncio.open_unix_connection(host), self._connect_timeout
            )
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            raise Unavailable(
                f"cannot connect to {address}: {exc}", executed=False
            ) from exc

    def _checkin(
        self,
        address: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        headers: dict[str, str],
    ) -> None:
        if headers.get("connection", "keep-alive").lower() == "close" or writer.is_closing():
            writer.close()
            return
        self._idle.setdefault(address, []).append((reader, writer))

    async def close(self) -> None:
        for stack in self._idle.values():
            for _, writer in stack:
                writer.close()
        self._idle.clear()

    def drop(self, address: str) -> None:
        for _, writer in self._idle.pop(address, []):
            writer.close()


def _format_request(
    address: str,
    component: str,
    method: str,
    body: bytes,
    req_id: int,
    *,
    deadline_ms: int = 0,
    trace: Optional[tuple[int, int]] = None,
) -> bytes:
    # The text header block every microservice request pays for.
    deadline = f"x-repro-deadline: {deadline_ms}\r\n" if deadline_ms > 0 else ""
    trace_header = (
        f"x-repro-trace: {trace[0]}-{trace[1]}\r\n" if trace and trace[0] else ""
    )
    head = (
        f"POST /rpc/{component}/{method} HTTP/1.1\r\n"
        f"host: {address}\r\n"
        f"user-agent: {_USER_AGENT}\r\n"
        f"content-type: application/x-rpc\r\n"
        f"x-request-id: {req_id}\r\n"
        f"{deadline}"
        f"{trace_header}"
        f"content-length: {len(body)}\r\n"
        f"connection: keep-alive\r\n"
        "\r\n"
    ).encode("ascii")
    return head + body


def _write_response(
    writer: asyncio.StreamWriter, status: int, headers: dict[str, str], body: bytes
) -> None:
    reason = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        429: "Too Many Requests",
        500: "Error",
        503: "Unavailable",
        504: "Gateway Timeout",
    }
    lines = [f"HTTP/1.1 {status} {reason.get(status, 'Status')}"]
    lines.append(f"content-length: {len(body)}")
    lines.append("content-type: application/x-rpc")
    lines.append("connection: keep-alive")
    for k, v in headers.items():
        lines.append(f"{k}: {v}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    writer.write(head + body)


async def _read_http_message(
    reader: asyncio.StreamReader, *, request_side: bool
) -> Optional[tuple[str, str, dict[str, str], bytes]]:
    """Parse one HTTP/1.1 message.

    Returns (method, path, headers, body) on the server side and
    (status_code, reason, headers, body) on the client side, or None on a
    clean EOF between messages.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TransportError("connection closed mid-headers") from exc
    except asyncio.LimitOverrunError as exc:
        raise TransportError(f"HTTP header block too large: {exc}") from exc
    if len(head) > _MAX_HEADER:
        raise TransportError("HTTP header block too large")
    lines = head.decode("latin-1").split("\r\n")
    first = lines[0].split(" ", 2)
    if len(first) < 2:
        raise TransportError(f"malformed start line {lines[0]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise TransportError(f"malformed header {line!r}")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0")
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise TransportError(f"malformed content-length {raw_length!r}")
    length = int(raw_length)
    if length > _MAX_BODY:
        raise TransportError(f"HTTP body of {length} bytes too large")
    body = await reader.readexactly(length) if length else b""
    if request_side:
        return first[0], first[1], headers, body
    return first[1], first[2] if len(first) > 2 else "", headers, body

"""The status-quo transport baseline: RPC over HTTP/1.1, and the one HTTP server.

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

:class:`HttpServer` is the repo's one HTTP/1.1 server.  The baseline's RPC
endpoint (:func:`rpc_route`), the boutique's front door and the live
dashboard are routes on it.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import os
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
from repro.transport.server import parse_address

log = logging.getLogger("repro.transport.http")

#: A route answers one request: (method, target, headers, body) ->
#: (status, headers, body).  Header names are lower-case.
Route = Callable[
    [str, str, dict[str, str], bytes], Awaitable[tuple[int, dict[str, str], bytes]]
]

#: The RPC route's handler: (component, method, args, (trace_id,
#: parent_span_id), deadline_ms) -> the encoded result.
RpcHandler = Callable[[str, str, bytes, tuple[int, int], int], Awaitable[bytes]]

_MAX_HEADER = 64 * 1024
_MAX_BODY = 64 * 1024 * 1024
_USER_AGENT = "repro-baseline/0.1"

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Error",
    503: "Unavailable",
    504: "Gateway Timeout",
}

#: The status line of an RPCError reply; ``x-rpc-code`` carries the code.
_HTTP_STATUS = {
    ErrorCode.DEADLINE_EXCEEDED: 504,
    ErrorCode.RESOURCE_EXHAUSTED: 429,
    ErrorCode.UNAVAILABLE: 503,
}

_RPC_TYPE = "application/x-rpc"
_RPC_OK = {"content-type": _RPC_TYPE, "x-rpc-status": "ok"}


class HttpServer:
    """An HTTP/1.1 server: one keep-alive loop per connection, answering
    each request with ``route``.

    A client's ``connection: close`` ends its connection after the reply;
    a route that raises is answered with a logged 500; a malformed request
    closes the connection without a reply.  ``read_timeout_s`` bounds the
    wait for each request (``None``: a connection may idle forever).
    :meth:`stop` closes the live connections too.
    """

    def __init__(
        self,
        route: Route,
        *,
        address: str = "tcp://127.0.0.1:0",
        read_timeout_s: Optional[float] = None,
    ) -> None:
        self._handler = route
        self._read_timeout_s = read_timeout_s
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: set[asyncio.StreamWriter] = set()
        self.address = address

    async def start(self) -> str:
        scheme, host, port = parse_address(self.address)
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
        if self._server is None:
            return
        self._server.close()
        for writer in list(self._writers):
            writer.close()
        await self._server.wait_closed()
        self._server = None

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                request = await asyncio.wait_for(
                    _read_http_message(reader, request_side=True), self._read_timeout_s
                )
                if request is None:
                    break
                method, target, headers, body = request
                try:
                    status, reply_headers, reply_body = await self._handler(
                        method, target, headers, body
                    )
                except Exception:
                    log.exception("HTTP %s %s failed", method, target)
                    status, reply_headers, reply_body = 500, {}, b"internal error"
                close = headers.get("connection", "").lower() == "close"
                writer.write(_format_response(status, reply_headers, reply_body, close))
                await writer.drain()
                if close:
                    break
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, TransportError, OSError):
            pass  # idle too long, malformed, or the peer went away
        except asyncio.CancelledError:
            pass  # the loop is closing under an idle keep-alive connection
        finally:
            self._writers.discard(writer)
            writer.close()


def _parse_trace_header(value: str) -> tuple[int, int]:
    trace_part, sep, span_part = value.partition("-")
    if not sep:
        return (0, 0)
    try:
        return int(trace_part), int(span_part)
    except ValueError:
        return (0, 0)


def rpc_route(handler: RpcHandler) -> Route:
    """The baseline's RPC endpoint, ``POST /rpc/<component>/<method>``.

    The caller's trace context (``x-repro-trace: <trace>-<span>``, the
    header propagation microservice stacks hand-roll) and remaining budget
    (``x-repro-deadline``, in ms) are parsed and handed to ``handler``.
    The route enforces only the budget: a handler outliving it is answered
    ``DeadlineExceeded``.  An :class:`RPCError` crosses the wire as the
    framed transport's (code, message, executed) triple, in headers; any
    other exception as an application error.
    """

    async def route(
        method: str, target: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict[str, str], bytes]:
        if method != "POST" or not target.startswith("/rpc/"):
            return 404, {}, b"not found"
        parts = target[len("/rpc/") :].split("/")
        if len(parts) != 2:
            return 400, {}, b"want /rpc/<component>/<method>"
        component, name = parts
        trace = _parse_trace_header(headers.get("x-repro-trace", ""))
        try:
            budget_ms = int(headers.get("x-repro-deadline", "0"))
        except ValueError:
            budget_ms = 0
        try:
            served = handler(component, name, body, trace, budget_ms)
            if budget_ms > 0:
                try:
                    result = await asyncio.wait_for(served, budget_ms / 1000.0)
                except asyncio.TimeoutError:
                    raise DeadlineExceeded(
                        f"{component}.{name} exceeded its caller's {budget_ms}ms budget"
                    ) from None
            else:
                result = await served
            return 200, _RPC_OK, result
        except RPCError as exc:
            # The status line is for HTTP middleboxes.
            status, text = _HTTP_STATUS.get(exc.code, 500), str(exc)
            fields = {"x-rpc-code": str(int(exc.code)), "x-rpc-executed": str(int(exc.executed))}
        except Exception as exc:
            status, text = 500, str(exc)
            fields = {"x-rpc-status": "app-error", "x-exc-type": type(exc).__name__}
        return status, {"content-type": _RPC_TYPE, **fields}, text.encode()

    return route


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
    # Any context but (0, 0) travels: an unsampled one keeps the callee's
    # own calls unsampled, as on the framed wire.
    trace_header = (
        f"x-repro-trace: {trace[0]}-{trace[1]}\r\n" if trace and trace != (0, 0) else ""
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


def _format_response(
    status: int, headers: dict[str, str], body: bytes, close: bool
) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}"]
    lines.append(f"content-length: {len(body)}")
    lines.extend(f"{k}: {v}" for k, v in headers.items())
    lines.append("connection: close" if close else "connection: keep-alive")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


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

"""The proclet <-> runtime control protocol over a pipe (§4.3, Table 1).

    "Concretely, proclets interact with the runtime over a Unix pipe."

Messages are JSON lines — the control plane is low-rate, so a debuggable
text protocol beats squeezing bytes (the *data* plane is where the custom
binary format matters).  Each message is an envelope::

    {"id": 7, "kind": "req",  "type": "register_replica", "body": {...}}
    {"id": 7, "kind": "resp", "body": {"result": ...}}
    {"id": 7, "kind": "err",  "error": "..."}
    {"kind": "note", "type": "export_metrics", "body": {...}}

:data:`API` declares, once, everything a proclet can ask of the runtime:
Table 1 plus the liveness and telemetry reports Figure 3's architecture
needs.  A message's type is the method's name and its body maps the
method's parameter names to the arguments; one-way methods travel as
notes.  Both ends of the pipe are read off the table —
:class:`PipeRuntimeAPI` on the proclet's side, :func:`serve` on the
envelope's — and :class:`~repro.runtime.manager.Manager` implements every
row, so an in-process proclet calls the manager directly.

The runtime pushes these to a proclet (the envelope's ``control``):

=====================  ======================================================
``routing_info``       fresh replica set / assignment for a component
``host_components``    a new hosted set (live re-placement)
``drain``              close the door, finish in-flight RPCs, flush + export
                       owned state shards, respond when drained (graceful
                       pre-shutdown)
``state_handover``     adopt flushed state shards a retiring peer exported
                       (replay before serving)
``shutdown``           stop serving and exit
=====================  ======================================================

Transports: :class:`StreamPipe` (real OS pipes / sockets; what subprocess
proclets use, opened by :func:`connect_unix` and :func:`listen_unix`) and
:class:`MemoryPipe` (paired in-process queues; what tests use).  Both
expose ``send``/``recv``/``close``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Mapping, Optional, Protocol

from repro.core.errors import RuntimeControlError
from repro.observability.tracing import spans_from_wire, spans_to_wire

log = logging.getLogger("repro.runtime.pipes")


@dataclass(frozen=True)
class ApiMethod:
    """One proclet -> runtime method: its name, its parameters, and whether
    it is one-way (sent as a note, no reply awaited)."""

    name: str
    params: tuple[str, ...]
    oneway: bool = False
    #: parameter -> (to_wire, from_wire), for an argument that is not JSON
    #: as it stands.  Applied only at the pipe.
    wire: Mapping[str, tuple[Callable[[Any], Any], Callable[[Any], Any]]] = field(
        default_factory=dict
    )


#: The proclet -> runtime API, by method name.
API: dict[str, ApiMethod] = {
    m.name: m
    for m in (
        # Table 1.
        ApiMethod("register_replica", ("proclet_id", "address", "group_id")),
        ApiMethod("components_to_host", ("proclet_id",)),
        ApiMethod("start_component", ("component",)),
        ApiMethod("routing_info", ("component",)),
        # Liveness + load, and the telemetry the manager aggregates.
        ApiMethod("heartbeat", ("proclet_id", "load")),
        ApiMethod("export_metrics", ("proclet_id", "snapshot"), oneway=True),
        ApiMethod("export_logs", ("proclet_id", "records"), oneway=True),
        ApiMethod("export_call_graph", ("proclet_id", "edges"), oneway=True),
        ApiMethod(
            "export_spans",
            ("proclet_id", "spans"),
            oneway=True,
            wire={"spans": (spans_to_wire, spans_from_wire)},
        ),
    )
}

# Runtime -> proclet pushes.
ROUTING_INFO = "routing_info"
HOST_COMPONENTS = "host_components"
DRAIN = "drain"
STATE_HANDOVER = "state_handover"
SHUTDOWN = "shutdown"

#: The longest control message (one JSON line) a pipe reader accepts.
MAX_LINE = 32 * 1024 * 1024


class PipeTransport(Protocol):
    async def send(self, message: dict[str, Any]) -> None: ...

    async def recv(self) -> Optional[dict[str, Any]]: ...

    def close(self) -> None: ...


class StreamPipe:
    """JSON-lines over an asyncio stream pair (pipe, socketpair, TCP).

    The reader's limit bounds a line: open it with ``limit=MAX_LINE`` (as
    :func:`connect_unix` and :func:`listen_unix` do), or asyncio's 64 KiB
    default refuses a large telemetry batch and the pipe dies with it.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._send_lock = asyncio.Lock()

    async def send(self, message: dict[str, Any]) -> None:
        data = json.dumps(message, separators=(",", ":")).encode() + b"\n"
        async with self._send_lock:
            self._writer.write(data)
            await self._writer.drain()

    async def recv(self) -> Optional[dict[str, Any]]:
        try:
            line = await self._reader.readline()
        except (ConnectionError, OSError, asyncio.LimitOverrunError, ValueError) as exc:
            raise RuntimeControlError(f"control pipe read failed: {exc}") from exc
        if not line:
            return None
        try:
            message = json.loads(line)
        except ValueError as exc:
            raise RuntimeControlError(f"malformed control message: {exc}") from exc
        if not isinstance(message, dict):
            raise RuntimeControlError(f"control message must be an object: {message!r}")
        return message

    def close(self) -> None:
        try:
            self._writer.close()
        except (ConnectionError, OSError, RuntimeError):
            pass


class MemoryPipe:
    """One end of an in-process duplex channel."""

    def __init__(self, inbox: asyncio.Queue, outbox: asyncio.Queue) -> None:
        self._inbox = inbox
        self._outbox = outbox
        self._closed = False

    async def send(self, message: dict[str, Any]) -> None:
        if self._closed:
            raise RuntimeControlError("pipe closed")
        await self._outbox.put(message)

    async def recv(self) -> Optional[dict[str, Any]]:
        item = await self._inbox.get()
        return item  # None is the close sentinel

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            # Wake the peer's recv with the close sentinel.
            self._outbox.put_nowait(None)


def memory_pipe_pair() -> tuple[MemoryPipe, MemoryPipe]:
    """Two connected in-process pipe ends."""
    a_to_b: asyncio.Queue = asyncio.Queue()
    b_to_a: asyncio.Queue = asyncio.Queue()
    return MemoryPipe(b_to_a, a_to_b), MemoryPipe(a_to_b, b_to_a)


async def connect_unix(path: str) -> StreamPipe:
    """The proclet's end of a UNIX-socket control pipe."""
    reader, writer = await asyncio.open_unix_connection(path, limit=MAX_LINE)
    return StreamPipe(reader, writer)


async def listen_unix(
    on_pipe: Callable[[StreamPipe], None], path: str
) -> asyncio.base_events.Server:
    """The envelope's end: ``on_pipe`` gets each connecting proclet's pipe."""

    def accept(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        on_pipe(StreamPipe(reader, writer))

    return await asyncio.start_unix_server(accept, path, limit=MAX_LINE)


Handler = Callable[[str, dict[str, Any]], Awaitable[dict[str, Any]]]


class ControlEndpoint:
    """Request/response + notifications over a :class:`PipeTransport`.

    Symmetric: both the proclet side and the envelope side are endpoints,
    each with a handler for requests initiated by the peer.
    """

    def __init__(
        self,
        pipe: PipeTransport,
        handler: Optional[Handler] = None,
        *,
        name: str = "endpoint",
    ) -> None:
        self._pipe = pipe
        self._handler = handler
        self._name = name
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._task: Optional[asyncio.Task] = None
        self._closed = False
        self._handler_tasks: set[asyncio.Task] = set()

    def start(self) -> None:
        self._task = asyncio.ensure_future(self._loop())

    @property
    def closed(self) -> bool:
        return self._closed

    async def request(
        self, type_: str, body: Optional[dict[str, Any]] = None, *, timeout: float = 30.0
    ) -> dict[str, Any]:
        if self._closed:
            raise RuntimeControlError(f"{self._name}: control endpoint closed")
        msg_id = next(self._ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[msg_id] = future
        await self._pipe.send(
            {"id": msg_id, "kind": "req", "type": type_, "body": body or {}}
        )
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            self._pending.pop(msg_id, None)
            raise RuntimeControlError(
                f"{self._name}: {type_} request timed out after {timeout}s"
            ) from None

    async def notify(self, type_: str, body: Optional[dict[str, Any]] = None) -> None:
        """Fire-and-forget message (no response expected)."""
        if self._closed:
            return
        await self._pipe.send({"kind": "note", "type": type_, "body": body or {}})

    async def _loop(self) -> None:
        try:
            while True:
                message = await self._pipe.recv()
                if message is None:
                    break
                kind = message.get("kind")
                if kind == "resp":
                    self._resolve(message.get("id"), message.get("body", {}), None)
                elif kind == "err":
                    self._resolve(
                        message.get("id"),
                        None,
                        RuntimeControlError(message.get("error", "unknown error")),
                    )
                elif kind in ("req", "note"):
                    task = asyncio.ensure_future(self._dispatch(message))
                    self._handler_tasks.add(task)
                    task.add_done_callback(self._handler_tasks.discard)
                else:
                    log.warning("%s: unknown message kind %r", self._name, kind)
        except RuntimeControlError as exc:
            log.debug("%s: control loop ended: %s", self._name, exc)
        except asyncio.CancelledError:
            pass
        finally:
            self._shutdown_pending()

    def _shutdown_pending(self) -> None:
        self._closed = True
        for future in self._pending.values():
            if not future.done():
                future.set_exception(RuntimeControlError("control pipe closed"))
        self._pending.clear()

    def _resolve(self, msg_id: Any, body: Optional[dict], exc: Optional[Exception]) -> None:
        future = self._pending.pop(msg_id, None)
        if future is None or future.done():
            return
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(body)

    async def _dispatch(self, message: dict[str, Any]) -> None:
        type_ = message.get("type", "")
        body = message.get("body", {})
        is_request = message.get("kind") == "req"
        if self._handler is None:
            if is_request:
                await self._safe_send(
                    {"id": message.get("id"), "kind": "err", "error": "no handler"}
                )
            return
        try:
            result = await self._handler(type_, body)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            log.exception("%s: handler for %s failed", self._name, type_)
            if is_request:
                await self._safe_send(
                    {"id": message.get("id"), "kind": "err", "error": f"{type(exc).__name__}: {exc}"}
                )
            return
        if is_request:
            await self._safe_send(
                {"id": message.get("id"), "kind": "resp", "body": result or {}}
            )

    async def _safe_send(self, message: dict[str, Any]) -> None:
        try:
            await self._pipe.send(message)
        except (RuntimeControlError, ConnectionError, OSError):
            pass

    async def close(self) -> None:
        self._closed = True
        if self._task is not None:
            self._task.cancel()
        for task in list(self._handler_tasks):
            task.cancel()
        self._pipe.close()
        self._shutdown_pending()


class PipeRuntimeAPI:
    """The proclet's end of the runtime API: each :data:`API` method is a
    request over the control pipe (a note if one-way) typed by its name."""

    def __init__(self, endpoint: ControlEndpoint) -> None:
        self._endpoint = endpoint

    def __getattr__(self, name: str) -> Callable[..., Awaitable[Any]]:
        method = API.get(name)
        if method is None:
            raise AttributeError(name)
        endpoint = self._endpoint

        async def call(*args: Any) -> Any:
            if len(args) != len(method.params):
                raise TypeError(f"{name}() takes arguments {method.params}")
            body = dict(zip(method.params, args))
            for param, (to_wire, _) in method.wire.items():
                body[param] = to_wire(body[param])
            if method.oneway:
                await endpoint.notify(name, body)
                return None
            return (await endpoint.request(name, body))["result"]

        return call


async def serve(runtime: Any, type_: str, body: dict[str, Any]) -> dict[str, Any]:
    """The envelope's end: run one :data:`API` message as the call of
    ``runtime``'s method of that name, with the body as its arguments."""
    method = API.get(type_)
    if method is None:
        raise RuntimeControlError(f"unknown control request {type_!r}")
    if body.keys() != set(method.params):
        raise RuntimeControlError(
            f"{type_} takes {list(method.params)}, got {sorted(body)}"
        )
    for param, (_, from_wire) in method.wire.items():
        body[param] = from_wire(body[param])
    return {"result": await getattr(runtime, type_)(**body)}

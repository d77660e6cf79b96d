"""Bidirectional RPC connections with version handshake and pipelining.

A connection starts with a handshake: the client sends ``HELLO(codec,
version)``; the server replies ``WELCOME(version)`` only if the deployment
versions (and codec) match, otherwise it closes.  This is where the atomic
rollout guarantee reaches the data plane — a proclet from version A can
never exchange a single application byte with a proclet from version B
(§4.4), which in turn is what makes the tag-free compact format safe (§6).
It is also why there is exactly one way to send: both ends of every
connection run this file at the same version, so no older peer exists to
stay compatible with.

After the handshake, requests are pipelined: many may be in flight, matched
to responses by request id.  The file reads top to bottom along the two
directions a frame travels: ``call`` → enqueue → flusher on the way out,
read loop → dispatch → resolve/serve on the way in.

Writes are *coalesced adaptively*: senders append wire-ready chunks to an
outbox (a synchronous append — no lock, no await) and a single flusher
task gathers everything pending into one ``writelines`` + one ``drain``.
When the connection is idle a lone frame flushes immediately; under load,
frames that arrive while a previous ``drain`` is in flight ride out
together in the next batch — batching scales with pressure instead of a
timer.  A batch is bounded by ``MAX_BATCH_BYTES``.  Senders that get more
than ``SEND_HIGH_WATER`` bytes ahead of the socket wait for the flusher
(backpressure), so a slow peer cannot balloon the outbox.

A connection with *no batching opportunity* — a lone caller ping-ponging
request/response — bypasses the outbox entirely: when recent flush rounds
all carried a single frame and the transport buffer is empty, frames are
written straight through (``writelines``, no flusher hop, no drain).  The
first send that finds bytes already queued in the same loop tick flips
back to the flusher — concurrency *is* the batching opportunity — so the
direct path costs nothing under load and wins back the lone-stream latency
the flusher hop used to tax (the c=1 regression in BENCH_3.json).

Payloads above ``stream_threshold`` travel as a *streaming RPC*; that
protocol lives in :mod:`repro.transport.streaming`, as an object this
connection owns and hands stream frames to.

A served request is exactly one :class:`asyncio.Task` (``_serve_one``):
the read loop looks only at a frame's type byte and hands a ``REQUEST``
over undecoded, so decode, handler and reply run back to back in a Task
the handler sees as ``asyncio.current_task()``.  The connection that
created the Task also enforces the request's wire budget, as one more
entry on the timeout heap (one timer) that bounds this side's outgoing
calls: when it comes due the sweep cancels the Task and ``_serve_one``
answers ``DEADLINE_EXCEEDED``.  Nothing else is allocated per request.

A connection owns three kinds of task — the read loop, the flusher, and
server tasks (one per request being served, plus slow control-frame
sends) — plus one timeout timer, and dies one way:
:meth:`Connection._teardown`, reached from ``close()``, the read loop's
exit and a flusher I/O error alike.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import logging
from heapq import heapify, heappop, heappush
from typing import Awaitable, Callable, Optional

from repro.core.errors import (
    DeadlineExceeded,
    ErrorCode,
    RemoteApplicationError,
    RPCError,
    TransportError,
    Unavailable,
    VersionMismatch,
    error_from_code,
)
from repro.transport import message as msg
from repro.transport.framing import (
    FrameParser,
    frame_chunks,
    new_frame,
    read_frame,
    write_frame,
)
from repro.transport.streaming import (
    STREAM_CHUNK_BYTES,
    STREAM_THRESHOLD,
    STREAM_WINDOW,
    Streams,
)

log = logging.getLogger("repro.transport")

#: Server-side handler: (component_id, method_index, args, (trace_id,
#: parent_span_id), deadline_ms) -> result bytes.  ``deadline_ms`` is the
#: caller's remaining budget (0 = no deadline).  ``args`` may be a
#: zero-copy view into the request frame; the returned buffer may be any
#: bytes-like object and is owned by the connection once returned.
Handler = Callable[[int, int, bytes, tuple[int, int], int], Awaitable[bytes]]

#: Max bytes gathered into a single writelines+drain round.
MAX_BATCH_BYTES = 256 * 1024

#: Outbox bytes beyond which senders wait for the flusher (backpressure).
SEND_HIGH_WATER = 1 << 20

#: Read-side batch size: one read() await can deliver this many bytes'
#: worth of frames a coalescing peer flushed together.
READ_CHUNK = 256 * 1024

#: Consecutive lone-frame flush rounds before direct write-through re-engages.
DIRECT_REENGAGE = 8


class Connection:
    """One established, handshaken connection (either side)."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        handler: Optional[Handler] = None,
        name: str = "conn",
        compress: bool = False,
        stream_threshold: int = STREAM_THRESHOLD,
        stream_chunk: int = STREAM_CHUNK_BYTES,
        stream_window: int = STREAM_WINDOW,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._handler = handler
        self._name = name
        self._compress = compress
        self._req_ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._closed = False
        self._loop_task: Optional[asyncio.Task] = None
        self._flush_task: Optional[asyncio.Task] = None
        self._server_tasks: set[asyncio.Task] = set()
        # Two-lane outbox: stream chunks ride the bulk lane, which the
        # flusher drains only after the normal lane — a small RPC frame
        # never queues behind a megabyte of stream chunks.  Overtaking is
        # protocol-legal (req_ids are multiplexed, and within one stream
        # the chunks stay FIFO in their lane).
        self._outbox: collections.deque = collections.deque()
        self._outbox_bulk: collections.deque = collections.deque()
        self._outbox_bytes = 0
        self._bulk_bytes = 0
        self._wakeup = asyncio.Event()
        self._can_send = asyncio.Event()
        self._can_send.set()
        # Timeouts: a heap of (when, key, ...) tuples behind ONE armed
        # TimerHandle, instead of a loop timer per call.  key > 0 is the
        # req_id of an outgoing call; key <= 0 is minus the req_id of a
        # request served under a budget, and the entry ends with its task.
        # Entries for finished work are dropped lazily at sweep/compact time.
        self._timeouts: list = []
        self._timeout_timer: Optional[asyncio.TimerHandle] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stream_threshold = stream_threshold
        self._stream_chunk = stream_chunk
        self._streams = Streams(self, stream_chunk, stream_window)
        # Direct write-through: on until concurrency is observed, re-armed
        # by the flusher after a streak of lone-frame rounds.
        self._direct = True
        self._lone_flushes = 0
        self._frames_enqueued = 0
        self._frames_flushed = 0
        #: Flush rounds and frames flushed (observability: frames/flush is
        #: the achieved coalescing factor).
        self.flushes = 0
        self.frames_sent = 0
        self.direct_writes = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin the read loop and the flusher (after a successful handshake)."""
        self._loop = asyncio.get_running_loop()
        self._loop_task = asyncio.ensure_future(self._read_loop())
        self._flush_task = asyncio.ensure_future(self._flush_loop())

    @property
    def closed(self) -> bool:
        return self._closed

    async def close(self) -> None:
        self._teardown(Unavailable("connection closed"))
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    def _teardown(self, exc: Exception) -> None:
        """The one way a connection dies; every step is idempotent.

        Stops everything the connection owns (read loop, flusher, server
        tasks, timeout timer), fails what was waiting on it (pending
        calls, streams, back-pressured senders) and closes the socket.
        """
        self._closed = True
        me = asyncio.current_task()
        for task in (self._loop_task, self._flush_task, *self._server_tasks):
            if task is not None and task is not me:
                task.cancel()
        if self._timeout_timer is not None:
            self._timeout_timer.cancel()
            self._timeout_timer = None
        self._timeouts.clear()
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()
        self._streams.abort()
        self._can_send.set()  # wake any sender stuck in backpressure
        try:
            self._writer.close()
        except (ConnectionError, OSError):
            pass

    # -- outbound: call -> enqueue -> flusher ---------------------------------

    async def call(
        self,
        component_id: int,
        method_index: int,
        args: bytes,
        *,
        timeout: Optional[float] = None,
        trace: tuple[int, int] = (0, 0),
        deadline_ms: int = 0,
    ) -> bytes:
        """Issue one request and await its response bytes.

        ``args`` may be any bytes-like object; ownership transfers to the
        connection (do not mutate after the call).  ``deadline_ms`` is the
        remaining end-to-end budget shipped to the server (0 = unlimited);
        ``timeout`` is the local wait bound.
        """
        if self._closed:
            raise Unavailable("connection closed", executed=False)
        req_id = next(self._req_ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[req_id] = future
        streamed = self._stream_threshold and len(args) >= self._stream_threshold
        try:
            if streamed:
                # Armed *before* the upload, so a deadline that expires
                # mid-stream (or between chunks) stops the pump.
                if timeout is not None:
                    self._arm_timeout(timeout, req_id, component_id, method_index)
                await self._streams.upload(
                    req_id, future, component_id, method_index, args, trace, deadline_ms
                )
            else:
                head = new_frame()
                msg.encode_request_prefix(
                    head,
                    req_id,
                    component_id,
                    method_index,
                    trace[0],
                    trace[1],
                    deadline_ms,
                )
                if not self._try_send(head, args):
                    await self._send(head, args)
        except (ConnectionError, OSError, TransportError) as exc:
            self._pending.pop(req_id, None)
            await self.close()
            raise Unavailable(f"send failed: {exc}", executed=False) from exc
        if timeout is not None and not streamed:
            self._arm_timeout(timeout, req_id, component_id, method_index)
        return await future

    async def ping(self, timeout: float = 5.0) -> bool:
        """Health probe: true if the peer answers a PING in time."""
        nonce = next(self._req_ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[-nonce] = future  # negative keys: ping namespace
        try:
            head = new_frame()
            msg.encode_into(head, msg.Ping(nonce))
            await self._send(head)
            await asyncio.wait_for(future, timeout)
            return True
        except (asyncio.TimeoutError, RPCError, TransportError, ConnectionError, OSError):
            return False
        finally:
            self._pending.pop(-nonce, None)

    def _try_send(
        self,
        head: bytearray,
        payload: bytes = b"",
        bulk: bool = False,
        own_tasks: int = 0,
    ) -> bool:
        """Synchronous send fast path; False means take ``_send``.

        Avoids a coroutine per frame on the hot path — enqueueing is pure
        bookkeeping unless the outbox is over the high-water mark (or the
        connection is closed), in which case the caller falls back to the
        awaitable slow path.

        When the connection is *lone* — no other call in flight, no server
        task other than the sender (``own_tasks=1``: the caller is one),
        nothing queued anywhere — the frame skips the outbox and goes
        straight to the transport (no flusher hop, no drain round-trip).
        The first send that observes company flips ``_direct`` off so the
        flusher can batch; a streak of lone-frame flushes flips it back on.
        """
        if self._closed:
            return False
        if self._direct and not self._outbox and not self._outbox_bulk:
            if (
                len(self._pending) <= 1
                and len(self._server_tasks) == own_tasks
                and self._writer.transport.get_write_buffer_size() == 0
            ):
                self._writer.writelines(
                    frame_chunks(head, payload, compress=self._compress)
                )
                self.frames_sent += 1
                self.direct_writes += 1
                return True
            self._direct = False  # company observed: batching will pay now
        if self._pressure(bulk) >= SEND_HIGH_WATER:
            return False
        self._enqueue(head, payload, bulk)
        return True

    async def _send(
        self, head: bytearray, payload: bytes = b"", bulk: bool = False
    ) -> None:
        """Ship one frame (``head`` from ``new_frame()`` plus a body
        chunk): wait until the outbox is below high water, then enqueue."""
        while not self._closed and self._pressure(bulk) >= SEND_HIGH_WATER:
            self._can_send.clear()
            await self._can_send.wait()
        if self._closed:
            raise TransportError("connection closed")
        self._enqueue(head, payload, bulk)

    def _pressure(self, bulk: bool) -> int:
        """Queued bytes a new frame on this lane must wait behind.

        Backpressure differs by lane: bulk yields when *total* queued
        bytes cross the high-water mark, while normal frames only yield
        when the normal lane alone is saturated — queued stream chunks
        must not be able to park a small RPC behind the flusher.
        """
        return self._outbox_bytes if bulk else self._outbox_bytes - self._bulk_bytes

    def _enqueue(self, head: bytearray, payload: bytes, bulk: bool) -> None:
        """Append one frame to its lane (order is enqueue order) and wake
        the flusher.  ``bulk`` is the low-priority lane."""
        lane = self._outbox_bulk if bulk else self._outbox
        for chunk in frame_chunks(head, payload, compress=self._compress):
            lane.append(chunk)
            self._outbox_bytes += len(chunk)
            if bulk:
                self._bulk_bytes += len(chunk)
        self.frames_sent += 1
        self._frames_enqueued += 1
        self._wakeup.set()

    def _post(self, m: msg.Message) -> None:
        """Best-effort synchronous control-frame send (credits, cancels,
        PONG, door-step rejections).

        Falls back to a fire-and-forget task when the outbox is
        saturated; failures are swallowed — control frames are advisory
        and the read loop owns teardown.
        """
        if self._closed:
            return
        head = new_frame()
        msg.encode_into(head, m)
        try:
            if not self._try_send(head):
                self._track(asyncio.ensure_future(self._post_slow(head)))
        except (ConnectionError, OSError, TransportError):
            pass

    async def _post_slow(self, head: bytearray) -> None:
        try:
            await self._send(head)
        except (ConnectionError, OSError, TransportError):
            pass

    def _track(self, task: asyncio.Task) -> None:
        self._server_tasks.add(task)
        task.add_done_callback(self._server_tasks.discard)

    async def _flush_loop(self) -> None:
        """The one task that touches the socket's write side.

        Everything pending at flush time leaves in a single ``writelines``
        followed by a single ``drain`` — under concurrency, dozens of
        frames share one syscall and one buffer-flush round instead of
        serializing behind per-frame drains.
        """
        try:
            while True:
                if not self._outbox and not self._outbox_bulk:
                    self._wakeup.clear()
                    await self._wakeup.wait()
                batch = []
                size = 0
                outbox = self._outbox
                bulk_lane = self._outbox_bulk
                # Normal lane first; stream chunks only top up the batch.
                while outbox and size < MAX_BATCH_BYTES:
                    chunk = outbox.popleft()
                    batch.append(chunk)
                    size += len(chunk)
                # At most one stream chunk per round: every drain round is
                # a slot where queued small frames overtake the bulk flow,
                # so the kernel never holds more than ~one chunk of bulk
                # ahead of them.
                bulk_size = 0
                while (
                    bulk_lane
                    and size < MAX_BATCH_BYTES
                    and bulk_size <= self._stream_chunk
                ):
                    chunk = bulk_lane.popleft()
                    batch.append(chunk)
                    size += len(chunk)
                    bulk_size += len(chunk)
                    self._bulk_bytes -= len(chunk)
                self._outbox_bytes -= size
                if not self._can_send.is_set():
                    # Waiters re-check their own lane's pressure; just wake.
                    self._can_send.set()
                self.flushes += 1
                self._writer.writelines(batch)
                if outbox or bulk_lane:
                    self._lone_flushes = 0  # partial batch: real load
                else:
                    frames = self._frames_enqueued - self._frames_flushed
                    self._frames_flushed = self._frames_enqueued
                    if frames <= 1:
                        self._lone_flushes += 1
                        if self._lone_flushes >= DIRECT_REENGAGE:
                            # Traffic has turned lone: skip the flusher hop
                            # until concurrency shows up again.
                            self._direct = True
                            self._lone_flushes = 0
                    else:
                        self._lone_flushes = 0
                await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            if not self._closed:
                log.debug("%s: flush loop ended: %s", self._name, exc)
            self._teardown(Unavailable("connection lost"))

    # -- timeouts: outgoing calls and served requests' budgets --------------------

    def _arm_timeout(self, timeout: float, key: int, *what) -> float:
        """Put ``(when, key, timeout, *what)`` on the heap; returns ``when``."""
        # One shared timer per connection beats wait_for (a wrapper task
        # per call) and call_later (a TimerHandle per call): registering a
        # timeout is a tuple push onto a heap, and the single armed timer
        # sweeps everything due when it fires.
        loop = self._loop
        when = loop.time() + timeout
        heappush(self._timeouts, (when, key, timeout, *what))
        timer = self._timeout_timer
        if timer is None:
            self._timeout_timer = loop.call_at(when, self._sweep_timeouts)
        elif when < timer.when():
            timer.cancel()
            self._timeout_timer = loop.call_at(when, self._sweep_timeouts)
        if len(self._timeouts) > 64 and len(self._timeouts) > 4 * (
            len(self._pending) + len(self._server_tasks)
        ):
            self._compact_timeouts()
        return when

    def _sweep_timeouts(self) -> None:
        """Fail every pending call, and cancel every served request, whose
        time is up; rearm."""
        self._timeout_timer = None
        heap = self._timeouts
        now = self._loop.time()
        while heap and heap[0][0] <= now:
            entry = heappop(heap)
            key = entry[1]
            if key <= 0:
                entry[3].cancel()  # no-op on a finished task; see _serve_one
                continue
            future = self._pending.get(key)
            if future is None or future.done():
                continue  # completed long ago; entry was lazily retained
            del self._pending[key]
            _, _, timeout, component_id, method_index = entry
            future.set_exception(
                DeadlineExceeded(
                    f"call to component {component_id} method {method_index} "
                    f"timed out after {timeout}s"
                )
            )
            self._streams.call_timed_out(key)
        if heap:
            self._timeout_timer = self._loop.call_at(heap[0][0], self._sweep_timeouts)

    def _compact_timeouts(self) -> None:
        """Drop heap entries for calls and served requests already finished."""
        pending = self._pending
        self._timeouts = [
            e for e in self._timeouts
            if (e[1] in pending if e[1] > 0 else not e[3].done())
        ]
        heapify(self._timeouts)

    # -- inbound: read loop -> dispatch -> resolve / serve ----------------------

    async def _read_loop(self) -> None:
        try:
            parser = FrameParser()
            reader = self._reader
            while True:
                chunk = await reader.read(READ_CHUNK)
                if not chunk:
                    raise TransportError(
                        "connection closed mid-frame"
                        if parser.mid_frame
                        else "connection closed"
                    )
                frames = parser.feed(chunk)
                if len(frames) > 1 and self._direct:
                    # The peer is coalescing — our replies will have
                    # company too; stop skipping the flusher.
                    self._direct = False
                    self._lone_flushes = 0
                for frame in frames:
                    if frame and frame[0] == msg.REQUEST:
                        # Undecoded: the serving task decodes right before
                        # it runs the handler.
                        self._spawn_server_task(frame)
                    else:
                        self._dispatch(msg.decode(frame))
        except (TransportError, ConnectionError, OSError) as exc:
            if not self._closed:
                log.debug("%s: read loop ended: %s", self._name, exc)
        finally:
            self._teardown(Unavailable("connection lost"))

    def _dispatch(self, m: object) -> None:
        if isinstance(m, msg.Response):
            self._resolve(m.req_id, m.result, None)
        elif isinstance(m, msg.AppError):
            self._resolve(
                m.req_id, None, RemoteApplicationError(m.exc_type, m.message)
            )
        elif isinstance(m, msg.RpcError):
            self._resolve(
                m.req_id,
                None,
                error_from_code(m.code, m.message, executed=m.executed),
            )
        elif isinstance(m, msg.Ping):
            self._post(msg.Pong(m.nonce))
        elif isinstance(m, msg.Pong):
            self._resolve(-m.nonce, b"", None)
        elif not self._streams.on_frame(m):
            log.warning("%s: unexpected message %r", self._name, m)

    def _resolve(self, req_id: int, result: Optional[bytes], exc: Optional[Exception]) -> None:
        future = self._pending.pop(req_id, None)
        if future is None or future.done():
            return
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(result)

    def _spawn_server_task(self, request: "bytes | msg.Request") -> None:
        """One Task per request: an undecoded REQUEST frame from the read
        loop, or a :class:`~msg.Request` that streaming reassembled."""
        self._track(self._loop.create_task(self._serve_one(request)))

    async def _serve_one(self, request: "bytes | msg.Request") -> None:
        if type(request) is not msg.Request:
            try:
                request = msg.decode(request)
            except TransportError as exc:
                log.debug("%s: malformed request: %s", self._name, exc)
                self._teardown(Unavailable("connection lost"))
                return
        req_id = request.req_id
        if self._handler is None:
            self._post(
                msg.RpcError(
                    req_id, int(ErrorCode.INTERNAL), "peer does not serve requests", False
                )
            )
            return
        deadline_ms = request.deadline_ms
        cut_at = 0.0
        if deadline_ms > 0:
            # The caller's budget, enforced here because this connection
            # owns the task: the sweep cancels it when the budget is spent.
            cut_at = self._arm_timeout(
                deadline_ms / 1000.0, -req_id, asyncio.current_task()
            )
        head = new_frame()
        payload: bytes = b""
        try:
            result = await self._handler(
                request.component_id,
                request.method_index,
                request.args,
                (request.trace_id, request.parent_span_id),
                deadline_ms,
            )
            if self._stream_threshold and len(result) >= self._stream_threshold:
                try:
                    await self._streams.respond(req_id, result)
                except (ConnectionError, OSError, TransportError):
                    pass  # peer is gone; read loop will tear down
                return
            msg.encode_response_prefix(head, req_id)
            payload = result
        except (RPCError, asyncio.CancelledError) as exc:
            if isinstance(exc, asyncio.CancelledError):
                # Only the sweep's cancel becomes a reply; teardown's (or a
                # stranger's, before the budget is spent) stays a cancellation.
                if self._closed or not cut_at or self._loop.time() < cut_at:
                    raise
                exc = DeadlineExceeded(
                    f"component {request.component_id} method {request.method_index} "
                    f"exceeded its caller's {deadline_ms}ms budget"
                )
            msg.encode_into(
                head, msg.RpcError(req_id, int(exc.code), str(exc), exc.executed)
            )
        except Exception as exc:  # application exception: ship type + message
            msg.encode_into(head, msg.AppError(req_id, type(exc).__name__, str(exc)))
        try:
            if not self._try_send(head, payload, own_tasks=1):
                await self._send(head, payload)
        except (ConnectionError, OSError, TransportError):
            pass  # peer is gone; read loop will tear down


async def client_handshake(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    *,
    codec: str,
    version: str,
) -> None:
    """Send HELLO, await WELCOME, verify versions match."""
    await write_frame(writer, msg.encode(msg.Hello(codec, version)))
    reply = msg.decode(await read_frame(reader))
    if not isinstance(reply, msg.Welcome):
        raise TransportError(f"handshake failed: expected WELCOME, got {reply!r}")
    if reply.version != version or reply.codec != codec:
        raise VersionMismatch(
            f"peer runs deployment version {reply.version} codec "
            f"{reply.codec!r}, we run {version} codec {codec!r}; "
            "cross-version communication is forbidden (atomic rollouts)"
        )


async def server_handshake(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    *,
    codec: str,
    version: str,
) -> None:
    """Await HELLO, verify codec+version, reply WELCOME (or close)."""
    hello = msg.decode(await read_frame(reader))
    if not isinstance(hello, msg.Hello):
        raise TransportError(f"handshake failed: expected HELLO, got {hello!r}")
    if hello.version != version or hello.codec != codec:
        # Announce our version so the client can raise a precise error,
        # then close: no application data crosses the version boundary.
        await write_frame(writer, msg.encode(msg.Welcome(codec, version)))
        writer.close()
        raise VersionMismatch(
            f"client at version {hello.version} codec {hello.codec!r}, "
            f"we are {version} codec {codec!r}"
        )
    await write_frame(writer, msg.encode(msg.Welcome(codec, version)))

"""Bidirectional RPC connections with version handshake and pipelining.

A connection starts with a handshake: the client sends ``HELLO(codec,
version)``; the server replies ``WELCOME(version)`` only if the deployment
versions (and codec) match, otherwise it closes.  This is where the atomic
rollout guarantee reaches the data plane — a proclet from version A can
never exchange a single application byte with a proclet from version B
(§4.4), which in turn is what makes the tag-free compact format safe (§6).
It is also why there is exactly one way to send: both ends of every
connection run this file at the same version, so no older peer exists to
stay compatible with.  The handshake frame is capped at ``MAX_HANDSHAKE``
bytes, so a peer that has not shown its version cannot make us buffer
``MAX_FRAME``.

After the handshake, requests are pipelined: many may be in flight, matched
to responses by request id.  A :class:`Connection` is its socket's
:class:`asyncio.BufferedProtocol` from connect to close and owns no task
of its own.  The file reads top to bottom along the two directions a frame
travels: ``call`` → enqueue → flush on the way out; on the way in,
``buffer_updated`` handles every frame one socket read delivered right in
the transport's callback — a reply resolves its call's future, a request
becomes a server task, a control frame is answered.

The transport reads with ``recv_into`` straight into memory the runtime
owns: one ``READ_BUFFER_BYTES`` buffer per event loop, lent to every
connection on that loop, so a proclet — one event loop — holds one however
many peers it serves and dials, and so does a whole ``inproc`` deployment.
The plain :class:`asyncio.Protocol` read path asks the socket for a fresh
256 KiB ``bytes`` per read instead, which costs an mmap/munmap pair or a
heap trim for a 20-byte frame, depending on the allocator's state.
Sharing is safe because of one invariant: **nothing produced by a read
aliases the lent buffer once** ``buffer_updated`` **returns**.  The
handshake copies into ``_greeting``; ``FrameParser.feed`` copies each
completed frame out as ``bytes`` and keeps a partial tail in its own
buffer; and nothing the callback does re-enters another connection's read
— futures, ``create_task`` and ``connection_lost`` are scheduled, not run
inline.  Both hold per loop, whichever end created the connection.

Writes are *coalesced adaptively*: senders append wire-ready chunks to an
outbox (a synchronous append — no lock, no await), and the first append in
a loop iteration schedules one flush callback, which hands everything then
pending to the transport in one ``writelines`` — batching scales with
pressure instead of a timer, bounded by ``MAX_BATCH_BYTES`` per round.
The transport pauses the flush while its own buffer is above its
high-water mark (``pause_writing``/``resume_writing``), and senders more
than ``SEND_HIGH_WATER`` bytes ahead of the socket wait (backpressure), so
a slow peer cannot balloon the outbox.

A connection with *no batching opportunity* — a lone caller ping-ponging
request/response — bypasses the outbox entirely: when recent flush rounds
all carried a single frame and the transport buffer is empty, frames are
written straight through.  The first send that finds company flips back to
the flush — concurrency *is* the batching opportunity — so the direct path
costs nothing under load and spares a lone caller the flush hop.

Every call is one REQUEST frame and one reply frame.  A request payload
of ``BULK_BYTES`` or more goes out on the peer's *bulk* connection
instead: a second socket the pool dials on the first large call (the
``sibling`` callable), so the kernel keeps a megabyte frame from
holding up the small frames on this one.  A
connection built without ``sibling`` — an accepted one, a hand-built
pair, the bulk connection itself — sends everything itself.  A payload
that does not fit in ``MAX_FRAME`` is refused before it is queued, with
``INTERNAL``: a request with ``executed=False``, a reply (the handler
ran) with ``executed=True``.  The connection stays up for its other calls.

A served request is exactly one :class:`asyncio.Task` (``_serve_one``):
``buffer_updated`` looks only at a frame's type byte and hands a ``REQUEST``
over undecoded, so decode, handler and reply run back to back in a Task
the handler sees as ``asyncio.current_task()``.  The connection that
created the Task also enforces the request's wire budget, as one more
entry on the timeout heap (one timer) that bounds this side's outgoing
calls: when it comes due the sweep cancels the Task and ``_serve_one``
answers ``DEADLINE_EXCEEDED``; the Task drops itself from its entry when
it ends.  Nothing else is allocated per request.

A connection owns its server tasks (one per request being served, plus
slow control-frame sends), one flush callback and one timeout timer, and
dies one way: the transport's ``connection_lost`` calls
:meth:`Connection._teardown`.  ``close()``, a peer hang-up, a write error
and a protocol violation all end there.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import logging
import weakref
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
from repro.transport import framing
from repro.transport import message as msg
from repro.transport.framing import HEADER, FrameParser, frame_chunks, new_frame, take_frame

log = logging.getLogger("repro.transport")

#: Server-side handler: (component_id, method_index, args, (trace_id,
#: parent_span_id), deadline_ms) -> result bytes.  ``deadline_ms`` is the
#: caller's remaining budget (0 = no deadline).  ``args`` may be a
#: zero-copy view into the request frame; the returned buffer may be any
#: bytes-like object and is owned by the connection once returned.
Handler = Callable[[int, int, bytes, tuple[int, int], int], Awaitable[bytes]]

#: Request payloads of at least this many bytes go out on the peer's bulk
#: connection, never on the one small calls share.
BULK_BYTES = 1 << 20

#: Max bytes gathered into a single writelines round.
MAX_BATCH_BYTES = 256 * 1024

#: Outbox bytes beyond which senders wait for the flush (backpressure).
SEND_HIGH_WATER = 1 << 20

#: Consecutive lone-frame flush rounds before direct write-through re-engages.
DIRECT_REENGAGE = 8

#: Cap on the one handshake frame each way, checked before the version is:
#: a HELLO or WELCOME is at most 1 + 2 × (1 + 255) bytes.
MAX_HANDSHAKE = 513

#: Size of the buffer socket reads land in.  A whole batch of coalesced
#: small frames, or a 12 KB page, fits in one read; a larger frame spans
#: several, which the parser stages.
READ_BUFFER_BYTES = 64 * 1024

#: Each event loop's one read buffer, lent to every connection on it.
_READ_BUFFERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def loop_read_buffer(loop: asyncio.AbstractEventLoop) -> bytearray:
    """The buffer every connection on ``loop`` reads into."""
    buf = _READ_BUFFERS.get(loop)
    if buf is None:
        buf = _READ_BUFFERS[loop] = bytearray(READ_BUFFER_BYTES)
    return buf


class Connection(asyncio.BufferedProtocol):
    """One connection (either end), from connect to close.

    The dialing end passes no ``on_ready``: it sends HELLO once connected
    and resolves :attr:`ready` when the peer's WELCOME checks out.  The
    accepting end passes ``on_ready``, called with the connection once the
    peer's HELLO checked out and WELCOME is on its way.  ``sibling``, if
    given, returns the live bulk connection to the same peer (dialing it
    if needed); :meth:`call` sends a ``BULK_BYTES`` payload through it.

    Socket reads land in :func:`loop_read_buffer`, shared with every other
    connection on the loop.  No object a read produces aliases it once
    :meth:`buffer_updated` returns.
    """

    def __init__(
        self,
        *,
        codec: str,
        version: str,
        handler: Optional[Handler] = None,
        on_ready: Optional[Callable[["Connection"], None]] = None,
        name: str = "conn",
        compress: bool = False,
        sibling: Optional[Callable[[], Awaitable["Connection"]]] = None,
    ) -> None:
        self._codec = codec
        self._version = version
        self._handler = handler
        self._on_ready = on_ready
        self._name = name
        self._compress = compress
        self._sibling = sibling
        self._loop = asyncio.get_running_loop()
        self._transport: Optional[asyncio.Transport] = None
        #: The dialing end's handshake: resolved by WELCOME, failed by a
        #: refusal or a hang-up.  None on the accepting end.
        self.ready: Optional[asyncio.Future] = (
            None if on_ready is not None else self._loop.create_future()
        )
        self._lost = self._loop.create_future()  # done once torn down
        self._greeting: Optional[bytearray] = bytearray()  # None once handshaken
        self._read_buffer = memoryview(loop_read_buffer(self._loop))
        self._parser = FrameParser()
        self._req_ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._closed = False
        self._server_tasks: set[asyncio.Task] = set()
        self._outbox: collections.deque = collections.deque()
        self._outbox_bytes = 0
        self._flush_handle: Optional[asyncio.Handle] = None
        self._paused = False  # the transport's buffer is above its high water
        self._can_send = asyncio.Event()
        self._can_send.set()
        # Timeouts: a heap of [when, key, ...] entries behind ONE armed
        # TimerHandle, instead of a loop timer per call.  key > 0 is the
        # req_id of an outgoing call; key <= 0 is minus the req_id of a
        # request served under a budget, whose task it holds until the task
        # ends.  Entries for finished work are dropped lazily at sweep/compact time.
        self._timeouts: list = []
        self._timeout_timer: Optional[asyncio.TimerHandle] = None
        # Direct write-through: on until concurrency is observed, re-armed
        # by the flush after a streak of lone-frame rounds.
        self._direct = True
        self._lone_flushes = 0
        self._unflushed_frames = 0  # enqueued since the outbox was last empty
        #: Flush rounds and frames flushed (observability: frames/flush is
        #: the achieved coalescing factor).
        self.flushes = 0
        self.frames_sent = 0
        self.direct_writes = 0

    # -- lifecycle: the transport's callbacks and close ---------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        if self.ready is not None:
            self._write_greeting(msg.Hello(self._codec, self._version))

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if not self._closed:
            log.debug("%s: connection lost: %s", self._name, exc or "peer closed")
        self._teardown(Unavailable("connection lost"))
        self._lost.set_result(None)

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        if self._flush_handle is None and self._outbox:
            self._flush_handle = self._loop.call_soon(self._flush)

    @property
    def closed(self) -> bool:
        return self._closed

    async def close(self) -> None:
        """Close gracefully — frames already queued still go out — and
        return once the connection is torn down."""
        if not self._closed:
            self._closed = True
            self._flush()
            self._transport.close()
        await self._lost

    def _abort(self, exc: Exception) -> None:
        """Drop the connection over a protocol violation."""
        log.debug("%s: %s", self._name, exc)
        self._closed = True
        self._transport.abort()

    def _teardown(self, exc: Exception) -> None:
        """The one way a connection dies, called by ``connection_lost``.

        Stops everything the connection owns (server tasks, the flush
        callback, the timeout timer) and fails what was waiting on it (the
        handshake, pending calls, back-pressured senders).
        """
        self._closed = True
        for task in self._server_tasks:
            task.cancel()
        # A task cancelled before its first step never runs the ``finally``
        # that removes it from the set.
        self._server_tasks.clear()
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        if self._timeout_timer is not None:
            self._timeout_timer.cancel()
            self._timeout_timer = None
        self._timeouts.clear()
        if self.ready is not None and not self.ready.done():
            self.ready.set_exception(exc)
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()
        self._can_send.set()  # wake any sender stuck in backpressure

    # -- outbound: call -> enqueue -> flush -------------------------------------

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
        ``timeout`` is the local wait bound.  A payload of ``BULK_BYTES``
        or more goes through the bulk connection, if this one has a
        ``sibling``.
        """
        if self._closed:
            raise Unavailable("connection closed", executed=False)
        if len(args) >= BULK_BYTES and self._sibling is not None:
            bulk = await self._sibling()
            return await bulk.call(
                component_id,
                method_index,
                args,
                timeout=timeout,
                trace=trace,
                deadline_ms=deadline_ms,
            )
        req_id = next(self._req_ids)
        head = new_frame()
        msg.encode_request_prefix(
            head,
            req_id,
            component_id,
            method_index,
            trace,
            deadline_ms,
        )
        if len(head) - HEADER + len(args) > framing.MAX_FRAME:
            # Refused before anything is queued: the connection, and
            # every call sharing it, is unharmed.
            raise RPCError(
                f"request of {len(args)} bytes exceeds MAX_FRAME",
                code=ErrorCode.INTERNAL,
                executed=False,
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[req_id] = future
        try:
            if not self._try_send(head, args):
                await self._send(head, args)
        except (ConnectionError, OSError, TransportError) as exc:
            self._pending.pop(req_id, None)
            await self.close()
            raise Unavailable(f"send failed: {exc}", executed=False) from exc
        if timeout is not None:
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

    def _try_send(self, head: bytearray, payload: bytes = b"", own_tasks: int = 0) -> bool:
        """Synchronous send fast path; False means take ``_send``.

        Avoids a coroutine per frame on the hot path — enqueueing is pure
        bookkeeping unless the outbox is over the high-water mark (or the
        connection is closed), in which case the caller falls back to the
        awaitable slow path.

        When the connection is *lone* — no other call in flight, no server
        task other than the sender (``own_tasks=1``: the caller is one),
        nothing queued anywhere — the frame skips the outbox and goes
        straight to the transport (no flush callback).  The first send
        that observes company flips ``_direct`` off so the flush can batch;
        a streak of lone-frame flushes flips it back on.
        """
        if self._closed:
            return False
        if self._direct and not self._outbox:
            if (
                len(self._pending) <= 1
                and len(self._server_tasks) == own_tasks
                and self._transport.get_write_buffer_size() == 0
            ):
                self._transport.writelines(
                    frame_chunks(head, payload, compress=self._compress)
                )
                self.frames_sent += 1
                self.direct_writes += 1
                return True
            self._direct = False  # company observed: batching will pay now
        if self._outbox_bytes >= SEND_HIGH_WATER:
            return False
        self._enqueue(head, payload)
        return True

    async def _send(self, head: bytearray, payload: bytes = b"") -> None:
        """Ship one frame (``head`` from ``new_frame()`` plus a body
        chunk): wait until the outbox is below high water, then enqueue."""
        while not self._closed and self._outbox_bytes >= SEND_HIGH_WATER:
            self._can_send.clear()
            await self._can_send.wait()
        if self._closed:
            raise TransportError("connection closed")
        self._enqueue(head, payload)

    def _enqueue(self, head: bytearray, payload: bytes) -> None:
        """Append one frame to the outbox and make sure a flush is
        scheduled."""
        outbox = self._outbox
        for chunk in frame_chunks(head, payload, compress=self._compress):
            outbox.append(chunk)
            self._outbox_bytes += len(chunk)
        self.frames_sent += 1
        self._unflushed_frames += 1
        if self._flush_handle is None and not self._paused:
            self._flush_handle = self._loop.call_soon(self._flush)

    def _post(self, m: msg.Message) -> None:
        """Best-effort synchronous control-frame send (PONG, door-step
        rejections).

        Falls back to a fire-and-forget task when the outbox is
        saturated; failures are swallowed — control frames are advisory
        and ``connection_lost`` owns teardown.
        """
        if self._closed:
            return
        head = new_frame()
        msg.encode_into(head, m)
        try:
            if not self._try_send(head):
                self._server_tasks.add(self._loop.create_task(self._post_slow(head)))
        except (ConnectionError, OSError, TransportError):
            pass

    async def _post_slow(self, head: bytearray) -> None:
        try:
            await self._send(head)
        except (ConnectionError, OSError, TransportError):
            pass
        finally:
            self._server_tasks.discard(asyncio.current_task())

    def _flush(self) -> None:
        """Hand the outbox to the transport, one ``writelines`` per round,
        until it is empty or the transport pauses us.

        The first enqueue of a loop iteration schedules this, so every
        frame enqueued in that iteration leaves in the same round — under
        concurrency, dozens of frames share one syscall.
        """
        self._flush_handle = None
        outbox = self._outbox
        while outbox and not self._paused:
            batch = []
            size = 0
            while outbox and size < MAX_BATCH_BYTES:
                chunk = outbox.popleft()
                batch.append(chunk)
                size += len(chunk)
            self._outbox_bytes -= size
            if not self._can_send.is_set():
                # Waiters re-check the high-water mark; just wake.
                self._can_send.set()
            self.flushes += 1
            self._transport.writelines(batch)
            if outbox:
                self._lone_flushes = 0  # partial batch: real load
                continue
            frames, self._unflushed_frames = self._unflushed_frames, 0
            if frames <= 1:
                self._lone_flushes += 1
                if self._lone_flushes >= DIRECT_REENGAGE:
                    # Traffic has turned lone: skip the flush hop until
                    # concurrency shows up again.
                    self._direct = True
                    self._lone_flushes = 0
            else:
                self._lone_flushes = 0

    def _write_greeting(self, m: msg.Message) -> None:
        head = new_frame()
        msg.encode_into(head, m)
        self._transport.writelines(frame_chunks(head))

    # -- timeouts: outgoing calls and served requests' budgets --------------------

    def _arm_timeout(self, timeout: float, key: int, *what) -> list:
        """Put ``[when, key, timeout, *what]`` on the heap and return it."""
        # One shared timer per connection beats wait_for (a wrapper task
        # per call) and call_later (a TimerHandle per call): registering a
        # timeout is a list push onto a heap, and the single armed timer
        # sweeps everything due when it fires.
        loop = self._loop
        when = loop.time() + timeout
        heappush(self._timeouts, entry := [when, key, timeout, *what])
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
        return entry

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
                if entry[3] is not None:  # None: the request has ended
                    entry[3].cancel()
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
        if heap:
            self._timeout_timer = self._loop.call_at(heap[0][0], self._sweep_timeouts)

    def _compact_timeouts(self) -> None:
        """Drop heap entries for calls and served requests already finished."""
        pending = self._pending
        self._timeouts = [
            e for e in self._timeouts
            if (e[1] in pending if e[1] > 0 else e[3] is not None)
        ]
        heapify(self._timeouts)

    # -- inbound: buffer_updated -> dispatch -> resolve / serve ------------------

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        data = self._read_buffer[:nbytes]
        if self._greeting is not None:
            data = self._greet(data)
            if not data:
                return
        try:
            frames = self._parser.feed(data)
            if len(frames) > 1 and self._direct:
                # The peer is coalescing — our replies will have company
                # too; stop writing through.
                self._direct = False
                self._lone_flushes = 0
            for frame in frames:
                if frame and frame[0] == msg.REQUEST:
                    # Undecoded: the serving task decodes right before it
                    # runs the handler.
                    self._server_tasks.add(self._loop.create_task(self._serve_one(frame)))
                else:
                    self._dispatch(msg.decode(frame))
        except TransportError as exc:
            self._abort(exc)

    def _greet(self, data: memoryview) -> bytes:
        """Absorb the handshake frame — HELLO on the accepting end, WELCOME
        on the dialing end — and return the bytes after it, which belong
        to the data plane.  A refused handshake closes the connection."""
        buf = self._greeting
        buf += data
        dialer = self.ready is not None
        try:
            frame = take_frame(buf, MAX_HANDSHAKE)
            if frame is None:
                return b""
            self._greeting = None
            peer = msg.decode(frame)
            expected = msg.Welcome if dialer else msg.Hello
            if type(peer) is not expected:
                raise TransportError(
                    f"handshake failed: expected {expected.__name__.upper()}, got {peer!r}"
                )
            if not dialer:
                # Announce our version even when refusing, so the dialer
                # can raise a precise error; then close: no application
                # data crosses the version boundary.
                self._write_greeting(msg.Welcome(self._codec, self._version))
            if peer.version != self._version or peer.codec != self._codec:
                raise VersionMismatch(
                    f"peer runs deployment version {peer.version} codec "
                    f"{peer.codec!r}, we run {self._version} codec {self._codec!r}; "
                    "cross-version communication is forbidden (atomic rollouts)"
                )
        except (TransportError, VersionMismatch) as exc:
            if dialer and not self.ready.done():
                self.ready.set_exception(exc)
            if not dialer and isinstance(exc, VersionMismatch):
                log.warning("rejected cross-version connection: %s", exc)
            else:
                log.debug("%s: handshake failed: %s", self._name, exc)
            self._closed = True
            self._transport.close()
            return b""
        if not dialer:
            self._on_ready(self)
        elif not self.ready.done():
            self.ready.set_result(None)
        return bytes(buf)

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
        else:
            log.warning("%s: unexpected message %r", self._name, m)

    def _resolve(self, req_id: int, result: Optional[bytes], exc: Optional[Exception]) -> None:
        future = self._pending.pop(req_id, None)
        if future is None or future.done():
            return
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(result)

    async def _serve_one(self, frame: bytes) -> None:
        """Serve one REQUEST frame off the wire: decode, run the handler,
        reply."""
        task = asyncio.current_task()
        budget = None  # the request's timeout-heap entry
        try:
            try:
                request = msg.decode(frame)
            except TransportError as exc:
                self._abort(exc)
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
            if deadline_ms > 0:
                # The caller's budget, enforced here because this connection
                # owns the task: the sweep cancels it when the budget is spent.
                budget = self._arm_timeout(deadline_ms / 1000.0, -req_id, task)
            payload: bytes = b""
            try:
                result = await self._handler(
                    request.component_id,
                    request.method_index,
                    request.args,
                    (request.trace_id, request.parent_span_id),
                    deadline_ms,
                )
                head = new_frame()
                msg.encode_response_prefix(head, req_id)
                if len(head) - HEADER + len(result) > framing.MAX_FRAME:
                    # Answered, not dropped: the caller must not wait out
                    # its budget for a reply that can never be sent.
                    raise RPCError(
                        f"reply of {len(result)} bytes exceeds MAX_FRAME",
                        code=ErrorCode.INTERNAL,
                    )
                payload = result
            except (RPCError, asyncio.CancelledError) as exc:
                if isinstance(exc, asyncio.CancelledError):
                    # Only the sweep's cancel becomes a reply; teardown's (or a
                    # stranger's, before the budget is spent) stays a cancellation.
                    if self._closed or budget is None or self._loop.time() < budget[0]:
                        raise
                    exc = DeadlineExceeded(
                        f"component {request.component_id} method {request.method_index} "
                        f"exceeded its caller's {deadline_ms}ms budget"
                    )
                head = new_frame()
                msg.encode_into(
                    head, msg.RpcError(req_id, int(exc.code), _text(exc), exc.executed)
                )
            except Exception as exc:  # application exception: ship type + message
                head = new_frame()
                msg.encode_into(head, msg.AppError(req_id, type(exc).__name__, _text(exc)))
            try:
                if not self._try_send(head, payload, own_tasks=1):
                    await self._send(head, payload)
            except (ConnectionError, OSError, TransportError):
                pass  # peer is gone; connection_lost tears down
        finally:
            self._server_tasks.discard(task)
            if budget is not None:
                budget[3] = None  # the heap must not keep a finished task


def _text(exc: BaseException) -> str:
    """``str(exc)`` for a reply; an exception whose ``__str__`` raises still
    gets answered."""
    try:
        return str(exc)
    except Exception:
        return f"<unprintable {type(exc).__name__}>"

"""Streaming RPC: payloads too big for one frame, as credit-gated chunks.

A request or result at or above the connection's ``stream_threshold``
travels as an OPEN (or RESP) frame followed by chunks of ``stream_chunk``
bytes, so it never monopolizes a flush batch (small RPCs interleave
between chunks) and may exceed ``MAX_FRAME``.  The receiver grants credit
as it consumes; either side can cancel mid-stream; a deadline that expires
between chunks fails the call without the rest of the payload ever being
sent.  Wire layouts are in :mod:`repro.transport.message`.

A :class:`Streams` object is owned by one
:class:`~repro.transport.connection.Connection`, which hands it every
stream frame it reads and otherwise stays out of the way.  Of its
connection it uses only: ``_try_send``/``_send`` (enqueue a frame),
``_post`` (best-effort control frame), ``_pending``/``_resolve`` (the call
a response stream completes), ``_handler`` (does this side serve at all)
and ``_spawn_server_task`` (run a reassembled request).

**Credit-window invariant.**  Both peers must agree on the window: the
transmitter seeds its pump with *its own* window while the receiver
re-grants after consuming *its* window/2, so a transmitter window below
the receiver's grant threshold would park the pump forever.  The window is
therefore a protocol constant, not a per-connection tunable.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Optional

from repro.core.errors import ErrorCode, error_from_code
from repro.transport import message as msg
from repro.transport.framing import new_frame

if TYPE_CHECKING:
    from repro.transport.connection import Connection

#: Payloads at or above this size travel as a streaming RPC (0 disables).
STREAM_THRESHOLD = 1 << 20

#: Payload bytes per STREAM_CHUNK frame.  64 KiB is the sweet spot on
#: loopback: larger chunks gain no throughput but each queued chunk is
#: head-of-line latency for small RPCs sharing the connection (once a
#: chunk reaches the kernel socket buffer, TCP's FIFO order is final —
#: the userspace priority lane can no longer help).
STREAM_CHUNK_BYTES = 64 * 1024

#: Credit window per stream: bytes the sender may have un-acknowledged
#: (see the invariant in the module docstring).
STREAM_WINDOW = 256 * 1024

#: Hard cap on one streamed payload (a corrupt total_len cannot OOM us).
MAX_STREAM = 1 << 32

_RESP_TO_SENDER = msg.STREAM_RESP_DIR | msg.STREAM_TO_SENDER


class _OutStream:
    """Sender side of one chunked payload (request upload or response
    download).  Credit arrives from the peer's CREDIT frames and wakes the
    pump through ``event``."""

    __slots__ = ("req_id", "flags", "data", "credit", "event", "cancelled")

    def __init__(self, req_id: int, flags: int, data, credit: int) -> None:
        self.req_id = req_id
        self.flags = flags  # 0 = request direction, STREAM_RESP_DIR = response
        self.data = data
        self.credit = credit
        self.event = asyncio.Event()
        self.cancelled = False


class _InStream:
    """Receiver side of one chunked payload: accumulates chunks (copied out
    of the read buffer — a stream outlives its frames) and grants credit
    back as it consumes."""

    __slots__ = ("req_id", "dirflag", "parts", "received", "to_grant", "header", "deadline")

    def __init__(
        self, req_id: int, dirflag: int, header: Optional[msg.StreamOpen] = None
    ) -> None:
        self.req_id = req_id
        self.dirflag = dirflag
        self.parts: list[bytes] = []
        self.received = 0  # request uploads only: checked against MAX_STREAM
        self.to_grant = 0
        self.header = header  # the request's OPEN; None for a response download
        self.deadline = 0.0  # loop-clock absolute deadline; 0 = none


class Streams:
    """Every stream multiplexed on one connection, both directions.

    Four registries because the two peers' req_id spaces are independent —
    an id alone cannot say which stream is meant.
    """

    def __init__(self, conn: "Connection", chunk: int, window: int) -> None:
        self._conn = conn
        self._chunk = chunk
        self._window = window
        self.up_streams: dict[int, _OutStream] = {}    # our request uploads
        self.in_streams: dict[int, _InStream] = {}     # peer request uploads
        self.down_streams: dict[int, _OutStream] = {}  # our response downloads
        self.resp_streams: dict[int, _InStream] = {}   # peer response downloads

    # -- transmit --------------------------------------------------------------

    async def upload(
        self,
        req_id: int,
        future: asyncio.Future,
        component_id: int,
        method_index: int,
        args,
        trace: tuple[int, int],
        deadline_ms: int,
    ) -> None:
        """Ship a request's ``args`` as OPEN + credit-gated chunks; the
        response resolves ``future`` like any other call's."""
        await self._transmit(
            self.up_streams,
            _OutStream(req_id, 0, args, self._window),
            msg.StreamOpen(
                req_id, component_id, method_index,
                trace[0], trace[1], deadline_ms, len(args),
            ),
            future,
        )

    async def respond(self, req_id: int, result) -> None:
        """Ship a large result as STREAM_RESP + credit-gated chunks."""
        await self._transmit(
            self.down_streams,
            _OutStream(req_id, msg.STREAM_RESP_DIR, result, self._window),
            msg.StreamResp(req_id, len(result)),
            None,
        )

    async def _transmit(
        self, registry: dict, out: _OutStream, opener, future: Optional[asyncio.Future]
    ) -> None:
        registry[out.req_id] = out
        head = new_frame()
        msg.encode_into(head, opener)
        try:
            if not self._conn._try_send(head):
                await self._conn._send(head)
            await self._pump(out, future)
        finally:
            registry.pop(out.req_id, None)

    async def _pump(self, out: _OutStream, future: Optional[asyncio.Future]) -> None:
        """Transmit an outgoing stream's payload, chunk by chunk, as credit
        allows.  Stops early if the call already failed (``future`` done —
        the timeout sweep wakes ``out.event``) or the peer cancelled."""
        conn = self._conn
        data = memoryview(out.data)
        size = len(data)
        pos = 0
        while True:
            if out.cancelled:
                return  # peer said stop (or connection tore down)
            if future is not None and future.done():
                # The call failed locally (timeout / teardown) mid-upload:
                # tell the receiver to discard its partial accumulation.
                conn._post(msg.StreamCancel(out.req_id, 0))
                return
            if out.credit <= 0:
                out.event.clear()
                await out.event.wait()
                continue
            n = min(self._chunk, size - pos, out.credit)
            end = pos + n
            flags = out.flags | (msg.STREAM_END if end >= size else 0)
            head = new_frame()
            msg.encode_stream_chunk_prefix(head, out.req_id, flags)
            # Chunks ride the bulk lane: small frames flush ahead of them.
            chunk = data[pos:end]
            out.credit -= n
            pos = end
            if not conn._try_send(head, chunk, bulk=True):
                await conn._send(head, chunk, bulk=True)
            if end >= size:
                return

    # -- what the connection tells us --------------------------------------------

    def call_timed_out(self, req_id: int) -> None:
        """A streaming call needs more than a failed future: wake an upload
        pump parked on credit (it will observe the done future and cancel
        toward the receiver), and tell the peer to stop transmitting a
        response stream we will never consume."""
        up = self.up_streams.get(req_id)
        if up is not None:
            up.event.set()
        if self.resp_streams.pop(req_id, None) is not None:
            self._conn._post(msg.StreamCancel(req_id, _RESP_TO_SENDER))

    def abort(self) -> None:
        """Connection teardown: wake any pump parked on credit so it
        observes the end instead of waiting forever; drop the rest."""
        for registry in (self.up_streams, self.down_streams):
            for out in registry.values():
                out.cancelled = True
                out.event.set()
            registry.clear()
        self.in_streams.clear()
        self.resp_streams.clear()

    def on_frame(self, m: object) -> bool:
        """Handle one inbound stream frame; False if ``m`` is not one."""
        if isinstance(m, msg.StreamChunk):
            if m.flags & msg.STREAM_RESP_DIR:
                self._on_resp_chunk(m)
            else:
                self._on_req_chunk(m)
        elif isinstance(m, msg.StreamCredit):
            out = self._outgoing(m.flags).get(m.req_id)
            if out is not None:
                out.credit += m.bytes_
                out.event.set()
        elif isinstance(m, msg.StreamOpen):
            self._on_open(m)
        elif isinstance(m, msg.StreamResp):
            if m.req_id in self._conn._pending:
                self.resp_streams[m.req_id] = _InStream(m.req_id, msg.STREAM_RESP_DIR)
            else:
                # Timed out before the response started: stop the transmitter.
                self._conn._post(msg.StreamCancel(m.req_id, _RESP_TO_SENDER))
        elif isinstance(m, msg.StreamCancel):
            self._on_cancel(m)
        else:
            return False
        return True

    # -- receive ---------------------------------------------------------------

    def _outgoing(self, flags: int) -> dict[int, _OutStream]:
        return self.down_streams if flags & msg.STREAM_RESP_DIR else self.up_streams

    def _reject(self, req_id: int, code: ErrorCode, text: str) -> None:
        """Fail an upload before its method ran and stop its transmitter."""
        self.in_streams.pop(req_id, None)
        self._conn._post(msg.RpcError(req_id, int(code), text, False))
        self._conn._post(msg.StreamCancel(req_id, msg.STREAM_TO_SENDER))

    def _on_open(self, m: msg.StreamOpen) -> None:
        if self._conn._handler is None:
            self._reject(m.req_id, ErrorCode.INTERNAL, "peer does not serve requests")
            return
        if m.total_len > MAX_STREAM:
            self._reject(
                m.req_id,
                ErrorCode.RESOURCE_EXHAUSTED,
                f"stream of {m.total_len} bytes exceeds cap {MAX_STREAM}",
            )
            return
        st = _InStream(m.req_id, 0, m)
        if m.deadline_ms:
            st.deadline = asyncio.get_running_loop().time() + m.deadline_ms / 1000.0
        self.in_streams[m.req_id] = st

    def _on_req_chunk(self, m: msg.StreamChunk) -> None:
        st = self.in_streams.get(m.req_id)
        if st is None:
            return  # stream already cancelled/errored; ignore the straggler
        if st.deadline and asyncio.get_running_loop().time() >= st.deadline:
            # The caller's budget ran out between chunks: fail the call
            # without receiving (or serving) the rest of the payload.
            self._reject(
                m.req_id, ErrorCode.DEADLINE_EXCEEDED, "deadline expired mid-upload"
            )
            return
        st.parts.append(m.data)
        st.received += len(m.data)
        if st.received > MAX_STREAM:
            self._reject(
                m.req_id,
                ErrorCode.RESOURCE_EXHAUSTED,
                f"stream exceeded cap {MAX_STREAM}",
            )
        elif m.flags & msg.STREAM_END:
            del self.in_streams[m.req_id]
            remaining = 0
            if st.deadline:
                remaining = max(
                    1, int((st.deadline - asyncio.get_running_loop().time()) * 1000)
                )
            h = st.header
            self._conn._spawn_server_task(
                msg.Request(
                    h.req_id, h.component_id, h.method_index, b"".join(st.parts),
                    h.trace_id, h.parent_span_id, remaining,
                )
            )
        else:
            self._grant_credit(st, len(m.data))

    def _on_resp_chunk(self, m: msg.StreamChunk) -> None:
        st = self.resp_streams.get(m.req_id)
        if st is None:
            return
        if m.req_id not in self._conn._pending:
            # Timed out mid-download: discard and stop the transmitter.
            del self.resp_streams[m.req_id]
            self._conn._post(msg.StreamCancel(m.req_id, _RESP_TO_SENDER))
            return
        st.parts.append(m.data)
        if m.flags & msg.STREAM_END:
            del self.resp_streams[m.req_id]
            self._conn._resolve(m.req_id, b"".join(st.parts), None)
        else:
            self._grant_credit(st, len(m.data))

    def _grant_credit(self, st: _InStream, consumed: int) -> None:
        """Receiver-paced flow control: top the sender up once half the
        window has been consumed (batched — not a CREDIT per chunk)."""
        st.to_grant += consumed
        if st.to_grant >= self._window // 2:
            self._conn._post(msg.StreamCredit(st.req_id, st.dirflag, st.to_grant))
            st.to_grant = 0

    def _on_cancel(self, m: msg.StreamCancel) -> None:
        if m.flags & msg.STREAM_TO_SENDER:
            # We are the transmitter: stop the pump, release its credit wait.
            out = self._outgoing(m.flags).get(m.req_id)
            if out is not None:
                out.cancelled = True
                out.event.set()
        elif not m.flags & msg.STREAM_RESP_DIR:
            # We are the receiver: discard the partial accumulation.
            self.in_streams.pop(m.req_id, None)
        elif self.resp_streams.pop(m.req_id, None) is not None:
            self._conn._resolve(
                m.req_id,
                None,
                error_from_code(
                    int(ErrorCode.UNAVAILABLE),
                    "peer cancelled response stream",
                    executed=True,
                ),
            )

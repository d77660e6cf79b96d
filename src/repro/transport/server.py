"""The RPC server a proclet runs to serve its hosted components.

The runtime is control plane only; proclets communicate directly with one
another (§4.3).  Each proclet therefore runs one :class:`RPCServer`, serving
every component replica it hosts.  Each accepted socket gets a
:class:`~repro.transport.connection.Connection` as its protocol, which
enforces the version handshake before any request is dispatched; the server
tracks a connection only once that handshake has succeeded.  Every accepted
connection reads into its event loop's one buffer (see
:mod:`repro.transport.connection` for why sharing it is safe).

Addresses are strings: ``tcp://127.0.0.1:9000`` or ``unix:///tmp/p.sock``.
``tcp://127.0.0.1:0`` binds an ephemeral port; the bound address is
available as ``server.address`` after ``start()`` — proclets report it to
the manager via ``RegisterReplica``.
"""

from __future__ import annotations

import asyncio
import collections
import logging
import os
from typing import Optional

from repro.core.errors import ConfigError, ResourceExhausted
from repro.transport.connection import Connection, Handler

log = logging.getLogger("repro.transport")


class AdmissionController:
    """Server-door overload protection: bounded concurrency + bounded queue.

    At most ``max_inflight`` requests execute concurrently; up to
    ``max_queue`` more wait in FIFO order; anything beyond that is *shed*
    with a retryable :class:`ResourceExhausted` — the request never reaches
    user code, so even non-idempotent methods can safely retry elsewhere.
    Shedding early keeps latency bounded for the requests that are
    admitted, instead of letting every request slowly time out under
    overload.  ``max_inflight=0`` disables the limiter.

    ``async with admission: ...`` around each request is the whole
    contract.  The serving path spells it out — ``try_enter()``, then
    ``await wait_turn()`` only if that said False, ``leave()`` when done —
    so a disabled limiter or a free slot costs no coroutine.
    """

    def __init__(self, max_inflight: int = 0, max_queue: int = 64) -> None:
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.inflight = 0
        self.shed_count = 0
        self._waiters: collections.deque[asyncio.Future] = collections.deque()

    @property
    def enabled(self) -> bool:
        return self.max_inflight > 0

    @property
    def queue_depth(self) -> int:
        return len(self._waiters)

    def try_enter(self) -> bool:
        """Take a slot without waiting; False means queue (``wait_turn``).
        Sheds, by raising, when the queue is full too."""
        if self.max_inflight <= 0:
            return True
        if self.inflight < self.max_inflight:
            self.inflight += 1
            return True
        if len(self._waiters) >= self.max_queue:
            self.shed_count += 1
            raise ResourceExhausted(
                f"server at capacity ({self.inflight} inflight, "
                f"{len(self._waiters)} queued); retry another replica"
            )
        return False

    async def wait_turn(self) -> None:
        """Queue, FIFO, for the slot ``try_enter`` could not give."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters.append(future)
        try:
            # The releasing request hands its slot directly to the future,
            # so `inflight` is already accounted when we wake.
            await future
        except asyncio.CancelledError:
            if future in self._waiters:
                self._waiters.remove(future)
            elif future.done() and not future.cancelled():
                self.leave()  # slot was handed over after cancellation
            raise

    def leave(self) -> None:
        """Give the slot back: to the longest waiter, if there is one."""
        if self.max_inflight <= 0:
            return
        while self._waiters:
            future = self._waiters.popleft()
            if not future.done():
                future.set_result(None)  # slot transfers; inflight unchanged
                return
        self.inflight -= 1

    async def __aenter__(self) -> "AdmissionController":
        if not self.try_enter():
            await self.wait_turn()
        return self

    async def __aexit__(self, *exc: object) -> None:
        self.leave()


def parse_address(address: str) -> tuple[str, str, Optional[int]]:
    """Split an address string into (scheme, host_or_path, port)."""
    if address.startswith("tcp://"):
        rest = address[len("tcp://") :]
        host, sep, port = rest.rpartition(":")
        if not sep:
            raise ConfigError(f"tcp address {address!r} needs host:port")
        return "tcp", host, int(port)
    if address.startswith("unix://"):
        return "unix", address[len("unix://") :], None
    raise ConfigError(f"unsupported address {address!r} (want tcp:// or unix://)")


class RPCServer:
    """Serves the custom RPC protocol for one proclet, on its event loop.

    A proclet uses more cores by being replicated into more processes
    (§3.1, §4.3), never by serving from more threads.
    """

    def __init__(
        self,
        handler: Handler,
        *,
        codec: str,
        version: str,
        address: str = "tcp://127.0.0.1:0",
        compress: bool = False,
    ) -> None:
        self._handler = handler
        self._codec = codec
        self._version = version
        self._compress = compress
        self._requested = address
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set[Connection] = set()
        self.address: str = address
        #: Set by :meth:`drain`; the proclet's request handler checks it to
        #: reject new RPCs at the door while in-flight ones finish.
        self.draining = False

    async def start(self) -> str:
        scheme, host, port = parse_address(self._requested)
        loop = asyncio.get_running_loop()
        if scheme == "tcp":
            self._server = await loop.create_server(self._accept, host, port)
            bound = self._server.sockets[0].getsockname()
            self.address = f"tcp://{bound[0]}:{bound[1]}"
        else:
            if os.path.exists(host):
                os.unlink(host)
            self._server = await loop.create_unix_server(self._accept, host)
            self.address = f"unix://{host}"
        log.debug("rpc server listening on %s", self.address)
        return self.address

    def _accept(self) -> Connection:
        """The protocol of one accepted socket: it enforces the version
        handshake and only then registers itself."""
        return Connection(
            codec=self._codec,
            version=self._version,
            handler=self._handler,
            on_ready=self._register,
            name="server",
            compress=self._compress,
        )

    def _register(self, conn: Connection) -> None:
        """Remember a handshaken connection, forgetting the ones that have
        since died (a long-lived server must not remember every peer it
        ever had)."""
        conns = self._connections
        conns.difference_update([c for c in conns if c.closed])
        conns.add(conn)

    async def drain(self) -> None:
        """Stop accepting new connections; existing ones stay open.

        First step of graceful shutdown: the listener closes (new dials
        fail fast and go elsewhere) but connected peers keep their streams
        so responses to in-flight requests can still be delivered.  The
        request-level door closing (rejecting new RPCs on the surviving
        connections) is the proclet's job — it knows about in-flight
        counts; the transport only knows about sockets.
        """
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def stop(self) -> None:
        await self.drain()
        self.draining = False
        for conn in list(self._connections):
            await conn.close()
        self._connections.clear()
        scheme, path, _ = parse_address(self.address) if self.address else ("", "", None)
        if scheme == "unix" and os.path.exists(path):
            try:
                os.unlink(path)
            except OSError:
                pass

    @property
    def connection_count(self) -> int:
        return len([c for c in self._connections if not c.closed])

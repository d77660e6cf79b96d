"""The RPC server a proclet runs to serve its hosted components.

The runtime is control plane only; proclets communicate directly with one
another (§4.3).  Each proclet therefore runs one :class:`RPCServer`, serving
every component replica it hosts.  The server enforces the version handshake
on every accepted connection before any request is dispatched.

Addresses are strings: ``tcp://127.0.0.1:9000`` or ``unix:///tmp/p.sock``.
``tcp://127.0.0.1:0`` binds an ephemeral port; the bound address is
available as ``server.address`` after ``start()`` — proclets report it to
the manager via ``RegisterReplica``.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import logging
import os
import socket
from typing import Optional

from repro.core.errors import (
    ConfigError,
    ResourceExhausted,
    TransportError,
    VersionMismatch,
)
from repro.transport.connection import Connection, Handler, server_handshake
from repro.transport.streaming import STREAM_CHUNK_BYTES, STREAM_THRESHOLD
from repro.transport.worker import (
    Acceptor,
    WorkerLoop,
    WorkerPool,
    reuse_port_supported,
)

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
    """Serves the custom RPC protocol for one proclet.

    With ``workers > 1`` the server becomes a multi-core data plane: N
    shared-nothing worker event loops behind one listening endpoint.  On
    TCP with SO_REUSEPORT each worker binds its own listening socket to
    the same port and the kernel spreads connections; otherwise a
    dup-and-distribute acceptor thread hands each accepted socket to the
    least-loaded worker.  Either way a connection lives its whole life on
    one worker loop (connection-affine), so no per-connection state ever
    crosses threads.  The handler is invoked on the worker's loop and must
    be thread-safe across loops.
    """

    def __init__(
        self,
        handler: Handler,
        *,
        codec: str,
        version: str,
        address: str = "tcp://127.0.0.1:0",
        compress: bool = False,
        workers: int = 1,
        uvloop_mode: str = "auto",
        stream_threshold: int = STREAM_THRESHOLD,
        stream_chunk: int = STREAM_CHUNK_BYTES,
        reuse_port: bool = True,
    ) -> None:
        self._handler = handler
        self._codec = codec
        self._version = version
        self._compress = compress
        self._workers = max(1, int(workers))
        self._uvloop = uvloop_mode
        self._stream_threshold = stream_threshold
        self._stream_chunk = stream_chunk
        self._reuse_port = reuse_port
        self._requested = address
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set[Connection] = set()
        self._pool: Optional[WorkerPool] = None
        self._acceptor: Optional[Acceptor] = None
        self._worker_servers: list = []  # per-worker asyncio servers (reuseport)
        self.accept_mode = "inline"  # inline | reuseport | acceptor
        self.address: str = address
        #: Set by :meth:`drain`; the proclet's request handler checks it to
        #: reject new RPCs at the door while in-flight ones finish.
        self.draining = False

    async def start(self) -> str:
        scheme, host, port = parse_address(self._requested)
        if self._workers > 1:
            return await self._start_workers(scheme, host, port)
        if scheme == "tcp":
            self._server = await asyncio.start_server(self._accept, host, port)
            bound = self._server.sockets[0].getsockname()
            self.address = f"tcp://{bound[0]}:{bound[1]}"
        else:
            if os.path.exists(host):
                os.unlink(host)
            self._server = await asyncio.start_unix_server(self._accept, host)
            self.address = f"unix://{host}"
        log.debug("rpc server listening on %s", self.address)
        return self.address

    # -- multi-worker start --------------------------------------------------

    async def _start_workers(self, scheme: str, host: str, port: int) -> str:
        self._pool = WorkerPool(self._workers, self._uvloop)
        self._pool.start()
        if scheme == "tcp" and self._reuse_port and reuse_port_supported():
            # Kernel-spread accept: one SO_REUSEPORT listener per worker.
            first = _reuseport_socket(host, port)
            bound = first.getsockname()
            socks = [first] + [
                _reuseport_socket(host, bound[1])
                for _ in range(1, self._workers)
            ]
            self.address = f"tcp://{bound[0]}:{bound[1]}"
            for worker, sock in zip(self._pool.workers, socks):
                server = await asyncio.wrap_future(
                    worker.submit(self._listen_on_worker(worker, sock))
                )
                self._worker_servers.append(server)
            self.accept_mode = "reuseport"
        else:
            # Dup-and-distribute: one blocking acceptor thread feeds the
            # least-loaded worker, which adopts the socket on its loop.
            if scheme == "tcp":
                lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                lsock.bind((host, port))
                bound = lsock.getsockname()
                self.address = f"tcp://{bound[0]}:{bound[1]}"
            else:
                if os.path.exists(host):
                    os.unlink(host)
                lsock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                lsock.bind(host)
                self.address = f"unix://{host}"
            lsock.listen(128)
            self._acceptor = Acceptor(lsock, self._distribute)
            self._acceptor.start()
            self.accept_mode = "acceptor"
        log.debug(
            "rpc server listening on %s (%d workers, %s)",
            self.address, self._workers, self.accept_mode,
        )
        return self.address

    async def _listen_on_worker(self, worker: WorkerLoop, sock: socket.socket):
        return await asyncio.start_server(
            functools.partial(self._accept_on, worker), sock=sock
        )

    def _distribute(self, sock: socket.socket) -> None:
        """Acceptor-thread side of the fallback: pick a worker, hand off."""
        worker = self._pool.least_loaded()
        worker.pending_adopts += 1
        try:
            worker.submit(self._adopt(worker, sock))
        except RuntimeError:  # worker loop already shut down
            worker.pending_adopts -= 1
            sock.close()

    async def _adopt(self, worker: WorkerLoop, sock: socket.socket) -> None:
        # pending_adopts stays elevated until the connection is registered
        # in worker.conns, so least_loaded() sees in-progress handoffs.
        try:
            reader, writer = await asyncio.open_connection(sock=sock)
        except OSError:
            sock.close()
            worker.pending_adopts -= 1
            return
        try:
            await self._accept_on(worker, reader, writer)
        finally:
            worker.pending_adopts -= 1

    async def _accept_on(
        self,
        worker: WorkerLoop,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Accept path on a worker loop: handshake + adopt, all local."""
        if await self._handshake_and_adopt(
            reader,
            writer,
            handler=self._counted_handler(worker),
            name=f"server/w{worker.index}",
            conns=worker.conns,
        ):
            worker.accepted += 1

    def _counted_handler(self, worker: WorkerLoop) -> Handler:
        inner = self._handler

        async def counted(component_id, method_index, args, trace, deadline_ms):
            worker.requests += 1
            return await inner(component_id, method_index, args, trace, deadline_ms)

        return counted

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Accept path in single-loop mode."""
        await self._handshake_and_adopt(
            reader, writer, handler=self._handler, name="server",
            conns=self._connections,
        )

    async def _handshake_and_adopt(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        handler: Handler,
        name: str,
        conns: set[Connection],
    ) -> bool:
        """Enforce the version handshake, then start a connection and
        register it in ``conns`` (forgetting the ones that have since
        died, so a long-lived server does not remember every peer it ever
        had).  False if the peer was turned away."""
        try:
            await server_handshake(
                reader, writer, codec=self._codec, version=self._version
            )
        except VersionMismatch as exc:
            log.warning("rejected cross-version connection: %s", exc)
            return False
        except (TransportError, ConnectionError, OSError) as exc:
            log.debug("handshake failed: %s", exc)
            writer.close()
            return False
        conn = Connection(
            reader,
            writer,
            handler=handler,
            name=name,
            compress=self._compress,
            stream_threshold=self._stream_threshold,
            stream_chunk=self._stream_chunk,
        )
        conns.difference_update([c for c in conns if c.closed])
        conns.add(conn)
        conn.start()
        return True

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
        if self._acceptor is not None:
            self._acceptor.stop()
            self._acceptor = None
        if self._worker_servers and self._pool is not None:
            servers, self._worker_servers = self._worker_servers, []
            for worker, server in zip(self._pool.workers, servers):
                try:
                    await asyncio.wrap_future(worker.submit(_close_server(server)))
                except Exception:  # worker already stopping
                    pass

    async def stop(self) -> None:
        await self.drain()
        self.draining = False
        for conn in list(self._connections):
            await conn.close()
        self._connections.clear()
        if self._pool is not None:
            for worker in self._pool.workers:
                conns = list(worker.conns)
                worker.conns.clear()
                if conns:
                    try:
                        await asyncio.wrap_future(worker.submit(_close_all(conns)))
                    except Exception:
                        pass
            self._pool.stop()
            self._pool = None
        scheme, path, _ = parse_address(self.address) if self.address else ("", "", None)
        if scheme == "unix" and os.path.exists(path):
            try:
                os.unlink(path)
            except OSError:
                pass

    @property
    def connection_count(self) -> int:
        count = len([c for c in self._connections if not c.closed])
        if self._pool is not None:
            count += sum(w.connection_count for w in self._pool.workers)
        return count

    @property
    def workers(self) -> int:
        return self._workers

    def worker_stats(self) -> list[dict]:
        """Per-worker data-plane stats (empty in single-loop mode)."""
        if self._pool is None:
            return []
        return self._pool.stats()


def _reuseport_socket(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    sock.listen(128)
    return sock


async def _close_server(server) -> None:
    server.close()
    await server.wait_closed()


async def _close_all(conns) -> None:
    for conn in conns:
        try:
            await conn.close()
        except Exception:
            pass


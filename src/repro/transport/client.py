"""Client-side connection pooling for proclet-to-proclet RPC.

One :class:`ConnectionPool` per proclet caches a single multiplexed
connection per peer address (the protocol pipelines, so one connection
carries arbitrary concurrency).  Dead connections are dropped and
re-established on next use; connecting concurrently to the same address is
coalesced behind a per-address lock.  A dial is ``loop.create_connection``
with a fresh :class:`Connection` as the protocol: it sends HELLO once
connected, and the dial returns when WELCOME resolves its ``ready`` future —
each step bounded by ``connect_timeout``.  Only a connection that is already
closed is evicted after a failed call: an UNAVAILABLE *reply* (a draining
door, a component hosted elsewhere, a wrong shard owner) comes from a
healthy peer over a healthy connection that other calls are still using.

Both maps are *pruned*: a connection found closed is removed on sight, and
its dial lock goes with it once nobody holds it — a long-lived proclet
that has talked to thousands of ephemeral peers does not keep one lock and
one dead connection entry per address it ever saw.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Optional

from repro.core.errors import RPCError, TransportError, Unavailable
from repro.transport.connection import Connection
from repro.transport.server import parse_address
from repro.transport.streaming import STREAM_CHUNK_BYTES, STREAM_THRESHOLD

log = logging.getLogger("repro.transport")


class ConnectionPool:
    def __init__(
        self,
        *,
        codec: str,
        version: str,
        connect_timeout: float = 5.0,
        compress: bool = False,
        stream_threshold: int = STREAM_THRESHOLD,
        stream_chunk: int = STREAM_CHUNK_BYTES,
    ) -> None:
        self._codec = codec
        self._version = version
        self._connect_timeout = connect_timeout
        self._compress = compress
        self._stream_threshold = stream_threshold
        self._stream_chunk = stream_chunk
        self._connections: dict[str, Connection] = {}
        self._locks: dict[str, asyncio.Lock] = {}

    def live(self, address: str) -> Optional[Connection]:
        """The open connection to ``address``, or None; never dials."""
        conn = self._connections.get(address)
        return conn if conn is not None and not conn.closed else None

    async def get(self, address: str) -> Connection:
        """Return a live connection to ``address``, dialing if needed."""
        conn = self.live(address)
        if conn is not None:
            return conn
        lock = self._locks.setdefault(address, asyncio.Lock())
        try:
            async with lock:
                conn = self._connections.get(address)
                if conn is not None:
                    if not conn.closed:
                        return conn
                    del self._connections[address]  # prune the dead entry
                conn = await self._dial(address)
                existing = self._connections.get(address)
                if existing is not None and not existing.closed:
                    # Rare race after a lock was pruned mid-dial: another
                    # caller connected first.  Keep theirs, fold ours.
                    asyncio.ensure_future(conn.close())
                    return existing
                self._connections[address] = conn
                return conn
        finally:
            # A failed dial must not leave a lock behind for an address we
            # never reached (the long-lived-proclet leak).
            self._prune_lock(address)

    async def _dial(self, address: str) -> Connection:
        scheme, host, port = parse_address(address)
        loop = asyncio.get_running_loop()
        conn = Connection(
            codec=self._codec,
            version=self._version,
            name=f"client->{address}",
            compress=self._compress,
            stream_threshold=self._stream_threshold,
            stream_chunk=self._stream_chunk,
        )
        try:
            if scheme == "tcp":
                connecting = loop.create_connection(lambda: conn, host, port)
            else:
                connecting = loop.create_unix_connection(lambda: conn, host)
            transport, _ = await asyncio.wait_for(connecting, self._connect_timeout)
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            raise Unavailable(
                f"cannot connect to {address}: {exc}", executed=False
            ) from exc
        try:
            # HELLO went out on connect; WELCOME resolves ``ready``.
            await asyncio.wait_for(conn.ready, self._connect_timeout)
        except BaseException as exc:  # the socket is ours until we return it
            transport.close()
            if isinstance(exc, (RPCError, TransportError, asyncio.TimeoutError)):
                raise Unavailable(
                    f"handshake with {address} failed: {exc}", executed=False
                ) from exc
            raise  # VersionMismatch as it is, and cancellation
        return conn

    def drop(self, address: str) -> None:
        """Forget the connection to ``address`` (e.g. after its replica was
        reported dead)."""
        conn = self._connections.pop(address, None)
        if conn is not None and not conn.closed:
            asyncio.ensure_future(conn.close())
        self._prune_lock(address)

    def _prune_lock(self, address: str) -> None:
        """Drop the per-address dial lock once it has no holder.

        An unlocked asyncio.Lock has no waiters (acquire succeeds
        immediately when free), so removal is safe; the one theoretical
        race — a coroutine that fetched the lock object but has not yet
        acquired it — is absorbed by the keep-theirs check in :meth:`get`.
        """
        lock = self._locks.get(address)
        if lock is not None and not lock.locked() and address not in self._connections:
            del self._locks[address]

    async def close(self) -> None:
        for conn in list(self._connections.values()):
            await conn.close()
        self._connections.clear()
        self._locks.clear()

    @property
    def open_count(self) -> int:
        return len([c for c in self._connections.values() if not c.closed])

    @property
    def tracked_addresses(self) -> int:
        """Map entries currently held (tests assert pruning keeps this flat)."""
        return len(set(self._connections) | set(self._locks))

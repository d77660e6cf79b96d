"""Client-side connection pooling for proclet-to-proclet RPC.

One :class:`ConnectionPool` per proclet caches a single multiplexed
connection per peer address (the protocol pipelines, so one connection
carries arbitrary concurrency).  Dead connections are dropped and
re-established on next use; connecting concurrently to the same address is
coalesced behind a per-address lock.

The pool is **loop-aware**: with a multi-worker data plane, outbound calls
originate on whichever worker loop is serving the inbound request, and a
:class:`~repro.transport.connection.Connection`'s entire state (futures,
outbox, stream registries) is owned by the loop that started it.  Entries
are therefore keyed by ``(event loop, address)`` — each worker loop dials
and owns its own connection to a peer, which is exactly the shared-nothing
contract: nothing per-connection ever crosses threads.  ``drop`` and
``close`` may be called from any loop; they schedule the close on each
connection's home loop.

Both maps are *pruned*: a connection found closed is removed on sight, and
its dial lock goes with it once nobody holds it — a long-lived proclet
that has talked to thousands of ephemeral peers does not keep one lock and
one dead connection entry per address it ever saw.
"""

from __future__ import annotations

import asyncio
import logging

from repro.core.errors import Unavailable, VersionMismatch
from repro.transport.connection import Connection, client_handshake
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
        self._connections: dict[tuple[int, str], Connection] = {}
        self._locks: dict[tuple[int, str], asyncio.Lock] = {}

    @staticmethod
    def _key(address: str) -> tuple[int, str]:
        return (id(asyncio.get_running_loop()), address)

    async def get(self, address: str) -> Connection:
        """Return a live connection to ``address`` owned by the calling
        loop, dialing if needed."""
        key = self._key(address)
        conn = self._connections.get(key)
        if conn is not None and not conn.closed:
            return conn
        lock = self._locks.setdefault(key, asyncio.Lock())
        try:
            async with lock:
                conn = self._connections.get(key)
                if conn is not None:
                    if not conn.closed:
                        return conn
                    del self._connections[key]  # prune the dead entry
                conn = await self._dial(address)
                existing = self._connections.get(key)
                if existing is not None and not existing.closed:
                    # Rare race after a lock was pruned mid-dial: another
                    # caller connected first.  Keep theirs, fold ours.
                    asyncio.ensure_future(conn.close())
                    return existing
                self._connections[key] = conn
                return conn
        finally:
            # A failed dial must not leave a lock behind for an address we
            # never reached (the long-lived-proclet leak).
            self._prune_lock(key)

    async def _dial(self, address: str) -> Connection:
        scheme, host, port = parse_address(address)
        try:
            if scheme == "tcp":
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port), self._connect_timeout
                )
            else:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_unix_connection(host), self._connect_timeout
                )
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            raise Unavailable(
                f"cannot connect to {address}: {exc}", executed=False
            ) from exc
        try:
            await asyncio.wait_for(
                client_handshake(
                    reader, writer, codec=self._codec, version=self._version
                ),
                self._connect_timeout,
            )
        except VersionMismatch:
            writer.close()
            raise
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            writer.close()
            raise Unavailable(
                f"handshake with {address} failed: {exc}", executed=False
            ) from exc
        conn = Connection(
            reader,
            writer,
            name=f"client->{address}",
            compress=self._compress,
            stream_threshold=self._stream_threshold,
            stream_chunk=self._stream_chunk,
        )
        conn.start()
        return conn

    def drop(self, address: str) -> None:
        """Forget every loop's connection to ``address`` (e.g. after its
        replica was reported dead).  Safe to call from any loop: foreign
        connections are closed on their home loop."""
        for key in [k for k in list(self._connections) if k[1] == address]:
            conn = self._connections.pop(key, None)
            if conn is not None and not conn.closed:
                self._close_on_home_loop(conn)
            self._prune_lock(key)

    @staticmethod
    def _close_on_home_loop(conn: Connection) -> None:
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        home = conn.home_loop
        if home is None or home is running:
            asyncio.ensure_future(conn.close())
        elif not home.is_closed():
            asyncio.run_coroutine_threadsafe(conn.close(), home)

    def _prune_lock(self, key: tuple[int, str]) -> None:
        """Drop the per-address dial lock once it has no holder.

        An unlocked asyncio.Lock has no waiters (acquire succeeds
        immediately when free), so removal is safe; the one theoretical
        race — a coroutine that fetched the lock object but has not yet
        acquired it — is absorbed by the keep-theirs check in :meth:`get`.
        """
        lock = self._locks.get(key)
        if lock is not None and not lock.locked() and key not in self._connections:
            del self._locks[key]

    async def close(self) -> None:
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        for conn in list(self._connections.values()):
            home = conn.home_loop
            if home is None or home is running:
                await conn.close()
            elif not home.is_closed():
                try:
                    await asyncio.wrap_future(
                        asyncio.run_coroutine_threadsafe(conn.close(), home)
                    )
                except Exception:  # home loop died mid-close; nothing to save
                    pass
        self._connections.clear()
        self._locks.clear()

    @property
    def open_count(self) -> int:
        return len([c for c in self._connections.values() if not c.closed])

    @property
    def tracked_addresses(self) -> int:
        """Map entries currently held (tests assert pruning keeps this flat)."""
        return len(set(self._connections) | set(self._locks))

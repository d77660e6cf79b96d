"""One shard: a hash-partition of a component's keys with its own WAL.

A shard's on-disk life is one directory::

    <state_root>/<component>/<shard_id>/
        wal-<writer>.log      # append-only segments, one per attachment
        snap-<writer>-N.json  # point-in-time images

A replica *attaches* a shard before serving any of its keys: it replays
every snapshot and segment left by previous owners (max-merge per key by
version) and opens a fresh segment of its own.  From then on every
mutation is WAL-appended before it is acknowledged.  Versions are per-key
monotonic counters: the attaching replica resumes from the highest version
it replayed, and since the router gives each key a single owner at a time,
the highest version always identifies the last acknowledged write — the
invariant the E16 chaos gate checks.

With ``directory=None`` the shard is memory-only (no durability): the
single-process deployer uses this so ``ctx.state`` behaves identically
everywhere, minus crash recovery.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.state import snapshot as snap
from repro.state import wal


@dataclass(frozen=True)
class ShardManifest:
    """What a retiring owner hands the manager about one flushed shard."""

    component: str
    shard_id: int
    directory: Optional[str]
    keys: int
    last_version: int
    #: Inline image for memory-mode shards (no shared directory to point at).
    inline: Optional[dict[str, Any]] = field(default=None, hash=False)

    def to_wire(self) -> dict[str, Any]:
        body: dict[str, Any] = {
            "component": self.component,
            "shard": self.shard_id,
            "dir": self.directory,
            "keys": self.keys,
            "last_version": self.last_version,
        }
        if self.inline is not None:
            body["inline"] = self.inline
        return body

    @classmethod
    def from_wire(cls, raw: dict[str, Any]) -> "ShardManifest":
        return cls(
            component=raw["component"],
            shard_id=raw["shard"],
            directory=raw.get("dir"),
            keys=raw.get("keys", 0),
            last_version=raw.get("last_version", 0),
            inline=raw.get("inline"),
        )


class Shard:
    """In-memory image + durability for one hash-partition of a component."""

    def __init__(
        self,
        component: str,
        shard_id: int,
        directory: Optional[str],
        writer: str,
        *,
        fsync: bool = False,
        snapshot_every: int = 256,
    ) -> None:
        self.component = component
        self.shard_id = shard_id
        self.directory = directory
        self.writer = writer
        self._fsync = fsync
        self._snapshot_every = max(1, snapshot_every)
        #: key -> (version, value) for live keys.
        self._data: dict[str, tuple[int, Any]] = {}
        #: key -> version of the winning delete (replay anti-resurrection).
        self._tombs: dict[str, int] = {}
        self._wal: Optional[wal.WalWriter] = None
        self._snap_seq = 0
        self._appends_since_snapshot = 0
        self.replayed_records = 0

    # -- lifecycle -----------------------------------------------------------

    def attach(self) -> None:
        """Replay what previous owners left, then open our own segment."""
        if self.directory is None:
            return
        os.makedirs(self.directory, exist_ok=True)
        data, tombs = snap.read_snapshots(self.directory)
        self._data, self._tombs = data, tombs
        for record in wal.replay_segments(self.directory):
            self.replayed_records += 1
            self._apply(record)
        self._open_segment()

    def _open_segment(self) -> None:
        assert self.directory is not None
        path = os.path.join(self.directory, f"wal-{self.writer}.log")
        self._wal = wal.WalWriter(path, fsync=self._fsync)

    def _apply(self, record: wal.WalRecord) -> None:
        """Max-merge one replayed record into the in-memory image."""
        if record.deleted:
            if self._tombs.get(record.key, -1) < record.version:
                self._tombs[record.key] = record.version
                current = self._data.get(record.key)
                if current is not None and current[0] <= record.version:
                    del self._data[record.key]
        else:
            current = self._data.get(record.key)
            if (current is None or current[0] < record.version) and self._tombs.get(
                record.key, -1
            ) < record.version:
                self._data[record.key] = (record.version, record.value)

    def refresh(self) -> int:
        """Max-merge whatever is on disk *now* into the live image.

        Used when key ownership shifts toward this replica while the shard
        is already attached (ring change, handover): other writers flushed
        records after our attach-time replay, and those keys may be ours
        now.  Re-reading our own files too is harmless — versions make the
        merge idempotent.  Returns the number of WAL records scanned.
        """
        if self.directory is None:
            return 0
        data, tombs = snap.read_snapshots(self.directory)
        for key, (ver, value) in data.items():
            self._apply(wal.WalRecord(key=key, version=ver, value=value))
        for key, ver in tombs.items():
            self._apply(wal.WalRecord(key=key, version=ver, deleted=True))
        scanned = 0
        for record in wal.replay_segments(self.directory):
            scanned += 1
            self._apply(record)
        return scanned

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    @property
    def attached(self) -> bool:
        return self.directory is None or self._wal is not None

    # -- operations ----------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        entry = self._data.get(key)
        return entry[1] if entry is not None else None

    def contains(self, key: str) -> bool:
        return key in self._data

    def keys(self) -> list[str]:
        return list(self._data)

    def _next_version(self, key: str) -> int:
        entry = self._data.get(key)
        floor = entry[0] if entry is not None else 0
        return max(floor, self._tombs.get(key, 0)) + 1

    def put(self, key: str, value: Any) -> None:
        version = self._next_version(key)
        self._log(wal.WalRecord(key=key, version=version, value=value))
        self._data[key] = (version, value)
        self._tombs.pop(key, None)

    def delete(self, key: str) -> bool:
        existed = key in self._data
        version = self._next_version(key)
        self._log(wal.WalRecord(key=key, version=version, deleted=True))
        self._data.pop(key, None)
        self._tombs[key] = version
        return existed

    def _log(self, record: wal.WalRecord) -> None:
        if self._wal is None:
            return  # memory-only shard: the in-memory image is the state
        self._wal.append(record)
        self._appends_since_snapshot += 1
        if self._appends_since_snapshot >= self._snapshot_every:
            self.snapshot()

    # -- snapshot / handover -------------------------------------------------

    def snapshot(self) -> Optional[str]:
        """Write a full image, truncate our own covered log, prune old images.

        Only this writer's files are ever deleted: another replica may be
        appending to its own open segment in the same directory (two owners
        of disjoint key subsets of one shard), and its tail must survive.
        """
        if self.directory is None or self._wal is None:
            return None
        self._snap_seq += 1
        name = snap.write_snapshot(
            self.directory, self.writer, self._snap_seq, self._data, self._tombs
        )
        # Rotate: our previous segment is fully covered by the image.
        self._wal.close()
        try:
            os.unlink(self._wal.path)
        except OSError:
            pass
        snap.prune_writer_files(self.directory, self.writer, keep=name)
        self._open_segment()
        self._appends_since_snapshot = 0
        return name

    def last_version(self) -> int:
        versions = [v for v, _ in self._data.values()]
        versions.extend(self._tombs.values())
        return max(versions, default=0)

    def manifest(self, *, inline: bool = False) -> ShardManifest:
        return ShardManifest(
            component=self.component,
            shard_id=self.shard_id,
            directory=self.directory,
            keys=len(self._data),
            last_version=self.last_version(),
            inline=self.export_inline() if inline else None,
        )

    def export_inline(self) -> dict[str, Any]:
        return {
            "data": {k: [ver, value] for k, (ver, value) in self._data.items()},
            "tombs": dict(self._tombs),
        }

    def import_inline(self, payload: dict[str, Any]) -> None:
        """Max-merge a handed-over inline image (memory-mode handover)."""
        for key, pair in payload.get("data", {}).items():
            record = wal.WalRecord(key=key, version=pair[0], value=pair[1])
            self._apply(record)
        for key, ver in payload.get("tombs", {}).items():
            self._apply(wal.WalRecord(key=key, version=ver, deleted=True))

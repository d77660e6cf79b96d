"""WAL segments and snapshots: the durability floor of repro.state.

The invariant everything above relies on: an append returns only after
the record is flushed, replay max-merges per key by version, torn tails
are skipped, and a writer's snapshot covers (and may truncate) only its
own segments.
"""

from __future__ import annotations

from repro.state.snapshot import (
    prune_writer_files,
    read_snapshots,
    snapshot_files,
    write_snapshot,
)
from repro.state.wal import WalRecord, WalWriter, replay_segments, segment_files


class TestWalRoundTrip:
    def test_append_then_replay(self, tmp_path):
        writer = WalWriter(str(tmp_path / "wal-a.log"))
        writer.append(WalRecord(key="k1", version=1, value={"n": 1}))
        writer.append(WalRecord(key="k2", version=1, value=[1, 2]))
        writer.append(WalRecord(key="k1", version=2, value={"n": 2}))
        writer.close()

        records = list(replay_segments(str(tmp_path)))
        assert [(r.key, r.version) for r in records] == [
            ("k1", 1),
            ("k2", 1),
            ("k1", 2),
        ]
        assert records[2].value == {"n": 2}

    def test_delete_records_round_trip(self, tmp_path):
        writer = WalWriter(str(tmp_path / "wal-a.log"))
        writer.append(WalRecord(key="k", version=1, value="x"))
        writer.append(WalRecord(key="k", version=2, deleted=True))
        writer.close()
        records = list(replay_segments(str(tmp_path)))
        assert records[1].deleted is True
        assert records[1].value is None

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "wal-a.log"
        writer = WalWriter(str(path))
        writer.append(WalRecord(key="good", version=1, value=1))
        writer.close()
        # Simulate a crash mid-append: a partial JSON line with no newline.
        with open(path, "ab") as f:
            f.write(b'{"k": "torn", "ver": 2, "v"')
        records = list(replay_segments(str(tmp_path)))
        assert [r.key for r in records] == ["good"]

    def test_replay_spans_multiple_writers_sorted(self, tmp_path):
        for name, key in [("wal-b.log", "from-b"), ("wal-a.log", "from-a")]:
            w = WalWriter(str(tmp_path / name))
            w.append(WalRecord(key=key, version=1, value=0))
            w.close()
        assert segment_files(str(tmp_path)) == ["wal-a.log", "wal-b.log"]
        assert [r.key for r in replay_segments(str(tmp_path))] == [
            "from-a",
            "from-b",
        ]

    def test_append_is_flushed_before_return(self, tmp_path):
        path = tmp_path / "wal-a.log"
        writer = WalWriter(str(path))
        writer.append(WalRecord(key="k", version=1, value="v"))
        # Without closing: the bytes must already be visible to a reader,
        # which is what makes an acknowledged write survive a kill.
        assert list(replay_segments(str(tmp_path)))[0].key == "k"
        writer.close()


class TestSnapshots:
    def test_write_read_round_trip(self, tmp_path):
        write_snapshot(str(tmp_path), "w1", 1, {"a": (3, "x")}, {"b": 2})
        data, tombs = read_snapshots(str(tmp_path))
        assert data == {"a": (3, "x")}
        assert tombs == {"b": 2}

    def test_overlapping_snapshots_max_merge(self, tmp_path):
        write_snapshot(str(tmp_path), "w1", 1, {"a": (1, "old"), "b": (5, "keep")}, {})
        write_snapshot(str(tmp_path), "w2", 1, {"a": (2, "new"), "b": (1, "stale")}, {})
        data, _ = read_snapshots(str(tmp_path))
        assert data["a"] == (2, "new")
        assert data["b"] == (5, "keep")

    def test_prune_removes_only_own_older_snapshots(self, tmp_path):
        write_snapshot(str(tmp_path), "w1", 1, {}, {})
        keep = write_snapshot(str(tmp_path), "w1", 2, {}, {})
        other = write_snapshot(str(tmp_path), "w2", 1, {}, {})
        removed = prune_writer_files(str(tmp_path), "w1", keep=keep)
        assert removed == 1
        assert set(snapshot_files(str(tmp_path))) == {keep, other}

    def test_missing_directory_is_empty(self, tmp_path):
        missing = str(tmp_path / "nope")
        assert read_snapshots(missing) == ({}, {})
        assert list(replay_segments(missing)) == []

"""Shard and StateStore semantics: crash recovery, snapshots, handover.

E15/E16's durability claim reduces to these properties: an attach rebuilds
exactly the acknowledged writes, snapshots bound replay without losing
anything, deletes don't resurrect, and a handed-over shard replays under
its new owner with versions intact.
"""

from __future__ import annotations

import os

from repro.state.shard import Shard, ShardManifest
from repro.state.store import StateStore
from repro.state.wal import segment_files


def attached(tmp_path, writer="w1", **kwargs) -> Shard:
    shard = Shard("comp", 0, str(tmp_path / "shard-0000"), writer, **kwargs)
    shard.attach()
    return shard


class TestShardRecovery:
    def test_kill_and_reattach_recovers_acked_writes(self, tmp_path):
        first = attached(tmp_path, "w1")
        first.put("a", 1)
        first.put("b", [2, 3])
        first.put("a", 10)
        # No close(): simulates SIGKILL — the flushed WAL is all there is.
        second = attached(tmp_path, "w2")
        assert second.get("a") == 10
        assert second.get("b") == [2, 3]
        assert second.replayed_records == 3

    def test_delete_survives_recovery(self, tmp_path):
        first = attached(tmp_path, "w1")
        first.put("gone", "x")
        first.delete("gone")
        second = attached(tmp_path, "w2")
        assert second.get("gone") is None
        assert not second.contains("gone")

    def test_tombstone_blocks_resurrection_from_older_segment(self, tmp_path):
        # Writer A logs a put and dies; writer B (the new owner) deletes
        # the key and snapshots.  A's orphan segment still holds the put —
        # replay must not bring the key back.
        a = attached(tmp_path, "a")
        a.put("k", "old")
        b = attached(tmp_path, "b")
        b.delete("k")
        b.snapshot()
        c = attached(tmp_path, "c")
        assert c.get("k") is None

    def test_versions_resume_after_recovery(self, tmp_path):
        first = attached(tmp_path, "w1")
        first.put("k", "v1")
        first.put("k", "v2")
        second = attached(tmp_path, "w2")
        second.put("k", "v3")
        assert second._data["k"][0] == 3  # strictly above replayed versions


class TestShardSnapshot:
    def test_snapshot_truncates_own_segment(self, tmp_path):
        shard = attached(tmp_path, "w1")
        for i in range(5):
            shard.put(f"k{i}", i)
        shard.snapshot()
        # The covered segment is gone; a fresh (empty) one is open.
        segments = segment_files(shard.directory)
        assert len(segments) == 1
        assert os.path.getsize(os.path.join(shard.directory, segments[0])) == 0
        second = attached(tmp_path, "w2")
        assert {k: second.get(k) for k in second.keys()} == {
            f"k{i}": i for i in range(5)
        }

    def test_auto_snapshot_after_threshold(self, tmp_path):
        shard = attached(tmp_path, "w1", snapshot_every=10)
        for i in range(25):
            shard.put("hot", i)
        # 25 appends with snapshot_every=10 -> at least 2 snapshots; replay
        # cost for the next owner is bounded by the threshold.
        second = attached(tmp_path, "w2")
        assert second.get("hot") == 24
        assert second.replayed_records <= 10

    def test_memory_mode_has_no_files(self):
        shard = Shard("comp", 0, None, "w1")
        shard.attach()
        shard.put("k", "v")
        assert shard.get("k") == "v"
        assert shard.snapshot() is None


class TestStoreHandover:
    def make_store(self, tmp_path, writer="r1", **kwargs) -> StateStore:
        return StateStore("cart", str(tmp_path), writer, num_shards=4, **kwargs)

    def test_export_import_preserves_all_keys(self, tmp_path):
        old = self.make_store(tmp_path, "old")
        for i in range(20):
            old.put(f"user-{i}", {"n": i})
        manifests = old.export_handover()
        assert sum(m.keys for m in manifests) == 20
        new = self.make_store(tmp_path, "new")
        for manifest in manifests:
            new.import_handover(manifest)
        assert sorted(new.keys()) == sorted(f"user-{i}" for i in range(20))
        assert new.get("user-7") == {"n": 7}

    def test_manifest_wire_round_trip(self, tmp_path):
        store = self.make_store(tmp_path)
        store.put("k", "v")
        (manifest,) = store.export_handover()
        again = ShardManifest.from_wire(manifest.to_wire())
        assert again == manifest

    def test_memory_store_hands_over_inline(self):
        old = StateStore("cart", None, "old", num_shards=2)
        old.put("a", 1)
        old.put("b", 2)
        manifests = old.export_handover()
        assert all(m.inline is not None for m in manifests)
        new = StateStore("cart", None, "new", num_shards=2)
        for manifest in manifests:
            new.import_handover(manifest)
        assert new.get("a") == 1 and new.get("b") == 2

    def test_reattach_after_detach_uses_fresh_writer_token(self, tmp_path):
        store = self.make_store(tmp_path)
        store.put("k", 1)
        sid = store.shard_id("k")
        first_writer = store.shard(sid).writer
        store.detach()
        store.put("k", 2)
        assert store.shard(sid).writer != first_writer
        assert store.get("k") == 2

    def test_stats_counts(self, tmp_path):
        store = self.make_store(tmp_path)
        store.put("a", 1)
        store.get("a")
        stats = store.stats()
        assert stats["writes"] == 1
        assert stats["reads"] == 1
        assert stats["keys"] == 1

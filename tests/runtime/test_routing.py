"""Sliced affinity routing and load balancing (§5.2)."""

from __future__ import annotations

import collections

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import PlacementError
from repro.runtime.routing import (
    Assignment,
    LoadBalancer,
    RoutingTable,
    build_assignment,
    key_hash,
    moved_fraction,
)

REPLICAS = [f"tcp://10.0.0.{i}:9000" for i in range(1, 6)]


class TestKeyHash:
    def test_deterministic(self):
        assert key_hash("user-1") == key_hash("user-1")

    def test_different_keys_differ(self):
        assert key_hash("user-1") != key_hash("user-2")

    def test_any_repr_able_key(self):
        key_hash(("tuple", 1))
        key_hash(42)
        key_hash(None)

    def test_64_bit_range(self):
        assert 0 <= key_hash("x") < 1 << 64


class TestAssignment:
    def test_same_key_same_replica(self):
        a = build_assignment("comp", REPLICAS, generation=1)
        for key in ("a", "b", "user-123"):
            assert a.replica_for(key) == a.replica_for(key)

    def test_assignment_deterministic_across_builds(self):
        a = build_assignment("comp", REPLICAS, generation=1)
        b = build_assignment("comp", REPLICAS, generation=2)
        assert [a.replica_for(f"k{i}") for i in range(50)] == [
            b.replica_for(f"k{i}") for i in range(50)
        ]

    def test_balance_reasonable(self):
        a = build_assignment("comp", REPLICAS, generation=1)
        counts = collections.Counter(a.replica_for(f"key-{i}") for i in range(5000))
        assert set(counts) == set(REPLICAS)
        expected = 5000 / len(REPLICAS)
        for replica, n in counts.items():
            assert 0.5 * expected < n < 1.6 * expected, (replica, n)

    def test_single_replica_owns_everything(self):
        a = build_assignment("comp", REPLICAS[:1], generation=1)
        assert {a.replica_for(f"k{i}") for i in range(100)} == {REPLICAS[0]}

    def test_empty_replicas_rejected(self):
        with pytest.raises(PlacementError):
            build_assignment("comp", [], generation=1)

    def test_adding_replica_moves_about_one_nth(self):
        """The consistent-hashing minimal-movement property."""
        old = build_assignment("comp", REPLICAS[:4], generation=1)
        new = build_assignment("comp", REPLICAS[:5], generation=2)
        moved = moved_fraction(old, new)
        assert 0.10 < moved < 0.35  # ideal 1/5 = 0.20

    def test_removing_replica_moves_only_its_keys(self):
        old = build_assignment("comp", REPLICAS, generation=1)
        survivors = REPLICAS[:-1]
        new = build_assignment("comp", survivors, generation=2)
        for i in range(500):
            key = f"key-{i}"
            if old.replica_for(key) in survivors:
                assert new.replica_for(key) == old.replica_for(key)

    def test_wire_roundtrip(self):
        a = build_assignment("comp", REPLICAS, generation=7)
        b = Assignment.from_wire(a.to_wire())
        assert b == a
        assert b.replica_for("k") == a.replica_for("k")


class TestLoadBalancer:
    def test_round_robin_without_load_info(self):
        lb = LoadBalancer()
        picks = [lb.pick(REPLICAS) for _ in range(len(REPLICAS) * 2)]
        assert collections.Counter(picks) == {r: 2 for r in REPLICAS}

    def test_single_replica(self):
        lb = LoadBalancer()
        assert lb.pick(["only"]) == "only"

    def test_empty_rejected(self):
        with pytest.raises(PlacementError):
            LoadBalancer().pick([])

    def test_prefers_less_loaded(self):
        lb = LoadBalancer(seed=7)
        for _ in range(50):
            lb.acquire(REPLICAS[0])
        counts = collections.Counter(lb.pick(REPLICAS[:2]) for _ in range(100))
        assert counts[REPLICAS[1]] > counts[REPLICAS[0]]

    def test_release_balances_back(self):
        lb = LoadBalancer(seed=7)
        lb.acquire("a")
        lb.release("a")
        assert lb._inflight == {}


class TestRoutingTable:
    def test_pick_without_info_is_none(self):
        assert RoutingTable().pick("comp", None) is None

    def test_pick_unrouted_round_robins(self):
        t = RoutingTable()
        t.update_replicas("comp", REPLICAS[:2])
        picks = {t.pick("comp", None) for _ in range(10)}
        assert picks == set(REPLICAS[:2])

    def test_pick_routed_uses_assignment(self):
        t = RoutingTable()
        t.update_assignment(build_assignment("comp", REPLICAS, generation=1))
        assert t.pick("comp", "user-1") == t.pick("comp", "user-1")

    def test_stale_generation_ignored(self):
        t = RoutingTable()
        new = build_assignment("comp", REPLICAS[:2], generation=5)
        old = build_assignment("comp", REPLICAS, generation=3)
        t.update_assignment(new)
        t.update_assignment(old)  # must not regress
        assert t.assignment("comp").generation == 5

    def test_invalidate(self):
        t = RoutingTable()
        t.update_replicas("comp", REPLICAS)
        t.invalidate("comp")
        assert t.pick("comp", None) is None

    def test_components_listing(self):
        t = RoutingTable()
        t.update_replicas("b", REPLICAS)
        t.update_assignment(build_assignment("a", REPLICAS, generation=1))
        assert t.components() == ["a", "b"]


@settings(max_examples=50, deadline=None)
@given(st.text(min_size=1, max_size=30))
def test_property_affinity_stable_within_generation(key):
    a = build_assignment("c", REPLICAS, generation=1)
    assert a.replica_for(key) == a.replica_for(key)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8))
def test_property_all_replicas_used(n):
    a = build_assignment("c", REPLICAS[:1] * 0 + [f"r{i}" for i in range(n)], generation=1)
    owners = {a.replica_for(f"key-{i}") for i in range(2000)}
    assert len(owners) == n


class TestBreakerAwareRouting:
    """RoutingTable picks steer around OPEN breakers (failure domains)."""

    def _table(self, replicas=None, **policy_kwargs):
        from repro.transport.breaker import BreakerPolicy, BreakerSet

        policy_kwargs.setdefault("consecutive_failures", 1)
        breakers = BreakerSet(BreakerPolicy(**policy_kwargs))
        table = RoutingTable(breakers)
        table.update_replicas("c", replicas or REPLICAS)
        return table, breakers

    def test_unrouted_pick_skips_open_replica(self):
        table, breakers = self._table()
        breakers.record("c", REPLICAS[0], ok=False)  # trips
        for _ in range(50):
            assert table.pick("c", None) != REPLICAS[0]

    def test_routed_key_falls_back_along_ring(self):
        table, breakers = self._table()
        table.update_assignment(build_assignment("c", REPLICAS, generation=1))
        owner = table.assignment("c").replica_for("user-7")
        breakers.record("c", owner, ok=False)  # eject the key's owner
        fallback = table.pick("c", "user-7")
        assert fallback != owner
        # Deterministic: every pick (and every proclet) lands on the same
        # fallback while the ejection lasts.
        assert table.pick("c", "user-7") == fallback
        # Matches the ring's declared failover order.
        ring_order = list(table.assignment("c").owners_for("user-7"))
        assert ring_order[0] == owner
        assert fallback == ring_order[1]

    def test_all_open_degrades_to_least_recently_tripped(self):
        import itertools

        table, breakers = self._table(replicas=REPLICAS[:3], open_for_s=60.0)
        clock = itertools.count()
        breakers._clock = lambda: float(next(clock))  # strictly ordered trips
        for addr in REPLICAS[:3]:
            breakers.record("c", addr, ok=False)
        # Oldest trip = first killed; both routed and unrouted picks
        # degrade to it instead of refusing service.
        assert table.pick("c", None) == REPLICAS[0]
        table.update_assignment(build_assignment("c", REPLICAS[:3], generation=1))
        assert table.pick("c", "any-key") == REPLICAS[0]

    def test_trip_is_skipped_at_once_and_close_restores_it(self):
        """Picks skip breakers while all are CLOSED; a trip takes effect on
        the very next pick, and a close puts the replica back."""
        from repro.transport.breaker import BreakerPolicy, BreakerSet

        now = [0.0]
        breakers = BreakerSet(
            BreakerPolicy(consecutive_failures=1, open_for_s=1.0, half_open_successes=1),
            clock=lambda: now[0],
        )
        table = RoutingTable(breakers)
        table.update_replicas("c", REPLICAS[:2])
        table.update_assignment(build_assignment("c", REPLICAS[:2], generation=1))
        key = next(k for k in map(str, range(100)) if table.pick("c", k) == REPLICAS[0])
        assert {table.pick("c", None) for _ in range(4)} == set(REPLICAS[:2])

        breakers.record("c", REPLICAS[0], ok=False)  # trips
        assert {table.pick("c", None) for _ in range(4)} == {REPLICAS[1]}
        assert table.pick("c", key) == REPLICAS[1]

        now[0] += 1.0  # cooldown over: the key's owner takes the probe
        assert table.pick("c", key) == REPLICAS[0]
        breakers.record("c", REPLICAS[0], ok=True)  # probe succeeded: closed
        assert breakers.all_closed("c")
        assert table.pick("c", key) == REPLICAS[0]
        assert {table.pick("c", None) for _ in range(4)} == set(REPLICAS[:2])

    def test_update_replicas_prunes_breakers(self):
        table, breakers = self._table()
        breakers.record("c", REPLICAS[0], ok=False)
        table.update_replicas("c", REPLICAS[1:])
        assert breakers.states("c") == {}

    def test_owners_for_yields_all_distinct_replicas(self):
        a = build_assignment("c", REPLICAS, generation=1)
        order = list(a.owners_for("some-key"))
        assert sorted(order) == sorted(REPLICAS)
        assert order[0] == a.replica_for("some-key")


class TestOwnersForEdgeCases:
    """The failover-order contract repro.state's ownership checks lean on."""

    def test_single_replica_ring_yields_exactly_one_owner(self):
        a = build_assignment("c", REPLICAS[:1], generation=1)
        for key in ("a", "user-123", ""):
            assert list(a.owners_for(key)) == [REPLICAS[0]]

    def test_empty_ring_raises_not_loops(self):
        a = Assignment(component="c", generation=1, points=(), owners=(), replicas=())
        with pytest.raises(PlacementError):
            a.replica_for("k")
        with pytest.raises(PlacementError):
            list(a.owners_for("k"))

    def test_all_breakers_open_routed_pick_still_serves(self):
        """Total-ejection fallback: the degraded pick is a ring member,
        never None and never an exception (availability over affinity)."""
        from repro.transport.breaker import BreakerPolicy, BreakerSet

        breakers = BreakerSet(BreakerPolicy(consecutive_failures=1, open_for_s=60.0))
        table = RoutingTable(breakers)
        table.update_assignment(build_assignment("c", REPLICAS[:2], generation=1))
        table.update_replicas("c", REPLICAS[:2])
        for addr in REPLICAS[:2]:
            breakers.record("c", addr, ok=False)
        pick = table.pick("c", "user-1")
        assert pick in REPLICAS[:2]

    def test_owner_list_stable_across_add_remove_cycle(self):
        """Add a replica, then remove it again: every key's full failover
        order — not just its primary — returns to exactly the original,
        so a caller that cached generation-1 ordering is never misled by
        a ring that has since bounced back."""
        before = build_assignment("c", REPLICAS[:4], generation=1)
        bounced = build_assignment("c", REPLICAS[:5], generation=2)
        after = build_assignment("c", REPLICAS[:4], generation=3)
        for i in range(200):
            key = f"key-{i}"
            assert list(before.owners_for(key)) == list(after.owners_for(key))
            # And while the extra replica was in, survivors kept their
            # relative order (consistent hashing inserts, never reshuffles).
            without_new = [
                r for r in bounced.owners_for(key) if r != REPLICAS[4]
            ]
            assert without_new == list(before.owners_for(key))

    def test_first_owner_matches_replica_for_on_every_ring_size(self):
        for n in range(1, len(REPLICAS) + 1):
            a = build_assignment("c", REPLICAS[:n], generation=n)
            for i in range(50):
                key = f"key-{i}"
                assert next(a.owners_for(key)) == a.replica_for(key)

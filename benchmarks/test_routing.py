"""E9 — affinity routing (§5.2).

    "consider an in-memory cache component ... The cache hit rate and
    overall performance increase when requests for the same key are routed
    to the same cache replica."

A cache component replicated N ways, driven with a Zipf-ish key
distribution: sliced (affinity) routing vs random spraying.  Also
benchmarks assignment construction and lookup, and verifies minimal
movement on rebalance.
"""

from __future__ import annotations

import random

from benchmarks.conftest import print_table
from repro.runtime.routing import build_assignment, moved_fraction

REPLICAS = [f"tcp://10.0.0.{i}:9000" for i in range(1, 6)]


def zipf_keys(n: int, universe: int = 500, seed: int = 0) -> list[str]:
    rng = random.Random(seed)
    weights = [1 / (rank + 1) for rank in range(universe)]
    return [f"key-{rng.choices(range(universe), weights=weights)[0]}" for _ in range(n)]


class ReplicaCache:
    """Stand-in for the paper's cache-over-storage component replica."""

    def __init__(self, capacity: int = 60):
        self.capacity = capacity
        self.entries: dict[str, str] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> None:
        if key in self.entries:
            self.hits += 1
            return
        self.misses += 1
        if len(self.entries) >= self.capacity:
            self.entries.pop(next(iter(self.entries)))
        self.entries[key] = "value"


def drive(route) -> float:
    caches = {r: ReplicaCache() for r in REPLICAS}
    for key in zipf_keys(20_000):
        caches[route(key)].get(key)
    hits = sum(c.hits for c in caches.values())
    total = hits + sum(c.misses for c in caches.values())
    return hits / total


def test_affinity_vs_random_hit_rate(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assignment = build_assignment("cache", REPLICAS, generation=1)
    rng = random.Random(1)

    routed_rate = drive(assignment.replica_for)
    random_rate = drive(lambda key: rng.choice(REPLICAS))

    print_table(
        "E9: cache hit rate, affinity vs random routing",
        [
            {"routing": "affinity (sliced)", "hit_rate": routed_rate},
            {"routing": "random", "hit_rate": random_rate},
            {"routing": "improvement", "hit_rate": routed_rate / random_rate},
        ],
        ["routing", "hit_rate"],
    )
    # Slicer's observation: affinity routing materially raises hit rate.
    assert routed_rate > random_rate * 1.15


def test_rebalance_movement(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """Adding one replica moves ~1/n of the key space, not all of it."""
    rows = []
    for n in (2, 4, 8, 16):
        old = build_assignment("cache", [f"r{i}" for i in range(n)], generation=1)
        new = build_assignment("cache", [f"r{i}" for i in range(n + 1)], generation=2)
        moved = moved_fraction(old, new, samples=4000)
        rows.append({"replicas": f"{n}->{n+1}", "moved_fraction": moved, "ideal": 1 / (n + 1)})
    print_table("E9: key movement on scale-up", rows, ["replicas", "moved_fraction", "ideal"])
    for row in rows:
        assert row["moved_fraction"] < 2.5 * row["ideal"]


def test_assignment_build(benchmark):
    benchmark(build_assignment, "cache", REPLICAS, 1)


def test_assignment_lookup(benchmark):
    assignment = build_assignment("cache", REPLICAS, generation=1)
    keys = zipf_keys(1000)

    def lookups():
        for key in keys:
            assignment.replica_for(key)

    benchmark(lookups)


def test_end_to_end_routed_component(benchmark):
    """Live affinity through the real runtime: CartStore replicated x4."""
    import asyncio

    from repro.boutique import ALL_COMPONENTS, Cart, CartItem
    from repro.core.config import AppConfig
    from repro.runtime.deployers.multi import deploy_multiprocess

    async def scenario() -> int:
        config = AppConfig(
            name="routed",
            replicas={"repro.boutique.cartstore.CartStore": 4},
        )
        app = await deploy_multiprocess(config, components=ALL_COMPONENTS, mode="inproc")
        cart = app.get(Cart)
        for i in range(40):
            await cart.add_item(f"user-{i}", CartItem("OLJCESPC7Z", 1))
        found = 0
        for i in range(40):
            if await cart.get_cart(f"user-{i}"):
                found += 1
        await app.shutdown()
        return found

    found = benchmark.pedantic(lambda: asyncio.run(scenario()), rounds=1, iterations=1)
    assert found == 40  # every key found its writer's replica

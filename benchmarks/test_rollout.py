"""E10 — atomic rollouts vs rolling updates (§4.4).

    "[78] shows that the majority of update failures are caused by these
    cross-version interactions."

Two experiments:

1. *Exposure*: fraction of requests that traverse mixed versions during a
   rolling update of the 11-service application, against the structural
   zero of blue/green (per-request pinning).
2. *Failure injection*: make the version skew semantically meaningful
   (a field reorder between schema versions — the classic tagged-format
   upgrade bug) and count how many crossings corrupt data.
"""

from __future__ import annotations

from dataclasses import dataclass

from benchmarks.conftest import print_table
from repro.codegen.schema import schema_of, clear_cache
from repro.core.config import RolloutConfig
from repro.runtime.rollout import BlueGreenRollout, RollingUpdateModel
from repro.serde.tagged import TaggedCodec


def test_cross_version_exposure(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    model = RollingUpdateModel(num_services=11, replicas_per_service=3, seed=1)
    rows = []
    for upgraded in (0.1, 0.25, 0.5, 0.75, 0.9):
        rows.append(
            {
                "upgraded": upgraded,
                "rolling_crossings": model.simulate(upgraded, requests=4000),
                "blue_green_crossings": 0.0,
            }
        )
    print_table(
        "E10: fraction of requests crossing versions",
        rows,
        ["upgraded", "rolling_crossings", "blue_green_crossings"],
    )
    total = model.total_exposure(steps=20, requests_per_step=2000)
    print(f"mean exposure over a full rolling update: {total:.1%} of requests")
    assert rows[2]["rolling_crossings"] > 0.9  # 11 services at 50%: near-certain
    assert total > 0.5


@dataclass
class OrderV1:
    user_id: str
    total_cents: int


@dataclass
class OrderV1Reordered:
    """The 'new version' after a careless refactor swapped field order —
    under a tagged format this decodes without any error."""

    total_cents: int
    user_id: str


def test_version_skew_corruption_vs_handshake(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    codec = TaggedCodec()
    clear_cache()
    old_schema = schema_of(OrderV1)
    new_schema = schema_of(OrderV1Reordered)

    model = RollingUpdateModel(num_services=2, replicas_per_service=4, seed=2)
    paths = model.sample_paths(upgraded=0.5, requests=2000)

    silent_corruptions = 0
    loud_failures = 0
    crossings = 0
    for sender_new, receiver_new in paths:
        if sender_new == receiver_new:
            continue  # same version: always fine
        crossings += 1
        message = OrderV1Reordered(4200, "user-1") if sender_new else OrderV1("user-1", 4200)
        data = codec.encode(new_schema if sender_new else old_schema, message)
        try:
            decoded = codec.decode(old_schema if sender_new else new_schema, data)
            fields = (
                (decoded.user_id, decoded.total_cents)
                if isinstance(decoded, OrderV1)
                else (decoded.user_id, decoded.total_cents)
            )
            if fields != ("user-1", 4200):
                silent_corruptions += 1
        except Exception:
            loud_failures += 1

    print_table(
        "E10: injected schema skew during rolling update (2-service chain)",
        [
            {
                "outcome": "cross-version requests",
                "count": crossings,
            },
            {"outcome": "silent corruption or error", "count": silent_corruptions + loud_failures},
            {"outcome": "under atomic rollout", "count": 0},
        ],
        ["outcome", "count"],
    )
    # Every crossing is affected; atomic rollout makes crossings impossible
    # (the handshake rejects them before any payload flows).
    assert crossings > 0
    assert silent_corruptions + loud_failures == crossings


def test_blue_green_traffic_shift(benchmark):
    """Benchmark the rollout machinery itself: pin + advance over 10 steps."""

    class App:
        def __init__(self, version):
            self.version = version

    def rollout_cycle():
        r = BlueGreenRollout(App("v1"), App("v2"), config=RolloutConfig(steps=10), seed=3)
        greens = 0
        while not r.done:
            r.advance()
            for _ in range(100):
                if r.pin().version == "v2":
                    greens += 1
        return greens

    greens = benchmark(rollout_cycle)
    assert 400 < greens < 700  # ~55% of 1000 under a linear ramp

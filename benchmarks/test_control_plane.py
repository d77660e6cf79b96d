"""E3 + E6 — Table 1's control-plane API and Figure 3's deployer loop.

Measures the three calls of Table 1 (RegisterReplica, ComponentsToHost,
StartComponent) end-to-end through envelope relays, plus the full deployer
lifecycle: launch N proclets, serve, collect telemetry, tear down.
"""

from __future__ import annotations

import asyncio

from benchmarks.conftest import print_table
from repro.boutique import ALL_COMPONENTS, Frontend
from repro.core.config import AppConfig
from repro.runtime.deployers.multi import deploy_multiprocess


def test_table1_api_roundtrips(benchmark):
    """RegisterReplica / ComponentsToHost / StartComponent latencies."""

    async def scenario():
        import time

        app = await deploy_multiprocess(
            AppConfig(name="ctl"), components=ALL_COMPONENTS, mode="inproc", eager=False
        )
        manager = app.manager
        timings = {}

        start = time.perf_counter()
        await manager.start_component("repro.boutique.catalog.ProductCatalog")
        timings["start_component_ms"] = (time.perf_counter() - start) * 1000

        proclet_id = next(iter(app.envelopes))
        start = time.perf_counter()
        for _ in range(100):
            await manager.components_to_host(proclet_id)
        timings["components_to_host_us"] = (time.perf_counter() - start) * 1e4

        start = time.perf_counter()
        for i in range(100):
            await manager.register_replica(f"bench-{i}", f"tcp://127.0.0.1:{20000+i}", 0)
        timings["register_replica_us"] = (time.perf_counter() - start) * 1e4

        await app.shutdown()
        return timings

    timings = benchmark.pedantic(lambda: asyncio.run(scenario()), rounds=1, iterations=1)
    print_table(
        "E3: Table 1 control API round-trips",
        [
            {"api": "StartComponent (cold: launches a proclet)", "value": f"{timings['start_component_ms']:.1f} ms"},
            {"api": "ComponentsToHost", "value": f"{timings['components_to_host_us']:.1f} us"},
            {"api": "RegisterReplica", "value": f"{timings['register_replica_us']:.1f} us"},
        ],
        ["api", "value"],
    )


def test_deployer_lifecycle(benchmark):
    """E6: Figure 3 end to end — launch, serve, aggregate, tear down."""

    async def scenario():
        app = await deploy_multiprocess(
            AppConfig(name="lifecycle"), components=ALL_COMPONENTS, mode="inproc"
        )
        fe = app.get(Frontend)
        for i in range(5):
            await fe.home(f"u{i}", "USD")
        # Wait for at least one telemetry heartbeat to reach the manager.
        for _ in range(50):
            if app.manager.call_graph.total_calls() > 0:
                break
            await asyncio.sleep(0.05)
        stats = {
            "replicas": app.manager.total_replicas(),
            "call_graph_edges": len(app.manager.call_graph.edges()),
            "metric_series": len(app.manager.metrics.cells()),
        }
        await app.shutdown()
        return stats

    stats = benchmark.pedantic(lambda: asyncio.run(scenario()), rounds=1, iterations=1)
    print_table(
        "E6: deployer lifecycle (11 proclets, telemetry aggregated)",
        [{"metric": k, "value": v} for k, v in stats.items()],
        ["metric", "value"],
    )
    assert stats["replicas"] == 11
    assert stats["call_graph_edges"] > 0
    assert stats["metric_series"] > 0


def test_subprocess_launch_cost(benchmark):
    """What a real fork-per-proclet deployment costs on this machine."""

    async def scenario():
        from tests.conftest import Adder, AdderImpl
        from repro.core.registry import Registry

        registry = Registry()
        registry.register(Adder, AdderImpl)
        app = await deploy_multiprocess(
            AppConfig(name="spawn"), registry=registry, mode="subprocess"
        )
        value = await app.get(Adder).add(1, 1)
        await app.shutdown()
        return value

    value = benchmark.pedantic(lambda: asyncio.run(scenario()), rounds=1, iterations=1)
    assert value == 2

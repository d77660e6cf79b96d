"""The multiprocess deployer (mostly in-process envelope mode)."""

from __future__ import annotations

import asyncio
import json
from dataclasses import fields, replace

import pytest

from repro.core.config import AppConfig, AutoscaleConfig, RolloutConfig
from repro.runtime.deployers.multi import _config_to_dict, deploy_multiprocess

from tests.conftest import Adder, Flaky, Greeter, KVStore, until


async def deployed(demo_registry, **kwargs):
    config = kwargs.pop("config", AppConfig(name="t"))
    return await deploy_multiprocess(config, registry=demo_registry, **kwargs)


class TestBasics:
    async def test_remote_call_through_driver(self, demo_registry):
        app = await deployed(demo_registry)
        assert await app.get(Adder).add(2, 3) == 5
        await app.shutdown()

    async def test_cross_component_dependency_is_remote(self, demo_registry):
        app = await deployed(demo_registry)
        assert await app.get(Greeter).greet("Ana") == "Hello, Ana! (4)"
        # Greeter and Adder live in different proclets: the greeter's
        # proclet must have recorded a remote call to Adder.
        greeter_name = app.build.by_iface(Greeter).name
        # The edge reaches the manager on the greeter proclet's heartbeat.
        edges = await until(
            lambda: [
                e
                for e in app.manager.call_graph.edges()
                if e.caller == greeter_name and e.callee.endswith("Adder")
            ],
            10.0,
            "the greeter's call-graph edge to Adder never landed",
        )
        assert edges[0].remote_calls >= 1
        await app.shutdown()

    async def test_remote_call_is_one_call_graph_edge(self, demo_registry):
        """The caller records a remote call; the proclet serving it adds no
        ``<remote>`` edge, so the manager counts each call once and never
        offers a non-component as a co-location candidate."""
        app = await deployed(demo_registry)
        try:
            n = 100
            adder = app.get(Adder)
            for i in range(n):
                assert await adder.add(i, 1) == i + 1
            for proclet in [app._driver, *(e.proclet for e in app.envelopes.values())]:
                await proclet._send_heartbeat()
            graph = app.manager.call_graph
            assert graph.total_calls() == n
            assert all(e.caller != "<remote>" for e in graph.edges())
            assert graph.chatty_pairs() == []  # only <root> calls Adder
            assert [name for name, _ in graph.bottlenecks()] == [app.build.by_iface(Adder).name]
        finally:
            await app.shutdown()

    async def test_one_proclet_per_group(self, demo_registry):
        app = await deployed(demo_registry)
        assert app.manager.total_replicas() == 4  # four singleton groups
        await app.shutdown()

    async def test_colocated_components_share_proclet(self, demo_registry):
        from repro.core.component import component_name

        config = AppConfig(name="t", colocate=((Adder, Greeter),))
        app = await deployed(demo_registry, config=config)
        assert app.manager.total_replicas() == 3
        assert await app.get(Greeter).greet("Bo") == "Hello, Bo! (3)"
        # The co-located dependency call is local (no Adder remote edge).
        greeter_proclet = next(
            e.proclet
            for e in app.envelopes.values()
            if component_name(Greeter) in e.proclet.hosted
        )
        assert component_name(Adder) in greeter_proclet.hosted
        await app.shutdown()

    async def test_lazy_start(self, demo_registry):
        app = await deployed(demo_registry, eager=False)
        assert app.manager.total_replicas() == 0
        assert await app.get(Adder).add(1, 1) == 2  # triggers StartComponent
        assert app.manager.total_replicas() == 1
        await app.shutdown()

    async def test_retry_budget_exhaustion_surfaces_unavailable(self, demo_registry):
        from repro.core.errors import Unavailable

        app = await deployed(demo_registry)
        flaky = app.get(Flaky)
        # Fails with retryable Unavailable 10 times; max_retries=2, so the
        # caller sees the failure after the budget is spent.
        with pytest.raises(Unavailable):
            await flaky.work(10)
        await app.shutdown()


class TestReplication:
    async def test_replicated_component(self, demo_registry):
        config = AppConfig(name="t", replicas={KVStore: 3})
        app = await deployed(demo_registry, config=config)
        name = app.build.by_iface(KVStore).name
        assert len(app.manager.replica_addresses(name)) == 3
        await app.shutdown()

    async def test_routed_affinity_across_replicas(self, demo_registry):
        config = AppConfig(name="t", replicas={KVStore: 3})
        app = await deployed(demo_registry, config=config)
        kv = app.get(KVStore)
        # Writes land on the replica that owns each key; reads of the same
        # key go to the same replica, so every value is found.
        for i in range(30):
            await kv.put(f"key-{i}", f"value-{i}")
        for i in range(30):
            assert await kv.get(f"key-{i}") == f"value-{i}"
        # Different keys actually spread across replicas.
        owners = {await kv.which_replica(f"key-{i}") for i in range(30)}
        assert len(owners) > 1
        await app.shutdown()

    async def test_retryable_component_errors_retry(self, demo_registry):
        app = await deployed(demo_registry)
        flaky = app.get(Flaky)
        # Fails twice with Unavailable, succeeds on the third attempt;
        # max_retries=2 means exactly enough retries.
        assert await flaky.work(2) == "done"
        await app.shutdown()


class TestFailureRecovery:
    async def test_kill_and_restart(self, demo_registry):
        app = await deployed(demo_registry)
        adder = app.get(Adder)
        assert await adder.add(1, 1) == 2

        name = app.build.by_iface(Adder).name
        victim = next(
            proclet_id
            for proclet_id, env in app.envelopes.items()
            if name in env.proclet.hosted
        )
        app.kill_replica(victim)
        await app.manager.reconcile()
        await asyncio.sleep(0.05)

        # The manager restarted the group; calls work again.
        assert await adder.add(2, 2) == 4
        await app.shutdown()

    async def test_dead_replica_envelope_is_stopped(self, demo_registry):
        app = await deployed(demo_registry)
        victim = next(iter(app.envelopes))
        app.kill_replica(victim)
        await app.manager.reconcile()
        # The converge step stopped the dead replica: its envelope is gone.
        assert victim not in app.envelopes
        assert len(app.envelopes) == app.manager.total_replicas()
        await app.shutdown()

    async def test_version_is_consistent_everywhere(self, demo_registry):
        app = await deployed(demo_registry)
        versions = {env.proclet.build.version for env in app.envelopes.values()}
        assert versions == {app.version}
        await app.shutdown()


def test_subprocess_config_keeps_every_proclet_field():
    """Subprocess proclets rebuild their AppConfig from the shipped dict:
    everything but the driver-only placement fields must survive it."""
    config = AppConfig(
        name="shipped",
        codec="tagged",
        colocate=(("a.B", "a.C"),),
        replicas={"a.B": 2},
        autoscale=AutoscaleConfig(min_replicas=2),
        rollout=RolloutConfig(steps=3),
        call_timeout_s=7.0,
        max_retries=5,
        max_inflight=9,
        max_queue_depth=11,
        compress_wire=True,
        breakers_enabled=False,
        breaker_failures=4,
        breaker_open_for_s=2.5,
        drain_deadline_s=1.5,
        state_dir="/nonexistent/state",
        state_shards=4,
        state_fsync=True,
        state_snapshot_every=32,
        telemetry="off",
        trace_rate=None,
        trace_sample_rate=0.5,
        trace_max_traces=10,
        slo_error_budget=0.02,
        slo_latency_ms=100.0,
        slo_latency_budget=0.1,
        telemetry_tick_s=0.5,
        remediation="observe",
        remediation_cooldown_s=3.0,
        remediation_max_actions_per_min=2,
        remediation_blast_fraction=0.5,
        remediation_journal_size=8,
        settings={"k": "v"},
    )
    default = AppConfig()
    for f in fields(AppConfig):  # a new field must be exercised here too
        assert getattr(config, f.name) != getattr(default, f.name), f.name
    shipped = json.loads(json.dumps(_config_to_dict(config)))  # the spec file
    assert AppConfig.from_dict(shipped) == replace(
        config,
        colocate=(),
        replicas={},
        autoscale=AutoscaleConfig(),
        rollout=RolloutConfig(),
    )


@pytest.mark.parametrize("mode", ["inproc", "subprocess"])
class TestDataPlaneThroughDeployment:
    """Large values, concurrent state writes and drain, at the default
    config, through a whole deployment in both modes."""

    async def test_large_value_round_trips(self, demo_registry, mode):
        app = await deployed(demo_registry, mode=mode)
        try:
            kv = app.get(KVStore)
            big = "x" * (2 << 20)  # the put rides the bulk connection
            await kv.put("big", big)
            assert await kv.get("big") == big
        finally:
            await app.shutdown()

    async def test_concurrent_puts_read_back_intact(self, demo_registry, mode):
        app = await deployed(demo_registry, mode=mode)
        try:
            kv = app.get(KVStore)
            await asyncio.gather(*[kv.put(f"k{i}", f"v{i}") for i in range(40)])
            got = await asyncio.gather(*[kv.get(f"k{i}") for i in range(40)])
            assert got == [f"v{i}" for i in range(40)]
        finally:
            await app.shutdown()

    async def test_drain_leaves_nothing_in_flight(self, demo_registry, mode):
        app = await deployed(demo_registry, mode=mode)
        try:
            assert await app.get(Adder).add(1, 2) == 3
            name = app.build.by_iface(Adder).name
            (proclet_id,) = next(
                g.proclets
                for g in app.manager.group_states().values()
                if name in g.components
            )
            reply = await app.drain_replica(proclet_id, 2.0)
            # drain() returns early only once inflight_rpcs reaches 0.
            assert reply["drained_s"] < 2.0
            if mode == "inproc":
                assert app.envelopes[proclet_id].proclet.inflight_rpcs == 0
        finally:
            await app.shutdown()

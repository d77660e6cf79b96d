"""The global manager's control-plane decisions."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import AppConfig, AutoscaleConfig
from repro.core.errors import ComponentNotFound
from repro.runtime.health import HealthState
from repro.runtime.manager import Manager

from tests.conftest import Adder, Greeter, KVStore


class FakeLauncher:
    """Registers a fake proclet for every start request (like a real
    envelope would, after the child boots)."""

    def __init__(self):
        self.manager: Manager | None = None
        self.started: list[tuple[int, int]] = []
        self.stopped: list[str] = []
        self._seq = 0

    async def start_replica(self, group_id: int, replica_index: int) -> None:
        self.started.append((group_id, replica_index))
        self._seq += 1
        proclet_id = f"fake-g{group_id}-r{self._seq}"
        # Register asynchronously, as a real envelope would.
        asyncio.get_running_loop().call_soon(
            lambda: asyncio.ensure_future(
                self.manager.register_replica(
                    proclet_id, f"tcp://127.0.0.1:{9000 + self._seq}", group_id
                )
            )
        )

    async def stop_replica(self, proclet_id: str) -> None:
        self.stopped.append(proclet_id)

    async def drain_replica(self, proclet_id: str, deadline_s: float) -> None:
        return None

    async def update_hosting(self, proclet_id: str, components: list[str]) -> None:
        self.hosting_updates = getattr(self, "hosting_updates", [])
        self.hosting_updates.append((proclet_id, components))


@pytest.fixture
def manager(demo_build):
    launcher = FakeLauncher()
    config = AppConfig(
        autoscale=AutoscaleConfig(target_utilization=0.5, scale_down_stabilization_s=0.0)
    )
    m = Manager(
        demo_build,
        config.resolve(demo_build.names()),
        launcher,
        autoscale_enabled=True,
    )
    launcher.manager = m
    return m


def group_id_of(manager, iface):
    name = manager.build.by_iface(iface).name
    return manager._component_group[name]


class TestRegistration:
    async def test_register_and_list_components(self, manager):
        gid = group_id_of(manager, Adder)
        await manager.register_replica("p1", "tcp://127.0.0.1:9001", gid)
        hosted = await manager.components_to_host("p1")
        assert hosted == [manager.build.by_iface(Adder).name]

    async def test_unknown_proclet_rejected(self, manager):
        with pytest.raises(ComponentNotFound):
            await manager.components_to_host("ghost")

    async def test_replica_indices_increase(self, manager):
        gid = group_id_of(manager, Adder)
        await manager.register_replica("p1", "tcp://1:1", gid)
        await manager.register_replica("p2", "tcp://1:2", gid)
        infos = {p.proclet_id: p.replica_index for p in manager.proclets()}
        assert infos["p1"] != infos["p2"]


class TestStartComponent:
    async def test_start_launches_and_waits_for_registration(self, manager):
        name = manager.build.by_iface(Adder).name
        await manager.start_component(name)
        assert manager.replica_addresses(name)

    async def test_start_is_idempotent(self, manager):
        name = manager.build.by_iface(Adder).name
        await manager.start_component(name)
        await manager.start_component(name)
        assert len(manager.replica_addresses(name)) == 1

    async def test_unknown_component_rejected(self, manager):
        with pytest.raises(ComponentNotFound):
            await manager.start_component("nope.Nope")


class TestRoutingInfo:
    async def test_replicas_listed(self, manager):
        name = manager.build.by_iface(Adder).name
        await manager.start_component(name)
        info = await manager.routing_info(name)
        assert len(info["replicas"]) == 1
        assert "assignment" not in info  # Adder has no routed methods

    async def test_routed_component_gets_assignment(self, manager):
        name = manager.build.by_iface(KVStore).name
        await manager.start_component(name)
        info = await manager.routing_info(name)
        assert info["assignment"]["component"] == name
        assert info["assignment"]["generation"] >= 1

    async def test_assignment_generation_bumps_on_membership_change(self, manager):
        name = manager.build.by_iface(KVStore).name
        await manager.start_component(name)
        gen1 = (await manager.routing_info(name))["assignment"]["generation"]
        gid = group_id_of(manager, KVStore)
        await manager.register_replica("extra", "tcp://127.0.0.1:9999", gid)
        gen2 = (await manager.routing_info(name))["assignment"]["generation"]
        assert gen2 > gen1


class TestHealthAndRepair:
    async def test_dead_replica_restarted(self, manager):
        name = manager.build.by_iface(Adder).name
        await manager.start_component(name)
        (info,) = manager.proclets()

        # Silence the heartbeat long enough to be declared dead.
        manager.health.mark_dead(info.proclet_id)
        await manager.sweep()
        await asyncio.sleep(0.01)  # let the relaunch registration land
        addresses = manager.replica_addresses(name)
        assert addresses
        assert all(a != info.address for a in addresses)

    async def test_heartbeat_updates_load(self, manager):
        gid = group_id_of(manager, Adder)
        await manager.register_replica("p1", "tcp://1:1", gid)
        await manager.heartbeat("p1", load=0.77)
        (info,) = [p for p in manager.proclets() if p.proclet_id == "p1"]
        assert info.load == 0.77
        assert manager.health.state("p1") is HealthState.HEALTHY

    async def test_heartbeat_from_unknown_proclet_ignored(self, manager):
        await manager.heartbeat("ghost", load=0.5)  # must not raise


class TestAutoscaling:
    async def test_scale_up_on_load(self, manager):
        gid = group_id_of(manager, Adder)
        await manager.register_replica("p1", "tcp://1:1", gid)
        await manager.heartbeat("p1", load=1.0)  # target 0.5 -> wants 2
        await manager.autoscale_tick()
        await asyncio.sleep(0.01)
        name = manager.build.by_iface(Adder).name
        assert len(manager.replica_addresses(name)) == 2

    async def test_scale_down_on_idle(self, manager):
        gid = group_id_of(manager, Adder)
        await manager.register_replica("p1", "tcp://1:1", gid)
        await manager.register_replica("p2", "tcp://1:2", gid)
        await manager.heartbeat("p1", load=0.01)
        await manager.heartbeat("p2", load=0.01)
        await manager.autoscale_tick()
        stopped = manager.launcher.stopped
        assert len(stopped) == 1

    async def test_no_scaling_when_disabled(self, demo_build):
        launcher = FakeLauncher()
        m = Manager(
            demo_build,
            AppConfig().resolve(demo_build.names()),
            launcher,
            autoscale_enabled=False,
        )
        launcher.manager = m
        gid = m._component_group[demo_build.by_iface(Adder).name]
        await m.register_replica("p1", "tcp://1:1", gid)
        await m.heartbeat("p1", load=5.0)
        await m.autoscale_tick()
        assert launcher.started == []


class TestTelemetry:
    async def test_metrics_merged(self, manager):
        from repro.observability.metrics import MetricsRegistry

        source = MetricsRegistry()
        source.counter("requests").inc(5, component="A")
        await manager.export_metrics("p1", source.snapshot())
        cell = manager.metrics.counter("requests").get(component="A")
        assert cell.value == 5

    async def test_logs_merged(self, manager):
        await manager.export_logs(
            "p1",
            [
                {
                    "timestamp": 2.0,
                    "level": "info",
                    "component": "A",
                    "replica_id": 0,
                    "message": "second",
                    "attributes": [],
                },
                {
                    "timestamp": 1.0,
                    "level": "info",
                    "component": "A",
                    "replica_id": 0,
                    "message": "first",
                    "attributes": [],
                },
            ],
        )
        merged = manager.logs.merged()
        assert [r.message for r in merged] == ["first", "second"]

    async def test_call_graph_merged(self, manager):
        from repro.core.call_graph import CallGraph

        g = CallGraph()
        g.record("A", "B", "m", latency_s=0.001, local=False)
        await manager.export_call_graph("p1", g.to_wire())
        assert manager.call_graph.total_calls() == 1

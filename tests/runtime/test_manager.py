"""The global manager's control-plane decisions."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.component import component_name
from repro.core.config import AppConfig, AutoscaleConfig
from repro.core.errors import ComponentNotFound
from repro.runtime.health import HealthState
from repro.runtime.manager import Manager

from tests.conftest import Adder, FakeLauncher, Greeter, KVStore


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
        await manager.reconcile()
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
        await manager.reconcile()
        await asyncio.sleep(0.01)
        name = manager.build.by_iface(Adder).name
        assert len(manager.replica_addresses(name)) == 2

    async def test_scale_down_on_idle(self, manager):
        gid = group_id_of(manager, Adder)
        await manager.register_replica("p1", "tcp://1:1", gid)
        await manager.register_replica("p2", "tcp://1:2", gid)
        await manager.heartbeat("p1", load=0.01)
        await manager.heartbeat("p2", load=0.01)
        await manager.reconcile()
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
        await m.reconcile()
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


class ConvergeHarness:
    """A manager over the shared FakeLauncher, on a hand-driven clock, whose
    routing bumps land in the launcher's event log beside its calls."""

    def __init__(self, demo_build, *, autoscale: bool) -> None:
        self.now = 1000.0
        config = AppConfig(
            name="converge",
            remediation="on",
            remediation_cooldown_s=0.0,
            drain_deadline_s=1.0,
            autoscale=AutoscaleConfig(
                target_utilization=0.5, max_replicas=4, scale_down_stabilization_s=0.0
            ),
        )
        self.launcher = FakeLauncher()
        self.manager = Manager(
            demo_build,
            config.resolve(demo_build.names()),
            self.launcher,
            clock=lambda: self.now,
            autoscale_enabled=autoscale,
        )
        self.launcher.manager = self.manager
        self.gid = group_id_of(self.manager, Adder)
        self.group = self.manager.group_states()[self.gid]
        bump = self.manager._bump_group_routing

        def recording_bump(group):
            self.launcher.events.append(("bump", group.group_id))
            bump(group)

        self.manager._bump_group_routing = recording_bump

    async def replicas(self, count: int, *, target: int) -> None:
        for i in range(count):
            await self.manager.register_replica(f"p{i}", f"tcp://127.0.0.1:{7000 + i}", self.gid)
        self.group.target_replicas = target
        self.launcher.events.clear()

    async def advance(self, seconds: float, *, load: float = 0.0, silent=()) -> None:
        """Move the clock; every replica but ``silent`` heartbeats."""
        self.now += seconds
        for info in self.manager.proclets():
            if info.proclet_id not in silent:
                await self.manager.heartbeat(info.proclet_id, load)

    async def registrations_land(self, count: int) -> None:
        """Yield until the FakeLauncher's queued registrations ran."""
        while len(self.group.proclets) < count:
            await asyncio.sleep(0)


class LatencyBoard:
    """A signal board with one firing p99 anomaly on ``scope``."""

    def __init__(self, scope: str) -> None:
        from repro.observability.signals import Signal

        self.signals = [
            Signal(
                kind="anomaly", name="p99_ms", scope=scope, firing=True,
                value=1.0, baseline=0.0, detail="test",
            )
        ]

    def firing(self):
        return list(self.signals)


async def _dead_replica(h):
    await h.replicas(1, target=1)
    h.manager.health.mark_dead("p0")
    return await h.manager.reconcile()


async def _scale_up(h):
    await h.replicas(1, target=1)
    await h.advance(1.0, load=1.0)  # target utilization 0.5 -> wants 2
    return await h.manager.reconcile()


async def _scale_down(h):
    await h.replicas(2, target=2)
    await h.advance(1.0, load=0.01)
    return await h.manager.reconcile()


async def _restart(h):
    await h.replicas(1, target=1)
    await h.advance(4.0, silent=("p0",))  # past suspect_after, short of dead
    return await h.manager.reconcile()


async def _eject(h):
    await h.replicas(2, target=1)
    await h.advance(4.0, silent=("p0",))
    return await h.manager.reconcile()


async def _hold_then_shrink(h):
    await h.replicas(1, target=1)
    h.manager.signals = LatencyBoard(h.group.components[0])
    entries = await h.manager.reconcile()  # remediation scales up and holds 2
    assert [(e["action"], e["reason"]) for e in entries if e["verdict"] == "applied"] == [
        ("start_replica", "remediation")
    ]
    assert h.launcher.events[0] == ("start", h.gid)
    assert h.group.hold == (2, h.now + 120.0)
    await h.registrations_land(2)
    h.manager.signals = LatencyBoard("nobody")
    # Idle load: the autoscaler proposes 1, the hold keeps 2.
    await h.advance(1.0)
    h.launcher.events.clear()
    assert await h.manager.reconcile() == []
    assert h.group.target_replicas == 2
    # Once the hold expires, the autoscaler may shrink.
    await h.advance(120.0)
    return await h.manager.reconcile()


#: (case, act, expected launcher/routing call order, (action, cause) changes)
CONVERGE_CASES = [
    (
        "dead replica is stopped and replaced",
        _dead_replica,
        [("bump", "g"), ("stop", "p0"), ("start", "g")],
        [("stop_replica", "health"), ("start_replica", "health")],
    ),
    (
        "autoscaler scales up",
        _scale_up,
        [("start", "g")],
        [("start_replica", "autoscale")],
    ),
    (
        "autoscaler scales down by replica_index",
        _scale_down,
        [("bump", "g"), ("drain", "p1"), ("stop", "p1")],
        [("stop_replica", "autoscale")],
    ),
    (
        "remediation restarts a suspect",
        _restart,
        [("bump", "g"), ("drain", "p0"), ("stop", "p0"), ("start", "g")],
        [("stop_replica", "remediation"), ("start_replica", "remediation")],
    ),
    (
        "remediation ejects a surplus suspect",
        _eject,
        [("bump", "g"), ("drain", "p0"), ("stop", "p0")],
        [("stop_replica", "remediation")],
    ),
    (
        "scale-up hold outlives an idle autoscaler, then it shrinks",
        _hold_then_shrink,
        [("bump", "g"), ("drain", "fake-g{g}-r1"), ("stop", "fake-g{g}-r1")],
        [("stop_replica", "autoscale")],
    ),
]


class TestReconcile:
    @pytest.mark.parametrize(
        "act,order,changes",
        [case[1:] for case in CONVERGE_CASES],
        ids=[case[0] for case in CONVERGE_CASES],
    )
    async def test_converge(self, demo_build, act, order, changes):
        h = ConvergeHarness(demo_build, autoscale=act in (_scale_up, _scale_down, _hold_then_shrink))
        entries = await act(h)

        def resolve(arg):
            return h.gid if arg == "g" else arg.format(g=h.gid)

        expected = [(call, resolve(arg)) for call, arg in order]
        # Routing drops the leavers before they drain, drains before stops;
        # a replacement's own registration may bump routing again after.
        assert h.launcher.events[: len(expected)] == expected
        assert [
            (e["action"], e["reason"]) for e in entries if e["verdict"] == "applied"
        ] == changes
        assert all(e["outcome"] == "ok" for e in entries)
        journal = h.manager.remediation.to_wire()["journal"]
        assert all(e in journal for e in entries)

    async def test_isolation_keeps_other_groups_desired_state(self, demo_build):
        """Re-placement retires no proclet: a group the autoscaler grew to 3
        keeps its replicas and hold when another group is split."""
        h = ConvergeHarness(demo_build, autoscale=False)
        adder, greeter = component_name(Adder), component_name(Greeter)
        rest = tuple(n for n in sorted(h.manager._component_group) if n not in (adder, greeter))
        await h.manager.apply_placement([(adder,), (greeter, *rest)])
        h.gid = group_id_of(h.manager, Adder)
        await h.replicas(3, target=3)
        h.group.hold = (3, h.now + 120.0)
        other = group_id_of(h.manager, Greeter)
        await h.manager.register_replica("q0", "tcp://127.0.0.1:7100", other)

        await h.manager.remediate_isolate(greeter)
        entries = await h.manager.reconcile()

        assert entries == []
        assert not [e for e in h.launcher.events if e[0] in ("drain", "stop")]
        group = h.manager._group_for_component(adder)
        assert sorted(group.proclets) == ["p0", "p1", "p2"]
        assert (group.target_replicas, group.hold) == (3, (3, h.now + 120.0))

    async def test_a_pass_drains_its_leavers_at_once(self, demo_build):
        h = ConvergeHarness(demo_build, autoscale=True)
        await h.replicas(3, target=3)
        await h.advance(1.0, load=0.01)  # the autoscaler wants 1
        gate, draining = asyncio.Event(), []

        async def drain_replica(proclet_id, deadline_s):
            draining.append(proclet_id)
            await gate.wait()

        h.launcher.drain_replica = drain_replica
        pass_ = asyncio.ensure_future(h.manager.reconcile())
        for _ in range(5):
            await asyncio.sleep(0)
        # Both surplus replicas drain together; neither has stopped yet.
        assert sorted(draining) == ["p1", "p2"] and h.launcher.stopped == []
        gate.set()
        entries = await pass_
        assert sorted(h.launcher.stopped) == ["p1", "p2"]
        assert [(e["action"], e["reason"]) for e in entries] == [("stop_replica", "autoscale")] * 2

    async def test_failed_relaunch_is_retried_under_its_cause(self, demo_build):
        from repro.core.errors import RuntimeControlError

        h = ConvergeHarness(demo_build, autoscale=False)
        await h.replicas(1, target=1)
        start = h.launcher.start_replica
        fail = [True]

        async def start_replica(group_id, replica_index):
            if fail[0]:
                raise RuntimeControlError("child exited with status 1")
            await start(group_id, replica_index)

        h.launcher.start_replica = start_replica
        h.manager.health.mark_dead("p0")
        first = await h.manager.reconcile()
        assert [(e["action"], e["reason"], e["outcome"][:6]) for e in first] == [
            ("stop_replica", "health", "ok"),
            ("start_replica", "health", "failed"),
        ]
        fail[0] = False
        second = await h.manager.reconcile()
        assert [(e["action"], e["reason"], e["outcome"]) for e in second] == [
            ("start_replica", "health", "ok")
        ]
        await h.registrations_land(1)

"""The closed-loop remediation controller and its guardrails."""

from __future__ import annotations

import pytest

from repro.core.config import AppConfig, AutoscaleConfig
from repro.observability.signals import Signal
from repro.runtime.health import HealthState
from repro.runtime.manager import Manager
from repro.runtime.remediation import (
    EJECT,
    ISOLATE,
    RESTART,
    SCALE_UP,
    Guardrails,
    PlannedAction,
)

from tests.conftest import Adder, FakeLauncher, Greeter


class StubBoard:
    """A signal board that fires exactly what the test says."""

    def __init__(self):
        self._firing: list[Signal] = []

    def fire(self, kind: str, name: str, scope: str) -> Signal:
        s = Signal(
            kind=kind, name=name, scope=scope, firing=True,
            value=1.0, baseline=0.0, detail="stub",
        )
        self._firing.append(s)
        return s

    def clear(self) -> None:
        self._firing = []

    def firing(self) -> list[Signal]:
        return list(self._firing)


def make_manager(demo_build, **app_kw):
    defaults = dict(
        name="remtest",
        remediation="on",
        remediation_cooldown_s=0.0,
        autoscale=AutoscaleConfig(max_replicas=4, scale_down_stabilization_s=0.0),
    )
    defaults.update(app_kw)
    config = AppConfig(**defaults)
    launcher = FakeLauncher()
    m = Manager(demo_build, config.resolve(demo_build.names()), launcher)
    launcher.manager = m
    return m, launcher


def adder_name(manager):
    return manager.build.by_iface(Adder).name


async def start_all(manager):
    for group in manager.group_states().values():
        await manager.start_component(group.components[0])


def make_suspect(manager, proclet_id):
    """Age one replica's heartbeat past suspect_after and sweep."""
    tracker = manager.health
    rec = tracker.all()[proclet_id]
    rec.last_heartbeat -= tracker._suspect_after_s + 0.1
    tracker.sweep(manager.clock())
    assert tracker.state(proclet_id) is HealthState.SUSPECT


def plan_of(action, group_id=0, target="p", scope="c", reason="r"):
    return PlannedAction(
        action=action, group_id=group_id, target=target, scope=scope, reason=reason
    )


class TestGuardrails:
    def _rails(self, *, cooldown_s=10.0, budget=3, blast=1 / 3, t0=100.0):
        state = {"now": t0}
        rails = Guardrails(
            cooldown_s=cooldown_s,
            max_actions_per_min=budget,
            blast_fraction=blast,
            clock=lambda: state["now"],
        )
        return rails, state

    def test_clean_action_admitted(self):
        rails, _ = self._rails()
        a = plan_of(RESTART)
        assert rails.check(a, live_replicas=3, floor=1, ceiling=4) is None

    def test_cooldown_blocks_repeat_on_same_target(self):
        rails, state = self._rails(cooldown_s=10.0)
        a = plan_of(RESTART, target="p1")
        rails.commit(a)
        state["now"] += 5.0
        # Blast-radius window also holds p1; use a bigger group so only
        # the cooldown applies.
        assert rails.check(a, live_replicas=9, floor=1, ceiling=9) == "cooldown"
        state["now"] += 6.0
        assert rails.check(a, live_replicas=9, floor=1, ceiling=9) is None

    def test_cooldown_is_per_target_and_action(self):
        rails, _ = self._rails()
        rails.commit(plan_of(RESTART, target="p1"))
        other_target = plan_of(RESTART, group_id=1, target="p2")
        other_action = plan_of(SCALE_UP, group_id=2, target="p1")
        assert rails.check(other_target, live_replicas=9, floor=1, ceiling=9) is None
        assert rails.check(other_action, live_replicas=2, floor=1, ceiling=9) is None

    def test_budget_caps_actions_per_minute(self):
        rails, state = self._rails(budget=2, cooldown_s=0.0)
        for i in range(2):
            rails.commit(plan_of(SCALE_UP, group_id=i, target=f"g{i}"))
        blocked = plan_of(SCALE_UP, group_id=9, target="g9")
        assert rails.check(blocked, live_replicas=1, floor=1, ceiling=9) == "budget"
        assert rails.budget_left() == 0
        state["now"] += 61.0  # the rolling minute moves on
        assert rails.check(blocked, live_replicas=1, floor=1, ceiling=9) is None
        assert rails.budget_left() == 2

    def test_blast_radius_caps_concurrent_victims(self):
        rails, state = self._rails(blast=1 / 3, cooldown_s=30.0, budget=100)
        # 6 live replicas: at most 2 may be acted on within the window.
        rails.commit(plan_of(RESTART, target="p1"))
        rails.commit(plan_of(RESTART, target="p2"))
        third = plan_of(RESTART, target="p3")
        assert rails.check(third, live_replicas=6, floor=1, ceiling=9) == "blast_radius"
        state["now"] += 31.0  # victims age out of the window
        assert rails.check(third, live_replicas=6, floor=1, ceiling=9) is None

    def test_blast_radius_never_rounds_to_zero(self):
        rails, _ = self._rails(blast=1 / 3)
        # One of 2 replicas: int(2/3)=0 but the floor of 1 applies.
        a = plan_of(RESTART, target="p1")
        assert rails.check(a, live_replicas=2, floor=1, ceiling=9) is None

    def test_eject_blocked_at_replica_floor(self):
        rails, _ = self._rails()
        a = plan_of(EJECT, target="p1")
        assert rails.check(a, live_replicas=2, floor=2, ceiling=9) == "replica_floor"
        assert rails.check(a, live_replicas=3, floor=2, ceiling=9) is None

    def test_scale_up_blocked_at_ceiling(self):
        rails, _ = self._rails()
        a = plan_of(SCALE_UP, target="g0")
        assert rails.check(a, live_replicas=4, floor=1, ceiling=4) == "replica_ceiling"
        assert rails.check(a, live_replicas=3, floor=1, ceiling=4) is None


class TestModes:
    async def test_off_mode_plans_nothing(self, demo_build):
        manager, launcher = make_manager(demo_build, remediation="off")
        await start_all(manager)
        victim = next(iter(manager.proclets())).proclet_id
        make_suspect(manager, victim)
        assert await manager.reconcile() == []
        assert launcher.stopped == []

    async def test_observe_mode_journals_without_acting(self, demo_build):
        manager, launcher = make_manager(demo_build, remediation="observe")
        await start_all(manager)
        started_before = len(launcher.started)
        victim = next(iter(manager.proclets())).proclet_id
        make_suspect(manager, victim)
        entries = await manager.reconcile()
        assert entries and all(e["verdict"] == "observed" for e in entries)
        assert launcher.stopped == []  # decided, not executed
        assert len(launcher.started) == started_before
        assert manager.remediation.counts["observed"] >= 1

    async def test_on_mode_executes(self, demo_build):
        manager, launcher = make_manager(demo_build)
        await start_all(manager)
        victim = next(iter(manager.proclets())).proclet_id
        make_suspect(manager, victim)
        entries = await manager.reconcile()
        fired = [e for e in entries if e["verdict"] == "fired"]
        assert fired and fired[0]["outcome"] == "ok"
        assert victim in launcher.stopped


class TestSuspectMapping:
    async def test_lone_suspect_is_restarted_not_ejected(self, demo_build):
        manager, launcher = make_manager(demo_build)
        await start_all(manager)
        info = next(iter(manager.proclets()))
        make_suspect(manager, info.proclet_id)
        plans = manager.remediation.plan()
        mine = [p for p in plans if p.target == info.proclet_id]
        assert mine and mine[0].action == RESTART

    async def test_surplus_suspect_is_ejected(self, demo_build):
        manager, launcher = make_manager(demo_build)
        await start_all(manager)
        group = next(iter(manager.group_states().values()))
        # A second replica beyond target strength.
        await manager._ensure_replicas(group, minimum=2)
        group.target_replicas = 1
        victim = next(iter(group.proclets))
        make_suspect(manager, victim)
        plans = [p for p in manager.remediation.plan() if p.target == victim]
        assert plans and plans[0].action == EJECT
        await manager.reconcile()
        assert victim not in group.proclets
        assert victim in launcher.stopped

    async def test_restart_replaces_the_replica(self, demo_build):
        manager, launcher = make_manager(demo_build)
        await start_all(manager)
        group = next(iter(manager.group_states().values()))
        victim = next(iter(group.proclets))
        make_suspect(manager, victim)
        await manager.reconcile()
        # The victim is gone and a replacement was launched + registered.
        assert victim not in group.proclets
        assert len(group.proclets) >= group.target_replicas


class TestSignalMapping:
    async def test_latency_signal_scales_up(self, demo_build):
        manager, launcher = make_manager(demo_build)
        await start_all(manager)
        board = StubBoard()
        manager.signals = board
        comp = adder_name(manager)
        board.fire("anomaly", "p99_ms", comp)
        entries = await manager.reconcile()
        fired = [e for e in entries if e["verdict"] == "fired"]
        assert fired and fired[0]["action"] == SCALE_UP
        group = manager._group_for_component(comp)
        assert group.target_replicas == 2

    async def test_error_signal_restarts_worst_replica(self, demo_build):
        manager, launcher = make_manager(demo_build)
        await start_all(manager)
        board = StubBoard()
        manager.signals = board
        comp = adder_name(manager)
        victims = set(manager._group_for_component(comp).proclets)
        board.fire("anomaly", "error_rate", comp)
        entries = await manager.reconcile()
        fired = [e for e in entries if e["verdict"] == "fired"]
        assert fired and fired[0]["action"] == RESTART
        assert fired[0]["target"] in victims

    async def test_persistent_signal_climbs_the_ladder(self, demo_build):
        manager, launcher = make_manager(demo_build)
        await start_all(manager)
        board = StubBoard()
        manager.signals = board
        comp = adder_name(manager)
        board.fire("anomaly", "p99_ms", comp)
        actions = []
        for _ in range(4):
            for e in await manager.reconcile():
                if e["verdict"] == "fired":
                    actions.append(e["action"])
        # scale_up, scale_up, then isolate — which downgrades to another
        # scale_up because the demo groups host one component each.
        assert actions[:2] == [SCALE_UP, SCALE_UP]
        assert SCALE_UP in actions[2:] and ISOLATE not in actions

    async def test_resolved_signal_rearms_the_ladder(self, demo_build):
        manager, launcher = make_manager(demo_build)
        await start_all(manager)
        board = StubBoard()
        manager.signals = board
        comp = adder_name(manager)
        s = board.fire("anomaly", "p99_ms", comp)
        await manager.reconcile()
        assert manager.remediation._escalation.get(s.key) == 1
        board.clear()
        await manager.reconcile()  # signal resolved
        assert s.key not in manager.remediation._escalation

    async def test_total_scope_resolves_to_worst_component(self, demo_build):
        manager, launcher = make_manager(demo_build)
        await start_all(manager)
        board = StubBoard()
        manager.signals = board
        comp_a = adder_name(manager)
        comp_g = manager.build.by_iface(Greeter).name
        now = manager.clock()
        manager.timeseries.record("p99_ms", comp_a, now, 900.0)
        manager.timeseries.record("p99_ms", comp_g, now, 30.0)
        board.fire("slo", "latency", "_total")
        entries = await manager.reconcile()
        fired = [e for e in entries if e["verdict"] == "fired"]
        assert fired and fired[0]["scope"] == comp_a


class TestBreakerStorms:
    async def test_trip_storm_restarts_a_replica(self, demo_build):
        manager, launcher = make_manager(demo_build)
        await start_all(manager)
        comp = adder_name(manager)
        now = manager.clock()
        for i in range(4):
            manager.timeseries.record("breaker_trips", comp, now - 3 + i, 1.0)
        plans = manager.remediation.plan()
        assert any(p.action == RESTART and p.scope == comp for p in plans)

    async def test_quiet_breakers_plan_nothing(self, demo_build):
        manager, _ = make_manager(demo_build)
        await start_all(manager)
        comp = adder_name(manager)
        manager.timeseries.record("breaker_trips", comp, manager.clock(), 1.0)
        assert manager.remediation.plan() == []


class TestExecutors:
    async def test_scale_up_clamps_to_ceiling(self, demo_build):
        manager, launcher = make_manager(
            demo_build,
            autoscale=AutoscaleConfig(max_replicas=3, scale_down_stabilization_s=0.0),
        )
        await start_all(manager)
        board = StubBoard()
        manager.signals = board
        board.fire("anomaly", "p99_ms", adder_name(manager))
        group = manager._group_for_component(adder_name(manager))
        for _ in range(6):
            await manager.reconcile()
        assert group.target_replicas == 3

    async def test_scale_up_raises_autoscaler_floor(self, demo_build):
        manager, _ = make_manager(demo_build)
        manager.autoscale_enabled = True
        await start_all(manager)
        board = StubBoard()
        manager.signals = board
        board.fire("anomaly", "p99_ms", adder_name(manager))
        await manager.reconcile()
        group = manager._group_for_component(adder_name(manager))
        floor, expires = group.hold
        assert floor == 2 and expires > manager.clock()
        # An idle-load pass cannot undo the remediation capacity.
        board.clear()
        await manager.reconcile()
        assert group.target_replicas >= 2

    async def test_isolate_splits_a_colocated_group(self, demo_build):
        manager, _ = make_manager(demo_build)
        # Build a co-located group via apply_placement, then isolate.
        names = sorted(manager._component_group)
        await start_all(manager)
        await manager.apply_placement([tuple(names)])
        assert len(manager.group_states()) == 1
        await manager.remediate_isolate(names[0])
        groups = manager.group_states()
        assert len(groups) == 2
        solo = [g for g in groups.values() if g.components == (names[0],)]
        assert solo

    async def test_isolate_alone_is_a_noop(self, demo_build):
        manager, _ = make_manager(demo_build)
        await start_all(manager)
        before = {g.group_id: g.components for g in manager.group_states().values()}
        await manager.remediate_isolate(adder_name(manager))
        after = {g.group_id: g.components for g in manager.group_states().values()}
        assert before == after


class TestJournalAndWire:
    async def test_journal_is_bounded(self, demo_build):
        manager, _ = make_manager(demo_build, remediation_journal_size=5)
        controller = manager.remediation
        for i in range(12):
            controller._record(
                {"ts": float(i), "action": RESTART, "target": f"p{i}",
                 "group": 0, "scope": "c", "reason": "r", "verdict": "fired",
                 "outcome": "ok", "duration_ms": 1.0},
                "fired",
            )
        wire = controller.to_wire()
        assert len(wire["journal"]) == 5
        assert wire["journal"][-1]["target"] == "p11"
        assert wire["counts"]["fired"] == 12

    async def test_changes_do_not_evict_decisions(self, demo_build):
        manager, _ = make_manager(demo_build, remediation_journal_size=3)
        controller = manager.remediation
        entry = {"action": RESTART, "target": "p0", "group": 0, "scope": "c",
                 "reason": "r", "outcome": "ok", "duration_ms": 1.0}
        controller._record({**entry, "ts": 0.0, "verdict": "fired"}, "fired")
        controller.changes.extend(
            {**entry, "ts": float(i), "verdict": "applied"} for i in range(1, 10)
        )
        journal = controller.to_wire()["journal"]
        assert [e["ts"] for e in journal] == [0.0, 7.0, 8.0, 9.0]
        assert journal[0]["verdict"] == "fired"

    async def test_to_wire_shape_and_jsonability(self, demo_build):
        import json

        manager, _ = make_manager(demo_build)
        await start_all(manager)
        victim = next(iter(manager.proclets())).proclet_id
        make_suspect(manager, victim)
        await manager.reconcile()
        wire = manager.remediation.to_wire()
        json.dumps(wire)  # must be wire-safe
        assert wire["mode"] == "on"
        assert set(wire["budget"]) == {
            "max_actions_per_min", "available", "cooldown_s", "blast_fraction"
        }
        entry = wire["journal"][-1]
        assert {"ts", "action", "target", "group", "scope", "reason",
                "verdict", "outcome", "duration_ms"} <= set(entry)

    async def test_actions_counted_in_metrics(self, demo_build):
        manager, _ = make_manager(demo_build)
        await start_all(manager)
        victim = next(iter(manager.proclets())).proclet_id
        make_suspect(manager, victim)
        await manager.reconcile()
        fired = [
            cell.value
            for (name, labels), cell in manager.metrics.cells().items()
            if name == "remediation_actions" and dict(labels).get("verdict") == "fired"
        ]
        assert sum(fired) >= 1

    async def test_status_wire_carries_remediation(self, demo_build):
        from repro.runtime.status import status_wire

        manager, _ = make_manager(demo_build)
        await start_all(manager)
        wire = status_wire(manager)
        assert wire["remediation"]["mode"] == "on"

    async def test_render_remediation_includes_journal(self, demo_build):
        from repro.runtime.status import render_remediation, status_wire

        manager, _ = make_manager(demo_build)
        await start_all(manager)
        victim = next(iter(manager.proclets())).proclet_id
        make_suspect(manager, victim)
        await manager.reconcile()
        text = render_remediation(status_wire(manager)["remediation"])
        assert "remediation (mode=on)" in text
        assert "fired" in text

    async def test_render_remediation_hidden_when_off_and_idle(self, demo_build):
        from repro.runtime.status import render_remediation, status_wire

        manager, _ = make_manager(demo_build, remediation="off")
        await start_all(manager)
        assert render_remediation(status_wire(manager)["remediation"]) == ""


class TestConfigValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(Exception):
            AppConfig(name="x", remediation="sometimes")

    def test_bad_blast_fraction_rejected(self):
        with pytest.raises(Exception):
            AppConfig(name="x", remediation_blast_fraction=0.0)

    def test_from_dict_round_trip(self):
        config = AppConfig.from_dict(
            {
                "name": "x",
                "remediation": "observe",
                "remediation_cooldown_s": 5.0,
                "remediation_max_actions_per_min": 3,
            }
        )
        assert config.remediation == "observe"
        assert config.remediation_max_actions_per_min == 3

"""Graceful drain: planned shutdown never drops in-flight work.

Acceptance criterion for the failure-domain layer: a replica retired on
purpose (autoscale shrink, re-placement) finishes what it's executing —
zero non-retryable failures reach callers — and rejects stragglers with a
retryable ``Unavailable(draining=True)``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.component import Component
from repro.core.config import AppConfig
from repro.core.errors import Unavailable
from repro.core.registry import Registry
from repro.runtime.deployers.multi import deploy_multiprocess
from repro.runtime.manager import Manager


class Sleeper(Component):
    # Deliberately NOT @idempotent: a retry of an executed call would be a
    # correctness bug, so any dropped in-flight work surfaces as a hard
    # failure in these tests instead of being papered over by a retry.
    async def nap(self, duration_s: float) -> str: ...


class SleeperImpl:
    async def nap(self, duration_s: float) -> str:
        await asyncio.sleep(duration_s)
        return "rested"


def sleeper_registry() -> Registry:
    registry = Registry()
    registry.register(Sleeper, SleeperImpl)
    return registry


async def deployed(**config_kwargs):
    config = AppConfig(name="drain-t", **config_kwargs)
    return await deploy_multiprocess(config, registry=sleeper_registry())


class TestProcletDrain:
    async def test_inflight_call_completes_across_drain(self):
        app = await deployed()
        sleeper = app.get(Sleeper)
        inflight = asyncio.ensure_future(sleeper.nap(0.3))
        await asyncio.sleep(0.05)  # let the request reach the replica

        (envelope,) = app.envelopes.values()
        drained_s = await envelope.proclet.drain(5.0)
        # drain() blocked until the 0.3s nap finished...
        assert drained_s >= 0.15
        # ...and the call succeeded despite the replica shutting down.
        assert await inflight == "rested"
        await app.shutdown()

    async def test_drained_door_rejects_with_retryable_draining(self):
        app = await deployed(max_retries=0)
        sleeper = app.get(Sleeper)
        assert await sleeper.nap(0.0) == "rested"  # connection established

        (envelope,) = app.envelopes.values()
        await envelope.proclet.drain(1.0)
        with pytest.raises(Unavailable) as excinfo:
            await sleeper.nap(0.0)
        # Retryable, provably-not-executed, and marked as a planned exit.
        assert excinfo.value.executed is False
        assert excinfo.value.draining is True
        await app.shutdown()

    async def test_drain_deadline_bounds_the_wait(self):
        app = await deployed()
        sleeper = app.get(Sleeper)
        inflight = asyncio.ensure_future(sleeper.nap(5.0))
        await asyncio.sleep(0.05)
        (envelope,) = app.envelopes.values()
        drained_s = await envelope.proclet.drain(0.1)
        assert drained_s < 1.0  # gave up at the deadline, didn't hang
        inflight.cancel()
        await app.shutdown()


class TestPlannedShutdown:
    async def test_shrink_under_load_drops_nothing(self):
        app = await deployed(replicas={Sleeper: 3}, drain_deadline_s=5.0)
        sleeper = app.get(Sleeper)
        # Saturate all three replicas with non-idempotent work...
        calls = [asyncio.ensure_future(sleeper.nap(0.25)) for _ in range(24)]
        await asyncio.sleep(0.05)

        group = next(iter(app.manager.group_states().values()))
        assert len(group.proclets) == 3
        # ...then shrink to one replica mid-flight (autoscale's move).
        await app.manager._shrink_group(group, 1)

        results = await asyncio.gather(*calls, return_exceptions=True)
        failures = [r for r in results if isinstance(r, BaseException)]
        assert failures == []  # zero failures, not merely zero non-retryable
        assert len([e for e in app.envelopes.values() if not e.stopped]) == 1
        # Survivor still serves.
        assert await sleeper.nap(0.0) == "rested"
        await app.shutdown()

    async def test_shrink_with_drain_disabled_still_converges(self):
        app = await deployed(replicas={Sleeper: 2}, drain_deadline_s=0.0)
        group = next(iter(app.manager.group_states().values()))
        await app.manager._shrink_group(group, 1)
        assert len([e for e in app.envelopes.values() if not e.stopped]) == 1
        assert await app.get(Sleeper).nap(0.0) == "rested"
        await app.shutdown()


class RecordingLauncher:
    def __init__(self) -> None:
        self.events: list[tuple[str, str]] = []

    async def start_replica(self, group_id: int, replica_index: int) -> None:
        pass

    async def stop_replica(self, proclet_id: str) -> None:
        self.events.append(("stop", proclet_id))

    async def drain_replica(self, proclet_id: str, deadline_s: float) -> None:
        self.events.append(("drain", proclet_id))

    async def update_hosting(self, proclet_id: str, components: list[str]) -> None:
        pass


class TestManagerRetire:
    def _manager(self, demo_build, launcher, **config_kwargs):
        config = AppConfig(**config_kwargs)
        return Manager(demo_build, config.resolve(demo_build.names()), launcher)

    async def test_retire_drains_then_stops(self, demo_build):
        launcher = RecordingLauncher()
        manager = self._manager(demo_build, launcher, drain_deadline_s=2.0)
        await manager._retire_replica("p1")
        assert launcher.events == [("drain", "p1"), ("stop", "p1")]

    async def test_retire_hard_stops_when_drain_disabled(self, demo_build):
        launcher = RecordingLauncher()
        manager = self._manager(demo_build, launcher, drain_deadline_s=0.0)
        await manager._retire_replica("p1")
        assert launcher.events == [("stop", "p1")]

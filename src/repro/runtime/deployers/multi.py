"""Multiprocess deployer: co-location groups in separate OS processes.

    "a multiprocess runtime may run every proclet in a subprocess" (§4.3)

The driver process (the one calling :func:`deploy_multiprocess`) runs the
global manager, one envelope per proclet, and a *driver proclet* that hosts
nothing but lets ``app.get(...)`` hand out remote stubs.  Each co-location
group from the configuration becomes one proclet (replicated per its
replica count); proclets talk to each other directly over the data plane.

Two modes:

* ``mode="inproc"`` — proclets share the driver's event loop (see
  :class:`~repro.runtime.envelope.InProcessEnvelope`).  The process
  boundary collapses but sockets, registration, routing, and versioning
  are all real.  Fast enough for unit tests.
* ``mode="subprocess"`` — proclets are real child processes running
  :mod:`repro.runtime.procmain`.  This is the paper's multiprocess
  deployment on a laptop.
"""

from __future__ import annotations

import asyncio
import logging
import os
import shutil
import tempfile
from dataclasses import fields, replace
from typing import Any, Optional, TypeVar

from repro.core.app import Application
from repro.core.call_graph import ROOT
from repro.core.component import Component
from repro.core.config import AppConfig
from repro.core.errors import ConfigError, PlacementError
from repro.core.registry import FrozenRegistry, Registry, global_registry
from repro.runtime import pipes
from repro.runtime.envelope import BaseEnvelope, InProcessEnvelope, SubprocessEnvelope
from repro.runtime.manager import Manager
from repro.runtime.placement import PlacementPlan
from repro.runtime.proclet import Proclet

log = logging.getLogger("repro.runtime.deploy")

T = TypeVar("T", bound=Component)


class DriverRuntimeAPI:
    """The driver proclet's runtime: a client, not a managed replica.

    Every method of :data:`repro.runtime.pipes.API` is the manager's,
    except that the driver registers nowhere, hosts nothing and sends no
    heartbeat (it is not load-balanced to, nor health-checked).
    """

    def __init__(self, manager: Manager) -> None:
        self._manager = manager

    def __getattr__(self, name: str) -> Any:
        if name not in pipes.API:
            raise AttributeError(name)
        return getattr(self._manager, name)

    async def register_replica(self, proclet_id: str, address: str, group_id: int) -> None:
        return None

    async def components_to_host(self, proclet_id: str) -> list[str]:
        return []

    async def heartbeat(self, proclet_id: str, load: float) -> None:
        return None


class MultiProcessApp(Application):
    """A running multiprocess deployment."""

    def __init__(
        self,
        build: FrozenRegistry,
        config: AppConfig,
        *,
        mode: str = "inproc",
        plan: Optional[PlacementPlan] = None,
        autoscale_enabled: bool = False,
    ) -> None:
        # Durable state needs a root directory shared by every replica of
        # the deployment (handover transfers shard *references*, and crash
        # recovery replays from it).  Provision a per-deployment temp dir
        # when the config doesn't name one, and own its cleanup.
        self._owns_state_dir = config.state_dir is None
        if self._owns_state_dir:
            config = replace(
                config, state_dir=tempfile.mkdtemp(prefix="repro-state-")
            )
        super().__init__(build, config)
        if mode not in ("inproc", "subprocess"):
            raise ConfigError(f"unknown multiprocess mode {mode!r}")
        self.mode = mode
        self.resolved = config.resolve(build.names())
        self.manager = Manager(
            build,
            self.resolved,
            launcher=self,
            plan=plan,
            autoscale_enabled=autoscale_enabled,
        )
        self._envelopes: dict[str, BaseEnvelope] = {}
        self._replica_seq = 0
        self._control_dir: Optional[str] = None
        self._modules: list[str] = sorted({r.iface.__module__ for r in build})
        self._driver = Proclet(
            "driver",
            build,
            config,
            DriverRuntimeAPI(self.manager),
            group_id=-1,
            # The driver is not health-checked (its heartbeat is a no-op),
            # but the same tick exports its client-side telemetry — breaker
            # trips, call latencies — so the status page sees the failure
            # handling done by driver-originated calls too.
            heartbeat_interval_s=1.0,
            call_graph=self.call_graph,
        )
        self._loops: list[asyncio.Task] = []
        self._started = False
        self._dashboard = None

    # -- lifecycle ------------------------------------------------------------

    async def start(self, *, eager: bool = True) -> "MultiProcessApp":
        if self._started:
            return self
        self._started = True
        if self.mode == "subprocess":
            self._control_dir = tempfile.mkdtemp(prefix="repro-ctl-")
        await self._driver.start()
        if eager:
            for group in self.manager.plan.groups:
                state = self.manager.group_states()[group.group_id]
                await self.manager._ensure_replicas(state, minimum=group.replicas)
        self._loops.append(asyncio.ensure_future(self._sweep_loop()))
        self._loops.append(asyncio.ensure_future(self._telemetry_loop()))
        if self.manager.autoscale_enabled:
            self._loops.append(asyncio.ensure_future(self._autoscale_loop()))
        return self

    async def serve_dashboard(self, port: int = 0) -> str:
        """Start the live dashboard HTTP server; returns its base URL."""
        if self._dashboard is None:
            from repro.observability.dashboard import DashboardServer

            self._dashboard = DashboardServer(self.manager)
            await self._dashboard.start(port=port)
        return self._dashboard.url

    async def shutdown(self) -> None:
        for task in self._loops:
            task.cancel()
        self._loops.clear()
        if self._dashboard is not None:
            await self._dashboard.stop()
            self._dashboard = None
        for envelope in list(self._envelopes.values()):
            await envelope.stop()
        self._envelopes.clear()
        await self._driver.stop()
        if self._control_dir is not None:
            try:
                for name in os.listdir(self._control_dir):
                    os.unlink(os.path.join(self._control_dir, name))
                os.rmdir(self._control_dir)
            except OSError:
                pass
        if self._owns_state_dir and self.config.state_dir is not None:
            shutil.rmtree(self.config.state_dir, ignore_errors=True)

    # -- the ReplicaLauncher the manager drives -------------------------------

    async def start_replica(self, group_id: int, replica_index: int) -> None:
        self._replica_seq += 1
        proclet_id = f"{self.config.name}-g{group_id}-r{self._replica_seq}"
        if self.mode == "inproc":
            envelope: BaseEnvelope = InProcessEnvelope(
                proclet_id,
                group_id,
                self.manager,
                self.build,
                self.config,
                replica_index=replica_index,
            )
        else:
            assert self._control_dir is not None
            spec = {
                "proclet_id": proclet_id,
                "group_id": group_id,
                "replica_index": replica_index,
                "modules": self._modules,
                "components": self.build.names(),
                "version": self.build.version,
                "config": _config_to_dict(self.config),
            }
            envelope = SubprocessEnvelope(
                proclet_id,
                group_id,
                self.manager,
                spec=spec,
                control_dir=self._control_dir,
            )
        self._envelopes[proclet_id] = envelope
        await envelope.start()

    async def stop_replica(self, proclet_id: str) -> None:
        envelope = self._envelopes.pop(proclet_id, None)
        if envelope is not None:
            await envelope.stop()

    async def drain_replica(
        self, proclet_id: str, deadline_s: float
    ) -> Optional[dict[str, Any]]:
        """Let the proclet finish in-flight RPCs before it is stopped.

        Returns the proclet's drain response (drain duration + exported
        state-shard manifests) for the manager's handover distribution.
        """
        envelope = self._envelopes.get(proclet_id)
        if envelope is None:
            return None
        return await envelope.drain(deadline_s)

    async def push_routing(
        self, proclet_id: str, component: str, info: dict[str, Any]
    ) -> None:
        envelope = self._envelopes.get(proclet_id)
        if envelope is not None:
            await envelope.push_routing(component, info)

    async def push_state(
        self, proclet_id: str, shards: list[dict[str, Any]]
    ) -> int:
        envelope = self._envelopes.get(proclet_id)
        if envelope is None:
            return 0
        return await envelope.push_state(shards)

    async def update_hosting(self, proclet_id: str, components: list[str]) -> None:
        envelope = self._envelopes.get(proclet_id)
        if envelope is not None:
            await envelope.push_hosted(components)

    async def replace_placement(self, groups: list[tuple[str, ...]]) -> None:
        """Live re-placement of the running app (see Manager.apply_placement)."""
        await self.manager.apply_placement(groups)

    def kill_replica(self, proclet_id: str, *, silent: bool = False) -> None:
        """Abruptly kill one proclet (chaos-testing hook, §5.3).

        ``silent=True`` skips telling the manager: the failure is only
        discovered through missed heartbeats, modeling a real crash where
        nobody files a report — the window client-side breakers exist for.
        """
        envelope = self._envelopes.get(proclet_id)
        if envelope is None:
            raise PlacementError(f"no envelope for {proclet_id!r}")
        envelope.kill()
        if not silent:
            self.manager.health.mark_dead(proclet_id)

    # -- Application surface ----------------------------------------------------

    def get(self, iface: type[T]) -> T:
        return self._driver.get_for(iface, ROOT)

    @property
    def envelopes(self) -> dict[str, BaseEnvelope]:
        return dict(self._envelopes)

    @property
    def driver(self) -> Proclet:
        """The driver proclet (exposes its breakers/metrics to callers)."""
        return self._driver

    # -- control loops ---------------------------------------------------------

    async def _sweep_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(0.5)
                await self.manager.sweep()
        except asyncio.CancelledError:
            pass
        except Exception:
            log.exception("sweep loop failed")

    async def _autoscale_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(1.0)
                await self.manager.autoscale_tick()
        except asyncio.CancelledError:
            pass
        except Exception:
            log.exception("autoscale loop failed")

    async def _telemetry_loop(self) -> None:
        """The telemetry tick (1s default): heartbeat merges -> series ->
        signals -> the remediation controller, which must see this
        second's fresh verdicts before it plans actions."""
        interval = self.config.telemetry_tick_s
        try:
            while True:
                await asyncio.sleep(interval)
                self.manager.telemetry_tick()
                try:
                    await self.manager.remediation_tick()
                except Exception:
                    # A failed action round must not kill telemetry; the
                    # journal records per-action failures already.
                    log.exception("remediation tick failed")
        except asyncio.CancelledError:
            pass
        except Exception:
            log.exception("telemetry loop failed")


#: Placement and scaling are the driver's concern (hosting sets are pushed
#: over the control plane), so these are deliberately not shipped to
#: proclets; every other field is.
_DRIVER_ONLY = frozenset({"colocate", "replicas", "autoscale", "rollout"})


def _config_to_dict(config: AppConfig) -> dict[str, Any]:
    return {
        f.name: getattr(config, f.name)
        for f in fields(AppConfig)
        if f.name not in _DRIVER_ONLY
    }


async def deploy_multiprocess(
    config: Optional[AppConfig] = None,
    *,
    components: Optional[list[type]] = None,
    registry: Optional[Registry] = None,
    mode: str = "inproc",
    plan: Optional[PlacementPlan] = None,
    autoscale: bool = False,
    eager: bool = True,
) -> MultiProcessApp:
    """Deploy each co-location group of the config in its own process.

    With ``eager=False`` groups start lazily on first use
    (``StartComponent``); with ``autoscale=True`` the manager runs the
    HPA loop over proclet load reports.
    """
    config = config or AppConfig()
    reg = registry or global_registry()
    build = reg.freeze(components=components)
    app = MultiProcessApp(
        build, config, mode=mode, plan=plan, autoscale_enabled=autoscale
    )
    return await app.start(eager=eager)

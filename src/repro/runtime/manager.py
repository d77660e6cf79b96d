"""The global manager: all control-plane decisions (§4.3, Figure 3).

    "a global manager that orchestrates the execution of the proclets ...
    interacts with the envelopes to collect health and load information of
    the running components; to aggregate metrics, logs, and traces ... and
    to handle requests to start new components."

The manager owns:

* the placement plan (which components share a process, from config or
  from call-graph recommendations),
* the replica lifecycle (``StartComponent`` requests, autoscaling
  decisions, restart-on-death), executed through a deployer-provided
  :class:`ReplicaLauncher` — the manager decides, the deployer does, which
  is how one manager drives subprocesses, threads, or simulated pods; one
  loop (:meth:`Manager.reconcile`) converges replicas to desired state,
* routing: replica sets and sliced assignments per component, with
  generations bumped on every membership change,
* telemetry aggregation: metrics, logs, health.

It deliberately implements *no data plane*: proclets talk to each other
directly (§4.3).
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Protocol

from repro.core.config import ResolvedConfig
from repro.core.errors import ComponentNotFound, PlacementError
from repro.core.registry import FrozenRegistry
from repro.observability.logs import LogAggregator, records_from_wire
from repro.observability.metrics import MetricsRegistry
from repro.runtime.autoscaler import Autoscaler
from repro.runtime.health import HealthState, HealthTracker
from repro.runtime.placement import PlacementPlan, plan_from_config
from repro.runtime.routing import Assignment, build_assignment

log = logging.getLogger("repro.runtime.manager")


class ReplicaLauncher(Protocol):
    """Deployer-side effector for the manager's decisions."""

    async def start_replica(self, group_id: int, replica_index: int) -> None:
        """Launch a new proclet for ``group_id`` (async: it will register)."""
        ...

    async def stop_replica(self, proclet_id: str) -> None:
        """Stop a running proclet."""
        ...

    async def update_hosting(self, proclet_id: str, components: list[str]) -> None:
        """Push a new hosted-component set to a running proclet (used by
        live re-placement, §3.1/§5.1)."""
        ...

    async def drain_replica(
        self, proclet_id: str, deadline_s: float
    ) -> Optional[dict[str, Any]]:
        """Let the proclet finish in-flight RPCs before ``stop_replica``.

        Returns the proclet's drain response — ``{"drained_s": ...,
        "handover": [shard manifests]}`` — or None when the proclet is
        already gone.  Graceful drain is how shrink, re-placement, and
        remediation retire replicas without dropping in-flight work.
        """
        ...

    async def push_routing(
        self, proclet_id: str, component: str, info: dict[str, Any]
    ) -> None:
        """Push a fresh assignment to a running proclet (best-effort)."""
        ...

    async def push_state(self, proclet_id: str, shards: list[dict[str, Any]]) -> int:
        """Hand flushed shard manifests to a proclet for eager replay;
        returns the WAL records it replayed (0 when unreachable)."""
        ...


@dataclass
class ProcletInfo:
    proclet_id: str
    group_id: int
    address: str
    replica_index: int
    load: float = 0.0
    registered_at: float = 0.0
    #: Why a controller retired this replica; the next converge removes it.
    leaving: str = ""


@dataclass
class GroupState:
    group_id: int
    components: tuple[str, ...]
    #: Desired state: the replica count, the HPA that proposes it,
    #: remediation's held minimum ``(replicas, until)`` under that proposal,
    #: and whether the group started (a lazy one waits for StartComponent).
    target_replicas: int
    autoscaler: Autoscaler
    hold: tuple[int, float] = (0, 0.0)
    started: bool = False
    next_replica_index: int = 0
    #: Distinct index for every launch, handed to the new proclet as its
    #: replica identity (routed components partition state by it).
    launch_seq: int = 0
    launching: int = 0
    proclets: dict[str, ProcletInfo] = field(default_factory=dict)
    registered_event: asyncio.Event = field(default_factory=asyncio.Event)


class Manager:
    """The deployment's brain.  One per application version."""

    def __init__(
        self,
        build: FrozenRegistry,
        resolved: ResolvedConfig,
        launcher: ReplicaLauncher,
        *,
        plan: Optional[PlacementPlan] = None,
        clock=time.monotonic,
        autoscale_enabled: bool = False,
    ) -> None:
        self.build = build
        self.resolved = resolved
        self.launcher = launcher
        self.clock = clock
        self.plan = plan or plan_from_config(resolved)
        self.plan.validate(build.names())
        self.autoscale_enabled = autoscale_enabled

        # Manager-side telemetry is split: proclets ship *cumulative*
        # snapshots on every heartbeat, which we store per proclet (latest
        # wins — merging cumulative data additively every heartbeat would
        # double-count), while the manager's own counters (drain, state
        # handover) live in a private registry.  ``self.metrics`` exposes
        # the merged deployment-wide view.
        self._own_metrics = MetricsRegistry()
        self._proclet_metrics: dict[str, dict[str, Any]] = {}
        self._merged_metrics: Optional[MetricsRegistry] = None
        self.logs = LogAggregator()
        self.health = HealthTracker()
        # The bird's-eye call graph (merged from every proclet, §5.1).
        from repro.core.call_graph import CallGraph
        from repro.observability.signals import SignalBoard, default_slos
        from repro.observability.timeseries import TelemetryPipeline, TimeSeriesStore
        from repro.observability.tracestore import TraceStore

        self.call_graph = CallGraph()
        # Cross-proclet traces, merged from every proclet's spans: the
        # tail-sampling store (Tracer-compatible query surface).
        app = resolved.app
        self.tracer = TraceStore(
            max_traces=app.trace_max_traces, sample_rate=app.trace_sample_rate
        )
        # Live pipeline: per-second series from snapshot deltas, and the
        # anomaly/SLO signal board evaluated on every telemetry tick.
        self.timeseries = TimeSeriesStore()
        self.pipeline = TelemetryPipeline(
            self.timeseries, slow_threshold_s=app.slo_latency_ms / 1000.0
        )
        self.signals = SignalBoard(
            self.timeseries,
            slos=default_slos(
                error_budget=app.slo_error_budget,
                latency_budget=app.slo_latency_budget,
            ),
        )
        # The closed-loop remediation controller: consumes
        # the signal board + health/breaker evidence on the telemetry tick,
        # acts through this manager, bounded by guardrails.
        from repro.runtime.remediation import RemediationController

        self.remediation = RemediationController(self, app)

        self._groups: dict[int, GroupState] = {}
        self._adopt_plan(self.plan)
        self._assignments: dict[str, Assignment] = {}
        self._generations: dict[str, int] = {}
        self._lock = asyncio.Lock()
        self._reconcile_lock = asyncio.Lock()

    # -- the proclet -> runtime API (repro.runtime.pipes.API) -----------------
    # In-process proclets call these directly; a subprocess proclet's calls
    # arrive over its envelope's control pipe (pipes.serve).

    async def register_replica(self, proclet_id: str, address: str, group_id: int) -> None:
        """RegisterReplica: a proclet is alive and serving at ``address``."""
        async with self._lock:
            group = self._group(group_id)
            info = ProcletInfo(
                proclet_id=proclet_id,
                group_id=group_id,
                address=address,
                replica_index=group.next_replica_index,
                registered_at=self.clock(),
            )
            group.next_replica_index += 1
            group.proclets[proclet_id] = info
            group.started = True
            if group.launching > 0:
                group.launching -= 1
            self.health.heartbeat(proclet_id, self.clock())
            self._bump_group_routing(group)
            group.registered_event.set()
        log.debug("registered %s at %s (group %d)", proclet_id, address, group_id)

    async def components_to_host(self, proclet_id: str) -> list[str]:
        """ComponentsToHost: what should this proclet run?"""
        info = self._find_proclet(proclet_id)
        if info is None:
            raise ComponentNotFound(f"unknown proclet {proclet_id!r}")
        return sorted(self._groups[info.group_id].components)

    async def start_component(self, component: str) -> None:
        """StartComponent: ensure at least one replica serves ``component``."""
        group = self._group_for_component(component)
        await self._ensure_replicas(group, minimum=1)

    async def routing_info(self, component: str) -> dict[str, Any]:
        """Current replica set and (for routed components) the assignment."""
        group = self._group_for_component(component)
        addresses = self._healthy_addresses(group)
        info: dict[str, Any] = {"component": component, "replicas": addresses}
        if self._is_routed(component) and addresses:
            assignment = self._assignments.get(component)
            if assignment is None or set(assignment.replicas) != set(addresses):
                assignment = self._rebuild_assignment(component, addresses)
            info["assignment"] = assignment.to_wire()
        return info

    async def heartbeat(self, proclet_id: str, load: float) -> None:
        info = self._find_proclet(proclet_id)
        if info is None:
            return
        info.load = load
        self.health.heartbeat(proclet_id, self.clock())

    async def export_metrics(self, proclet_id: str, snapshot: dict[str, Any]) -> None:
        # Latest cumulative snapshot per proclet; retained after death so
        # deployment-wide counters stay monotonic for delta computation.
        self._proclet_metrics[proclet_id] = snapshot
        self._merged_metrics = None

    async def export_logs(self, proclet_id: str, records: list[dict[str, Any]]) -> None:
        self.logs.ingest(records_from_wire(records))

    async def export_call_graph(self, proclet_id: str, edges: list[dict[str, Any]]) -> None:
        self.call_graph.replace_from_wire(proclet_id, edges)

    async def export_spans(self, proclet_id: str, spans: list[Any]) -> None:
        self.ingest_spans(spans)

    def ingest_spans(self, spans: list[Any]) -> None:
        """Ingest finished Span objects (decoded at the pipe, if any)."""
        self.tracer.ingest(spans)

    # -- the control loop ------------------------------------------------------

    async def reconcile(self) -> list[dict[str, Any]]:
        """One pass of the manager's control loop: observe, decide, converge.

        Heartbeat ages turn silent replicas SUSPECT, then DEAD; the
        autoscaler and remediation edit desired state only; then every
        group converges to it, all groups at once.  The deployer runs a
        pass right after :meth:`telemetry_tick`, so remediation sees fresh
        signal verdicts.  Returns the pass's journal entries: decisions,
        then changes.
        """
        async with self._reconcile_lock:
            now = self.clock()
            for proclet_id in self.health.sweep(now):
                log.warning("proclet %s died", proclet_id)
            causes = self._autoscale(now) if self.autoscale_enabled else {}
            decisions = await self.remediation.decide()
            for entry in decisions:
                if entry["verdict"] == "fired":
                    causes[entry["group"]] = "remediation"
            # A group below target that no controller touched this pass is
            # restoring its strength after a failed launch: health's job.
            converging = [
                self._converge(g, causes.get(g.group_id, "health")) for g in self._groups.values()
            ]
            changes = await asyncio.gather(*converging)
            return decisions + [entry for group in changes for entry in group]

    def _autoscale(self, now: float) -> dict[int, str]:
        """The HPA's proposal per group (mean load per live replica).

        A remediation hold is a floor under the proposal until it expires,
        so the autoscaler cannot undo capacity remediation just added.
        Returns the cause of each target it changed, by group id.
        """
        causes = {}
        for group in self._groups.values():
            live = self.live_replicas(group)
            if not live:
                continue
            utilization = sum(p.load for p in live) / len(live)
            desired = group.autoscaler.decide(
                now=now, current_replicas=len(live), utilization=utilization
            ).desired
            cause = "autoscale"
            floor, until = group.hold
            if now < until and floor > desired:
                desired, cause = floor, "remediation"
            if desired != len(live):
                group.target_replicas = desired
                causes[group.group_id] = cause
        return causes

    async def apply_placement(self, groups: list[tuple[str, ...]]) -> None:
        """Re-place components across the *running* deployment (§3.1, §5.1).

            "The runtime may also move component replicas around, e.g., to
            co-locate two chatty components in the same OS process."

        ``groups`` is a new, complete co-location partition (typically from
        :func:`repro.runtime.placement.recommend_groups` over the merged
        call graph).  No process is restarted: each existing proclet is
        re-assigned to the new group that overlaps its current components
        the most, gets its new hosted set pushed down, and callers
        re-resolve on their next call (a stale address answers
        "unavailable" and the stub retries through fresh routing info).

        Only desired state changes here; the next reconcile pass converges
        it.  A group whose members did not change keeps its target, hold
        and autoscaler.  Every other group's target is at least the number
        of live proclets it adopted, so re-placement retires none: the plan
        covers every component, so every proclet finds a group.  New
        groups without any adopted proclet start lazily on first use.

        Components with in-memory state lose it when they move — the same
        contract as a replica restart, which applications must already
        tolerate (§8.3).
        """
        plan = plan_from_config(self.resolved, groups)
        plan.validate(self.build.names())

        async with self._lock:
            old = [(p, set(self._groups[p.group_id].components)) for p in self.proclets()]
            self._adopt_plan(plan)
            pushes: list[tuple[str, list[str]]] = []
            for info, old_set in old:
                # Prefer max overlap; break ties toward emptier groups so
                # merged groups don't stack every old proclet.
                best = max(
                    self._groups.values(),
                    key=lambda g: (len(old_set & set(g.components)), -len(g.proclets)),
                )
                info.group_id = best.group_id
                best.proclets[info.proclet_id] = info
                best.started = True
                pushes.append((info.proclet_id, sorted(best.components)))

            for group in self._groups.values():
                group.target_replicas = max(
                    group.target_replicas, len(self.live_replicas(group))
                )
                self._bump_group_routing(group)

        # Pushes go through the deployer, which may call back into the
        # manager: outside the lock.
        for proclet_id, components in pushes:
            await self.launcher.update_hosting(proclet_id, components)
        log.info(
            "re-placed into %d groups (%d proclets reassigned)", len(self._groups), len(pushes)
        )

    async def remediate_isolate(self, component: str) -> None:
        """Give ``component`` its own process (live re-placement, §5.1).

        The escalation endpoint for a persistent offender that restarts
        and extra replicas did not fix: evict it from its co-location
        group so it stops taxing its neighbours.  No-op when the
        component already runs alone.
        """
        group = self._group_for_component(component)
        if len(group.components) < 2:
            return
        others = [g.components for g in self._groups.values() if g is not group]
        rest = tuple(c for c in group.components if c != component)
        await self.apply_placement([*others, rest, (component,)])

    # -- telemetry ---------------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """The merged deployment-wide registry (own + every proclet's latest)."""
        merged = self._merged_metrics
        if merged is None:
            merged = MetricsRegistry()
            merged.merge_snapshot(self._own_metrics.snapshot())
            for snapshot in self._proclet_metrics.values():
                merged.merge_snapshot(snapshot)
            self._merged_metrics = merged
        return merged

    def telemetry_tick(self, now: Optional[float] = None) -> None:
        """One pass of the live pipeline (the deployer calls this at ~1 Hz).

        Diffs the merged registry into per-second series, records control
        plane gauges, evaluates the anomaly/SLO signal board, and lets the
        trace store finalize quiescent traces.
        """
        now = time.time() if now is None else now
        self.pipeline.tick(self.metrics, now)
        for group in self._groups.values():
            live = self.live_replicas(group)
            scope = f"group{group.group_id}"
            self.timeseries.record("replicas", scope, now, float(len(live)))
            if live:
                self.timeseries.record(
                    "utilization", scope, now, sum(p.load for p in live) / len(live)
                )
        self.signals.evaluate(now)
        self.tracer.maintain()

    # -- queries ------------------------------------------------------------------

    def replica_addresses(self, component: str) -> list[str]:
        return self._healthy_addresses(self._group_for_component(component))

    def proclets(self) -> list[ProcletInfo]:
        return [p for g in self._groups.values() for p in g.proclets.values()]

    def group_states(self) -> dict[int, GroupState]:
        return dict(self._groups)

    def total_replicas(self) -> int:
        return sum(len(g.proclets) for g in self._groups.values())

    def live_replicas(self, group: GroupState) -> list[ProcletInfo]:
        """The group's replicas that are starting, healthy or suspect."""
        return [p for p in group.proclets.values() if self._is_live(p.proclet_id)]

    # -- internals -------------------------------------------------------------------

    def _adopt_plan(self, plan: PlacementPlan) -> None:
        """Groups for ``plan``.  A group whose members did not change is kept
        whole: desired state, launch counters and proclets.  Every other
        group starts fresh, without proclets; the groups it replaces are
        emptied and unstarted, so a pass still converging one launches
        nothing."""
        kept = {frozenset(g.components): g for g in self._groups.values()}
        self.plan = plan
        self._groups = {}
        for gp in plan.groups:
            group = kept.pop(frozenset(gp.components), None) or GroupState(
                gp.group_id, gp.components, gp.replicas, Autoscaler(self.resolved.app.autoscale)
            )
            group.group_id = gp.group_id
            self._groups[gp.group_id] = group
        for group in kept.values():
            group.proclets, group.started = {}, False
        self._component_group: dict[str, int] = {
            name: gp.group_id for gp in plan.groups for name in gp.components
        }

    def _group(self, group_id: int) -> GroupState:
        try:
            return self._groups[group_id]
        except KeyError:
            raise PlacementError(f"unknown group {group_id}") from None

    def _group_for_component(self, component: str) -> GroupState:
        try:
            return self._groups[self._component_group[component]]
        except KeyError:
            raise ComponentNotFound(f"component {component!r} is not placed") from None

    def _find_proclet(self, proclet_id: str) -> Optional[ProcletInfo]:
        for group in self._groups.values():
            info = group.proclets.get(proclet_id)
            if info is not None:
                return info
        return None

    def _is_live(self, proclet_id: str) -> bool:
        state = self.health.state(proclet_id)
        return state in (HealthState.HEALTHY, HealthState.STARTING, HealthState.SUSPECT)

    def _healthy_addresses(self, group: GroupState) -> list[str]:
        live = sorted(self.live_replicas(group), key=lambda p: p.replica_index)
        return [p.address for p in live]

    def _is_routed(self, component: str) -> bool:
        reg = self.build.by_name(component)
        return any(m.routing_key is not None for m in reg.spec.methods)

    def _rebuild_assignment(self, component: str, addresses: list[str]) -> Assignment:
        generation = self._generations.get(component, 0) + 1
        self._generations[component] = generation
        assignment = build_assignment(component, addresses, generation)
        self._assignments[component] = assignment
        return assignment

    def _bump_group_routing(self, group: GroupState) -> None:
        addresses = self._healthy_addresses(group)
        for component in group.components:
            if self._is_routed(component) and addresses:
                assignment = self._rebuild_assignment(component, addresses)
                # Proactively push the fresh assignment to the group's own
                # proclets: their per-key ownership checks (repro.state)
                # must see ring changes promptly, not on the next cache
                # miss.  Fire-and-forget — this runs under the manager
                # lock, and the pushes only touch envelopes/proclets.
                info = {
                    "component": component,
                    "replicas": addresses,
                    "assignment": assignment.to_wire(),
                }
                for p in group.proclets.values():
                    if self._is_live(p.proclet_id):
                        asyncio.ensure_future(
                            self._push_routing(p.proclet_id, component, info)
                        )

    async def _push_routing(
        self, proclet_id: str, component: str, info: dict[str, Any]
    ) -> None:
        try:
            await self.launcher.push_routing(proclet_id, component, info)
        except Exception:
            log.debug(
                "routing push of %s to %s failed", component, proclet_id, exc_info=True
            )

    async def _ensure_replicas(self, group: GroupState, minimum: int) -> None:
        """Launch until ``minimum`` replicas are live or launching.  Waits
        for a registration when the group has no routable replica yet
        (StartComponent's callers need one)."""
        group.started = True
        deficit = minimum - len(self.live_replicas(group)) - group.launching
        if deficit <= 0:
            return
        group.launching += deficit
        indexes = range(group.launch_seq, group.launch_seq + deficit)
        group.launch_seq += deficit
        group.registered_event.clear()
        results = await asyncio.gather(
            *(self.launcher.start_replica(group.group_id, i) for i in indexes),
            return_exceptions=True,
        )
        failures = [r for r in results if isinstance(r, BaseException)]
        # A failed launch never registers: free its slot for the next pass.
        group.launching -= len(failures)
        if failures:
            raise failures[0]
        if not self._healthy_addresses(group):
            try:
                await asyncio.wait_for(group.registered_event.wait(), timeout=30.0)
            except asyncio.TimeoutError:
                raise PlacementError(
                    f"no replica of group {group.group_id} registered in time"
                ) from None

    async def _converge(self, group: GroupState, cause: str) -> list[dict[str, Any]]:
        """Bring one group's running replicas to its desired state.

        Every replica change goes through here, in this order: the leaving
        replicas (dead, retired by a controller, or surplus beyond
        ``target_replicas`` by ``replica_index``) leave routing with one
        bump, so callers steer to the survivors; all of them drain at once
        (a dead one skips it: it has nothing to finish) and stop; then a
        started group launches back up to its target.  Each stop and each
        launch is journaled under its cause; a failure is journaled, not
        raised, so the pass goes on.
        """
        leaving = self._leaving(group, cause)
        for info, _ in leaving:
            group.proclets.pop(info.proclet_id, None)
        if leaving:
            self._bump_group_routing(group)
        started = self.clock()
        results = await asyncio.gather(
            *(self._retire_replica(info.proclet_id, group.components) for info, _ in leaving),
            return_exceptions=True,
        )
        changes = [
            self._change("stop_replica", info.proclet_id, group, why, started, result)
            for (info, why), result in zip(leaving, results)
        ]
        missing = group.target_replicas - len(self.live_replicas(group)) - group.launching
        if group.started and missing > 0:
            started = self.clock()
            (error,) = await asyncio.gather(
                self._ensure_replicas(group, group.target_replicas), return_exceptions=True
            )
            target = f"group{group.group_id} (+{missing})"
            why = leaving[0][1] if leaving else cause
            changes.append(self._change("start_replica", target, group, why, started, error))
        self.remediation.changes.extend(changes)
        return changes

    def _leaving(self, group: GroupState, cause: str) -> list[tuple[ProcletInfo, str]]:
        leaving, staying = [], []
        for info in group.proclets.values():
            if self.health.state(info.proclet_id) is HealthState.DEAD:
                leaving.append((info, "health"))
            elif info.leaving:
                leaving.append((info, info.leaving))
            elif self._is_live(info.proclet_id):
                staying.append(info)
        staying.sort(key=lambda p: p.replica_index)
        leaving += [(info, cause) for info in staying[group.target_replicas :]]
        return leaving

    def _change(
        self, action: str, target: str, group: GroupState, cause: str,
        started: float, error: Optional[BaseException],
    ) -> dict[str, Any]:
        """One converge change as a journal entry, with its cause in ``reason``."""
        outcome = "ok" if error is None else f"failed: {type(error).__name__}: {error}"
        if error is not None:
            log.error("%s of %s failed", action, target, exc_info=error)
        return {
            "ts": time.time(),
            "action": action,
            "target": target,
            "group": group.group_id,
            "scope": group.components[0],
            "reason": cause,
            "verdict": "applied",
            "outcome": outcome,
            "duration_ms": round((self.clock() - started) * 1000.0, 3),
        }

    async def _retire_replica(self, proclet_id: str, components: tuple[str, ...] = ()) -> None:
        """Removal: drain in-flight work, then stop.

        Routing must already exclude the replica (callers steer new
        traffic elsewhere while it finishes what it has).  A dead replica
        skips the drain: it has nothing to finish.  ``drain_deadline_s =
        0`` disables drain: the replica is hard-stopped.  ``components``
        labels the drain-event counters the telemetry pipeline turns into
        per-component series.
        """
        drain = self.health.state(proclet_id) is not HealthState.DEAD
        self.health.remove(proclet_id)
        deadline_s = self.resolved.app.drain_deadline_s
        if drain:
            for comp in components:
                self._own_metrics.counter("replica_drains").inc(component=comp)
            self._merged_metrics = None
        if drain and deadline_s > 0:
            started = self.clock()
            response: Optional[dict[str, Any]] = None
            try:
                response = await self.launcher.drain_replica(proclet_id, deadline_s)
            except Exception:
                log.exception("drain of %s failed; hard-stopping", proclet_id)
            # Recorded manager-side: the proclet's own histogram dies with
            # it before its next metrics export.
            self._own_metrics.histogram("replica_drain_s").observe(
                self.clock() - started
            )
            self._merged_metrics = None
            if isinstance(response, dict):
                # The retiring proclet flushed and exported its owned
                # state shards; re-home them before it exits so the new
                # owners replay eagerly (bounded rebalance stall) instead
                # of on first request.
                await self._distribute_handover(
                    proclet_id, response.get("handover") or []
                )
        await self.launcher.stop_replica(proclet_id)

    async def _distribute_handover(
        self, retiring_id: str, manifests: list[dict[str, Any]]
    ) -> None:
        """Push a retiree's flushed shard manifests to its surviving peers.

        Every live proclet of the shard's group gets the manifest: a
        shard's keys can span several ring owners (vnode arcs are dense),
        so there is no single successor.  Replay is max-merge by per-key
        version — adopting a shard you only partially own is harmless.
        Best-effort by design: a survivor that misses the push recovers
        lazily from the shared WAL directory on first touch.
        """
        if not manifests:
            return
        by_group: dict[int, list[dict[str, Any]]] = {}
        for manifest in manifests:
            gid = self._component_group.get(manifest.get("component"))
            if gid is not None:
                by_group.setdefault(gid, []).append(manifest)
        started = self.clock()
        replayed = 0
        for gid, shards in by_group.items():
            group = self._groups.get(gid)
            if group is None:
                continue
            for info in list(group.proclets.values()):
                if info.proclet_id == retiring_id or not self._is_live(info.proclet_id):
                    continue
                try:
                    replayed += await self.launcher.push_state(info.proclet_id, shards)
                except Exception:
                    log.exception(
                        "state handover push to %s failed", info.proclet_id
                    )
        self._own_metrics.counter("state_handover_shards").inc(len(manifests))
        self._own_metrics.counter("state_handover_replayed").inc(replayed)
        self._own_metrics.histogram("state_handover_s").observe(self.clock() - started)
        self._merged_metrics = None

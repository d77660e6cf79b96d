"""The proclet: the environment-agnostic daemon in every app process (§4.3).

    "Every application binary runs a small, environment-agnostic daemon
    called a proclet that is linked into the binary during compilation.
    A proclet manages the components in a running binary."

One :class:`Proclet` instance lives in each OS process of a deployment.
It:

* registers itself with the runtime (``RegisterReplica``),
* learns which components it must host (``ComponentsToHost``),
* instantiates those components and serves them over the data-plane RPC
  server,
* hands out stubs: local stubs for co-hosted components, remote stubs —
  with routing — for everything else, asking the runtime to
  ``StartComponent`` on first use,
* reports heartbeats (with a load estimate), metrics, and logs.

The runtime side of the conversation is abstracted as :class:`RuntimeAPI`,
with two implementations: one over a control pipe (real subprocess
deployments, :class:`PipeRuntimeAPI`) and one calling the manager directly
(in-process deployments and tests, in
:mod:`repro.runtime.deployers.multi`).
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Any, Optional, Protocol

from repro.codegen.compiler import MethodSpec
from repro.core.call_graph import CallGraph, ROOT
from repro.core.component import ComponentContext, shutdown_instance
from repro.core.config import AppConfig
from repro.core.errors import ComponentNotFound, DeadlineExceeded, ErrorCode, Unavailable
from repro.core.registry import FrozenRegistry, Registration
from repro.core.stub import LocalInvoker, make_stub
from repro.observability.logs import LogBuffer
from repro.observability.metrics import MetricsRegistry
from repro.runtime import pipes
from repro.runtime.pipes import ControlEndpoint
from repro.runtime.routing import Assignment, RoutingTable
from repro.serde import codec_by_name
from repro.transport.client import ConnectionPool
from repro.transport.rpc import Dispatcher, RemoteInvoker
from repro.transport.server import AdmissionController, RPCServer

log = logging.getLogger("repro.runtime.proclet")


class RuntimeAPI(Protocol):
    """What a proclet can ask of the runtime (Table 1 + telemetry)."""

    async def register_replica(self, proclet_id: str, address: str, group_id: int) -> None: ...

    async def components_to_host(self, proclet_id: str) -> list[str]: ...

    async def start_component(self, component: str) -> None: ...

    async def routing_info(self, component: str) -> dict[str, Any]: ...

    async def heartbeat(self, proclet_id: str, load: float) -> None: ...

    async def export_metrics(self, proclet_id: str, snapshot: dict[str, Any]) -> None: ...

    async def export_logs(self, proclet_id: str, records: list[dict[str, Any]]) -> None: ...

    async def export_call_graph(self, proclet_id: str, edges: list[dict[str, Any]]) -> None: ...

    async def export_traces(self, proclet_id: str, spans: list[dict[str, Any]]) -> None: ...

    async def export_spans(self, proclet_id: str, spans: list[Any]) -> None:
        """Ship finished Span objects; implementations that cross a real
        process boundary wire-encode, in-process relays pass them through."""
        ...


class PipeRuntimeAPI:
    """RuntimeAPI over a control pipe (proclet side of §4.3's Unix pipe)."""

    def __init__(self, endpoint: ControlEndpoint) -> None:
        self._endpoint = endpoint

    async def register_replica(self, proclet_id: str, address: str, group_id: int) -> None:
        await self._endpoint.request(
            pipes.REGISTER_REPLICA,
            {"proclet_id": proclet_id, "address": address, "group_id": group_id},
        )

    async def components_to_host(self, proclet_id: str) -> list[str]:
        resp = await self._endpoint.request(
            pipes.COMPONENTS_TO_HOST, {"proclet_id": proclet_id}
        )
        return list(resp.get("components", []))

    async def start_component(self, component: str) -> None:
        await self._endpoint.request(pipes.START_COMPONENT, {"component": component})

    async def routing_info(self, component: str) -> dict[str, Any]:
        return await self._endpoint.request(pipes.ROUTING_INFO, {"component": component})

    async def heartbeat(self, proclet_id: str, load: float) -> None:
        await self._endpoint.request(
            pipes.HEARTBEAT, {"proclet_id": proclet_id, "load": load}
        )

    async def export_metrics(self, proclet_id: str, snapshot: dict[str, Any]) -> None:
        await self._endpoint.notify(
            pipes.METRICS, {"proclet_id": proclet_id, "snapshot": snapshot}
        )

    async def export_logs(self, proclet_id: str, records: list[dict[str, Any]]) -> None:
        await self._endpoint.notify(
            pipes.LOGS, {"proclet_id": proclet_id, "records": records}
        )

    async def export_call_graph(self, proclet_id: str, edges: list[dict[str, Any]]) -> None:
        await self._endpoint.notify(
            pipes.CALL_GRAPH, {"proclet_id": proclet_id, "edges": edges}
        )

    async def export_traces(self, proclet_id: str, spans: list[dict[str, Any]]) -> None:
        await self._endpoint.notify(
            pipes.TRACES, {"proclet_id": proclet_id, "spans": spans}
        )

    async def export_spans(self, proclet_id: str, spans: list[Any]) -> None:
        from repro.observability.tracing import spans_to_wire

        await self.export_traces(proclet_id, spans_to_wire(spans))


class RoutingResolver:
    """Resolves (component, routing key) -> replica address for RPC calls.

    Cache-aside over the proclet's :class:`RoutingTable`: :meth:`pick`
    reads it, :meth:`resolve` first fills a miss with ``StartComponent`` +
    ``RoutingInfo`` round trips to the runtime.
    """

    def __init__(self, runtime: RuntimeAPI, table: RoutingTable) -> None:
        self._runtime = runtime
        self._table = table
        self._breakers = table.breakers
        # One per component: concurrent misses share one refresh round trip.
        self._locks: dict[str, asyncio.Lock] = {}

    def pick(
        self, reg: Registration, method: MethodSpec, args: tuple, route_key: Optional[Any] = None
    ) -> Optional[str]:
        key = route_key
        if (
            key is None
            and method.routing_index is not None
            and len(args) > method.routing_index
        ):
            key = args[method.routing_index]
        return self._table.pick(reg.name, key)

    async def resolve(
        self, reg: Registration, method: MethodSpec, args: tuple, route_key: Optional[Any] = None
    ) -> str:
        await self._refresh(reg.name)  # returns at once if replicas are cached
        address = self.pick(reg, method, args, route_key)
        if address is None:
            raise Unavailable(f"no replicas known for {reg.name}", executed=False)
        return address

    async def _refresh(self, component: str) -> None:
        lock = self._locks.setdefault(component, asyncio.Lock())
        async with lock:
            if self._table.replicas(component):
                return
            await self._runtime.start_component(component)
            info = await self._runtime.routing_info(component)
            self.apply_routing_info(component, info)

    def apply_routing_info(self, component: str, info: dict[str, Any]) -> None:
        replicas = info.get("replicas", [])
        self._table.update_replicas(component, replicas)
        raw = info.get("assignment")
        if raw:
            self._table.update_assignment(Assignment.from_wire(raw))

    def report_outcome(
        self,
        reg: Registration,
        address: str,
        *,
        ok: bool,
        code: Optional[Any] = None,
        draining: bool = False,
        wrong_owner: bool = False,
    ) -> None:
        """Feed one attempt outcome into the failure-domain machinery.

        Classification:

        * success, or APPLICATION error — the replica executed the call,
          so it is healthy: record a breaker success.
        * RESOURCE_EXHAUSTED — overloaded, not broken: neutral (ejecting
          a shedding replica would dogpile the survivors).
        * draining UNAVAILABLE — the replica is leaving on purpose:
          neutral for the breaker, but drop the cached routing entry so
          the next call re-resolves to the post-drain replica set.
        * wrong-owner UNAVAILABLE — *our* routing assignment is stale
          (the ring changed mid-flight); the replica is healthy, so no
          breaker penalty, but the cached entry must go so the retry
          re-resolves against the current assignment.
        * anything else (UNAVAILABLE, DEADLINE_EXCEEDED, INTERNAL) —
          record a breaker failure and invalidate the cached routing
          entry, so the next attempt re-resolves through the runtime.
          The breaker matters when the refreshed view *still* contains
          the sick replica (the manager's sweep hasn't noticed yet):
          tripped breakers survive the refresh and keep picks away
          from it.
        """
        if ok or code is ErrorCode.APPLICATION:
            if self._breakers is not None:
                self._breakers.record(reg.name, address, ok=True)
            return
        if code is ErrorCode.RESOURCE_EXHAUSTED:
            return
        if draining or wrong_owner:
            self._table.invalidate(reg.name)
            return
        if self._breakers is not None:
            self._breakers.record(reg.name, address, ok=False)
        self._table.invalidate(reg.name)


class Proclet:
    """One process's worth of the application plus its managing daemon."""

    def __init__(
        self,
        proclet_id: str,
        build: FrozenRegistry,
        config: AppConfig,
        runtime: RuntimeAPI,
        *,
        group_id: int = 0,
        replica_index: int = 0,
        listen_address: Optional[str] = None,
        heartbeat_interval_s: float = 1.0,
        call_graph: Optional[CallGraph] = None,
        state_dir: Optional[str] = None,
    ) -> None:
        self.proclet_id = proclet_id
        self.build = build
        self.config = config
        self.group_id = group_id
        self.replica_index = replica_index
        self._runtime = runtime
        self._codec = codec_by_name(config.codec)
        self._heartbeat_interval_s = heartbeat_interval_s

        from repro.observability.tracing import Tracer
        from repro.runtime.advisor import RoutingAdvisor

        self.call_graph = call_graph or CallGraph()
        self.metrics = MetricsRegistry()
        self.log_buffer = LogBuffer()
        # ``telemetry: off`` disables span creation and the client-side
        # latency histogram entirely (the control knob behind the E19
        # overhead gate); counters and heartbeats always flow.
        self.telemetry = getattr(config, "telemetry", "full")
        self.tracer = (
            Tracer(trace_rate=getattr(config, "trace_rate", None))
            if self.telemetry != "off"
            else None
        )
        self.advisor = RoutingAdvisor()
        self._method_latency = self.metrics.histogram("component_method_latency_s")
        self._method_calls = self.metrics.counter("component_method_calls")
        self._method_errors = self.metrics.counter("component_method_errors")
        # (component_id, method_index) -> pre-bound metric cells; the
        # per-RPC accounting path must not re-resolve labels every call.
        self._method_cells: dict[tuple[int, int], tuple[Any, Any, Any]] = {}

        from repro.observability.logs import ComponentLogger
        from repro.state import StateRuntime

        self.state = StateRuntime(
            proclet_id,
            state_dir if state_dir is not None else config.state_dir,
            num_shards=config.state_shards,
            fsync=config.state_fsync,
            snapshot_every=config.state_snapshot_every,
            metrics=self.metrics,
        )
        self._hosted: set[str] = set()
        self._local = LocalInvoker(
            version=build.version,
            call_graph=self.call_graph,
            resolver=self,
            settings=config.settings,
            logger_factory=lambda name, rid: ComponentLogger(self.log_buffer, name, rid),
            replica_id=replica_index,
            tracer=self.tracer,
            advisor=self.advisor,
            state_factory=self.state.component_state,
        )
        self._dispatcher = Dispatcher(
            build, self._codec, self._local, hosted=set(), tracer=self.tracer
        )
        self._admission = AdmissionController(
            config.max_inflight, config.max_queue_depth
        )
        self._busy_s = 0.0
        self._last_heartbeat_busy = 0.0
        self._last_heartbeat_time: Optional[float] = None

        if listen_address is None:
            listen_address = "tcp://127.0.0.1:0"
        self._server = RPCServer(
            self._handle_rpc,
            codec=config.codec,
            version=build.version,
            address=listen_address,
            compress=config.compress_wire,
            stream_threshold=config.stream_threshold_bytes,
            stream_chunk=config.stream_chunk_bytes,
        )
        self._pool = ConnectionPool(
            codec=config.codec,
            version=build.version,
            compress=config.compress_wire,
            stream_threshold=config.stream_threshold_bytes,
            stream_chunk=config.stream_chunk_bytes,
        )
        self.breakers = None
        if config.breakers_enabled:
            from repro.transport.breaker import BreakerPolicy, BreakerSet

            self.breakers = BreakerSet(
                BreakerPolicy(
                    consecutive_failures=config.breaker_failures,
                    open_for_s=config.breaker_open_for_s,
                ),
                metrics=self.metrics,
            )
        self._table = RoutingTable(self.breakers)
        self._resolver = RoutingResolver(self._runtime, self._table)
        self._remote = RemoteInvoker(
            codec=self._codec,
            pool=self._pool,
            resolver=self._resolver,
            call_graph=self.call_graph,
            timeout_s=config.call_timeout_s,
            max_retries=config.max_retries,
            tracer=self.tracer,
            metrics=self.metrics if self.telemetry != "off" else None,
        )
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._stopped = False
        self.draining = False
        self.inflight_rpcs = 0
        self._drain_hist = self.metrics.histogram("replica_drain_s")

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self) -> str:
        return self._server.address

    async def start(self) -> None:
        """Serve, register, and learn what to host (§4.3's startup dance)."""
        await self._server.start()
        self.state.set_self_address(self._server.address)
        await self._runtime.register_replica(
            self.proclet_id, self._server.address, self.group_id
        )
        components = await self._runtime.components_to_host(self.proclet_id)
        await self.host_components(components)
        self._heartbeat_task = asyncio.ensure_future(self._heartbeat_loop())

    async def drain(self, deadline_s: Optional[float] = None) -> float:
        """Graceful pre-shutdown: close the door, finish in-flight work.

        Stops accepting new connections and rejects new RPCs on existing
        ones with a retryable ``Unavailable(draining=True)``, then waits —
        up to ``deadline_s`` — for in-flight requests to finish.  Returns
        the drain duration in seconds.  The manager must have dropped this
        replica from routing *before* calling this, so new traffic is
        already steering elsewhere and the rejections only catch stragglers.
        """
        if deadline_s is None:
            deadline_s = self.config.drain_deadline_s
        start = time.monotonic()
        if not self.draining:
            self.draining = True
            await self._server.drain()
        deadline = start + max(0.0, deadline_s)
        while self.inflight_rpcs > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        if self.inflight_rpcs > 0:
            log.warning(
                "%s: drain deadline (%.1fs) expired with %d RPCs in flight",
                self.proclet_id,
                deadline_s,
                self.inflight_rpcs,
            )
        duration = time.monotonic() - start
        self._drain_hist.observe(duration)
        return duration

    async def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
        for instance in self._local.instances().values():
            await shutdown_instance(instance)
        self.state.close()
        await self._pool.close()
        await self._server.stop()

    async def host_components(self, components: list[str]) -> None:
        """Adopt the runtime's decision about what this proclet runs.

        Newly assigned components are instantiated eagerly (failures should
        surface at (re)placement time, not first request); components moved
        away are shut down — the "runtime may move component replicas
        around" mechanics of §3.1.
        """
        hosted = set(components)
        for name in hosted:
            self.build.by_name(name)  # validate early: unknown names are bugs
        removed = self._hosted - hosted
        self._hosted = hosted
        self._dispatcher.set_hosted(hosted)
        for name in sorted(removed):
            await self._local.discard_instance(name)
            self.state.detach_component(name)  # flush; new owner replays
            self._table.invalidate(name)  # future calls re-resolve
        for name in sorted(hosted):
            reg = self.build.by_name(name)
            await self._local.instance(reg)

    @property
    def hosted(self) -> set[str]:
        return set(self._hosted)

    # -- data plane -------------------------------------------------------------

    async def _handle_rpc(
        self,
        component_id: int,
        method_index: int,
        args: bytes,
        trace: tuple[int, int] = (0, 0),
        deadline_ms: int = 0,
    ) -> bytes:
        if self.draining:
            # Door closed: the replica is leaving.  executed=False makes
            # the rejection safe to retry anywhere, draining=True tells the
            # caller's breaker this is a planned exit, not a failure.
            raise Unavailable(
                f"{self.proclet_id} is draining", executed=False, draining=True
            )
        self.inflight_rpcs += 1
        try:
            admission = self._admission
            if not admission.try_enter():
                deadline_ms = await self._queue_for_slot(admission, deadline_ms)
            start = time.perf_counter()
            failed = False
            try:
                return await self._dispatcher.handle(
                    component_id, method_index, args, trace, deadline_ms
                )
            except BaseException:
                failed = True
                raise
            finally:
                admission.leave()
                elapsed = time.perf_counter() - start
                self._busy_s += elapsed
                cells = self._method_cells.get((component_id, method_index))
                if cells is None:
                    try:
                        reg = self.build.by_id(component_id)
                        name, method = reg.name, reg.spec.methods[method_index].name
                    except (ComponentNotFound, IndexError):
                        name, method = "?", "?"
                    cells = self._method_cells[(component_id, method_index)] = tuple(
                        metric.bind(component=name, method=method)
                        for metric in (
                            self._method_latency, self._method_calls, self._method_errors
                        )
                    )
                latency, calls, errors = cells
                # trace[0] is the caller's trace id: a histogram exemplar
                # pivots a latency bucket straight to that trace.
                latency.observe(elapsed, exemplar=trace[0])
                calls.inc()
                if failed:
                    errors.inc()
        finally:
            self.inflight_rpcs -= 1

    async def _queue_for_slot(
        self, admission: AdmissionController, deadline_ms: int
    ) -> int:
        """Wait for an execution slot; returns the budget left once admitted.

        The caller's deadline is pinned to our clock first, so time spent
        queued burns the budget.  One that runs out here is answered
        ``executed=False`` — user code never ran — whether the slot comes
        too late or the connection's budget sweep cancels the wait.
        """
        if deadline_ms <= 0:
            await admission.wait_turn()
            return 0
        deadline = time.monotonic() + deadline_ms / 1000.0
        try:
            await admission.wait_turn()
        except asyncio.CancelledError:
            # The sweep pinned this budget a moment before we did, so it
            # fires with a sliver of ours left: under one wire tick (1 ms)
            # counts as spent.  Anything earlier is teardown's cancel.
            if deadline - time.monotonic() >= 0.001:
                raise
        else:
            remaining_s = deadline - time.monotonic()
            if remaining_s > 0:
                return max(1, int(remaining_s * 1000))
            admission.leave()
        raise DeadlineExceeded(
            f"request expired before execution "
            f"({deadline_ms}ms budget spent in transit/queue)",
            executed=False,
        )

    # -- stub resolution (the resolver LocalInvoker/contexts call) -------------

    def get_for(self, iface: type, caller: str) -> Any:
        reg = self.build.by_iface(iface)
        if reg.name in self._hosted:
            return make_stub(reg, self._local, caller)
        return make_stub(reg, self._remote, caller)

    def get(self, iface: type) -> Any:
        return self.get_for(iface, ROOT)

    # -- control plane ------------------------------------------------------------

    async def handle_control(self, type_: str, body: dict[str, Any]) -> dict[str, Any]:
        """Requests pushed from the envelope/runtime to this proclet."""
        if type_ == "host_components":
            await self.host_components(body.get("components", []))
            return {}
        if type_ == pipes.ROUTING_INFO:
            component = body["component"]
            self._resolver.apply_routing_info(component, body)
            # The state layer keeps its own assignment view: per-key
            # ownership checks need the assignment for components this
            # proclet *hosts*, not just ones it calls.
            self.state.apply_routing_info(body)
            return {}
        if type_ == pipes.DRAIN:
            drained_s = await self.drain(body.get("deadline_s"))
            # In-flight writes are done and the door is closed: flush and
            # export every owned shard so the manager can hand them to the
            # surviving owners before this process exits.
            handover = self.state.export_for_handover()
            return {"drained_s": drained_s, "handover": handover}
        if type_ == pipes.STATE_HANDOVER:
            replayed = self.state.import_handover(body.get("shards", []))
            return {"replayed": replayed}
        if type_ == pipes.SHUTDOWN:
            asyncio.ensure_future(self.stop())
            return {}
        if type_ == "health":
            return {"status": "serving", "hosted": sorted(self._hosted)}
        raise Unavailable(f"unknown control request {type_!r}")

    async def _heartbeat_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(self._heartbeat_interval_s)
                await self._send_heartbeat()
        except asyncio.CancelledError:
            pass
        except Exception:
            log.exception("%s: heartbeat loop failed", self.proclet_id)

    async def _send_heartbeat(self) -> None:
        now = time.monotonic()
        if self._last_heartbeat_time is None:
            load = 0.0
        else:
            interval = max(1e-9, now - self._last_heartbeat_time)
            load = (self._busy_s - self._last_heartbeat_busy) / interval
        self._last_heartbeat_time = now
        self._last_heartbeat_busy = self._busy_s
        # Truncation accounting: buffers drop rather than grow without
        # bound, and every drop is visible deployment-wide.  Gauges with a
        # proclet label merge last-writer-wins per replica, so the values
        # stay exact (they are already cumulative within this process).
        kw = {"proclet": self.proclet_id}
        if self.tracer is not None and self.tracer.dropped:
            self.metrics.gauge("telemetry_dropped_spans").set(
                float(self.tracer.dropped), **kw
            )
        if self.log_buffer.dropped:
            self.metrics.gauge("telemetry_dropped_logs").set(
                float(self.log_buffer.dropped), **kw
            )
        if self.tracer is not None and self.tracer.unsampled:
            self.metrics.gauge("telemetry_unsampled_traces").set(
                float(self.tracer.unsampled), **kw
            )
        await self._runtime.heartbeat(self.proclet_id, load)
        await self._runtime.export_metrics(self.proclet_id, self.metrics.snapshot())
        await self._runtime.export_call_graph(self.proclet_id, self.call_graph.to_wire())
        spans = self.tracer.drain() if self.tracer is not None else []
        if spans:
            # export_spans lets in-process runtimes skip the wire encode /
            # decode round trip; pipe-backed runtimes encode internally.
            export = getattr(self._runtime, "export_spans", None)
            if export is not None:
                await export(self.proclet_id, spans)
            else:
                from repro.observability.tracing import spans_to_wire

                await self._runtime.export_traces(
                    self.proclet_id, spans_to_wire(spans)
                )
        from repro.observability.logs import records_to_wire

        records = self.log_buffer.drain()
        if records:
            await self._runtime.export_logs(self.proclet_id, records_to_wire(records))

    def context_for(self, reg: Registration) -> ComponentContext:
        return ComponentContext(
            component=reg.name,
            replica_id=self.replica_index,
            version=self.build.version,
            getter=lambda iface: self.get_for(iface, reg.name),
            config=self.config.settings,
            state=self.state.component_state(reg.name),
        )

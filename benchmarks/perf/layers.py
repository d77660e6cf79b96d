"""The per-layer metrics of one workload (``--trace 1``).

Three kinds of number, each from the run that can give it honestly:

* **counts** are read from the deployment's own public counters around an
  *untraced* interval (tracing changes batching, so counts taken under it
  would describe the wrappers);
* **busy times** are self time per end-to-end op from a *traced* interval
  (:mod:`benchmarks.perf.trace`);
* a few **set-up and background costs** are timed on their own.

End-to-end metrics are never taken from here.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time
from collections import defaultdict
from dataclasses import astuple, dataclass
from typing import Any

from repro.core.registry import Registry
from repro.transport.connection import Connection
from repro.transport.server import AdmissionController

from benchmarks.perf import measure
from benchmarks.perf.measure import Interval, closed_loop, deployed_interval, percentile
from benchmarks.perf.metrics import PER_LAYER
from benchmarks.perf.trace import InstanceLog, Recorder, Totals, Tracing
from benchmarks.perf.workloads import WORKLOADS, BoutiqueWorkload, Workload

#: Share of ``--seconds`` given to the untraced and to the traced interval.
UNTRACED_SHARE = 0.35
TRACED_SHARE = 0.30
IDLE_S = 1.5
LOCAL_S = 1.5
DEPLOY_REPEATS = 5


@dataclass
class Counts:
    """Cumulative counters of a live deployment, read through public names."""

    rpcs: float = 0.0
    breaker_trips: float = 0.0
    state_reads: int = 0
    state_writes: int = 0
    flushes: int = 0
    frames_sent: int = 0
    direct_writes: int = 0
    shed: int = 0

    def __sub__(self, other: "Counts") -> "Counts":
        return Counts(*(a - b for a, b in zip(astuple(self), astuple(other))))


def _counter_sum(proclet: Any, name: str, **required: str) -> float:
    want = set(required.items())
    return sum(
        cell.value
        for (metric, labels), cell in proclet.metrics.cells().items()
        if metric == name and want <= set(labels)
    )


def read_counts(app: Any, instances: InstanceLog) -> Counts:
    servers = [envelope.proclet for envelope in app.envelopes.values()]
    counts = Counts()
    for proclet in servers:
        counts.rpcs += _counter_sum(proclet, "component_method_calls")
        for stats in proclet.state.shard_map().values():
            counts.state_reads += stats["reads"]
            counts.state_writes += stats["writes"]
    for proclet in servers + [app.driver]:
        counts.breaker_trips += _counter_sum(proclet, "breaker_transitions", to="open")
    for conn in instances.of(Connection):
        counts.flushes += conn.flushes
        counts.frames_sent += conn.frames_sent
        counts.direct_writes += conn.direct_writes
    counts.shed = sum(a.shed_count for a in instances.of(AdmissionController))
    return counts


def layer_times(totals: dict[str, Totals], ops: int, wall_s: float) -> dict[str, float]:
    """Turn per-seam sums of a traced interval into the per-op metrics."""
    totals = defaultdict(Totals, totals)  # a seam that never ran is all zeros

    def us(name: str) -> float:
        return totals[name].self_ns / 1e3 / ops

    enc, dec = totals["serde.encode"], totals["serde.decode"]
    feed = totals["transport.framing.feed"]
    call = totals["transport.connection.call"]
    invoke = totals["transport.rpc.invoke"]
    handle = totals["runtime.proclet.handle"]
    span = totals["observability.tracing.span"]
    serde_bytes = enc.bytes + dec.bytes
    traced_self_ns = sum(t.self_ns for name, t in totals.items() if name != "op")
    return {
        "serde.encode_us_per_op": us("serde.encode"),
        "serde.decode_us_per_op": us("serde.decode"),
        "serde.calls_per_op": (enc.count + dec.count) / ops,
        "serde.bytes_per_op": serde_bytes / ops,
        "serde.ns_per_byte": (enc.self_ns + dec.self_ns) / serde_bytes if serde_bytes else 0.0,
        "transport.message.build_us_per_op": us("transport.message.build"),
        "transport.message.parse_us_per_op": us("transport.message.parse"),
        "transport.framing.feed_us_per_op": us("transport.framing.feed"),
        "transport.framing.frames_per_op": feed.n / ops,
        "transport.framing.wire_bytes_per_op": feed.bytes / ops,
        "transport.connection.call_self_us_per_op": us("transport.connection.call"),
        # Suspended in Connection.call, minus the time a server spent on the
        # request: what the transport and the event loop's queue added.
        "transport.connection.wait_us_per_op": (
            (call.wall_ns - call.busy_ns) - handle.wall_ns
        ) / 1e3 / ops,
        "transport.server.dispatch_self_us_per_op": us("transport.server.dispatch"),
        "transport.rpc.invoke_self_us_per_op": us("transport.rpc.invoke"),
        # Every attempt past the first (retry or hedge) is one more
        # Connection.call under the same RemoteInvoker.invoke.
        "transport.rpc.retries_per_op": (call.count - invoke.count) / ops,
        "core.stub.call_self_us_per_op": us("core.stub.call"),
        "core.stub.local_invoke_self_us_per_op": us("core.stub.local_invoke"),
        "core.call_graph.record_us_per_op": us("core.call_graph.record"),
        "runtime.proclet.handle_self_us_per_op": us("runtime.proclet.handle"),
        "runtime.routing.resolve_us_per_op": us("runtime.routing.resolve"),
        "observability.tracing.span_us_per_op": us("observability.tracing.span"),
        "observability.tracing.spans_per_op": span.n / ops,
        "observability.tracing.unsampled_ratio": 1.0 - span.n / span.count if span.count else 0.0,
        "observability.metrics.record_us_per_op": us("observability.metrics.record"),
        "observability.export_us_per_op": us("observability.export"),
        "state.put_us_per_op": us("state.put") + us("state.wal"),
        "state.get_us_per_op": us("state.get"),
        "state.wal_bytes_per_op": totals["state.wal"].bytes / ops,
        "trace.coverage_ratio": traced_self_ns / (wall_s * 1e9),
    }


def compile_ms(workload: Workload) -> float:
    """Compile the workload's interfaces into a fresh registry and freeze it."""
    t0 = time.perf_counter()
    registry = Registry()
    for iface, impl in workload.interfaces():
        registry.register(iface, impl)
    registry.freeze()
    return (time.perf_counter() - t0) * 1e3


async def deploy_and_idle(workload: Workload) -> tuple[float, float]:
    """(median deploy time in ms, CPU ms per second of a deployed idle app)."""
    deploys = []
    for i in range(DEPLOY_REPEATS):
        t0 = time.perf_counter()
        app = await workload.deploy()
        deploys.append((time.perf_counter() - t0) * 1e3)
        try:
            if i == DEPLOY_REPEATS - 1:
                cpu0, t0 = time.process_time(), time.perf_counter()
                await asyncio.sleep(IDLE_S)
                idle = (time.process_time() - cpu0) * 1e3 / (time.perf_counter() - t0)
        finally:
            await app.shutdown()
    return statistics.median(deploys), idle


async def local_cpu_us_per_op(workload: BoutiqueWorkload, seed: int) -> float:
    """The same journey where every call is a local call: what the handlers
    themselves cost, the floor of ``cpu_us_per_op`` on ``boutique_c1``."""
    app = await workload.deploy_local()
    try:
        client = workload.client(app)
        await closed_loop(workload, client, seed - 1, 0.5)
        interval = await closed_loop(workload, client, seed, LOCAL_S)
    finally:
        await app.shutdown()
    return interval.cpu_s / interval.attempted * 1e6


async def per_layer(
    workload: Workload, seed: int, seconds: float, trace_path: str
) -> tuple[dict[str, float], list[Interval]]:
    """Every ``PER_LAYER`` metric for one workload, plus the intervals
    (untraced, traced) they were taken from so the caller can account for
    attempts and failures."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    out["codegen.compile_ms"] = compile_ms(workload)
    # Deploy cycles come before any interval, as the set-up cycles do in an
    # end-to-end run: the first deployment of a fresh process runs the
    # boutique 18 % slower (114k minor page faults in 8 s against 8k) until
    # the allocator's arenas have been through a deployment or two.
    out["runtime.manager.deploy_ms"], out["runtime.manager.background_cpu_ms_per_s"] = (
        await deploy_and_idle(workload)
    )
    warmup_s = measure.WARMUP_S / 2  # three deployments share --seconds

    with InstanceLog(Connection, AdmissionController) as instances:
        untraced, before, after = await deployed_interval(
            workload,
            seed,
            seconds * UNTRACED_SHARE,
            warmup_s=warmup_s,
            counters=lambda app: read_counts(app, instances),
        )
    intervals = [untraced]
    ops = untraced.attempted
    delta = after - before
    out["runtime.proclet.rpcs_per_op"] = delta.rpcs / ops
    out["transport.breaker.trips"] = delta.breaker_trips
    out["transport.server.shed_count"] = float(delta.shed)
    out["state.reads_per_op"] = delta.state_reads / ops
    out["state.writes_per_op"] = delta.state_writes / ops
    out["transport.connection.flushes_per_op"] = delta.flushes / ops
    flushed = delta.frames_sent - delta.direct_writes
    out["transport.connection.frames_per_flush"] = (
        flushed / delta.flushes if delta.flushes else 0.0
    )
    out["transport.connection.direct_write_ratio"] = (
        delta.direct_writes / delta.frames_sent if delta.frames_sent else 0.0
    )
    latencies = untraced.latencies_s()
    out["client.lat_p99_ms"] = percentile(latencies, 0.99) * 1e3
    out["client.samples"] = float(len(latencies))

    sibling = {"echo_d32": "echo_d32_tel", "echo_d32_tel": "echo_d32"}.get(workload.name)
    if sibling is not None:
        other, _, _ = await deployed_interval(
            WORKLOADS[sibling], seed, seconds * UNTRACED_SHARE, warmup_s=warmup_s
        )
        intervals.append(other)
        off, full = (untraced, other) if workload.telemetry == "off" else (other, untraced)
        out["observability.overhead_ratio"] = 1.0 - full.ops_per_s() / off.ops_per_s()

    if isinstance(workload, BoutiqueWorkload):
        out["boutique.handler_self_us_per_op"] = await local_cpu_us_per_op(workload, seed)

    # Last, so nothing above runs with a wrapper in place.
    recorder = Recorder()
    with Tracing(recorder):
        traced, _, _ = await deployed_interval(
            workload, seed, seconds * TRACED_SHARE, warmup_s=warmup_s, recorder=recorder
        )
    out.update(layer_times(recorder.totals(), traced.attempted, traced.wall_s))
    out["trace.overhead_ratio"] = 1.0 - traced.ops_per_s() / untraced.ops_per_s()
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    written = recorder.write(trace_path)
    print(f"# {written} of {len(recorder)} spans written to {os.path.relpath(trace_path)}")
    return out, intervals + [traced]

"""Deployment status rendering — Figure 3's "Web UI / Debugging Tools".

The manager aggregates health, load, metrics, logs, the call graph, and
cross-proclet traces; this module renders them as one human-readable
report (the terminal analogue of Service Weaver's dashboard).  Everything
shown here is about a *single logical application*, however many processes
it happens to occupy — the C3 ("hard to manage") fix made visible.
"""

from __future__ import annotations

from typing import Any

from repro.observability.metrics import HistogramValue
from repro.runtime.manager import Manager


def _short(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def render_status(manager: Manager, *, max_traces: int = 3) -> str:
    """The full deployment report as a string."""
    sections = [
        render_header(manager),
        render_signals(manager),
        render_timeseries(manager),
        render_replicas(manager),
        render_state(manager),
        render_breakers(manager),
        render_remediation(manager),
        render_call_graph(manager),
        render_latencies(manager),
        render_traces(manager, max_traces=max_traces),
        render_recent_logs(manager),
    ]
    return "\n\n".join(s for s in sections if s)


def render_header(manager: Manager) -> str:
    groups = manager.group_states()
    return (
        f"deployment {manager.resolved.app.name!r} "
        f"version {manager.build.version}\n"
        f"components: {len(manager.build)}  groups: {len(groups)}  "
        f"replicas: {manager.total_replicas()}  "
        f"autoscaling: {'on' if manager.autoscale_enabled else 'off'}"
    )


def render_signals(manager: Manager) -> str:
    """Anomaly / SLO burn-rate verdicts from the live signal board."""
    board = manager.signals
    signals = board.signals()
    if not signals:
        return ""
    firing = [s for s in signals if s.firing]
    lines = [f"signals ({len(firing)} firing / {len(signals)} watched):"]
    shown = firing + [s for s in signals if not s.firing and s.kind == "slo"]
    for s in shown[:12]:
        mark = "FIRING" if s.firing else "ok"
        scope = _short(s.scope) if s.scope != "_total" else "total"
        lines.append(f"  [{mark:<6s}] {s.kind}:{s.name:<14s} {scope:<14s} {s.detail}")
    for event in list(board.events)[-3:]:
        verb = "fired" if event["firing"] else "resolved"
        lines.append(f"  event: {event['key']} {verb}")
    return "\n".join(lines)


def render_timeseries(manager: Manager) -> str:
    """Deployment-wide trend sparklines from the per-second ring buffers."""
    from repro.observability.timeseries import sparkline

    store = manager.timeseries
    lines = []
    for name, unit in (
        ("rps", "req/s"),
        ("error_rate", ""),
        ("p50_ms", "ms"),
        ("p99_ms", "ms"),
    ):
        series = store.series(name, "_total")
        latest = series.latest()
        if latest is None:
            continue
        spark = sparkline(series.values(last=30))
        lines.append(f"  {name:<12s} {latest.value:>10.2f} {unit:<6s} {spark}")
    if not lines:
        return ""
    return "\n".join(["telemetry (last 30s, 1s resolution):"] + lines)


def render_replicas(manager: Manager) -> str:
    lines = ["replicas:"]
    for group in manager.group_states().values():
        members = ", ".join(_short(c) for c in group.components)
        lines.append(f"  group {group.group_id} [{members}]")
        for info in sorted(group.proclets.values(), key=lambda p: p.replica_index):
            state = manager.health.state(info.proclet_id)
            state_name = state.value if state else "?"
            lines.append(
                f"    {info.proclet_id:<26s} {info.address:<28s} "
                f"{state_name:<8s} load={info.load:.2f}"
            )
    return "\n".join(lines)


def render_state(manager: Manager) -> str:
    """Durable-state view: shard map, write volume, handover activity.

    Per-proclet numbers come from the metrics each proclet exports on
    heartbeat; handover counters are recorded manager-side at retire time
    (the retiring proclet's own registry dies with it).
    """
    writes: dict[str, float] = {}
    wrong_owner: dict[str, float] = {}
    replayed = 0.0
    replay_hist: list[Any] = []
    handover_shards = 0.0
    handover_replayed = 0.0
    handover_hist: list[Any] = []
    for (name, labels), cell in manager.metrics.cells().items():
        labelmap = dict(labels)
        if name == "state_writes":
            comp = labelmap.get("component", "?")
            writes[comp] = writes.get(comp, 0.0) + cell.value
        elif name == "state_wrong_owner":
            comp = labelmap.get("component", "?")
            wrong_owner[comp] = wrong_owner.get(comp, 0.0) + cell.value
        elif name == "state_replayed_records":
            replayed += cell.value
        elif name == "state_replay_s" and isinstance(cell, HistogramValue):
            replay_hist.append(cell)
        elif name == "state_handover_shards":
            handover_shards += cell.value
        elif name == "state_handover_replayed":
            handover_replayed += cell.value
        elif name == "state_handover_s" and isinstance(cell, HistogramValue):
            handover_hist.append(cell)
    if not writes and not handover_shards and not replayed:
        return ""
    lines = ["durable state (shards / handover):"]
    assignments = manager._assignments
    for comp in sorted(set(writes) | set(wrong_owner)):
        assignment = assignments.get(comp)
        gen = assignment.generation if assignment else 0
        owners = len(set(assignment.owners)) if assignment else 0
        lines.append(
            f"  {_short(comp):<18s} writes={writes.get(comp, 0):.0f} "
            f"wrong_owner_rejects={wrong_owner.get(comp, 0):.0f} "
            f"ring_gen={gen} owners={owners}"
        )
    attach_count = sum(h.count for h in replay_hist)
    if replayed or attach_count:
        mean_ms = (
            sum(h.total for h in replay_hist) / attach_count * 1000
            if attach_count
            else 0.0
        )
        lines.append(
            f"  replay: {replayed:.0f} WAL records over {attach_count} "
            f"attaches, mean {mean_ms:.1f}ms"
        )
    if handover_shards:
        count = sum(h.count for h in handover_hist)
        total = sum(h.total for h in handover_hist)
        mean_ms = total / count * 1000 if count else 0.0
        lines.append(
            f"  handover: {handover_shards:.0f} shards re-homed, "
            f"{handover_replayed:.0f} records replayed eagerly, "
            f"mean {mean_ms:.1f}ms"
        )
    return "\n".join(lines)


def render_breakers(manager: Manager) -> str:
    """Failure-domain view: breaker churn, ejections, drain durations.

    Built from the metrics every proclet exports on heartbeat, so it shows
    the whole deployment's client-side failure handling, not one process's.
    """
    transitions: dict[str, dict[str, float]] = {}
    skips: dict[str, float] = {}
    drains: list[Any] = []
    open_now: dict[str, float] = {}
    for (name, labels), cell in manager.metrics.cells().items():
        labelmap = dict(labels)
        if name == "breaker_transitions":
            comp = labelmap.get("component", "?")
            transitions.setdefault(comp, {})[labelmap.get("to", "?")] = cell.value
        elif name == "breaker_skipped_picks":
            skips[labelmap.get("component", "?")] = cell.value
        elif name == "breaker_open_replicas":
            open_now[labelmap.get("component", "?")] = cell.value
        elif name == "replica_drain_s" and isinstance(cell, HistogramValue):
            drains.append(cell)
    if not transitions and not skips and not drains:
        return ""
    lines = ["failure domains (circuit breakers / drain):"]
    for comp in sorted(set(transitions) | set(skips) | set(open_now)):
        per_state = transitions.get(comp, {})
        lines.append(
            f"  {_short(comp):<18s} open_now={open_now.get(comp, 0):.0f} "
            f"tripped={per_state.get('open', 0):.0f} "
            f"recovered={per_state.get('closed', 0):.0f} "
            f"skipped_picks={skips.get(comp, 0):.0f}"
        )
    if drains:
        count = sum(d.count for d in drains)
        total = sum(d.total for d in drains)
        lines.append(
            f"  drains: {count} replicas drained, "
            f"mean {total / count * 1000:.0f}ms" if count else "  drains: 0"
        )
    return "\n".join(lines)


def render_remediation(manager: Manager, *, max_entries: int = 8) -> str:
    """Closed-loop controller view: mode, budget, and the action journal.

    Every decision the controller made is in the journal — including the
    ones guardrails suppressed — so an operator can audit exactly why a
    replica restarted (or why it pointedly did not).
    """
    wire = manager.remediation.to_wire()
    if wire["mode"] == "off" and not wire["journal"]:
        return ""
    budget = wire["budget"]
    counts = wire["counts"]
    lines = [
        f"remediation (mode={wire['mode']}): "
        f"fired={counts.get('fired', 0)} observed={counts.get('observed', 0)} "
        f"suppressed={counts.get('suppressed', 0)}  "
        f"budget={budget['available']}/{budget['max_actions_per_min']} per min, "
        f"cooldown={budget['cooldown_s']:.0f}s"
    ]
    for entry in wire["journal"][-max_entries:]:
        lines.append(
            f"  [{entry['verdict']:<20s}] {entry['action']:<16s} "
            f"{_short(entry['target']):<22s} {entry['reason']}"
        )
    return "\n".join(lines)


def render_call_graph(manager: Manager, top: int = 8) -> str:
    edges = manager.call_graph.pair_traffic()
    if not edges:
        return ""
    lines = ["call graph (top pairs by calls):"]
    ranked = sorted(edges.items(), key=lambda kv: kv[1].calls, reverse=True)
    for (caller, callee), stats in ranked[:top]:
        kind = "local" if stats.remote_calls == 0 else "rpc"
        lines.append(
            f"  {_short(caller):<18s} -> {_short(callee):<18s} "
            f"{stats.calls:>7d} calls  {kind:<5s} "
            f"avg={stats.avg_latency_s * 1000:.2f}ms bytes={stats.avg_bytes:.0f}"
        )
    path = manager.call_graph.critical_path()
    if path:
        lines.append("  critical path: " + " -> ".join(_short(c) for c in path))
    return "\n".join(lines)


def render_latencies(manager: Manager, top: int = 8) -> str:
    cells = [
        (dict(labels), cell)
        for (name, labels), cell in manager.metrics.cells().items()
        if name == "component_method_latency_s" and isinstance(cell, HistogramValue)
    ]
    if not cells:
        return ""
    lines = ["server-side method latency:"]
    cells.sort(key=lambda item: item[1].count, reverse=True)
    for labels, cell in cells[:top]:
        lines.append(
            f"  {_short(labels.get('component', '?')):<18s}"
            f".{labels.get('method', '?'):<22s} "
            f"n={cell.count:<7d} p50={cell.quantile(0.5) * 1000:7.2f}ms "
            f"p99={cell.quantile(0.99) * 1000:7.2f}ms"
        )
    return "\n".join(lines)


def render_traces(manager: Manager, *, max_traces: int = 3) -> str:
    traces = manager.tracer.traces()
    if not traces:
        return ""
    # Deepest traces first: the interesting ones cross many components.
    ranked = sorted(traces.items(), key=lambda kv: len(kv[1]), reverse=True)
    s = manager.tracer.stats()
    lines = [
        f"traces ({s['kept']} kept + {s['pending']} pending; "
        f"sampled out {s['sampled_out_traces']}, evicted {s['evicted_traces']}; "
        f"showing {min(max_traces, len(ranked))}):"
    ]
    for trace_id, spans in ranked[:max_traces]:
        lines.append(f"  trace {trace_id & 0xFFFFFFFF:08x} ({len(spans)} spans):")
        for depth, span in manager.tracer.trace_tree(trace_id):
            marker = "!" if span.status == "error" else " "
            lines.append(
                f"   {marker}{'  ' * depth}{span.name:<40s} "
                f"{span.duration_s * 1000:7.2f}ms"
            )
    return "\n".join(lines)


def render_trace(manager: Manager, trace_id: int) -> str:
    """One trace in full: the cross-proclet call tree + its critical path."""
    tree = manager.tracer.trace_tree(trace_id)
    if not tree:
        return f"trace {trace_id:x}: not found (sampled out, evicted, or never seen)"
    lines = [f"trace {trace_id:x} ({len(tree)} spans):"]
    for depth, span in tree:
        marker = "!" if span.status == "error" else " "
        lines.append(
            f" {marker}{'  ' * depth}{span.name:<44s} {span.duration_s * 1000:8.2f}ms"
        )
    path = manager.tracer.critical_path(trace_id)
    if path:
        total = path[0][0].duration_s
        lines.append("critical path:")
        for span, exclusive_s in path:
            share = exclusive_s / total * 100 if total > 0 else 0.0
            lines.append(
                f"   {span.name:<44s} self={exclusive_s * 1000:8.2f}ms "
                f"({share:4.1f}% of trace)"
            )
    return "\n".join(lines)


def latency_exemplars(manager: Manager) -> list[dict[str, Any]]:
    """(metric, component, value, trace_id) for every histogram exemplar.

    The pivot from "this bucket spiked" to "here is a trace that landed in
    it" — each entry's trace_id feeds ``repro trace <id>``.
    """
    out: list[dict[str, Any]] = []
    for (name, labels), cell in manager.metrics.cells().items():
        exemplars = getattr(cell, "exemplars", None)
        if not exemplars:
            continue
        labelmap = dict(labels)
        for bucket_index, (value, trace_id) in sorted(exemplars.items()):
            out.append(
                {
                    "metric": name,
                    "component": labelmap.get("component", ""),
                    "method": labelmap.get("method", ""),
                    "bucket": bucket_index,
                    "value_ms": round(value * 1000, 3),
                    "trace_id": trace_id,
                }
            )
    return out


def status_wire(manager: Manager) -> dict[str, Any]:
    """The deployment status as one machine-readable JSON-able dict.

    Served by the dashboard at ``/status.json`` and printed by
    ``repro status --json`` — the contract remediation tooling consumes.
    """
    groups = []
    for group in manager.group_states().values():
        groups.append(
            {
                "group_id": group.group_id,
                "components": list(group.components),
                "target_replicas": group.target_replicas,
                "replicas": [
                    {
                        "proclet_id": info.proclet_id,
                        "address": info.address,
                        "load": round(info.load, 4),
                        "health": (
                            manager.health.state(info.proclet_id).value
                            if manager.health.state(info.proclet_id)
                            else "?"
                        ),
                    }
                    for info in group.proclets.values()
                ],
            }
        )
    traces = manager.tracer.traces()
    ranked = sorted(traces.items(), key=lambda kv: len(kv[1]), reverse=True)
    trace_index = [
        {
            "trace_id": tid,
            "spans": len(spans),
            "root": next(
                (s.name for s in spans if s.parent_id is None), spans[0].name
            ),
            "duration_ms": round(
                max((s.end_s for s in spans), default=0.0)
                - min((s.start_s for s in spans), default=0.0),
                6,
            )
            * 1000,
            "error": any(s.status == "error" for s in spans),
        }
        for tid, spans in ranked[:50]
    ]
    return {
        "app": manager.resolved.app.name,
        "version": manager.build.version,
        "components": len(manager.build),
        "replicas": manager.total_replicas(),
        "autoscaling": manager.autoscale_enabled,
        "groups": groups,
        "exemplars": latency_exemplars(manager),
        "traces": trace_index,
        "signals": manager.signals.to_wire(),
        "series": manager.timeseries.to_wire(),
        "remediation": manager.remediation.to_wire(),
        "trace_stats": manager.tracer.stats(),
    }


def render_recent_logs(manager: Manager, count: int = 5) -> str:
    records = manager.logs.merged()
    if not records:
        return ""
    lines = [f"recent log records ({len(records)} aggregated):"]
    for record in records[-count:]:
        attrs = dict(record.attributes)
        lines.append(
            f"  [{record.level:<7s}] {_short(record.component)}/{record.replica_id}: "
            f"{record.message} {attrs if attrs else ''}".rstrip()
        )
    return "\n".join(lines)

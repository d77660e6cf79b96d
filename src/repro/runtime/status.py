"""Deployment status — Figure 3's "Web UI / Debugging Tools".

The manager aggregates health, load, metrics, logs, the call graph, and
cross-proclet traces.  :func:`status_wire` builds all of it once, as one
JSON-able dict: the status model that ``/status.json`` serves.  Every
surface renders that dict: the report (:func:`render_status`, printed by
``repro deploy`` and ``repro status``), the live dashboard (a subset of the
same sections), and ``repro actions`` (the remediation section).  A new
section is one key in :func:`_build` and one renderer in :data:`SECTIONS`.

Everything shown is about a *single logical application*, however many
processes it happens to occupy — the C3 ("hard to manage") fix made visible.
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Optional

from repro.observability.metrics import HistogramValue
from repro.observability.timeseries import sparkline
from repro.observability.tracing import Span, assemble_tree
from repro.runtime.manager import Manager

Status = dict[str, Any]


def _short(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _ms(seconds: float) -> float:
    return round(seconds * 1000, 3)


# -- the model -----------------------------------------------------------------


def status_wire(manager: Manager) -> Status:
    """The deployment status as one machine-readable JSON-able dict.

    Served by the dashboard at ``/status.json`` and printed by
    ``repro status --json`` — the contract remediation tooling consumes,
    and the one input of every text surface.
    """
    return _build(manager, max_traces=3)


def _build(manager: Manager, *, max_traces: int) -> Status:
    """The model; the ``max_traces`` deepest traces carry their span tree."""
    traces = manager.tracer.largest(50)
    edges = sorted(
        manager.call_graph.pair_traffic().values(), key=lambda e: e.calls, reverse=True
    )
    records = manager.logs.merged()
    return {
        "app": manager.resolved.app.name,
        "version": manager.build.version,
        "components": len(manager.build),
        "replicas": manager.total_replicas(),
        "autoscaling": manager.autoscale_enabled,
        "groups": [
            {
                "group_id": group.group_id,
                "components": list(group.components),
                "target_replicas": group.target_replicas,
                "replicas": [
                    {
                        "proclet_id": info.proclet_id,
                        "address": info.address,
                        "load": round(info.load, 4),
                        "health": getattr(manager.health.state(info.proclet_id), "value", "?"),
                    }
                    for info in sorted(group.proclets.values(), key=lambda p: p.replica_index)
                ],
            }
            for group in manager.group_states().values()
        ],
        **_walk_metrics(manager),
        "traces": [
            _trace_entry(tid, spans, tree=rank < max_traces)
            for rank, (tid, spans) in enumerate(traces)
        ],
        "signals": manager.signals.to_wire(),
        "series": manager.timeseries.to_wire(),
        "remediation": manager.remediation.to_wire(),
        "trace_stats": manager.tracer.stats(),
        "call_graph": {
            "edges": [dict(vars(e)) for e in edges],
            "critical_path": manager.call_graph.critical_path() if edges else [],
        },
        "logs": {
            "total": len(records),
            "dropped": manager.logs.dropped,
            "recent": [{**vars(r), "attributes": dict(r.attributes)} for r in records[-5:]],
        },
    }


def _trace_entry(trace_id: int, spans: list[Span], *, tree: bool) -> Status:
    entry = {
        "trace_id": trace_id,
        "spans": len(spans),
        "root": next((s.name for s in spans if s.parent_id is None), spans[0].name),
        "duration_ms": _ms(max(s.end_s for s in spans) - min(s.start_s for s in spans)),
        "error": any(s.status == "error" for s in spans),
    }
    if tree:
        entry["tree"] = _tree(spans)
    return entry


def _tree(spans: list[Span]) -> list[Status]:
    return [
        {"depth": depth, "name": s.name, "ms": _ms(s.duration_s), "error": s.status == "error"}
        for depth, s in assemble_tree(spans)
    ]


def _walk_metrics(manager: Manager) -> Status:
    """The metric-derived sections, from one walk over the merged cells.

    Per-proclet numbers come from the metrics each proclet exports on
    heartbeat; drain and handover figures are also recorded manager-side
    (a retiring proclet's own registry dies with it).
    """
    sums: dict[tuple[str, str], float] = {}  # (counter or gauge, component) -> total
    hists: dict[str, list[HistogramValue]] = {}
    latencies: list[Status] = []
    exemplars: list[Status] = []
    for (name, labels), cell in manager.metrics.cells().items():
        labelmap = dict(labels)
        component = labelmap.get("component", "?")
        if not isinstance(cell, HistogramValue):
            if name == "breaker_transitions":
                name = f"breaker_to_{labelmap.get('to', '?')}"
            sums[name, component] = sums.get((name, component), 0.0) + cell.value
            continue
        for bucket, (value, trace_id) in sorted(cell.exemplars.items()):
            exemplars.append(
                {
                    "metric": name,
                    "component": labelmap.get("component", ""),
                    "method": labelmap.get("method", ""),
                    "bucket": bucket,
                    "value_ms": _ms(value),
                    "trace_id": trace_id,
                }
            )
        if name == "component_method_latency_s":
            latencies.append(
                {
                    "component": component,
                    "method": labelmap.get("method", "?"),
                    "count": cell.count,
                    "p50_ms": _ms(cell.quantile(0.5)),
                    "p99_ms": _ms(cell.quantile(0.99)),
                }
            )
        else:
            hists.setdefault(name, []).append(cell)

    def by_component(metric: str) -> dict[str, float]:
        return {c: v for (n, c), v in sums.items() if n == metric}

    def total(metric: str) -> float:
        return sum(by_component(metric).values())

    def timed(metric: str) -> tuple[int, float]:
        cells = hists.get(metric, [])
        count = sum(h.count for h in cells)
        return count, _ms(sum(h.total for h in cells) / count) if count else 0.0

    writes, wrong = by_component("state_writes"), by_component("state_wrong_owner")
    attaches, replay_ms = timed("state_replay_s")
    drains, drain_ms = timed("replica_drain_s")
    breaker_rows = {c for (n, c) in sums if n.startswith("breaker_")}
    assignments = manager._assignments
    latencies.sort(key=lambda e: e["count"], reverse=True)
    return {
        "state": {
            "components": {
                comp: {
                    "writes": writes.get(comp, 0.0),
                    "wrong_owner_rejects": wrong.get(comp, 0.0),
                    "ring_gen": getattr(assignments.get(comp), "generation", 0),
                    "owners": len(set(getattr(assignments.get(comp), "owners", ()))),
                }
                for comp in sorted(set(writes) | set(wrong))
            },
            "replayed_records": total("state_replayed_records"),
            "replay_attaches": attaches,
            "replay_mean_ms": replay_ms,
            "handover_shards": total("state_handover_shards"),
            "handover_replayed": total("state_handover_replayed"),
            "handover_mean_ms": timed("state_handover_s")[1],
        },
        "breakers": {
            "components": {
                comp: {
                    "open_now": sums.get(("breaker_open_replicas", comp), 0.0),
                    "tripped": sums.get(("breaker_to_open", comp), 0.0),
                    "recovered": sums.get(("breaker_to_closed", comp), 0.0),
                    "skipped_picks": sums.get(("breaker_skipped_picks", comp), 0.0),
                }
                for comp in sorted(breaker_rows)
            },
            "drains": drains,
            "drain_mean_ms": drain_ms,
        },
        "latencies": latencies,
        "exemplars": exemplars,
    }


def latency_exemplars(manager: Manager) -> list[Status]:
    """(metric, component, value, trace_id) for every histogram exemplar.

    The pivot from "this bucket spiked" to "here is a trace that landed in
    it" — each entry's trace_id feeds ``repro trace <id>``.
    """
    return _walk_metrics(manager)["exemplars"]


# -- the renderers -------------------------------------------------------------


def render_status(manager: Manager, *, max_traces: int = 3) -> str:
    """The full deployment report as a string."""
    return render_sections(_build(manager, max_traces=max_traces))


def render_sections(status: Status, keys: Optional[Collection[str]] = None) -> str:
    """The sections of a status model named by ``keys`` (all by default), in report order."""
    texts = (render(status) for key, render in SECTIONS if keys is None or key in keys)
    return "\n\n".join(text for text in texts if text)


def _render_header(status: Status) -> str:
    return (
        f"deployment {status['app']!r} version {status['version']}\n"
        f"components: {status['components']}  groups: {len(status['groups'])}  "
        f"replicas: {status['replicas']}  "
        f"autoscaling: {'on' if status['autoscaling'] else 'off'}"
    )


def _render_signals(status: Status) -> str:
    """Anomaly / SLO burn-rate verdicts from the live signal board."""
    board = status["signals"]
    signals = board["signals"]
    if not signals:
        return ""
    firing = [s for s in signals if s["firing"]]
    lines = [f"signals ({len(firing)} firing / {len(signals)} watched):"]
    shown = firing + [s for s in signals if not s["firing"] and s["kind"] == "slo"]
    for s in shown[:12]:
        mark = "FIRING" if s["firing"] else "ok"
        scope = _short(s["scope"]) if s["scope"] != "_total" else "total"
        lines.append(f"  [{mark:<6s}] {s['kind']}:{s['name']:<14s} {scope:<14s} {s['detail']}")
    for event in board["events"][-3:]:
        lines.append(f"  event: {event['key']} {'fired' if event['firing'] else 'resolved'}")
    return "\n".join(lines)


def _render_series(status: Status) -> str:
    """Deployment-wide trend sparklines from the per-second ring buffers."""
    lines = []
    for name, unit in (("rps", "req/s"), ("error_rate", ""), ("p50_ms", "ms"), ("p99_ms", "ms")):
        values = [v for _, v in status["series"].get(name, {}).get("_total", [])[-30:]]
        if values:
            lines.append(f"  {name:<12s} {values[-1]:>10.2f} {unit:<6s} {sparkline(values)}")
    return "\n".join(["telemetry (last 30s, 1s resolution):"] + lines) if lines else ""


def _render_groups(status: Status) -> str:
    lines = ["replicas:"]
    for group in status["groups"]:
        members = ", ".join(_short(c) for c in group["components"])
        lines.append(f"  group {group['group_id']} [{members}]")
        for r in group["replicas"]:
            lines.append(
                f"    {r['proclet_id']:<26s} {r['address']:<28s} "
                f"{r['health']:<8s} load={r['load']:.2f}"
            )
    return "\n".join(lines)


def _component_rows(rows: dict[str, Status]) -> list[str]:
    """One line per component: each of its counts, labelled by its model key."""
    return [
        f"  {_short(comp):<18s} " + " ".join(f"{k}={v:.0f}" for k, v in row.items())
        for comp, row in rows.items()
    ]


def _render_state(status: Status) -> str:
    """Durable-state view: shard map, write volume, handover activity."""
    state = status["state"]
    if not state["components"] and not state["handover_shards"] and not state["replayed_records"]:
        return ""
    lines = ["durable state (shards / handover):", *_component_rows(state["components"])]
    if state["replayed_records"] or state["replay_attaches"]:
        lines.append(
            f"  replay: {state['replayed_records']:.0f} WAL records over "
            f"{state['replay_attaches']} attaches, mean {state['replay_mean_ms']:.1f}ms"
        )
    if state["handover_shards"]:
        lines.append(
            f"  handover: {state['handover_shards']:.0f} shards re-homed, "
            f"{state['handover_replayed']:.0f} records replayed eagerly, "
            f"mean {state['handover_mean_ms']:.1f}ms"
        )
    return "\n".join(lines)


def _render_breakers(status: Status) -> str:
    """Failure-domain view: breaker churn, ejections, drain durations.

    Built from the metrics every proclet exports on heartbeat, so it shows
    the whole deployment's client-side failure handling, not one process's.
    """
    breakers = status["breakers"]
    if not breakers["components"] and not breakers["drains"]:
        return ""
    lines = ["failure domains (circuit breakers / drain):"]
    lines += _component_rows(breakers["components"])
    if breakers["drains"]:
        lines.append(
            f"  drains: {breakers['drains']} replicas drained, "
            f"mean {breakers['drain_mean_ms']:.0f}ms"
        )
    return "\n".join(lines)


def render_remediation(remediation: Status, *, max_entries: int = 8) -> str:
    """Closed-loop controller view: mode, guardrails, and the action journal.

    ``remediation`` is the model's ``"remediation"`` section.  Every
    decision the controller made is in the journal — including the ones
    guardrails suppressed — so an operator can audit exactly why a replica
    restarted (or why it pointedly did not).
    """
    if remediation["mode"] == "off" and not remediation["journal"]:
        return ""
    counts, budget = remediation["counts"], remediation["budget"]
    lines = [
        f"remediation (mode={remediation['mode']}): "
        f"fired={counts.get('fired', 0)} observed={counts.get('observed', 0)} "
        f"suppressed={counts.get('suppressed', 0)} failed={counts.get('failed', 0)}  "
        f"budget={budget['available']}/{budget['max_actions_per_min']} per min, "
        f"cooldown={budget['cooldown_s']:.0f}s, "
        f"blast radius={budget['blast_fraction']:.0%} of a group"
    ]
    for entry in remediation["journal"][-max_entries:]:
        outcome = f" -> {entry['outcome']}" if entry.get("outcome") else ""
        lines.append(
            f"  [{entry['verdict']:<20s}] {entry['action']:<16s} "
            f"{_short(entry['target']):<22s} {entry['reason']}{outcome}"
        )
    return "\n".join(lines)


def _render_call_graph(status: Status) -> str:
    graph = status["call_graph"]
    if not graph["edges"]:
        return ""
    lines = ["call graph (top pairs by calls):"]
    for e in graph["edges"][:8]:
        kind = "local" if e["local_calls"] == e["calls"] else "rpc"
        lines.append(
            f"  {_short(e['caller']):<18s} -> {_short(e['callee']):<18s} "
            f"{e['calls']:>7d} calls  {kind:<5s} "
            f"avg={e['total_latency_s'] / e['calls'] * 1000:.2f}ms "
            f"bytes={(e['bytes_sent'] + e['bytes_received']) / e['calls']:.0f}"
        )
    if graph["critical_path"]:
        lines.append("  critical path: " + " -> ".join(map(_short, graph["critical_path"])))
    return "\n".join(lines)


def _render_latencies(status: Status) -> str:
    if not status["latencies"]:
        return ""
    lines = ["server-side method latency:"]
    for e in status["latencies"][:8]:
        lines.append(
            f"  {_short(e['component']):<18s}.{e['method']:<22s} "
            f"n={e['count']:<7d} p50={e['p50_ms']:7.2f}ms p99={e['p99_ms']:7.2f}ms"
        )
    return "\n".join(lines)


def _render_traces(status: Status) -> str:
    # The model ranks deepest first: the interesting ones cross many components.
    shown = [t for t in status["traces"] if "tree" in t]
    if not shown:
        return ""
    s = status["trace_stats"]
    lines = [
        f"traces ({s['kept']} kept + {s['pending']} pending; "
        f"sampled out {s['sampled_out_traces']}, evicted {s['evicted_traces']}; "
        f"showing {len(shown)}):"
    ]
    for t in shown:
        lines += ["  " + line for line in _tree_lines(t["trace_id"], t["tree"])]
    return "\n".join(lines)


def _tree_lines(trace_id: int, tree: list[Status]) -> list[str]:
    lines = [f"trace {trace_id:x} ({len(tree)} spans):"]
    for row in tree:
        marker = "!" if row["error"] else " "
        lines.append(f" {marker}{'  ' * row['depth']}{row['name']:<44s} {row['ms']:8.2f}ms")
    return lines


def render_trace(manager: Manager, trace_id: int) -> str:
    """One trace in full: the cross-proclet call tree + its critical path."""
    spans = manager.tracer.trace(trace_id)
    if not spans:
        return f"trace {trace_id:x}: not found (sampled out, evicted, or never seen)"
    lines = _tree_lines(trace_id, _tree(spans))
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


def _render_logs(status: Status) -> str:
    logs = status["logs"]
    if not logs["recent"]:
        return ""
    dropped = f", {logs['dropped']} older dropped" if logs["dropped"] else ""
    lines = [f"recent log records ({logs['total']} aggregated{dropped}):"]
    for r in logs["recent"]:
        attrs = r["attributes"]
        lines.append(
            f"  [{r['level']:<7s}] {_short(r['component'])}/{r['replica_id']}: "
            f"{r['message']} {attrs if attrs else ''}".rstrip()
        )
    return "\n".join(lines)


#: Every section of the report, in order, by the model key it shows.
SECTIONS: tuple[tuple[str, Callable[[Status], str]], ...] = (
    ("app", _render_header),
    ("signals", _render_signals),
    ("series", _render_series),
    ("groups", _render_groups),
    ("state", _render_state),
    ("breakers", _render_breakers),
    ("remediation", lambda status: render_remediation(status["remediation"])),
    ("call_graph", _render_call_graph),
    ("latencies", _render_latencies),
    ("traces", _render_traces),
    ("logs", _render_logs),
)

"""What a status build reads from the manager stays bounded and cheap:
the merged log is a ring, and the series' wire form is computed once per
telemetry tick."""

from __future__ import annotations

from repro.observability import timeseries
from repro.observability.logs import LogAggregator, LogRecord
from repro.observability.metrics import MetricsRegistry
from repro.observability.timeseries import TelemetryPipeline, TimeSeriesStore


def record(i: int) -> LogRecord:
    return LogRecord(float(i), "info", "app.Cart", 0, f"message {i}")


def test_log_aggregator_keeps_the_newest_records_and_counts_the_rest():
    logs = LogAggregator()
    for start in range(0, 25_000, 1_000):
        logs.ingest([record(i) for i in range(start, start + 1_000)])
    merged = logs.merged()
    assert len(logs) == len(merged) == 10_000
    assert [r.message for r in merged[:1] + merged[-1:]] == ["message 15000", "message 24999"]
    assert logs.dropped == 15_000


def test_series_wire_form_is_computed_once_per_tick(monkeypatch):
    registry = MetricsRegistry()
    calls = registry.counter("component_method_calls")
    store = TimeSeriesStore()
    pipeline = TelemetryPipeline(store)
    for now in (1.0, 2.0):
        calls.inc(component="app.Cart")
        pipeline.tick(registry, now=now)
    rounded: list[float] = []
    real_round = timeseries._round
    monkeypatch.setattr(timeseries, "_round", lambda v: rounded.append(v) or real_round(v))

    first = store.to_wire()
    once = len(rounded)
    assert once > 0
    assert store.to_wire() == first and len(rounded) == once  # no tick between

    calls.inc(3, component="app.Cart")
    pipeline.tick(registry, now=3.0)
    after = store.to_wire()
    assert len(rounded) > once
    assert after["requests"]["app.Cart"][-1] == [3.0, 3.0]
    assert after["requests"]["app.Cart"][:-1] == first["requests"]["app.Cart"]

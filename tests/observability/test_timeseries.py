"""Time-series ring buffers and the telemetry differencing pipeline."""

from __future__ import annotations

from repro.observability.metrics import MetricsRegistry
from repro.observability.timeseries import (
    RingSeries,
    TelemetryPipeline,
    TimeSeriesStore,
    sparkline,
)


class TestRingSeries:
    def test_append_and_points(self):
        s = RingSeries("rps", capacity=4)
        for i in range(3):
            s.append(float(i), float(i * 10))
        assert [p.value for p in s.points()] == [0.0, 10.0, 20.0]
        assert s.latest().value == 20.0
        assert len(s) == 3

    def test_wraps_at_capacity_keeping_newest(self):
        s = RingSeries("rps", capacity=4)
        for i in range(10):
            s.append(float(i), float(i))
        assert len(s) == 4
        assert [p.value for p in s.points()] == [6.0, 7.0, 8.0, 9.0]

    def test_points_since_filters_by_timestamp(self):
        s = RingSeries("x", capacity=8)
        for i in range(6):
            s.append(float(i), float(i))
        assert [p.ts for p in s.points(since=3.0)] == [3.0, 4.0, 5.0]

    def test_window_sum_and_mean(self):
        s = RingSeries("x", capacity=16)
        for i in range(10):
            s.append(float(i), 2.0)
        assert s.window_sum(3.0, now=9.0) == 2.0 * 4  # ts 6,7,8,9
        assert s.window_mean(3.0, now=9.0) == 2.0

    def test_empty_series(self):
        s = RingSeries("x")
        assert s.latest() is None
        assert s.points() == []
        assert s.window_mean(5.0, now=100.0) == 0.0


class TestTimeSeriesStore:
    def test_record_and_query(self):
        store = TimeSeriesStore()
        store.record("rps", "_total", 1.0, 5.0)
        store.record("rps", "_total", 2.0, 7.0)
        store.record("rps", "Cart", 2.0, 3.0)
        assert store.latest("rps") == 7.0
        assert store.latest("rps", "Cart") == 3.0
        assert store.latest("rps", "missing") is None
        assert ("rps", "Cart") in store.names()

    def test_query_window_anchors_to_latest_point(self):
        store = TimeSeriesStore()
        for i in range(10):
            store.record("rps", "_total", float(i), float(i))
        pts = store.query("rps", window_s=3.0)
        assert [p.ts for p in pts] == [6.0, 7.0, 8.0, 9.0]

    def test_to_wire_is_jsonable_and_bounded(self):
        import json

        store = TimeSeriesStore()
        for i in range(200):
            store.record("rps", "_total", float(i), float(i))
        wire = store.to_wire(last=50)
        assert len(wire["rps"]["_total"]) == 50
        json.dumps(wire)


def _tick_pair(pipeline, registry, t0=100.0, t1=101.0):
    pipeline.tick(registry, t0)  # baseline
    return t1


class TestTelemetryPipeline:
    def test_counter_deltas_become_rates(self):
        store = TimeSeriesStore()
        pipeline = TelemetryPipeline(store)
        reg = MetricsRegistry()
        calls = reg.counter("component_method_calls")
        errors = reg.counter("component_method_errors")
        calls.inc(10, component="Cart", method="add")
        pipeline.tick(reg, 100.0)  # baseline tick records nothing
        assert store.latest("rps") is None

        calls.inc(20, component="Cart", method="add")
        errors.inc(2, component="Cart", method="add")
        pipeline.tick(reg, 102.0)
        assert store.latest("requests", "Cart") == 20.0
        assert store.latest("rps", "Cart") == 10.0  # 20 over 2s
        assert store.latest("error_rate", "Cart") == 0.1
        assert store.latest("rps", "_total") == 10.0

    def test_histogram_deltas_become_quantiles(self):
        store = TimeSeriesStore()
        pipeline = TelemetryPipeline(store, slow_threshold_s=0.25)
        reg = MetricsRegistry()
        hist = reg.histogram("component_method_latency_s")
        pipeline.tick(reg, 100.0)
        for _ in range(98):
            hist.observe(0.001, component="Cart")
        hist.observe(1.0, component="Cart")
        hist.observe(1.0, component="Cart")
        pipeline.tick(reg, 101.0)
        assert store.latest("p50_ms", "Cart") < 10.0
        assert store.latest("p99_ms", "Cart") > 100.0
        # Exactly two observations above the 0.25s SLO threshold.
        assert store.latest("slow_requests", "Cart") == 2.0

    def test_client_family_gets_prefixed_series(self):
        store = TimeSeriesStore()
        pipeline = TelemetryPipeline(store)
        reg = MetricsRegistry()
        hist = reg.histogram("rpc_client_latency_s")
        pipeline.tick(reg, 100.0)
        hist.observe(0.05, component="Cart")
        pipeline.tick(reg, 101.0)
        assert store.latest("client_p99_ms", "Cart") is not None
        assert store.latest("p99_ms", "Cart") is None

    def test_quantiles_reflect_the_interval_not_history(self):
        """Deltas: a fast past must not dilute a slow present."""
        store = TimeSeriesStore()
        pipeline = TelemetryPipeline(store)
        reg = MetricsRegistry()
        hist = reg.histogram("component_method_latency_s")
        for _ in range(1000):
            hist.observe(0.001, component="Cart")
        pipeline.tick(reg, 100.0)
        for _ in range(10):
            hist.observe(0.5, component="Cart")
        pipeline.tick(reg, 101.0)
        # All 10 observations in this interval were slow; history's 1000
        # fast ones are baseline, not signal.
        assert store.latest("p50_ms", "Cart") > 100.0

    def test_breaker_trips_counted(self):
        store = TimeSeriesStore()
        pipeline = TelemetryPipeline(store)
        reg = MetricsRegistry()
        trans = reg.counter("breaker_transitions")
        pipeline.tick(reg, 100.0)
        trans.inc(to="open", component="Cart")
        trans.inc(to="closed", component="Cart")
        pipeline.tick(reg, 101.0)
        assert store.latest("breaker_trips") == 1.0

    def test_breaker_trips_recorded_per_component(self):
        store = TimeSeriesStore()
        pipeline = TelemetryPipeline(store)
        reg = MetricsRegistry()
        trans = reg.counter("breaker_transitions")
        pipeline.tick(reg, 100.0)
        trans.inc(2, to="open", component="Cart")
        trans.inc(to="open", component="Catalog")
        pipeline.tick(reg, 101.0)
        assert store.latest("breaker_trips", "Cart") == 2.0
        assert store.latest("breaker_trips", "Catalog") == 1.0
        assert store.latest("breaker_trips", "_total") == 3.0

    def test_breaker_half_opens_get_their_own_series(self):
        store = TimeSeriesStore()
        pipeline = TelemetryPipeline(store)
        reg = MetricsRegistry()
        trans = reg.counter("breaker_transitions")
        pipeline.tick(reg, 100.0)
        trans.inc(to="half_open", component="Cart")
        trans.inc(to="open", component="Cart")
        pipeline.tick(reg, 101.0)
        assert store.latest("breaker_half_opens", "Cart") == 1.0
        assert store.latest("breaker_half_opens", "_total") == 1.0
        assert store.latest("breaker_trips", "Cart") == 1.0  # not conflated

    def test_drain_events_become_per_component_series(self):
        store = TimeSeriesStore()
        pipeline = TelemetryPipeline(store)
        reg = MetricsRegistry()
        drains = reg.counter("replica_drains")
        pipeline.tick(reg, 100.0)
        drains.inc(component="Cart")
        drains.inc(component="Cart")
        drains.inc(component="Checkout")
        pipeline.tick(reg, 101.0)
        assert store.latest("drains", "Cart") == 2.0
        assert store.latest("drains", "Checkout") == 1.0
        assert store.latest("drains", "_total") == 3.0
        # Quiet tick: series record zero, not a gap, so window sums age out.
        pipeline.tick(reg, 102.0)
        assert store.latest("drains", "_total") == 0.0

    def test_counter_reset_clamps_to_zero(self):
        """A replica restart must not produce negative rates."""
        store = TimeSeriesStore()
        pipeline = TelemetryPipeline(store)
        reg1 = MetricsRegistry()
        reg1.counter("component_method_calls").inc(100, component="Cart", method="m")
        pipeline.tick(reg1, 100.0)
        reg2 = MetricsRegistry()  # fresh registry: counters restart at 0
        reg2.counter("component_method_calls").inc(5, component="Cart", method="m")
        pipeline.tick(reg2, 101.0)
        assert store.latest("requests", "Cart") == 0.0


class TestSparkline:
    def test_renders_relative_heights(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line[0] == "▁" and line[-1] == "█"

    def test_flat_series_renders_low(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_truncates_to_width(self):
        assert len(sparkline(range(100), width=30)) == 30

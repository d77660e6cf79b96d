"""Metrics: counters, gauges, histograms, cross-process merging."""

from __future__ import annotations

import pytest

from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    HistogramValue,
    MetricsRegistry,
    Timer,
)


class TestCounters:
    def test_inc(self):
        r = MetricsRegistry()
        c = r.counter("requests")
        c.inc()
        c.inc(4)
        assert c.get().value == 5

    def test_labels_are_separate_series(self):
        r = MetricsRegistry()
        c = r.counter("requests")
        c.inc(component="A")
        c.inc(component="B")
        c.inc(component="A")
        assert c.get(component="A").value == 2
        assert c.get(component="B").value == 1

    def test_label_order_irrelevant(self):
        r = MetricsRegistry()
        c = r.counter("x")
        c.inc(a="1", b="2")
        c.inc(b="2", a="1")
        assert c.get(a="1", b="2").value == 2

    def test_kind_conflict_rejected(self):
        r = MetricsRegistry()
        r.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("m")


class TestGauges:
    def test_set_overwrites(self):
        r = MetricsRegistry()
        g = r.gauge("replicas")
        g.set(3)
        g.set(7)
        assert g.get().value == 7


class TestHistograms:
    def test_observe_and_mean(self):
        r = MetricsRegistry()
        h = r.histogram("latency")
        for v in (0.001, 0.002, 0.003):
            h.observe(v)
        cell = h.get()
        assert cell.count == 3
        assert cell.mean == pytest.approx(0.002)

    def test_quantiles_ordered(self):
        r = MetricsRegistry()
        h = r.histogram("latency")
        for i in range(1, 101):
            h.observe(i / 1000)
        cell = h.get()
        assert cell.quantile(0.5) <= cell.quantile(0.95) <= cell.quantile(0.99)

    def test_median_in_right_bucket(self):
        r = MetricsRegistry()
        h = r.histogram("latency")
        for _ in range(100):
            h.observe(0.004)  # between buckets 3.2ms and 6.4ms
        q = h.get().quantile(0.5)
        assert 0.0032 <= q <= 0.0064

    def test_empty_quantile_zero(self):
        assert HistogramValue(DEFAULT_BUCKETS).quantile(0.5) == 0.0

    def test_merge_requires_same_buckets(self):
        a = HistogramValue((1.0, 2.0))
        b = HistogramValue((1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_adds_counts(self):
        a = HistogramValue(DEFAULT_BUCKETS)
        b = HistogramValue(DEFAULT_BUCKETS)
        a.observe(0.001)
        b.observe(0.002)
        b.observe(0.004)
        a.merge(b)
        assert a.count == 3
        assert a.total == pytest.approx(0.007)


class TestSnapshots:
    def test_merge_snapshot_counters_add(self):
        source, sink = MetricsRegistry(), MetricsRegistry()
        source.counter("calls").inc(3, component="X")
        sink.counter("calls").inc(1, component="X")
        sink.merge_snapshot(source.snapshot())
        assert sink.counter("calls").get(component="X").value == 4

    def test_merge_snapshot_histograms_merge(self):
        source, sink = MetricsRegistry(), MetricsRegistry()
        for v in (0.001, 0.002):
            source.histogram("lat").observe(v)
        sink.histogram("lat").observe(0.003)
        sink.merge_snapshot(source.snapshot())
        assert sink.histogram("lat").get().count == 3

    def test_merge_snapshot_gauges_take_latest(self):
        source, sink = MetricsRegistry(), MetricsRegistry()
        source.gauge("g").set(9)
        sink.gauge("g").set(1)
        sink.merge_snapshot(source.snapshot())
        assert sink.gauge("g").get().value == 9

    def test_snapshot_is_jsonable(self):
        import json

        r = MetricsRegistry()
        r.counter("c").inc(component="A")
        r.histogram("h").observe(0.001)
        json.dumps(r.snapshot())  # must not raise

    def test_merge_into_empty_registry(self):
        source, sink = MetricsRegistry(), MetricsRegistry()
        source.counter("new_metric").inc(7)
        sink.merge_snapshot(source.snapshot())
        assert sink.counter("new_metric").get().value == 7


class TestPrometheusExport:
    def test_counters_and_gauges(self):
        from repro.observability.metrics import render_prometheus

        r = MetricsRegistry()
        r.counter("requests_total").inc(5, component="Cart")
        r.gauge("replicas").set(3)
        text = render_prometheus(r)
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{component="Cart"} 5' in text
        assert "replicas 3" in text

    def test_histogram_cumulative_buckets(self):
        from repro.observability.metrics import render_prometheus

        r = MetricsRegistry()
        h = r.histogram("latency_s", buckets=(0.001, 0.01, 0.1))
        h.observe(0.0005)
        h.observe(0.005)
        h.observe(0.05)
        text = render_prometheus(r)
        assert 'latency_s_bucket{le="0.001"} 1' in text
        assert 'latency_s_bucket{le="0.01"} 2' in text
        assert 'latency_s_bucket{le="0.1"} 3' in text
        assert 'latency_s_bucket{le="+Inf"} 3' in text
        assert "latency_s_count 3" in text

    def test_label_escaping(self):
        from repro.observability.metrics import render_prometheus

        r = MetricsRegistry()
        r.counter("c").inc(component='we"ird\nname')
        text = render_prometheus(r)
        assert '\\"' in text and "\\n" in text

    def test_empty_registry(self):
        from repro.observability.metrics import render_prometheus

        assert render_prometheus(MetricsRegistry()) == ""

    def test_manager_metrics_renderable(self):
        """The aggregated metrics of a real deployment export cleanly."""
        import asyncio

        from repro.observability.metrics import render_prometheus
        from repro.core.config import AppConfig
        from repro.runtime.deployers.multi import deploy_multiprocess
        from tests.conftest import Adder, AdderImpl, until
        from repro.core.registry import Registry

        async def run():
            registry = Registry()
            registry.register(Adder, AdderImpl)
            app = await deploy_multiprocess(AppConfig(name="prom"), registry=registry)
            await app.get(Adder).add(1, 2)
            # The Adder proclet's heartbeat carries its server-side cells.
            await until(
                lambda: any(
                    name == "component_method_latency_s"
                    for name, _ in app.manager.metrics.cells()
                ),
                10.0,
                "the Adder proclet's method metrics never landed",
            )
            text = render_prometheus(app.manager.metrics)
            await app.shutdown()
            return text

        text = asyncio.run(run())
        assert "component_method_latency_s_bucket" in text
        assert "component_method_calls" in text


def test_timer_observes_elapsed():
    r = MetricsRegistry()
    h = r.histogram("op")
    with Timer(h, op="x") as t:
        sum(range(1000))
    assert t.elapsed > 0
    assert h.get(op="x").count == 1

"""Metric names, units and directions — the single table that
``BENCHMARK.json``, the printed output and the README glossary agree on
(``tests/test_names.py`` checks the first two against each other).

Units use ASCII only (``us`` for microseconds) because the benchmark
contract restricts unit characters.
"""

from __future__ import annotations

#: name -> (unit, better, regression bound as a share of the parent's median).
#: A timed metric's bound is three times the widest inter-quartile spread
#: any workload showed in two ten-set calibrations (README, "Calibration
#: and bounds"), rounded up, within the driver's limit of 0.25 — which is
#: where ``setup_s`` lands.  The two ratios keep the issue's floors.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.21),
    "cpu_us_per_op": ("us/op", "lower", 0.21),
    "lat_p50_ms": ("ms", "lower", 0.21),
    "ok_ratio": ("ratio", "higher", 0.001),
    "slo_ok_ratio": ("ratio", "higher", 0.01),
    "peak_rss_mb": ("MB", "lower", 0.16),
}

#: name -> (unit, better).  Layer = the module the number is about.
PER_LAYER: dict[str, tuple[str, str]] = {
    "serde.encode_us_per_op": ("us/op", "lower"),
    "serde.decode_us_per_op": ("us/op", "lower"),
    "serde.calls_per_op": ("count/op", "lower"),
    "serde.bytes_per_op": ("B/op", "lower"),
    "serde.ns_per_byte": ("ns/B", "lower"),
    "codegen.compile_ms": ("ms", "lower"),
    "transport.message.build_us_per_op": ("us/op", "lower"),
    "transport.message.parse_us_per_op": ("us/op", "lower"),
    "transport.framing.feed_us_per_op": ("us/op", "lower"),
    "transport.framing.frames_per_op": ("count/op", "lower"),
    "transport.framing.wire_bytes_per_op": ("B/op", "lower"),
    "transport.connection.call_self_us_per_op": ("us/op", "lower"),
    "transport.connection.wait_us_per_op": ("us/op", "lower"),
    "transport.connection.frames_per_flush": ("ratio", "higher"),
    "transport.connection.flushes_per_op": ("count/op", "lower"),
    "transport.connection.direct_write_ratio": ("ratio", "higher"),
    "transport.server.dispatch_self_us_per_op": ("us/op", "lower"),
    "transport.server.shed_count": ("count", "lower"),
    "transport.rpc.invoke_self_us_per_op": ("us/op", "lower"),
    "transport.rpc.retries_per_op": ("count/op", "lower"),
    "transport.breaker.trips": ("count", "lower"),
    "core.stub.call_self_us_per_op": ("us/op", "lower"),
    "core.stub.local_invoke_self_us_per_op": ("us/op", "lower"),
    "core.call_graph.record_us_per_op": ("us/op", "lower"),
    "runtime.proclet.handle_self_us_per_op": ("us/op", "lower"),
    "runtime.proclet.rpcs_per_op": ("count/op", "lower"),
    "runtime.routing.resolve_us_per_op": ("us/op", "lower"),
    "runtime.manager.deploy_ms": ("ms", "lower"),
    "runtime.manager.background_cpu_ms_per_s": ("ms/s", "lower"),
    "observability.tracing.span_us_per_op": ("us/op", "lower"),
    "observability.tracing.spans_per_op": ("count/op", "lower"),
    "observability.tracing.unsampled_ratio": ("ratio", "higher"),
    "observability.metrics.record_us_per_op": ("us/op", "lower"),
    "observability.export_us_per_op": ("us/op", "lower"),
    "observability.overhead_ratio": ("ratio", "lower"),
    "state.put_us_per_op": ("us/op", "lower"),
    "state.get_us_per_op": ("us/op", "lower"),
    "state.writes_per_op": ("count/op", "lower"),
    "state.reads_per_op": ("count/op", "lower"),
    "state.wal_bytes_per_op": ("B/op", "lower"),
    "boutique.handler_self_us_per_op": ("us/op", "lower"),
    "client.lat_p99_ms": ("ms", "lower"),
    "client.samples": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.coverage_ratio": ("ratio", "higher"),
    "harness.teardown_warnings": ("count", "lower"),
}

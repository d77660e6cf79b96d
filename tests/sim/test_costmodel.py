"""Stack cost models and live calibration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.schema import schema_of
from repro.sim.costmodel import (
    BASELINE_STACK,
    JSON_BASELINE_STACK,
    WEAVER_STACK,
    calibrate_stacks,
    measure_codec_cost,
    measure_protocol_overhead,
)


@dataclass
class Sample:
    name: str
    values: list[int]
    note: str


SAMPLES = [
    (schema_of(str), "x"),
    (schema_of(Sample), Sample("payload", list(range(200)), "note " * 50)),
]


class TestDefaults:
    def test_weaver_cheaper_per_message(self):
        req, resp = 200, 800
        assert WEAVER_STACK.caller_cpu_s(req, resp) < BASELINE_STACK.caller_cpu_s(req, resp)
        assert WEAVER_STACK.callee_cpu_s(req, resp) < BASELINE_STACK.callee_cpu_s(req, resp)

    def test_weaver_fewer_wire_bytes(self):
        assert WEAVER_STACK.protocol_overhead_bytes < BASELINE_STACK.protocol_overhead_bytes

    def test_wire_time_monotone_in_bytes(self):
        assert WEAVER_STACK.wire_s(10, 10) < WEAVER_STACK.wire_s(10_000, 10_000)

    def test_wire_time_has_latency_floor(self):
        assert WEAVER_STACK.wire_s(0, 0) >= 2 * WEAVER_STACK.network_latency_s

    def test_codec_assignments(self):
        assert WEAVER_STACK.codec == "compact"
        assert BASELINE_STACK.codec == "tagged"
        assert JSON_BASELINE_STACK.codec == "json"


class TestMeasurement:
    def test_codec_cost_fit_positive(self):
        fixed, per_byte = measure_codec_cost("compact", SAMPLES)
        assert fixed > 0
        assert per_byte >= 0

    def test_tagged_costs_more_per_byte_than_compact(self):
        _, compact = measure_codec_cost("compact", SAMPLES)
        _, tagged = measure_codec_cost("tagged", SAMPLES)
        assert tagged > compact

    def test_protocol_overhead_shapes(self):
        overhead = measure_protocol_overhead()
        weaver_cpu, weaver_bytes = overhead["weaver"]
        http_cpu, http_bytes = overhead["baseline"]
        assert weaver_bytes < 20
        assert http_bytes > 150
        assert weaver_cpu > 0 and http_cpu > 0

    def test_calibration_produces_weaver_advantage(self):
        stacks = calibrate_stacks(SAMPLES)
        assert set(stacks) == {"weaver", "baseline", "baseline-json"}
        req, resp = 300, 1200
        assert (
            stacks["weaver"].caller_cpu_s(req, resp)
            < stacks["baseline"].caller_cpu_s(req, resp)
        )
        assert (
            stacks["weaver"].protocol_overhead_bytes
            < stacks["baseline"].protocol_overhead_bytes
        )

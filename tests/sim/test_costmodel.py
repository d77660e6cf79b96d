"""Stack cost models and live calibration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.schema import schema_of
from repro.serde import codec_by_name
from repro.sim.costmodel import (
    BASELINE_STACK,
    JSON_BASELINE_STACK,
    WEAVER_STACK,
    calibrate_stacks,
    measure_codec_costs,
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


def sizes(codec: str) -> list[int]:
    """Each sample's encoded size in ``codec``'s own format."""
    return [len(codec_by_name(codec).encode(schema, value)) for schema, value in SAMPLES]


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
        (fixed, per_byte), = measure_codec_costs(("compact",), SAMPLES).values()
        assert fixed > 0
        assert per_byte >= 0

    def test_tagged_costs_more_than_compact(self):
        """Encoding and decoding the large sample (598 B in compact) costs
        less in compact than in tagged, each at its own format's size: the
        two-point fit passes through that sample's measured cost."""

        fits = measure_codec_costs(("compact", "tagged"), SAMPLES)

        def cost(codec: str) -> float:
            fixed, per_byte = fits[codec]
            return fixed + per_byte * sizes(codec)[-1]

        assert sizes("compact")[-1] == 598
        assert cost("compact") < cost("tagged")

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
        # A hop as the sim charges it: request and response sized in the
        # stack's own format.
        compact, tagged = sizes("compact"), sizes("tagged")
        assert stacks["weaver"].caller_cpu_s(*compact) < stacks["baseline"].caller_cpu_s(*tagged)
        assert (
            stacks["weaver"].protocol_overhead_bytes
            < stacks["baseline"].protocol_overhead_bytes
        )

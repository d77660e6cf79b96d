"""Per-RPC cost models for the two data-plane stacks, measured not guessed.

The simulator charges CPU and wire time for every hop of every simulated
request.  The constants come from *measuring this repository's own code*:

* serialization cost: encode+decode wall time of the actual codecs
  (:mod:`repro.serde`) on representative boutique messages, fit to
  ``fixed + per_byte * size``;
* transport cost: the actual byte overhead and header-processing time of
  the custom framed protocol vs the HTTP/1.1 baseline, measured on the
  real implementations in :mod:`repro.transport`.

So when the Table 2 benchmark reports "prototype uses ~3x fewer cores",
that factor is the measured CPU difference between the two stacks this
repo implements, amplified by the measured call-tree of the real boutique
— not a constant typed into a table.  Absolute numbers are Python-speed,
not Go-speed; the paper comparison is about shape (who wins, by what
factor), per the reproduction ground rules in DESIGN.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.codegen.schema import Schema
from repro.serde import codec_by_name


@dataclass(frozen=True)
class StackCosts:
    """What one RPC hop costs under one stack."""

    name: str
    codec: str
    #: CPU seconds per message on each side, independent of size (framing
    #: or HTTP header handling, dispatch, correlation).
    rpc_fixed_cpu_s: float
    #: CPU seconds per payload byte on each side (serialize + deserialize).
    ser_cpu_s_per_byte: float
    #: Wire bytes added per message by the protocol (frame header vs HTTP
    #: text block).
    protocol_overhead_bytes: int
    #: One-way network latency per hop, seconds (intra-cluster).
    network_latency_s: float
    #: Effective NIC/stack bandwidth, bytes/second.
    bandwidth_bytes_per_s: float

    def caller_cpu_s(self, request_bytes: int, response_bytes: int) -> float:
        return self.rpc_fixed_cpu_s + self.ser_cpu_s_per_byte * (
            request_bytes + response_bytes
        )

    def callee_cpu_s(self, request_bytes: int, response_bytes: int) -> float:
        return self.rpc_fixed_cpu_s + self.ser_cpu_s_per_byte * (
            request_bytes + response_bytes
        )

    def wire_s(self, request_bytes: int, response_bytes: int) -> float:
        payload = (
            request_bytes + response_bytes + 2 * self.protocol_overhead_bytes
        )
        return 2 * self.network_latency_s + payload / self.bandwidth_bytes_per_s


#: Defaults measured on the reference machine with calibrate_stacks (see
#: EXPERIMENTS.md for the calibration log); kept here so benchmarks are
#: reproducible without a calibration pass and tests can assert against
#: stable numbers.  Units: seconds, bytes.  All values are Python-speed —
#: the comparison between stacks is what carries, not the absolutes.  The
#: serialization constants were measured while ``tagged`` was a schema
#: interpreter; it is now generated like ``compact``, so they overstate the
#: tagged stack's per-byte cost until the sim is recalibrated (ROADMAP).
WEAVER_STACK = StackCosts(
    name="weaver",
    codec="compact",
    rpc_fixed_cpu_s=4.8e-6,  # compact fixed cost + binary header encode/decode
    ser_cpu_s_per_byte=129e-9,  # measured compact encode+decode per byte
    protocol_overhead_bytes=9,  # 4B frame length + ~5B binary header
    network_latency_s=50e-6,
    bandwidth_bytes_per_s=1.25e9,  # 10 Gb/s
)

BASELINE_STACK = StackCosts(
    name="baseline",
    codec="tagged",
    rpc_fixed_cpu_s=5.9e-6,  # tagged fixed cost + HTTP header format/parse
    ser_cpu_s_per_byte=574e-9,  # measured on the interpreted tagged codec
    protocol_overhead_bytes=209,  # measured HTTP/1.1 header block
    network_latency_s=50e-6,
    bandwidth_bytes_per_s=1.25e9,
)

#: A second baseline flavor: JSON payloads (REST-ish microservices).  Note
#: the per-byte CPU is *lower* than tagged because CPython's json module is
#: C-accelerated while both binary codecs are pure Python; JSON still loses
#: on bytes (≈2x the payload) and headers.  The tagged baseline is the
#: apples-to-apples one (pure Python vs pure Python).
JSON_BASELINE_STACK = replace(
    BASELINE_STACK, name="baseline-json", codec="json", ser_cpu_s_per_byte=172e-9
)


def _measure(fns: list[Callable[[], Any]], window_s: float = 0.01, windows: int = 5) -> list[float]:
    """Wall seconds per call of each of ``fns``: the fastest of ``windows``
    windows of at least ``window_s`` each.  The functions take their
    windows in turns, so a stretch of load on the host falls on all of them
    alike, and the minimum drops the windows it slowed, which a mean would
    keep."""
    calls = []
    for fn in fns:  # size each one's window
        n = 1
        while True:
            start = time.perf_counter()
            for _ in range(n):
                fn()
            elapsed = time.perf_counter() - start
            if elapsed >= window_s:
                break
            n = max(n * 2, int(n * window_s / max(elapsed, 1e-9)))
        calls.append(n)
    best = [float("inf")] * len(fns)
    for _ in range(windows):
        for i, (fn, n) in enumerate(zip(fns, calls)):
            start = time.perf_counter()
            for _ in range(n):
                fn()
            best[i] = min(best[i], (time.perf_counter() - start) / n)
    return best


def measure_codec_costs(
    codec_names: "tuple[str, ...]", samples: list[tuple[Schema, Any]]
) -> dict[str, tuple[float, float]]:
    """Fit each codec's encode+decode cost to ``fixed + per_byte * size``.

    Returns (fixed_s, per_byte_s) per codec from a two-point fit over the
    smallest and largest sample messages in its own format, all codecs
    measured in turns (:func:`_measure`).
    """
    sized, fns = [], []
    for name in codec_names:
        codec = codec_by_name(name)
        for schema, value in samples:

            def roundtrip(codec=codec, schema=schema, value=value) -> None:
                codec.decode(schema, codec.encode(schema, value))

            sized.append((name, len(codec.encode(schema, value))))
            fns.append(roundtrip)
    costs: dict[str, list[tuple[int, float]]] = {name: [] for name in codec_names}
    for (name, size), cost in zip(sized, _measure(fns)):
        costs[name].append((size, cost))
    return {name: _fit(sorted(points)) for name, points in costs.items()}


def _fit(points: list[tuple[int, float]]) -> tuple[float, float]:
    (size_a, cost_a), (size_b, cost_b) = points[0], points[-1]
    if size_b == size_a:
        return cost_a, 0.0
    per_byte = max(0.0, (cost_b - cost_a) / (size_b - size_a))
    fixed = max(1e-9, cost_a - per_byte * size_a)
    return fixed, per_byte


def measure_protocol_overhead() -> dict[str, tuple[float, int]]:
    """(per-message header CPU, header bytes) for each transport.

    Measures the actual header construction+parse code paths of the two
    transports on synthetic messages.
    """
    from repro.transport import message as msg
    from repro.transport.http_rpc import _format_request

    body = b"x" * 256

    # Custom protocol: encode+decode a request message.
    request = msg.Request(12345, 7, 3, body)

    def custom() -> None:
        msg.decode(msg.encode(request))

    custom_bytes = len(msg.encode(request)) - len(body) + 4  # + frame length

    # HTTP: format a request and parse its header block the way the
    # server-side parser does (split/partition per line).
    raw = _format_request("tcp://127.0.0.1:80", "boutique.Checkout", "place_order", body, 12345)
    head_len = raw.index(b"\r\n\r\n") + 4

    def http() -> None:
        data = _format_request(
            "tcp://127.0.0.1:80", "boutique.Checkout", "place_order", body, 12345
        )
        head = data[: data.index(b"\r\n\r\n")]
        for line in head.decode("latin-1").split("\r\n")[1:]:
            name, _, value = line.partition(":")
            name.strip().lower()
            value.strip()

    custom_cost, http_cost = _measure([custom, http])
    return {"weaver": (custom_cost, custom_bytes), "baseline": (http_cost, head_len)}


def calibrate_stacks(
    samples: list[tuple[Schema, Any]],
    *,
    network_latency_s: float = 50e-6,
    bandwidth_bytes_per_s: float = 1.25e9,
) -> dict[str, StackCosts]:
    """Measure this machine and return fresh stack cost models.

    ``samples`` are (schema, value) pairs representative of the workload's
    messages (the Table 2 benchmark passes real boutique messages).
    """
    out: dict[str, StackCosts] = {}
    protocol = measure_protocol_overhead()
    stacks = {"weaver": "compact", "baseline": "tagged", "baseline-json": "json"}
    codecs = measure_codec_costs(tuple(stacks.values()), samples)
    for stack_name, codec in stacks.items():
        fixed_ser, per_byte = codecs[codec]
        proto_cpu, proto_bytes = protocol["weaver" if stack_name == "weaver" else "baseline"]
        out[stack_name] = StackCosts(
            name=stack_name,
            codec=codec,
            rpc_fixed_cpu_s=fixed_ser + proto_cpu,
            ser_cpu_s_per_byte=per_byte,
            protocol_overhead_bytes=proto_bytes,
            network_latency_s=network_latency_s,
            bandwidth_bytes_per_s=bandwidth_bytes_per_s,
        )
    return out

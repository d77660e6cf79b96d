"""Design-choice ablations (DESIGN.md commitments beyond the paper's tables).

1. **Serialization vs transport decomposition** — the paper says "most of
   the performance benefits ... come from its use of a custom serialization
   format ... as well as its use of a streamlined transport protocol".
   Hybrid stacks isolate the two contributions.
2. **Wire compression** (§5.1) — bytes saved vs CPU spent on real boutique
   messages, and its effect on the simulated cluster.
3. **Routing vnodes** — the consistent-hashing granularity knob: balance
   and assignment size as vnodes grow.
"""

from __future__ import annotations

import zlib
from dataclasses import replace

import pytest

from benchmarks.conftest import print_table
from repro.runtime.routing import build_assignment
from repro.sim.costmodel import BASELINE_STACK, WEAVER_STACK
from repro.sim.experiment import DeploymentSpec, run_table2, singleton_placement


def test_serialization_vs_transport_decomposition(benchmark, boutique_mix):
    """Which half of the baseline's cost is payload format, which is HTTP?"""
    hybrid_serde = replace(  # custom transport, but tagged payloads
        WEAVER_STACK,
        name="custom-tcp+tagged",
        codec="tagged",
        ser_cpu_s_per_byte=BASELINE_STACK.ser_cpu_s_per_byte,
    )
    hybrid_transport = replace(  # HTTP transport, but compact payloads
        BASELINE_STACK,
        name="http+compact",
        codec="compact",
        ser_cpu_s_per_byte=WEAVER_STACK.ser_cpu_s_per_byte,
        rpc_fixed_cpu_s=BASELINE_STACK.rpc_fixed_cpu_s,
    )
    specs = [
        DeploymentSpec("prototype", WEAVER_STACK, singleton_placement()),
        DeploymentSpec("custom-tcp+tagged", hybrid_serde, singleton_placement()),
        DeploymentSpec("http+compact", hybrid_transport, singleton_placement()),
        DeploymentSpec("baseline", BASELINE_STACK, singleton_placement()),
    ]

    def run():
        return run_table2(
            boutique_mix, qps=10_000, sim_qps=600, duration_s=10, warmup_s=2, specs=specs
        )

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {
            "stack": label,
            "cores": r.average_cores,
            "median_ms": r.median_latency_ms,
        }
        for label, r in reports.items()
    ]
    print_table(
        "Ablation: serialization vs transport contributions",
        rows,
        ["stack", "cores", "median_ms"],
    )
    proto = reports["prototype"].average_cores
    serde_only = reports["custom-tcp+tagged"].average_cores
    transport_only = reports["http+compact"].average_cores
    baseline = reports["baseline"].average_cores
    serde_share = (serde_only - proto) / max(1e-9, baseline - proto)
    print(
        f"serialization accounts for ~{serde_share:.0%} of the baseline's extra cores "
        "(the paper attributes 'most' of the benefit to serialization)"
    )
    # Both hybrids sit between prototype and baseline; serde dominates.
    assert proto <= serde_only <= baseline + 1
    assert proto <= transport_only <= baseline + 1
    assert serde_only >= transport_only


def test_compression_ablation(benchmark, boutique_mix):
    """Bytes saved by wire compression on real recorded payload sizes."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    import asyncio

    from repro.boutique import ALL_COMPONENTS, Frontend
    from repro.boutique.types import HomePage
    from repro.codegen.schema import schema_of
    from repro.core.app import init
    from repro.serde import codec_by_name

    async def capture():
        app = await init(components=ALL_COMPONENTS)
        home = await app.get(Frontend).home("zip-user", "USD")
        await app.shutdown()
        return home

    home = asyncio.run(capture())
    rows = []
    for codec_name in ("compact", "tagged", "json"):
        data = codec_by_name(codec_name).encode(schema_of(HomePage), home)
        squeezed = zlib.compress(data, level=1)
        rows.append(
            {
                "codec": codec_name,
                "raw_bytes": len(data),
                "zlib_bytes": len(squeezed),
                "saved": 1 - len(squeezed) / len(data),
            }
        )
    print_table(
        "Ablation: wire compression of the home-page response",
        rows,
        ["codec", "raw_bytes", "zlib_bytes", "saved"],
    )
    # Self-describing formats compress best (their redundancy is the tags);
    # even the compact format has textual redundancy worth > 25%.
    by = {r["codec"]: r for r in rows}
    assert by["json"]["saved"] > by["compact"]["saved"]
    assert by["compact"]["saved"] > 0.25


@pytest.mark.parametrize("vnodes", [16, 40, 160, 320])
def test_vnode_granularity(benchmark, vnodes):
    """Consistent-hash balance improves (and assignments grow) with vnodes."""
    replicas = [f"r{i}" for i in range(8)]

    def build():
        return build_assignment("c", replicas, generation=1, vnodes=vnodes)

    assignment = benchmark(build)

    import collections

    counts = collections.Counter(
        assignment.replica_for(f"key-{i}") for i in range(20_000)
    )
    skew = max(counts.values()) / min(counts.values())
    benchmark.extra_info["skew"] = round(skew, 3)
    benchmark.extra_info["points"] = len(assignment.points)
    # Even the coarsest setting keeps every replica in rotation.
    assert len(counts) == len(replicas)
    if vnodes >= 160:
        assert skew < 1.8

"""Reproduce the paper's Table 2 from your terminal.

Run:  python examples/table2_sim.py [--qps 10000] [--sim-qps 1000] [--calibrate]

Pipeline (see DESIGN.md, experiments E1/E2):

1. run the real 11-component boutique as traced microservices, once per
   codec, and read each Locust request type's call tree, per-call business
   CPU, and per-codec payload bytes from its spans and call-graph counters;
2. (optionally) re-measure this machine's serialization and transport
   costs instead of using the committed calibration;
3. simulate three deployments of those profiles on an autoscaled
   cluster: the microservice baseline (HTTP + tagged payloads, one
   process per service), the prototype (compact + custom TCP, same
   placement), and the prototype with all 11 components co-located;
4. print the Table-2 rows and the factors next to the paper's.
"""

import argparse
import asyncio

from repro.sim.costmodel import WEAVER_STACK, BASELINE_STACK, calibrate_stacks
from repro.sim.experiment import (
    DeploymentSpec,
    colocated_placement,
    record_boutique_mix,
    run_table2,
    singleton_placement,
    table2_specs,
)


async def main(qps: float, sim_qps: float, calibrate: bool) -> None:
    print("profiling request mix from the real application's traces ...")
    mix = await record_boutique_mix(repeats=3)
    for t in mix.types:
        print(
            f"  {t.name:12s} weight={t.weight:4.0f} calls={t.tree.total_calls() - 1:3d} "
            f"logic={t.tree.total_self_cpu_s() * 1e3:6.2f}ms "
            f"bytes compact/tagged={t.tree.total_bytes('compact')}/{t.tree.total_bytes('tagged')}"
        )

    specs = None
    if calibrate:
        print("\ncalibrating data-plane costs on this machine ...")
        from repro.codegen.schema import schema_of
        from repro.boutique.types import HomePage

        samples = [(schema_of(str), "calibration-key")]
        stacks = calibrate_stacks(samples)
        specs = [
            DeploymentSpec("baseline", stacks["baseline"], singleton_placement()),
            DeploymentSpec("prototype", stacks["weaver"], singleton_placement()),
            DeploymentSpec("prototype-colocated", stacks["weaver"], colocated_placement()),
        ]

    print(f"\nsimulating at {sim_qps:.0f} QPS, reporting at {qps:.0f} QPS ...")
    reports = run_table2(mix, qps=qps, sim_qps=sim_qps, duration_s=12, warmup_s=3, specs=specs)

    print(f"\n{'deployment':<22s} {'qps':>8s} {'cores':>8s} {'median':>10s} {'p95':>10s}")
    for label in ("prototype", "baseline", "prototype-colocated"):
        r = reports[label]
        print(
            f"{label:<22s} {r.qps:>8.0f} {r.average_cores:>8.0f} "
            f"{r.median_latency_ms:>8.2f}ms {r.p95_latency_ms:>8.2f}ms"
        )

    b, p, c = reports["baseline"], reports["prototype"], reports["prototype-colocated"]
    print("\nfactors (ours vs paper):")
    print(f"  cores   baseline/prototype : {b.average_cores / p.average_cores:5.2f}x   (paper 2.8x)")
    print(f"  latency baseline/prototype : {b.median_latency_ms / p.median_latency_ms:5.2f}x   (paper 2.1x)")
    print(f"  cores   baseline/colocated : {b.average_cores / c.average_cores:5.2f}x   (paper 8.7x)")
    print(f"  latency baseline/colocated : {b.median_latency_ms / c.median_latency_ms:5.2f}x   (paper 14.4x)")
    print(
        "\n(absolute values are Python-speed; factors are compressed by Python's\n"
        " heavier business logic — see EXPERIMENTS.md for the full discussion)"
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qps", type=float, default=10_000)
    parser.add_argument("--sim-qps", type=float, default=1_000)
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args()
    asyncio.run(main(args.qps, args.sim_qps, args.calibrate))

"""E11 — latency vs offered load: the curve behind Table 2.

Sweeps QPS for both stacks on the simulated cluster with a *fixed* replica
allocation, exposing the queueing knee: the baseline, needing ~2x the CPU
per request, saturates the same hardware at roughly half the load.  (With
autoscaling on — as in Table 2 — the knee turns into the core-count gap.)
"""

from __future__ import annotations

from benchmarks.conftest import print_table
from repro.sim.cluster import build_deployment
from repro.sim.costmodel import BASELINE_STACK, WEAVER_STACK
from repro.sim.engine import Simulator
from repro.sim.experiment import singleton_placement
from repro.sim.workload import run_load

FIXED_REPLICAS = 6  # per service group
SWEEP_QPS = (200, 400, 600, 800)


def sweep(stack, mix):
    series = []
    for qps in SWEEP_QPS:
        sim = Simulator()
        deployment = build_deployment(
            sim, singleton_placement(), stack, initial_replicas=FIXED_REPLICAS
        )
        report = run_load(
            deployment,
            mix,
            qps=qps,
            duration_s=10,
            warmup_s=2,
            autoscale_interval_s=None,
            seed=11,
        )
        series.append(
            {
                "qps": qps,
                "median_ms": report.median_latency_ms,
                "p95_ms": report.p95_latency_ms,
                "busy_cores": report.busy_cores,
            }
        )
    return series


def test_latency_vs_qps(benchmark, boutique_mix):
    def run():
        return sweep(WEAVER_STACK, boutique_mix), sweep(BASELINE_STACK, boutique_mix)

    weaver, baseline = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for w, b in zip(weaver, baseline):
        rows.append(
            {
                "qps": w["qps"],
                "weaver_median_ms": w["median_ms"],
                "baseline_median_ms": b["median_ms"],
                "weaver_busy_cores": w["busy_cores"],
                "baseline_busy_cores": b["busy_cores"],
            }
        )
    print_table(
        f"E11: latency vs QPS at fixed {FIXED_REPLICAS} replicas/service",
        rows,
        [
            "qps",
            "weaver_median_ms",
            "baseline_median_ms",
            "weaver_busy_cores",
            "baseline_busy_cores",
        ],
    )

    # At every load level the prototype is at least as fast and burns
    # fewer cores; the gap widens with load (queueing amplifies CPU cost).
    for w, b in zip(weaver, baseline):
        assert w["median_ms"] <= b["median_ms"] * 1.05
        assert w["busy_cores"] < b["busy_cores"]
    gap_low = baseline[0]["median_ms"] / weaver[0]["median_ms"]
    gap_high = baseline[-1]["median_ms"] / weaver[-1]["median_ms"]
    assert gap_high >= gap_low * 0.9  # the knee hits the baseline first

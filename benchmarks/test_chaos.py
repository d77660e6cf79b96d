"""E12 — automated fault-tolerance testing (§5.3).

    "With our proposal, it is trivial to run end-to-end tests ... This
    opens the door to automated fault tolerance testing, akin to chaos
    testing."

The whole 11-component boutique deploys inside this benchmark process,
replicas are killed while orders flow, and the report quantifies
availability — the test the paper says microservice teams rarely manage
to write.
"""

from __future__ import annotations

import asyncio

from benchmarks.conftest import print_table
from repro.boutique import ALL_COMPONENTS, Address, CreditCard, Frontend
from repro.core.config import AppConfig
from repro.runtime.deployers.multi import deploy_multiprocess
from repro.testing.chaos import ChaosMonkey

ADDRESS = Address("1 Main", "Springfield", "IL", "US", 62701)
CARD = CreditCard("4432-8015-6152-0454", 672, 2030, 1)


def test_chaos_availability(benchmark):
    async def scenario():
        config = AppConfig(
            name="chaos",
            replicas={
                "repro.boutique.frontend.Frontend": 2,
                "repro.boutique.catalog.ProductCatalog": 2,
                "repro.boutique.currency.Currency": 2,
            },
        )
        app = await deploy_multiprocess(config, components=ALL_COMPONENTS, mode="inproc")
        monkey = ChaosMonkey(app, seed=42)
        fe = app.get(Frontend)
        counter = {"n": 0}

        async def workload():
            counter["n"] += 1
            user = f"chaos-{counter['n']}"
            home = await fe.home(user, "USD")
            assert home.products

        report = await monkey.rampage(workload, requests=60, kill_every=12, settle_s=0.15)
        await app.shutdown()
        return report

    report = benchmark.pedantic(lambda: asyncio.run(scenario()), rounds=1, iterations=1)
    print_table(
        "E12: availability under chaos (replica kills during load)",
        [
            {"metric": "requests", "value": report.requests_attempted},
            {"metric": "succeeded", "value": report.requests_succeeded},
            {"metric": "replicas killed", "value": len(report.kills)},
            {"metric": "success rate", "value": f"{report.success_rate:.1%}"},
            {"metric": "errors", "value": str(report.errors) or "none"},
        ],
        ["metric", "value"],
    )
    assert len(report.kills) >= 4
    assert report.success_rate >= 0.9


def test_overload_shedding_availability(benchmark):
    """E13 — load shedding under 2x overload (simulated cluster).

    One core of 10ms-per-request work offered 200 qps with a 100ms
    end-to-end deadline: unbounded queues turn the overload into
    near-universal deadline misses, while a bounded pod queue (the
    ``max_inflight`` admission control of the real runtime) sheds the
    excess and keeps admitted requests inside their deadline.
    """
    from repro.sim.cluster import build_deployment
    from repro.sim.costmodel import StackCosts
    from repro.sim.engine import Simulator
    from repro.sim.profile import CallNode
    from repro.sim.workload import RequestType, WorkloadMix, run_load

    costs = StackCosts(
        name="bench",
        codec="compact",
        rpc_fixed_cpu_s=0.0,
        ser_cpu_s_per_byte=0.0,
        protocol_overhead_bytes=0,
        network_latency_s=0.0001,
        bandwidth_bytes_per_s=1e12,
    )
    tree = CallNode(
        "<root>", "req", children=[CallNode("Svc", "handle", self_cpu_s=0.01)]
    )
    mix = WorkloadMix([RequestType("req", 1.0, tree)])

    def drive(shed_queue_limit: int):
        sim = Simulator()
        deployment = build_deployment(sim, [("Svc",)], costs)
        deployment.shed_queue_limit = shed_queue_limit
        deployment.deadline_s = 0.1
        return run_load(
            deployment, mix, qps=200, duration_s=2.0, arrivals="uniform", seed=1
        )

    def scenario():
        return drive(shed_queue_limit=4), drive(shed_queue_limit=0)

    shedding, queueing = benchmark.pedantic(scenario, rounds=1, iterations=1)
    print_table(
        "E13: availability at 2x overload (100ms deadline, 1 core)",
        [
            {
                "policy": "shed (queue<=4)",
                "issued": shedding.issued,
                "ok": shedding.completed,
                "shed": shedding.shed,
                "missed deadline": shedding.deadline_misses,
                "success": f"{shedding.success_rate:.1%}",
            },
            {
                "policy": "queue unbounded",
                "issued": queueing.issued,
                "ok": queueing.completed,
                "shed": queueing.shed,
                "missed deadline": queueing.deadline_misses,
                "success": f"{queueing.success_rate:.1%}",
            },
        ],
        ["policy", "issued", "ok", "shed", "missed deadline", "success"],
    )
    assert shedding.completed > queueing.completed
    assert shedding.success_rate > 0.35

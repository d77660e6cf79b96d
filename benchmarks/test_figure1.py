"""E4 — Figure 1 as an executable artifact.

The paper's figure: an application with components A, B, C where A and B
are co-located in one OS process (their calls are plain procedure calls)
and C is replicated across two machines (calls to C are RPCs).  This
benchmark deploys exactly that topology and measures the local/remote
asymmetry the figure illustrates.
"""

from __future__ import annotations

import asyncio
import time

import repro
from benchmarks.conftest import print_table
from repro.core.config import AppConfig
from repro.core.registry import Registry
from repro.runtime.deployers.multi import deploy_multiprocess


class A(repro.Component):
    async def local_then_remote(self, n: int) -> str: ...


class B(repro.Component):
    async def fast_local(self, n: int) -> int: ...


class C(repro.Component):
    async def remote_work(self, n: int) -> int: ...


class AImpl:
    async def init(self, ctx) -> None:
        self.b = ctx.get(B)
        self.c = ctx.get(C)

    async def local_then_remote(self, n: int) -> str:
        local = await self.b.fast_local(n)
        remote = await self.c.remote_work(n)
        return f"local={local} remote={remote}"


class BImpl:
    async def fast_local(self, n: int) -> int:
        return n * 2


class CImpl:
    async def remote_work(self, n: int) -> int:
        return n * 3


def figure1_registry() -> Registry:
    registry = Registry()
    registry.register(A, AImpl)
    registry.register(B, BImpl)
    registry.register(C, CImpl)
    return registry


def test_figure1_topology(benchmark):
    async def scenario():
        registry = figure1_registry()
        config = AppConfig(
            name="fig1",
            colocate=((A, B),),  # A and B share a process
            replicas={C: 2},  # C is replicated "across two machines"
        )
        app = await deploy_multiprocess(config, registry=registry, mode="inproc")

        # Topology assertions straight from the figure.
        assert app.manager.total_replicas() == 3  # one (A+B) process, C x2
        a = app.get(A)
        assert await a.local_then_remote(7) == "local=14 remote=21"

        # A's proclet hosts B too: the B call was local, the C call remote.
        from repro.core.component import component_name

        ab_proclet = next(
            e.proclet
            for e in app.envelopes.values()
            if component_name(A) in e.proclet.hosted
        )
        assert component_name(B) in ab_proclet.hosted
        assert component_name(C) not in ab_proclet.hosted

        edges = {
            (e.caller.rsplit(".", 1)[-1], e.callee.rsplit(".", 1)[-1]): e
            for e in ab_proclet.call_graph.edges()
        }
        assert edges[("A", "B")].local_calls == 1
        assert edges[("A", "C")].remote_calls == 1

        # Measure the asymmetry the figure depicts.
        b_stub, c_stub = ab_proclet.get(B), ab_proclet.get(C)
        start = time.perf_counter()
        for i in range(200):
            await b_stub.fast_local(i)
        local_us = (time.perf_counter() - start) / 200 * 1e6
        start = time.perf_counter()
        for i in range(200):
            await c_stub.remote_work(i)
        remote_us = (time.perf_counter() - start) / 200 * 1e6

        await app.shutdown()
        return local_us, remote_us

    local_us, remote_us = benchmark.pedantic(
        lambda: asyncio.run(scenario()), rounds=1, iterations=1
    )
    print_table(
        "E4 (Figure 1): local vs remote method call, same component API",
        [
            {"call": "A -> B (co-located)", "mean_us": local_us},
            {"call": "A -> C (RPC, replicated)", "mean_us": remote_us},
            {"call": "remote/local", "mean_us": remote_us / local_us},
        ],
        ["call", "mean_us"],
    )
    assert remote_us > local_us * 3

"""Cross-proclet distributed tracing and the status report (§5.1, Fig. 3)."""

from __future__ import annotations

import asyncio

from repro.boutique import ALL_COMPONENTS, Address, CreditCard, Frontend
from repro.core.component import Component
from repro.core.config import AppConfig
from repro.core.registry import Registry
from repro.observability.tracing import (
    Tracer,
    assemble_tree,
    current_context,
    spans_from_wire,
    spans_to_wire,
)
from repro.runtime.deployers.multi import deploy_multiprocess
from repro.runtime.status import render_status

from tests.conftest import until

ADDRESS = Address("1 Main", "Springfield", "IL", "US", 62701)
CARD = CreditCard("4432-8015-6152-0454", 672, 2030, 1)


async def traced_boutique():
    app = await deploy_multiprocess(
        AppConfig(name="traced"), components=ALL_COMPONENTS, mode="inproc"
    )
    fe = app.get(Frontend)
    await fe.add_to_cart("trace-user", "OLJCESPC7Z", 1)
    await fe.checkout("trace-user", "USD", ADDRESS, "t@x.com", CARD)
    # Spans ship with each proclet's own heartbeat: wait until the
    # checkout's trace holds the spans these tests read.
    tracer = app.manager.tracer

    def checkout_trace_complete() -> bool:
        for span in tracer.spans():
            if span.name == "Checkout.place_order":
                names = {s.name for s in tracer.trace(span.trace_id)}
                if {"Payment.charge", "Email.send_order_confirmation"} <= names:
                    return True
        return False

    await until(checkout_trace_complete, 10.0, "the checkout's trace never completed")
    return app


class TestDistributedTraces:
    async def test_spans_cross_process_boundaries(self):
        app = await traced_boutique()
        spans = app.manager.tracer.spans()
        names = {s.name for s in spans}
        # The checkout fan-out appears as joined-up spans from many proclets.
        assert any("Checkout.place_order" in n for n in names)
        assert any("Payment.charge" in n for n in names)
        await app.shutdown()

    async def test_single_trace_covers_the_whole_checkout(self):
        app = await traced_boutique()
        tracer = app.manager.tracer
        # Find the trace containing the checkout; it must also contain the
        # payment span — i.e., the context propagated over at least two
        # real RPC hops (driver -> Frontend -> Checkout -> Payment).
        checkout_traces = {
            s.trace_id for s in tracer.spans() if "Checkout.place_order" in s.name
        }
        assert checkout_traces
        best = max(
            checkout_traces, key=lambda t: len(tracer.traces().get(t, []))
        )
        names_in_trace = {s.name for s in tracer.traces()[best]}
        assert any("Payment.charge" in n for n in names_in_trace)
        assert any("Email.send_order_confirmation" in n for n in names_in_trace)
        await app.shutdown()

    async def test_trace_tree_depth_reflects_nesting(self):
        app = await traced_boutique()
        tracer = app.manager.tracer
        checkout_spans = [s for s in tracer.spans() if "Checkout.place_order" in s.name]
        trace_id = checkout_spans[0].trace_id
        tree = tracer.trace_tree(trace_id)
        depths = {span.name: depth for depth, span in tree}
        server_payment = [
            d for n, d in depths.items() if n == "Payment.charge"
        ]
        server_checkout = [
            d for n, d in depths.items() if n == "Checkout.place_order"
        ]
        assert min(server_payment) > min(server_checkout)
        await app.shutdown()

    def test_span_wire_roundtrip(self):
        tracer = Tracer()
        with tracer.start_span("outer", component="X"):
            with tracer.start_span("inner"):
                pass
        spans = tracer.drain()
        assert spans_from_wire(spans_to_wire(spans)) == spans
        assert tracer.spans() == []  # drained

    def test_current_context_outside_span_is_zero(self):
        assert current_context() == (0, 0)

    def test_remote_parent_joins_trace(self):
        tracer = Tracer()
        with tracer.start_span("child", remote_parent=(123, 456)) as span:
            assert span.trace_id == 123
            assert span.parent_id == 456


class Head(Component):
    async def run(self, n: int) -> int: ...


class Middle(Component):
    async def run(self, n: int) -> int: ...


class Tail(Component):
    async def run(self, n: int) -> int: ...


class HeadImpl:
    async def init(self, ctx) -> None:
        self.next = ctx.get(Middle)

    async def run(self, n: int) -> int:
        return await self.next.run(n) + 1


class MiddleImpl:
    async def init(self, ctx) -> None:
        self.next = ctx.get(Tail)

    async def run(self, n: int) -> int:
        return await self.next.run(n) + 1


class TailImpl:
    async def run(self, n: int) -> int:
        return n


class TestHeadSampling:
    async def test_an_unsampled_caller_keeps_every_hop_unsampled(self):
        """At a tiny ``trace_rate`` each tracer admits a burst of 64 new
        traces and then nothing.  Past the driver's burst its calls are
        unsampled, and so must be every hop below them: a callee that took
        a token of its own would store a fragment rooted mid-chain."""
        registry = Registry()
        for iface, impl in ((Head, HeadImpl), (Middle, MiddleImpl), (Tail, TailImpl)):
            registry.register(iface, impl)
        app = await deploy_multiprocess(
            AppConfig(name="sampled", trace_rate=0.001), registry=registry, mode="inproc"
        )
        calls, hops = 100, 6  # client and server span per hop, three hops
        try:
            head = app.get(Head)
            for i in range(calls):
                assert await head.run(i) == i + 2
            store = app.manager.tracer
            for _ in range(50):  # spans ship with heartbeats
                if len(store.spans()) >= 64 * hops:
                    break
                await asyncio.sleep(0.1)
            await asyncio.sleep(1.5)  # a heartbeat more, for any stray fragment
            traces = store.traces()
        finally:
            await app.shutdown()
        roots = [assemble_tree(spans)[0][1] for spans in traces.values()]
        assert len(traces) == 64
        assert {(r.name, r.attributes.get("side")) for r in roots} == {("rpc Head.run", "client")}
        assert all(len(spans) == hops for spans in traces.values())


class TestStatusReport:
    async def test_render_status_covers_everything(self):
        app = await traced_boutique()
        report = render_status(app.manager)
        assert f"version {app.version}" in report
        assert "replicas:" in report
        assert "call graph" in report
        assert "Frontend" in report
        assert "traces (" in report
        assert "ms" in report
        await app.shutdown()

    async def test_render_status_empty_deployment(self, demo_registry):
        from repro.runtime.deployers.multi import MultiProcessApp

        build = demo_registry.freeze()
        app = MultiProcessApp(build, AppConfig(name="empty"))
        await app.start(eager=False)
        report = render_status(app.manager)
        assert "replicas: 0" in report
        await app.shutdown()

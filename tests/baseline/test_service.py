"""The microservices baseline: mesh, hosts, HTTP stubs, and parity."""

from __future__ import annotations

import pytest

from repro.baseline.service import ServiceMesh, deploy_baseline
from repro.core.errors import RemoteApplicationError, Unavailable

from tests.conftest import Adder, Flaky, Greeter, KVStore


class TestServiceMesh:
    def test_register_and_resolve(self):
        mesh = ServiceMesh()
        mesh.register("svc", "tcp://1:1")
        assert mesh.resolve("svc") == "tcp://1:1"

    def test_round_robin(self):
        mesh = ServiceMesh()
        mesh.register("svc", "tcp://1:1")
        mesh.register("svc", "tcp://1:2")
        picks = {mesh.resolve("svc") for _ in range(10)}
        assert picks == {"tcp://1:1", "tcp://1:2"}

    def test_unknown_service_unavailable(self):
        with pytest.raises(Unavailable):
            ServiceMesh().resolve("ghost")

    def test_deregister(self):
        mesh = ServiceMesh()
        mesh.register("svc", "tcp://1:1")
        mesh.deregister("svc", "tcp://1:1")
        with pytest.raises(Unavailable):
            mesh.resolve("svc")


class TestBaselineApp:
    async def test_microservice_call(self, demo_registry):
        app = await deploy_baseline(registry=demo_registry)
        assert await app.get(Adder).add(2, 2) == 4
        await app.shutdown()

    async def test_cross_service_dependency_via_http(self, demo_registry):
        app = await deploy_baseline(registry=demo_registry)
        assert await app.get(Greeter).greet("Mia") == "Hello, Mia! (4)"
        await app.shutdown()

    async def test_one_host_per_component(self, demo_registry):
        app = await deploy_baseline(registry=demo_registry)
        assert len(app.hosts) == 4
        assert len(app.mesh.services()) == 4
        await app.shutdown()

    async def test_errors_cross_http_with_type(self, demo_registry):
        app = await deploy_baseline(registry=demo_registry)
        kv = app.get(KVStore)
        await kv.put("k", "v")  # routed annotation is ignored by baseline: fine
        from repro.core.errors import RPCError

        with pytest.raises((RemoteApplicationError, RPCError, Unavailable)):
            await app.get(Flaky).work(50)
        await app.shutdown()

    async def test_json_codec_flavor(self, demo_registry):
        app = await deploy_baseline(registry=demo_registry, codec_name="json")
        assert await app.get(Adder).add_all([1, 2, 3]) == 6
        await app.shutdown()

    async def test_call_graph_records_http_calls(self, demo_registry):
        app = await deploy_baseline(registry=demo_registry)
        await app.get(Adder).add(1, 1)
        (edge,) = app.call_graph.edges()
        assert edge.remote_calls == 1
        assert edge.bytes_sent > 0
        await app.shutdown()

    async def test_call_graph_records_host_to_host_calls(self):
        from repro.boutique import ALL_COMPONENTS, Frontend

        app = await deploy_baseline(components=ALL_COMPONENTS)
        await app.get(Frontend).view_cart("graph-user", "USD")
        edges = {(e.caller, e.callee, e.method): e for e in app.call_graph.edges()}
        await app.shutdown()
        for caller, callee, method in [
            ("Frontend", "Cart", "get_cart"),
            ("Cart", "CartStore", "get"),
        ]:
            (edge,) = [
                e
                for (c, s, m), e in edges.items()
                if c.endswith("." + caller) and s.endswith("." + callee) and m == method
            ]
            assert edge.calls == 1
            assert edge.bytes_sent > 0


class TestParityWithWeaver:
    """The same business logic must produce identical results in both
    worlds — the measured differences are deployment-model only."""

    async def test_boutique_order_identical(self):

        from repro.boutique import ALL_COMPONENTS, Address, CreditCard, Frontend
        from repro.core.app import init

        address = Address("1 Main", "Springfield", "IL", "US", 62701)
        card = CreditCard("4432-8015-6152-0454", 672, 2030, 1)

        async def order_with(app):
            fe = app.get(Frontend)
            await fe.add_to_cart("parity-user", "OLJCESPC7Z", 2)
            order = await fe.checkout("parity-user", "EUR", address, "p@x.com", card)
            await app.shutdown()
            return [(oi.item.product_id, oi.item.quantity, oi.cost) for oi in order.items], order.shipping_cost

        weaver_app = await init(components=ALL_COMPONENTS)
        weaver_result = await order_with(weaver_app)

        baseline_app = await deploy_baseline(components=ALL_COMPONENTS)
        baseline_result = await order_with(baseline_app)

        assert weaver_result == baseline_result
